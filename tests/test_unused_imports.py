"""Every module-level import of ``src/annobias`` is used or re-exported.

A name bound by a module-level import must appear in the module's code or
in its ``__all__``; a deletion that leaves an import behind fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "annobias"


def unused_imports(source: str) -> list:
    """Names bound by the module-level imports of ``source`` that the module
    neither reads nor lists in ``__all__``, in source order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    bound.append(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {
        value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for value in ast.walk(node.value)
        if isinstance(value, ast.Constant)
    }
    return [name for name in bound if name not in used]


def test_the_scan_flags_an_unused_import():
    source = (
        "import os\nimport numpy as np\nfrom .x import a, b\n"
        "__all__ = ['b']\nprint(np.pi)\n"
    )
    assert unused_imports(source) == ["os", "a"]


@pytest.mark.parametrize(
    "module", sorted(p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py"))
)
def test_module_has_no_unused_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
