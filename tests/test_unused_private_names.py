"""Every private module-level name of ``src/annobias`` is read somewhere in it.

A module-level function, class or constant whose name starts with one
underscore must be read by some module of the package: as a name, as an
attribute (``formats._join``) or through an import.  A deletion that
orphans a helper fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "annobias"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree: ast.Module) -> list:
    """The private functions, classes and constants ``tree`` binds at module
    level, in source order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [name for name in names if _is_private(name)]


def read_names(tree: ast.Module) -> set:
    """Names ``tree`` reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unused_private_names(sources: dict) -> list:
    """``module:name`` for each private module-level name in ``sources``
    (module -> source text) that no module reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in private_definitions(tree)
        if name not in read
    ]


def test_the_scan_flags_an_unread_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_OLD = 4\ndef _helper():\n    return _LIMIT\n"
        "class _Gone:\n    pass\n_seen = _unseen = 0\n",
        "b.py": "from .a import _helper\nimport a\nprint(a._seen)\n",
    }
    assert unused_private_names(sources) == ["a.py:_OLD", "a.py:_Gone", "a.py:_unseen"]


def test_every_private_module_level_name_is_read():
    sources = {
        p.relative_to(SRC).as_posix(): p.read_text(encoding="utf-8")
        for p in sorted(SRC.rglob("*.py"))
    }
    assert unused_private_names(sources) == []
