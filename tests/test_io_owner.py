"""Only ``harness/formats.py`` reads and writes files.

The file rules in README (UTF-8 reads, errors that name the file, standard
CSV, JSON without NaN or infinity) hold for every command because one
module owns all file I/O: no other module of ``src/annobias`` imports
``json`` or ``csv``, or calls ``open``, ``read_text`` or ``write_text``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "annobias"
OWNER = "harness/formats.py"
_IO_MODULES = {"json", "csv"}
_IO_CALLS = {"open", "read_text", "write_text"}


def file_io(source: str) -> list:
    """``(line, name)`` for each import of ``json`` or ``csv`` and each call
    of ``open``, ``read_text`` or ``write_text`` in ``source``, in order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
            found += [(node.lineno, n) for n in names if n in _IO_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in _IO_MODULES:
                found.append((node.lineno, node.module))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name in _IO_CALLS:
                found.append((node.lineno, name))
    return sorted(found)


def test_the_scan_flags_file_io():
    source = (
        "import json, os\n"
        "from csv import reader\n"
        "from .formats import load_dataset\n"
        "with open(p) as f:\n"
        "    Path(p).write_text(f.read())\n"
        "text = p.read_text()\n"
        "os.path.isdir(p)\n"
    )
    assert file_io(source) == [
        (1, "json"),
        (2, "csv"),
        (4, "open"),
        (5, "write_text"),
        (6, "read_text"),
    ]


@pytest.mark.parametrize(
    "module",
    sorted(
        p.relative_to(SRC).as_posix()
        for p in SRC.rglob("*.py")
        if p.relative_to(SRC).as_posix() != OWNER
    ),
)
def test_only_the_formats_module_does_file_io(module):
    assert file_io((SRC / module).read_text(encoding="utf-8")) == []
