"""Every imported name is read somewhere in its module (no linter runs)."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "psiwb").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str):
    """(line, name) for each name bound by an import and never read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, al.asname or al.name.split(".")[0])
                         for al in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, al.asname or al.name) for al in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for line, name in imported if name not in read)


def test_unused_imports_are_found():
    src = "import os\nimport a.b\nfrom x import y, z as w\nprint(os, w)\n"
    assert unused_imports(src) == [(2, "a"), (3, "y")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
