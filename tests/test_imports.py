"""Every imported name is read somewhere in its module, and so is every
private top-level function, class and constant of the package (no linter
runs).  Every parameter of a public ``CalculusInstance`` method is read by
some definition of that method in ``params``."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "psiwb").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def _read(tree):
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


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
    read = _read(tree)
    return sorted((line, name) for line, name in imported if name not in read)


def unread_privates(source: str):
    """(line, name) for each private top-level function, class or constant
    that its module never reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, ast.Assign):
            defined += [(node.lineno, t.id) for t in node.targets
                        if isinstance(t, ast.Name)]
    read = _read(tree)
    return sorted((line, name) for line, name in defined
                  if name.startswith("_") and not name.endswith("__")
                  and name not in read)


def unread_interface_parameters(source: str, base: str = "CalculusInstance"):
    """(method, parameter) for each parameter of a public method of the class
    ``base`` that no definition of that method in ``source`` reads.  A
    parameter is matched by position, and a class-level alias such as
    ``g = f`` counts as the function it names."""
    tree = ast.parse(source)
    defs = {}  # method name -> every definition of it, aliases resolved
    signature = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        funcs = {f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)}
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(node)
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
                  and node.value.id in funcs):
                for t in node.targets:
                    defs.setdefault(t.id, []).append(funcs[node.value.id])
        if cls.name == base:
            signature = {name: [a.arg for a in f.args.args[1:]]
                         for name, f in funcs.items() if not name.startswith("_")}
    unread = []
    for name, params in signature.items():
        for i, param in enumerate(params):
            if not any(i + 1 < len(f.args.args) and f.args.args[i + 1].arg in _read(f)
                       for f in defs[name]):
                unread.append((name, param))
    return sorted(unread)


def test_unused_imports_are_found():
    src = "import os\nimport a.b\nfrom x import y, z as w\nprint(os, w)\n"
    assert unused_imports(src) == [(2, "a"), (3, "y")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unread_privates_are_found():
    # a function that only calls itself counts as read
    src = ("_A = 1\n_B = 2\nC = 3\n__all__ = ()\n"
           "def _f(): return _A\n\ndef _g(): return _g()\n\nclass _K: pass\n")
    assert unread_privates(src) == [(2, "_B"), (5, "_f"), (9, "_K")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unread_privates(path):
    assert unread_privates(path.read_text()) == []


def test_unread_interface_parameters_are_found():
    # g's y is read only through the alias h = g; f's y by no definition
    src = ("class CalculusInstance:\n"
           "    def f(self, x, y): raise NotImplementedError\n"
           "    def g(self, x, y): raise NotImplementedError\n"
           "    def _p(self, z): pass\n"
           "class A(CalculusInstance):\n"
           "    def f(self, u, v): return u\n"
           "    def k(self, x, y): return x + y\n"
           "    g = k\n")
    assert unread_interface_parameters(src) == [("f", "y")]


def test_no_unread_interface_parameters():
    source = (ROOT / "src" / "psiwb" / "params.py").read_text()
    assert unread_interface_parameters(source) == []
