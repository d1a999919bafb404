"""Every imported name is read somewhere in its module, and so is every
private top-level function, class and constant of the package (no linter
runs).  Every public one is read somewhere in the package, the tests or the
benchmark, outside its own definition.  Every parameter of a top-level
function of the package is read in its body, and every parameter of a
public ``CalculusInstance`` method by some definition of that method in
``params``.  Every ``__slots__`` entry and ``NamedTuple`` field of a class
of the package is read as an attribute somewhere in the package, the tests
or the benchmark."""

import ast
import collections
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "psiwb").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
READERS = sorted([*MODULES, *(ROOT / "bench").glob("*.py")])


def _read(tree):
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _used(tree):
    """The names ``tree`` reads: loaded names, attributes and imported
    names."""
    used = _read(tree)
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            used.update(al.name for al in n.names)
    return used


def _top_level(tree):
    """(line, name, statement) for each top-level function, class or
    constant that ``tree`` defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name, node
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    yield node.lineno, t.id, node


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
    read = _read(tree)
    return sorted((line, name) for line, name, _ in _top_level(tree)
                  if name.startswith("_") and not name.endswith("__")
                  and name not in read)


def unread_publics(sources: dict, package) -> list:
    """(module, line, name) for each public top-level function, class or
    constant of a ``package`` module that no top-level statement of
    ``sources`` (module name -> source) reads, apart from the statement that
    defines it."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    readers = collections.Counter(name for tree in trees.values()
                                  for node in tree.body for name in _used(node))
    return sorted((mod, line, name) for mod in package
                  for line, name, node in _top_level(trees[mod])
                  if not name.startswith("_") and readers[name] == (name in _used(node)))


def unread_parameters(source: str):
    """(line, function, parameter) for each parameter of a top-level function
    that the function never reads."""
    tree = ast.parse(source)
    unread = []
    for f in tree.body:
        if isinstance(f, ast.FunctionDef):
            a = f.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                      *filter(None, (a.vararg, a.kwarg))]
            read = _read(f)
            unread += [(f.lineno, f.name, p.arg) for p in params if p.arg not in read]
    return unread


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


def _fields(cls):
    """The ``__slots__`` entries of the class ``cls``, and its fields when it
    is a ``NamedTuple``."""
    named = any(getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple" for b in cls.bases)
    for node in cls.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__slots__"
                                                for t in node.targets):
            slots = ast.literal_eval(node.value)
            yield from (slots,) if isinstance(slots, str) else slots
        elif named and isinstance(node, ast.AnnAssign):
            yield node.target.id


def unread_fields(sources: dict, package) -> list:
    """(module, class, field) for each ``__slots__`` entry or ``NamedTuple``
    field of a class of a ``package`` module that no module of ``sources``
    (module name -> source) reads as an attribute."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted((mod, cls.name, field) for mod in package
                  for cls in ast.walk(trees[mod]) if isinstance(cls, ast.ClassDef)
                  for field in _fields(cls) if field not in read)


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


def test_unread_publics_are_found():
    # f only calls itself, K is read through an attribute, G through an
    # import, H by the package itself; D is read nowhere
    pkg = ("A = 1\nD = 2\nG = 3\nH = 4\n_P = H\n"
           "def f(): return f()\n\nclass K: pass\n")
    test = "import pkg\nfrom pkg import G\nprint(pkg.K, A)\n"
    assert unread_publics({"pkg": pkg, "test": test}, ["pkg"]) == [
        ("pkg", 2, "D"), ("pkg", 6, "f")]


def test_no_unread_publics():
    sources = {p.relative_to(ROOT).as_posix(): p.read_text() for p in READERS}
    package = [p.relative_to(ROOT).as_posix() for p in PACKAGE]
    assert unread_publics(sources, package) == []


def test_unread_fields_are_found():
    # S's y is only stored, T's v is read nowhere, U is neither slotted nor
    # a NamedTuple; x is read in the package, u in the test
    pkg = ("class S:\n    __slots__ = ('x', 'y')\n"
           "    def __init__(self): self.x = self.y = 0\n"
           "    def get(self): return self.x\n"
           "class T(typing.NamedTuple):\n    u: int\n    v: int\n"
           "class U:\n    w: int\n")
    test = "print(T(1, 2).u)\n"
    assert unread_fields({"pkg": pkg, "test": test}, ["pkg"]) == [
        ("pkg", "S", "y"), ("pkg", "T", "v")]


def test_no_unread_fields():
    sources = {p.relative_to(ROOT).as_posix(): p.read_text() for p in READERS}
    package = [p.relative_to(ROOT).as_posix() for p in PACKAGE]
    assert unread_fields(sources, package) == []


def test_unread_parameters_are_found():
    # g reads y only in a nested function, h reads *rest but not **opts;
    # methods are not top-level functions
    src = ("def f(x, y=0, *, z): return x + z\n"
           "def g(y):\n    def inner(): return y\n    return inner\n"
           "def h(*rest, **opts): return rest\n"
           "class C:\n    def m(self, u): pass\n")
    assert unread_parameters(src) == [(1, "f", "y"), (5, "h", "opts")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []


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
