"""Dead names in the package source, found with the stdlib `ast` module.

Three checks over the modules of `src/symalg`:

* a function-local name bound by a plain assignment (`x = ...`,
  `x: T = ...`, `x += ...`), a `with ... as x` or an `except ... as x` and
  never read anywhere in the function, its nested functions included;
  tuple unpacking and loop targets are exempt, as are names starting
  with `_`;
* an imported name never read in its module;
* a private helper no module of the package reads: a module-level
  function, or a method other than a dunder, whose name starts with `_`
  and appears nowhere in the package as a name, an attribute or an
  imported name, except inside the helper itself.

One check over the whole repository: a public function or method of the
package that no file under `src`, `tests`, `demos` or `bench` reads in
the same sense.  `reports` is exempt, as the CLI looks its functions up
by name.  An attribute of a name imported from a module outside
`symalg` is not a read: `shutil.copy` does not read `Poly.copy`.

And one check that keeps each module's private names its own: no module
of the package imports a non-dunder `_name` from another module of the
package, or reads an attribute `obj._name` with `obj` other than `self`
or `cls` when it defines no `_name` itself (as a function, a class, a
name or an attribute it assigns).  A module bound by `import m` with `m`
outside `symalg` is not a package module: `os._exit` is no such read.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "symalg"
MODULES = sorted(SRC.glob("*.py"))
READERS = [p for d in ("src/symalg", "tests", "demos", "bench")
           for p in sorted((ROOT / d).glob("*.py"))]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _loads(node):
    """Every name read in the subtree of `node`."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def _own_nodes(func):
    """The nodes of a function's body outside its nested functions and
    classes."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))


def _plain_bindings(func):
    """(name, line) of the locals `func` binds by plain assignment."""
    declared = set()
    for node in _own_nodes(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        targets = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            targets = [node.optional_vars]
        elif isinstance(node, ast.ExceptHandler) and node.name:
            yield node.name, node.lineno
        for t in targets:
            if isinstance(t, ast.Name) and t.id not in declared:
                yield t.id, t.lineno


def unused_locals(tree):
    out = []
    for func in ast.walk(tree):
        if not isinstance(func, FUNCTIONS):
            continue
        read = _loads(func)
        for name, line in _plain_bindings(func):
            if name not in read and not name.startswith("_"):
                out.append((line, f"line {line}: local {name!r} is never read"))
    return [msg for _, msg in sorted(out)]


def unused_imports(tree):
    read = _loads(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            # `import a.b` binds `a`
            name = (alias.asname or alias.name).split(".")[0]
            if name != "*" and name not in read:
                out.append(f"line {node.lineno}: import {name!r} is never read")
    return sorted(set(out))


def _foreign_modules(tree):
    """The names `tree` binds to a module outside `symalg` by `import`."""
    return {(a.asname or a.name).split(".")[0]
            for n in ast.walk(tree) if isinstance(n, ast.Import)
            for a in n.names if a.name.split(".")[0] != "symalg"}


def _foreign(tree):
    """The names `tree` binds by importing a module outside `symalg`, or a
    name from one."""
    out = _foreign_modules(tree)
    for n in ast.walk(tree):
        if (isinstance(n, ast.ImportFrom) and not n.level
                and n.module.split(".")[0] != "symalg"):
            out.update(a.asname or a.name for a in n.names)
    return out


def _reads(node, foreign=frozenset()):
    """Every name read in the subtree of `node` as a name, an attribute or
    an imported name, with its count; an attribute of a name in `foreign`
    does not count."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out[n.id] += 1
        elif (isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store)
              and not (isinstance(n.value, ast.Name) and n.value.id in foreign)):
            out[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def _defs(tree, private=True):
    """(kind, name, def node) of the module-level functions and the
    non-dunder methods of a module whose names start with `_`, or with
    private=False do not."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def wanted(node):
        return (isinstance(node, defs) and node.name.startswith("_") == private
                and not node.name.endswith("__"))

    for node in tree.body:
        if wanted(node):
            yield "function", node.name, node
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if wanted(node):
                    yield "method", f"{cls.name}.{node.name}", node


def unread_helpers(trees, readers=None, private=True):
    """The private helpers (or with private=False the public functions and
    methods) of the modules `trees` (name -> tree) that no tree of
    `readers` (default: `trees`) reads outside the def's own body."""
    read = Counter()
    for tree in (trees if readers is None else readers).values():
        read.update(_reads(tree, _foreign(tree)))
    out = []
    for module, tree in sorted(trees.items()):
        for kind, name, node in _defs(tree, private):
            short = node.name
            if read[short] == _reads(node, _foreign(tree))[short]:
                out.append(f"{module}: line {node.lineno}: {kind} {name!r} is never read")
    return out


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _defines(tree):
    """The names a module defines: functions, classes, and the names and
    attributes it assigns."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(n.name)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
            out.add(n.attr)
    return out


def foreign_private_reads(tree):
    """The private names of other package modules that `tree` imports or
    reads as an attribute of anything but `self`, `cls` or a module
    imported from outside the package."""
    own = _defines(tree)
    exempt = {"self", "cls"} | _foreign_modules(tree)
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (n.level or n.module.split(".")[0] == "symalg"):
            out += [(n.lineno, f"line {n.lineno}: imports private {a.name!r}")
                    for a in n.names if _private(a.name)]
        elif (isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store)
              and _private(n.attr) and n.attr not in own
              and not (isinstance(n.value, ast.Name) and n.value.id in exempt)):
            out.append((n.lineno, f"line {n.lineno}: reads private {n.attr!r}"))
    return [msg for _, msg in sorted(out)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_locals_or_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = unused_locals(tree) + unused_imports(tree)
    assert not found, f"{path.name}: " + "; ".join(found)


def test_the_checks_see_dead_names():
    tree = ast.parse(
        "import os\n"
        "from math import gcd, isqrt\n"
        "def f(a):\n"
        "    x = 1\n"
        "    y: int = 2\n"
        "    z = 3\n"
        "    u, v = a\n"
        "    for i in a:\n"
        "        pass\n"
        "    def g():\n"
        "        return z\n"
        "    return g, gcd\n"
    )
    assert unused_locals(tree) == [
        "line 4: local 'x' is never read",
        "line 5: local 'y' is never read",
    ]
    assert unused_imports(tree) == [
        "line 1: import 'os' is never read",
        "line 2: import 'isqrt' is never read",
    ]


def test_no_unread_private_helpers():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    assert sum(1 for t in trees.values() for _ in _defs(t)) > 0
    found = unread_helpers(trees)
    assert not found, "; ".join(found)


def test_the_helper_check_sees_dead_helpers():
    a = ast.parse(
        "from .b import _imported\n"
        "def _used(): return _imported()\n"
        "def _recursive(n): return _recursive(n - 1)\n"
        "def _dead(): pass\n"
        "class C:\n"
        "    def __len__(self): return 0\n"
        "    def _m(self): return self._m()\n"
        "    def _n(self): return _used()\n"
        "    def public(self): return self._n()\n"
    )
    b = ast.parse("def _imported(): pass\n")
    assert unread_helpers({"a.py": a, "b.py": b}) == [
        "a.py: line 3: function '_recursive' is never read",
        "a.py: line 4: function '_dead' is never read",
        "a.py: line 7: method 'C._m' is never read",
    ]


def test_no_unread_public_functions():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in MODULES if p.name != "reports.py"}
    readers = {str(p.relative_to(ROOT)): ast.parse(p.read_text(), filename=str(p))
               for p in READERS}
    assert sum(1 for t in trees.values() for _ in _defs(t, False)) > 0
    found = unread_helpers(trees, readers, private=False)
    assert not found, "; ".join(found)


def test_the_public_check_sees_dead_functions():
    a = ast.parse(
        "def used(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def dead(): pass\n"
        "def _private(): pass\n"
        "class C:\n"
        "    def __len__(self): return 0\n"
        "    def called(self): return self.called\n"
        "    def method(self): return used()\n"
        "    def copy(self): pass\n"
    )
    caller = ast.parse("from a import C\nC().method()\nC().called()\n")
    # `shutil.copy` and `p.copy` are attributes of modules outside the package
    stdlib = ast.parse("import shutil\nimport os.path as p\nshutil.copy(p.copy)\n")
    readers = {"a.py": a, "t.py": caller, "s.py": stdlib}
    assert unread_helpers({"a.py": a}, readers, private=False) == [
        "a.py: line 2: function 'recursive' is never read",
        "a.py: line 3: function 'dead' is never read",
        "a.py: line 9: method 'C.copy' is never read",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_foreign_private_reads(path):
    found = foreign_private_reads(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name}: " + "; ".join(found)


def test_the_private_check_sees_foreign_reads():
    tree = ast.parse(
        "from .engine import _add_scaled, LieModel\n"
        "from symalg.assoc import _hidden\n"
        "from . import cache\n"
        "import os, os.path as osp\n"
        "import symalg.engine as eng\n"
        "class C:\n"
        "    def __init__(self, model):\n"
        "        self._own = model\n"
        "        self.model = model\n"
        "    def f(self, other, cls):\n"
        "        other._own, cls._cls_attr, self._x, self.__class__\n"
        "        os._exit(osp._get_sep(''))\n"
        "        cache._tmp_name, eng._lie_parts\n"
        "        return self.model._bracket(1), other._normal_index\n"
    )
    # a stdlib module's private attribute is its own business; a package
    # module's and an instance's are not
    assert foreign_private_reads(tree) == [
        "line 1: imports private '_add_scaled'",
        "line 2: imports private '_hidden'",
        "line 13: reads private '_lie_parts'",
        "line 13: reads private '_tmp_name'",
        "line 14: reads private '_bracket'",
        "line 14: reads private '_normal_index'",
    ]
