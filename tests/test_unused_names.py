"""Dead names in the package source, found with the stdlib `ast` module.

Two checks over every module of `src/symalg`:

* a function-local name bound by a plain assignment (`x = ...`,
  `x: T = ...`, `x += ...`), a `with ... as x` or an `except ... as x` and
  never read anywhere in the function, its nested functions included;
  tuple unpacking and loop targets are exempt, as are names starting
  with `_`;
* an imported name never read in its module.  The package `__init__`
  re-exports its module-level imports, so those are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "symalg"
MODULES = sorted(SRC.glob("*.py"))
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


def unused_imports(tree, reexports=False):
    read = _loads(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if reexports and node in tree.body:
            continue
        for alias in node.names:
            # `import a.b` binds `a`
            name = (alias.asname or alias.name).split(".")[0]
            if name != "*" and name not in read:
                out.append(f"line {node.lineno}: import {name!r} is never read")
    return sorted(set(out))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_locals_or_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = unused_locals(tree) + unused_imports(tree, path.name == "__init__.py")
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
