"""Every top-level import of the package and of the tests is used, every
top-level definition of the package is referenced, no function of the
package imports from the package, and no function of the package has a
parameter whose name starts with an underscore.

A stand-in for a lint step: each module is parsed with ast, and a name bound
by a module-level import must appear as a name somewhere in that module (or
in its __all__).  ``from __future__`` imports and the re-exports of the
package's __init__.py are exempt.  A function, class or constant defined at
the top of a package module must appear as a name or an attribute somewhere
in the package or the tests, outside its own definition and __all__."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "anisolap").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
FILES = sorted(p for p in PACKAGE + TESTS if p.name != "__init__.py")


def is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if is_all(node):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    src = "from __future__ import annotations\nimport os\nimport math as m\nprint(m.pi)\n"
    assert unused_imports(src) == [(2, "os")]


def references(node) -> Counter:
    """Names read and attribute names used anywhere under node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if (isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store))
        or isinstance(n, ast.Attribute))


def definitions(tree) -> dict:
    """Top-level functions, classes and assigned constants, by name."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and not is_all(node):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return out


def unreferenced_definitions(modules: dict, others=()) -> list:
    """(module, name) of each definition in modules (name -> source) that no
    source in modules or others references outside its own definition."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    total = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        for node in tree.body:
            if not is_all(node):
                total.update(references(node))
    return sorted(
        (module, name)
        for module, tree in trees.items()
        for name, node in definitions(tree).items()
        if total[name] == references(node)[name])


def test_every_package_definition_is_referenced():
    modules = {p.stem: p.read_text() for p in PACKAGE if p.name != "__init__.py"}
    others = [p.read_text() for p in [ROOT / "src" / "anisolap" / "__init__.py", *TESTS]]
    assert unreferenced_definitions(modules, others) == []


def test_checker_flags_an_unreferenced_definition():
    mod = ("__all__ = ['used', 'orphan']\nLIMIT = 3\n"
           "def used(n):\n    return used(n - 1) if n else LIMIT\n"
           "def orphan(n):\n    return orphan(n - 1)\n")
    assert unreferenced_definitions({"m": mod}, ["from m import used\nused(2)\n"]) == [
        ("m", "orphan")]


def package_imports_in_functions(source: str) -> list:
    """(line, function) of each import from the package inside a function
    body, with the outermost function: the package has no import cycle to
    break, so its modules state their dependencies at the top.  Imports of
    other packages may stay lazy (scipy.linalg.expm, for its import time)."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.ImportFrom):
                    ours = sub.level > 0 or (sub.module or "").split(".")[0] == "anisolap"
                elif isinstance(sub, ast.Import):
                    ours = any(a.name.split(".")[0] == "anisolap" for a in sub.names)
                else:
                    ours = False
                if ours:
                    found.setdefault(sub.lineno, node.name)
    return sorted(found.items())


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_package_imports_in_functions(path):
    assert package_imports_in_functions(path.read_text()) == []


def test_checker_flags_a_package_import_in_a_function():
    src = ("from . import measures\nimport anisolap.symbols\n"
           "def f():\n    from .sampler import jump_cf\n    from scipy.linalg import expm\n"
           "    def g():\n        import anisolap.evolve\n    return jump_cf, expm, g\n"
           "class C:\n    def m(self):\n        from anisolap import cli\n        return cli\n")
    assert package_imports_in_functions(src) == [(4, "f"), (7, "f"), (11, "m")]


def private_parameters(source: str) -> list:
    """(line, function, parameter) of each parameter whose name starts with
    an underscore: a private keyword is a knob that bypasses the function's
    own checks for some callers."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            out += [(node.lineno, getattr(node, "name", "<lambda>"), p.arg)
                    for p in params if p is not None and p.arg.startswith("_")]
    return sorted(out)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_parameters(path):
    assert private_parameters(path.read_text()) == []


def test_checker_flags_a_private_parameter():
    src = ("def f(x, *, _fast=False):\n    return x\n"
           "g = lambda _y: _y\n"
           "def h(self, __p, *_rest, **kw):\n    return kw\n")
    assert private_parameters(src) == [(1, "f", "_fast"), (3, "<lambda>", "_y"),
                                       (4, "h", "__p"), (4, "h", "_rest")]
