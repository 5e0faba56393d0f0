"""Every top-level import of the package and of the tests is used, every
top-level definition of the package is referenced, no function of the
package imports from the package, no function of the package has a
parameter whose name starts with an underscore, every field of an input
class of the package is read somewhere outside its own __post_init__, the
package neither imports scipy nor loads it at start-up, and its public
keyword defaults are the listed ones.

A stand-in for a lint step: each module is parsed with ast, and a name bound
by a module-level import must appear as a name somewhere in that module (or
in its __all__).  ``from __future__`` imports and the re-exports of the
package's __init__.py are exempt.  A function, class or constant defined at
the top of a package module must appear as a name or an attribute somewhere
in the package or the tests, outside its own definition and __all__."""

import ast
import os
import subprocess
import sys
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
    other packages may stay lazy."""
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


def scipy_imports(source: str) -> list:
    """(line, module) of each import of scipy anywhere in the source: the
    package computes its special functions in anisolap._special, so that
    neither importing it nor a short CLI verb pays for scipy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0] == "scipy"]
    return sorted(found)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_scipy_imports(path):
    assert scipy_imports(path.read_text()) == []


def test_checker_flags_a_scipy_import():
    src = ("import numpy as np\nimport scipy.special as sc\nfrom scipy import linalg\n"
           "from . import scipy_like\nimport scipyx\n"
           "def f():\n    from scipy.linalg import expm\n    return expm\n")
    assert scipy_imports(src) == [(2, "scipy.special"), (3, "scipy"), (7, "scipy.linalg")]


CLI_VERSION = ("import runpy\nsys.argv = ['anisolap', '--version']\ntry:\n"
               "    runpy.run_module('anisolap.cli', run_name='__main__')\n"
               "except SystemExit:\n    pass\n")


@pytest.mark.parametrize("run", ["import anisolap\n", CLI_VERSION], ids=["import", "cli_version"])
def test_start_up_loads_no_scipy(run):
    code = ("import sys\n" + run
            + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.splitlines()[-1] == "[]"


# input classes of the package, whose fields a caller or a config sets; the
# report classes are left out, because the CLI writes their fields whole
CONFIG_CLASSES = ("GeneratorSymbol", "JumpSpec", "WaitingLaw", "StateModel", "StabilityProfile",
                  "SpectralGrid", "AngularBand", "DirectionalMeasure", "ScalarField")


def unread_fields(sources, classes) -> list:
    """(class, field) of each annotated field of the named classes that no
    source reads as an attribute outside that class's own __post_init__: a
    field nothing reads is a setting that does nothing."""
    trees = [ast.parse(src) for src in sources]
    reads = Counter(n.attr for tree in trees for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    out = []
    for tree in trees:
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in classes):
                continue
            own = Counter()
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
                    own += Counter(n.attr for n in ast.walk(node)
                                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
            out += [(cls.name, node.target.id) for node in cls.body
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                    and reads[node.target.id] == own[node.target.id]]
    return sorted(out)


def test_every_config_field_is_read():
    sources = [p.read_text() for p in PACKAGE]
    defined = {n.name for src in sources for n in ast.parse(src).body
               if isinstance(n, ast.ClassDef)}
    assert set(CONFIG_CLASSES) <= defined
    assert unread_fields(sources, CONFIG_CLASSES) == []


def test_checker_flags_an_unread_field():
    # rho is read only in __post_init__ and written elsewhere; Report is no input class
    mod = ("class Spec:\n    U: object\n    rho: float = 1.0\n    tol: float = 0.1\n"
           "    def __post_init__(self):\n        if self.rho < 0 or self.tol < 0:\n"
           "            raise ValueError\n"
           "class Report:\n    rows: int\n"
           "def use(spec):\n    spec.rho = 2.0\n    return spec.U(spec.tol)\n")
    assert unread_fields([mod], ("Spec",)) == [("Spec", "rho")]


# (module, function, parameter) of every parameter with a default of a public
# function or method of the package: each is an option that a caller may
# leave out, so adding or removing one edits this list in the same change
PUBLIC_DEFAULTS = [
    ("cli", "main", "argv"),
    ("evolve", "delta_density", "center"),
    ("evolve", "gaussian_density", "center"),
    ("evolve", "evolve_spectral", "check_boundary"),
    ("measures", "make_measure", "atoms"),
    ("measures", "make_measure", "bands"),
    ("measures", "sphere_integrate", "tol"),
    ("multistate", "simulate_multistate_ctrw", "functional"),
    ("multistate", "multistate_endpoints", "functional"),
    ("realspace", "gaussian_bump", "center"),
    ("realspace", "gaussian_bump", "width"),
    ("realspace", "gaussian_bump", "amplitude"),
    ("realspace", "apply_caseI", "refinement"),
    ("realspace", "apply_caseI", "tol"),
    ("realspace", "apply_caseII", "refinement"),
    ("realspace", "apply_caseII", "tol"),
    ("realspace", "apply_general", "tol"),
    ("realspace", "apply_gaussian_nonlocal", "sigma"),
    ("realspace", "apply_gaussian_nonlocal", "measure"),
    ("realspace", "apply_gaussian_nonlocal", "sigmas"),
    ("sampler", "sample_direction", "size"),
    ("sampler", "sample_jump", "size"),
    ("sampler", "sample_one_sided_stable", "size"),
    ("sampler", "sample_inverse_subordinator", "size"),
    ("symbols", "tempered_symbol", "method"),
    ("symbols", "gaussian_symbol", "sigma"),
    ("symbols", "gaussian_symbol", "measure"),
    ("symbols", "gaussian_symbol", "sigmas"),
    ("symbols", "gaussian_symbol", "dimension"),
]


def public_defaults(module: str, source: str) -> list:
    """(module, function, parameter) of each parameter with a default of the
    public functions and the methods of the public classes of source, in
    source order; a method is named Class.method."""
    out = []

    def visit(body, prefix):
        for node in body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = [*a.posonlyargs, *a.args]
                params = positional[len(positional) - len(a.defaults):] + [
                    p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                out.extend((module, prefix + node.name, p.arg) for p in params)

    visit(ast.parse(source).body, "")
    return out


def test_public_keyword_defaults_are_listed():
    found = [d for p in PACKAGE for d in public_defaults(p.stem, p.read_text())]
    assert found == PUBLIC_DEFAULTS


def test_checker_finds_each_public_default():
    src = ("def f(a, b=1, *, c, d=2):\n    pass\n"
           "def _g(x=1):\n    pass\n"
           "class C:\n    def m(self, y=0):\n        pass\n    def _n(self, z=0):\n        pass\n"
           "class _D:\n    def m(self, w=0):\n        pass\n")
    assert public_defaults("mod", src) == [("mod", "f", "b"), ("mod", "f", "d"),
                                           ("mod", "C.m", "y")]
