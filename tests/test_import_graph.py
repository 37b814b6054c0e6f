"""The import contract that keeps the verification routes independent.

The routes (the triangle recurrence, the falling-factorial basis expansion,
the finite difference, the EGF series and the Dobinski sum) check one
another only while they share no code.  So ``poly`` imports no module of
the package, each route module imports ``poly`` and the standard library
alone (``_dobinski`` also mpmath), and only the facades, ``_suite`` and
``cli`` import more than one route.  The graph is read from each module's
``ast``: its top-level imports, the imports inside its functions, and
``import_module`` and ``__import__`` calls given a literal name.

Each public function lives in the route that computes it, and a facade
only re-exports it: ``stirling`` and ``bernoulli`` define nothing,
``whitney`` only the front end of the Dobinski sum, and only ``_triangle``
knows the triangle cache.
"""

import ast
import importlib
import re
import sys
import types
from pathlib import Path

import pytest

import lambda_stirling

PACKAGE = Path(lambda_stirling.__file__).parent
ROUTES = ("_triangle", "_expansion", "_difference", "series", "_dobinski")
FACADES = ("stirling", "whitney", "bernoulli")
THIRD_PARTY = {"_dobinski": {"mpmath"}}  # route -> the outside packages it may import


def _target(name: str, level: int = 0) -> str:
    """The module an import of ``name`` loads: a package module as
    ``.name`` (the package itself as ``.__init__``), any other as its
    top-level name."""
    if level:
        return "." + (name.split(".")[0] if name else "__init__")
    if name == lambda_stirling.__name__ or name.startswith(lambda_stirling.__name__ + "."):
        return _target(name[len(lambda_stirling.__name__) + 1:], 1)
    return name.split(".")[0]


def imports_of(source: str) -> set:
    """Every module that ``source`` imports, read by ``_target``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(_target(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _target(node.module or "", node.level)
            if base != ".__init__":
                found.add(base)
                continue
            # ``from . import x`` loads the module x, or reads the package
            for alias in node.names:
                is_module = (PACKAGE / f"{alias.name}.py").is_file()
                found.add(f".{alias.name}" if is_module else base)
        elif isinstance(node, ast.Call) and node.args:
            func, first = node.func, node.args[0]
            name = getattr(func, "id", getattr(func, "attr", None))
            if (name in ("import_module", "__import__") and isinstance(first, ast.Constant)
                    and isinstance(first.value, str)):
                text = first.value
                level = len(text) - len(text.lstrip("."))
                found.add(_target(text[level:], level))
    return found


def module_imports(module: str) -> set:
    return imports_of((PACKAGE / f"{module}.py").read_text())


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
STANDARD = set(sys.stdlib_module_names)


def test_the_walker_reads_every_import_form():
    source = (
        "import json, lambda_stirling.poly\n"
        "from . import series, SYMBOLIC\n"
        "from ._triangle import _lookup\n"
        "from lambda_stirling.whitney import whitney\n"
        "def f():\n"
        "    from .stirling import stirling2_lambda\n"
        "    import mpmath.libmp\n"
        "    import_module('._suite', __package__)\n"
        "    importlib.import_module('lambda_stirling._expansion')\n"
        "    __import__('fractions')\n"
    )
    assert imports_of(source) == {
        "json", ".poly", ".series", ".__init__", "._triangle", ".whitney",
        ".stirling", "mpmath", "._suite", "._expansion", "fractions"}


def test_poly_imports_no_package_module():
    assert module_imports("poly") <= STANDARD


@pytest.mark.parametrize("route", ROUTES)
def test_a_route_imports_only_poly_and_the_standard_library(route):
    allowed = {".poly"} | STANDARD | THIRD_PARTY.get(route, set())
    assert module_imports(route) - allowed == set()


@pytest.mark.parametrize("module", MODULES)
def test_only_facades_suite_and_cli_import_more_than_one_route(module):
    routes = module_imports(module) & {f".{route}" for route in ROUTES}
    assert len(routes) <= 1 or module in FACADES + ("_suite", "cli"), sorted(routes)


def test_bernoulli_reads_only_the_series_route():
    # the Bernoulli bases are powers of G in the series tables, and no
    # triangle enters them
    assert {name for name in module_imports("bernoulli") if name.startswith(".")} == {
        ".series"}


@pytest.mark.parametrize("facade", FACADES)
def test_a_facade_imports_a_private_name_only_to_use_it(facade):
    # a facade re-exports public names only; tests reach a route's
    # privates in the route module
    tree = ast.parse((PACKAGE / f"{facade}.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names if alias.name.startswith("_")}
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert imported <= used


def definitions(module: str) -> tuple:
    """The names of the functions (nested ones too) and of the classes
    that ``module`` defines."""
    nodes = list(ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())))
    functions = {node.name for node in nodes
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    classes = {node.name for node in nodes if isinstance(node, ast.ClassDef)}
    return functions, classes


@pytest.mark.parametrize("facade", ["stirling", "bernoulli"])
def test_a_pure_facade_defines_nothing_and_imports_no_private_name(facade):
    tree = ast.parse((PACKAGE / f"{facade}.py").read_text())
    assert definitions(facade) == (set(), set())
    assert not any(isinstance(node, ast.Lambda) for node in ast.walk(tree))
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_whitney_defines_only_the_dobinski_front_end():
    assert definitions("whitney") == ({"_dobinski_domain", "dobinski_eval"},
                                      {"DowlingValue", "UnsupportedDomainError"})


@pytest.mark.parametrize("module", MODULES)
def test_only_the_triangle_route_names_its_cache(module):
    # the key (lam, alpha, beta, r) and the list-or-tuple row convention
    # have one owner; the readers and row sums live beside them
    text = (PACKAGE / f"{module}.py").read_text()
    assert module == "_triangle" or not re.search(r"\b(_TRIANGLES|_lookup)\b", text)


# the public names of the package (its __all__) and of each facade (every
# name it binds without an underscore, but those it imports from outside
# the package).  A facade exports the route functions and nothing it does
# not compute: whitney adds its Dobinski front end and the LambdaScalar and
# SYMBOLIC that front end reads.  The CLI, the suite's direct routes and the
# benchmark's tracer and workloads read these names as module attributes
PUBLIC_NAMES = {
    "lambda_stirling": [
        "BasisExpansion", "CHECKS", "DowlingValue", "IdentityReport", "LambdaScalar",
        "Poly", "Providers", "SYMBOLIC", "SuiteConfig", "SuiteResult",
        "Theorem13Resolution", "TruncatedSeries", "UnsupportedDomainError",
        "__version__", "bell_poly_lambda", "bernoulli_base_series", "bernoulli_higher",
        "check_identity", "classical_rstirling2", "dobinski_eval", "dowling_poly",
        "dowling_series", "eval_element", "expand_in_falling_basis",
        "falling_factorial_poly", "format_element", "resolve_theorem13_variant",
        "rstirling1_lambda", "rstirling2_by_difference", "rstirling2_by_expansion",
        "rstirling2_lambda", "run_suite", "second_kind_series", "stirling1_lambda",
        "stirling2_lambda", "unsigned_rstirling1_lambda", "whitney", "whitney_r",
        "whitney_r_by_expansion", "whitney_series",
    ],
    "stirling": [
        "BasisExpansion", "classical_rstirling2", "expand_in_falling_basis",
        "rstirling1_lambda", "rstirling2_by_difference", "rstirling2_by_expansion",
        "rstirling2_lambda", "second_kind_series", "stirling1_lambda", "stirling2_lambda",
        "unsigned_rstirling1_lambda",
    ],
    "whitney": [
        "DOBINSKI_DIGITS", "DOBINSKI_MAX_TERMS", "DOBINSKI_TOL", "DowlingValue",
        "LambdaScalar", "SYMBOLIC", "UnsupportedDomainError", "bell_poly_lambda",
        "dobinski_eval", "dowling_poly", "dowling_series", "whitney", "whitney_r",
        "whitney_r_by_expansion", "whitney_series",
    ],
    "bernoulli": ["bernoulli_base_series", "bernoulli_higher"],
}


@pytest.mark.parametrize("name", sorted(PUBLIC_NAMES))
def test_the_public_names_are_pinned(name):
    if name == "lambda_stirling":
        module, public = lambda_stirling, set(lambda_stirling.__all__)
    else:
        module = importlib.import_module(f"lambda_stirling.{name}")
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        outside = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                   if isinstance(node, ast.Import)
                   or isinstance(node, ast.ImportFrom) and not node.level
                   for alias in node.names}
        public = {key for key, value in vars(module).items()
                  if not key.startswith("_") and key not in outside
                  and not isinstance(value, types.ModuleType)}
    assert sorted(public) == PUBLIC_NAMES[name]
    for key in public:
        getattr(module, key)
