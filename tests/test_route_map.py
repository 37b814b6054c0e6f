"""Which verification routes each identity check reads.

A check means something only while its two sides come from independent
routes, the one duplication the design keeps on purpose.  A route here is
one of the seven ``Providers`` fields, which a check reads as
``p.<field>``, or one of six functions that a check reads as an attribute
of a facade, looked up at call time: the difference and expansion oracles
and ``classical_rstirling2`` on ``stirling``, the column and Dowling EGFs
and ``dobinski_eval`` on ``whitney``.

``ROUTE_MAP`` is the committed table from each check id to the routes it
reads, and it is derived twice:

* from the ``ast`` of ``_suite.py``: the routes read in a check's own
  function and, transitively, in the module-level helpers and tables it
  names (``_columns_against``, ``_dowling_row``, the T13 variant generator);
* from a run of each check on a tiny config, with counting wrappers on the
  ``Providers`` fields and on the facade attributes.

Each check is labelled ``wiring`` when, with the default providers, every
cell compares one object with itself, so that it bites only under a mutant
provider (REDUCTIONS: each specialization it checks has the triangle key of
the family it should reduce to), and ``cross-route`` otherwise.  ``GAPS``
lists each value family and lambda mode that no cross-route check reads,
with the tier-1 tests that cover it instead.
"""

import ast
import inspect
from dataclasses import fields, replace
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

from lambda_stirling import _suite, _triangle
from lambda_stirling.identities import CHECKS, Providers, SuiteConfig, check_identity
from lambda_stirling.poly import SYMBOLIC, LambdaScalar

SUITE = Path(_suite.__file__)
TESTS = Path(__file__).parent
FACADES = {"stirling": "_stirling", "whitney": "_whitney"}  # facade -> its name in _suite
DIRECT = {
    "stirling": ("rstirling2_by_difference", "rstirling2_by_expansion", "classical_rstirling2"),
    "whitney": ("whitney_series", "dowling_series", "dobinski_eval"),
}
FIELDS = tuple(f.name for f in fields(Providers))
DIRECT_ROUTES = {f"{facade}.{name}" for facade, names in DIRECT.items() for name in names}
ROUTES = {f"p.{name}" for name in FIELDS} | DIRECT_ROUTES
# the functions behind the routes, by the names they are defined under
ROUTE_FUNCTIONS = {getattr(Providers(), name).__name__ for name in FIELDS} | {
    name for names in DIRECT.values() for name in names}

# check id -> (label, the routes it reads)
ROUTE_MAP = {
    "T2": ("cross-route", ("stirling.rstirling2_by_difference", "p.rstirling2")),
    "T3": ("cross-route", ("p.rstirling2", "p.stirling2")),
    "T4": ("cross-route", ("stirling.rstirling2_by_expansion",)),
    "T5": ("cross-route", ("p.rstirling2", "p.stirling2")),
    "T6": ("cross-route", ("p.stirling2", "p.rstirling2")),
    "T7": ("cross-route", ("p.rstirling2", "p.stirling2", "p.bernoulli")),
    "T9": ("cross-route", ("p.whitney", "p.stirling2")),
    "T13": ("cross-route", ("p.whitney_r", "p.whitney", "p.bernoulli")),
    "ORTHO_PLAIN": ("cross-route", ("p.stirling2", "p.stirling1")),
    "ORTHO_R": ("cross-route", ("p.rstirling2", "p.unsigned_rstirling1")),
    "LIMIT_LAMBDA1": ("cross-route",
                      ("p.rstirling2", "stirling.classical_rstirling2", "p.stirling2")),
    "GF_T1": ("cross-route", ("whitney.whitney_series", "p.rstirling2")),
    "GF_T8": ("cross-route", ("whitney.whitney_series", "p.whitney")),
    "GF_T10": ("cross-route", ("whitney.dowling_series", "p.whitney")),
    "GF_T12": ("cross-route", ("whitney.whitney_series", "p.whitney_r")),
    "DOBINSKI_T11": ("cross-route", ("whitney.dobinski_eval", "p.whitney")),
    "REDUCTIONS": ("wiring", ("p.whitney_r", "p.rstirling2", "p.whitney", "p.stirling2")),
}

# what no cross-route check reads -> the tier-1 tests that read it instead.
# At m = 1 both Whitney families are second-kind triangles (the same
# cached objects, see test_reductions_compare_each_value_with_itself), and
# stirling1 is rstirling1 at r = 0, the same triangle.
GAPS = {
    "p.stirling1 at fixed lambda": (
        "test_engine_parity.py::test_fixed_lambda_parity",
        "test_stirling.py::test_first_kind_matches_naive_expansion",
    ),
    "p.whitney at symbolic lambda, m >= 2": (
        "test_whitney.py::test_whitney_symbolic_frozen",
        "test_whitney.py::test_expansion_oracle_agreement_symbolic",
        "test_cas_oracle.py::test_symbolic_columns_match_sympy",
    ),
    "p.whitney_r at symbolic lambda, m >= 2": (
        "test_whitney.py::test_expansion_oracle_agreement_symbolic",
        "test_engine_parity.py::test_symbolic_lambda_parity",
        "test_cas_oracle.py::test_symbolic_columns_match_sympy",
    ),
    "_triangle.rstirling1_lambda, read by no check": (
        "test_engine_parity.py::test_fixed_lambda_parity",
        "test_engine_parity.py::test_symbolic_lambda_parity",
        "test_stirling.py::test_first_kind_matches_naive_expansion",
    ),
    "_triangle.dowling_poly, read by no check": (
        "test_whitney.py::test_row_sums_match_entrywise_sums",
        "test_whitney.py::test_dowling_series_matches_rows",
    ),
    "_triangle.bell_poly_lambda, read by no check": (
        "test_whitney.py::test_row_sums_match_entrywise_sums",
        "test_cas_oracle.py::test_bell_row_matches_sympy_at_lambda_one",
    ),
}

HALF = Fraction(1, 2)
# every check reads every route it can at this size: T4 needs n_max >= 2,
# T13 a shift r >= 1 and bernoulli_n_max >= 2 to tell its variants apart,
# and the Whitney gaps m = 2
TINY = SuiteConfig(
    n_max=2, bernoulli_n_max=2, r_values=(0, 1), m_values=(1, 2), alpha_values=(1,),
    fixed_lambdas=(HALF,), bernoulli_shift_lambdas=(HALF,), egf_x_values=(HALF,),
    egf_lambdas=(HALF,), dobinski_x_values=(HALF,), dobinski_m_values=(1, 2),
    dobinski_lambdas=(HALF,),
)


# --- the ast walk ------------------------------------------------------------


def _suite_tree():
    return ast.parse(SUITE.read_text())


def _route_read(node):
    """The route an ``ast`` node reads, or None."""
    if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)):
        return None
    owner, name = node.value.id, node.attr
    if owner == "p" and name in FIELDS:
        return f"p.{name}"
    for facade, alias in FACADES.items():
        if owner == alias and name in DIRECT[facade]:
            return f"{facade}.{name}"
    return None


def routes_by_ast() -> dict:
    """Check id -> the routes its function reads, following the module-level
    functions and tables it names; ``CHECKS`` and classes are not followed."""
    tree = _suite_tree()
    named = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            named[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    named[target.id] = node.value
    registry = named.pop("CHECKS")

    def reads(name, seen):
        found = set()
        for node in ast.walk(named[name]):
            route = _route_read(node)
            if route:
                found.add(route)
            elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in named and node.id not in seen):
                seen.add(node.id)
                found |= reads(node.id, seen)
        return found

    return {key.value: reads(value.id, {value.id})
            for key, value in zip(registry.keys, registry.values)}


def test_the_ast_walk_derives_the_committed_map():
    assert routes_by_ast() == {check_id: set(routes)
                               for check_id, (_, routes) in ROUTE_MAP.items()}


def test_the_suite_reaches_each_route_one_way():
    # outside the Providers defaults a route is read as p.<field> or as a
    # facade attribute, never by a bare name nor through another module
    tree = _suite_tree()
    providers = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef) and node.name == "Providers")
    defaults = set(ast.walk(providers))
    bare = [node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id in ROUTE_FUNCTIONS]
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name in ROUTE_FUNCTIONS]
    other = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ROUTE_FUNCTIONS
             and node not in defaults and _route_read(node) is None]
    assert (bare, imported, other) == ([], [], [])


# --- the run -----------------------------------------------------------------


def run_with_counters(check_id, monkeypatch) -> list:
    """Run one check on ``TINY`` with a counting wrapper on every route;
    return (route, args) for each route call."""
    calls = []

    def counting(route, fn):
        def wrapper(*args, **kwargs):
            calls.append((route, args))
            return fn(*args, **kwargs)
        return wrapper

    default = Providers()
    providers = Providers(**{name: counting(f"p.{name}", getattr(default, name))
                             for name in FIELDS})
    for facade, names in DIRECT.items():
        module = import_module(f"lambda_stirling.{facade}")
        for name in names:
            monkeypatch.setattr(module, name, counting(f"{facade}.{name}",
                                                       getattr(module, name)))
    report = check_identity(check_id, replace(TINY, providers=providers))
    assert report.status == "pass", report
    return calls


@pytest.mark.parametrize("check_id", list(ROUTE_MAP))
def test_a_run_reads_the_committed_routes(check_id, monkeypatch):
    read = {route for route, _ in run_with_counters(check_id, monkeypatch)}
    assert read == set(ROUTE_MAP[check_id][1])


def test_the_map_names_every_check_and_only_routes():
    assert list(ROUTE_MAP) == list(CHECKS)
    for label, routes in ROUTE_MAP.values():
        assert label in ("cross-route", "wiring")
        assert set(routes) <= ROUTES and len(set(routes)) == len(routes)
    # every route is read by some check
    assert {route for _, routes in ROUTE_MAP.values() for route in routes} == ROUTES


# --- labels and gaps -----------------------------------------------------------


def _generators(check_id) -> list:
    """The cell generators behind a check: a grid check's own, and for T13
    those of its two variants."""
    if check_id == "T13":
        checks = list(_suite._T13_CHECKS.values())
    else:
        checks = [CHECKS[check_id]]
    return [inspect.getclosurevars(check).nonlocals["generate"] for check in checks]


@pytest.mark.parametrize("check_id", list(ROUTE_MAP))
def test_a_check_is_wiring_when_every_cell_compares_an_object_with_itself(check_id):
    same = all(lhs is rhs for generate in _generators(check_id)
               for _, lhs, rhs in generate(TINY, TINY.providers))
    assert ROUTE_MAP[check_id][0] == ("wiring" if same else "cross-route")


@pytest.mark.parametrize("lam", [LambdaScalar.fixed(2), SYMBOLIC], ids=str)
def test_reductions_compare_each_value_with_itself(lam):
    p = Providers()
    for n in range(5):
        for k in range(n + 1):
            for r in (0, 1, 2):
                assert p.whitney_r(n, k, 1, r, lam) is p.rstirling2(n, k, r, lam)
            for m in (1, 2, 3):
                assert p.whitney_r(n, k, m, 1, lam) is p.whitney(n, k, m, lam)
            assert p.whitney_r(n, k, 1, 0, lam) is p.stirling2(n, k, lam)


def _coverage_key(route, args):
    """What a provider call reads: its field and lambda mode, and m >= 2 for
    the Whitney fields (at m = 1 they read second-kind triangles)."""
    lam = args[-1]
    if not isinstance(lam, LambdaScalar):
        return None
    mode = "symbolic" if lam == SYMBOLIC else "fixed"
    if route in ("p.whitney", "p.whitney_r"):
        return f"{route} at {mode} lambda, m >= 2" if args[2] >= 2 else None
    return f"{route} at {mode} lambda"


def test_the_gaps_are_what_no_cross_route_check_reads(monkeypatch):
    covered = set()
    for check_id, (label, _) in ROUTE_MAP.items():
        if label == "cross-route":
            covered |= {_coverage_key(route, args)
                        for route, args in run_with_counters(check_id, monkeypatch)}
    triangles = [name for name in FIELDS if name != "bernoulli"]
    wanted = {f"p.{name} at {mode} lambda" + (", m >= 2" if name.startswith("whitney") else "")
              for name in triangles for mode in ("fixed", "symbolic")}
    provided = {getattr(Providers(), name) for name in FIELDS}
    unread = {f"_triangle.{name}, read by no check" for name, fn in vars(_triangle).items()
              if inspect.isfunction(fn) and fn.__module__ == _triangle.__name__
              and not name.startswith("_") and fn not in provided}
    assert (wanted - covered) | unread == set(GAPS)


@pytest.mark.parametrize("gap", list(GAPS))
def test_each_gap_names_tier1_tests_that_exist(gap):
    for test_id in GAPS[gap]:
        module, name = test_id.split("::")
        tree = ast.parse((TESTS / module).read_text())
        assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
