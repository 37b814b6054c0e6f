"""The parameter contract of every public entry point, and of the CLI.

Every function in ``lambda_stirling.__all__``, and ``LambdaScalar``, is
called with a valid argument list in which one parameter at a time is
replaced by a hostile value.  The call either returns, or raises
``ValueError`` or ``TypeError`` whose message names the parameter.  It
never raises anything else (``OverflowError``, ``AttributeError``,
``ZeroDivisionError``, ...) and never shows a message from inside
``Fraction``.  A value that the index, rational, lambda or ring-element
rule refuses is never accepted, and a ``bool`` given to one of them raises
``TypeError``.  The CLI is fuzzed in process: each call exits 0 with
output, or exits 2 with no output and an error or usage text.
"""

import ast
import contextlib
import inspect
import io
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lambda_stirling
from lambda_stirling import LambdaScalar, Poly, SuiteConfig, TruncatedSeries
from lambda_stirling.cli import DUMP_KINDS, TRIANGLE_FAMILIES, main
from lambda_stirling.poly import csv_element, eval_element, format_element

HALF = LambdaScalar.fixed(Fraction(1, 2))
SMALL = SuiteConfig(n_max=2, bernoulli_n_max=1, theorems=("T2",))

# one valid call of each function, by keyword
VALID = {
    "LambdaScalar": dict(value=Fraction(1, 2)),
    "bell_poly_lambda": dict(n=3, x=Fraction(1, 2), lam=HALF),
    "bernoulli_base_series": dict(m=2, order=4),
    "bernoulli_higher": dict(n=3, m=2, x=Fraction(1, 3)),
    "check_identity": dict(theorem_id="T2", cfg=SMALL),
    "classical_rstirling2": dict(n=4, k=2, r=1),
    "dobinski_eval": dict(n=3, x=Fraction(1, 2), m=2, lam=HALF, tol=1e-12),
    "dowling_poly": dict(n=3, x=Fraction(1, 2), m=2, lam=HALF),
    "dowling_series": dict(x=Fraction(1, 2), m=2, lam=HALF, order=4),
    "eval_element": dict(value=Poly([1, 2]), point=Fraction(1, 3)),
    "expand_in_falling_basis": dict(target=Poly([1, 2, 3]), lam=HALF),
    "falling_factorial_poly": dict(n=3, lam=HALF),
    "format_element": dict(value=Fraction(1, 2)),
    "resolve_theorem13_variant": dict(cfg=SMALL),
    "rstirling1_lambda": dict(n=4, k=2, r=1, lam=HALF),
    "rstirling2_by_difference": dict(n=4, k=2, r=1, lam_value=Fraction(1, 2)),
    "rstirling2_by_expansion": dict(n=4, k=2, r=1, lam=HALF),
    "rstirling2_lambda": dict(n=4, k=2, r=1, lam=HALF),
    "run_suite": dict(cfg=SMALL),
    "second_kind_series": dict(k=2, r=1, lam=HALF, order=4),
    "stirling1_lambda": dict(n=4, k=2, lam=HALF),
    "stirling2_lambda": dict(n=4, k=2, lam=HALF),
    "unsigned_rstirling1_lambda": dict(n=4, k=2, r=1, lam=HALF),
    "whitney": dict(n=4, k=2, m=2, lam=HALF),
    "whitney_r": dict(n=4, k=2, m=2, r=1, lam=HALF),
    "whitney_r_by_expansion": dict(n=4, k=2, m=2, r=1, lam=HALF),
    "whitney_series": dict(k=2, m=2, r=1, lam=HALF, order=4),
}
HOSTILE = {
    "True": True,
    "nan": float("nan"),
    "inf": float("inf"),
    "-0.0": -0.0,
    "0.1": 0.1,
    "str": "1/2",
    "None": None,
    "huge denominator": Fraction(1, 10**40),
    "negative": -3,
    "non-integral": Fraction(7, 2),
    "unhashable": [HALF],
}
# how a message names a parameter, where not by the parameter's own name
NAMED_AS = {
    "lam": "lam|lambda",
    "lam_value": "lambda",
    "theorem_id": "check id",
    "tol": "tolerance",
    ("LambdaScalar", "value"): "lambda",
}
# the rule each parameter is read by; dobinski_eval also takes lambda's
# bare value
KINDS = {
    "n": "index", "k": "index", "r": "index", "m": "index", "order": "index",
    "x": "rational", "point": "rational", "lam_value": "rational", "lam": "lambda",
    "value": "ring",
    ("LambdaScalar", "value"): "rational", ("dobinski_eval", "lam"): "rational",
}
# Fraction's own messages, which name no parameter (its ZeroDivisionError
# is not caught at all)
FRACTION_MESSAGES = ("Invalid literal for Fraction", "should be a string or a Rational",
                     "should be Rational instances", "integer ratio")


def public_functions() -> set:
    names = {name for name in lambda_stirling.__all__
             if inspect.isfunction(getattr(lambda_stirling, name))}
    return names | {"LambdaScalar"}


def cases():
    for name, kwargs in sorted(VALID.items()):
        signature = inspect.signature(getattr(lambda_stirling, name))
        for param in kwargs:
            for label, value in HOSTILE.items():
                # None is the documented default of an optional cfg
                if value is None and signature.parameters[param].default is None:
                    continue
                yield pytest.param(name, param, value, id=f"{name}-{param}-{label}")


def refused(kind, value) -> bool:
    """Whether the rule of ``kind`` refuses ``value``, whatever its range:
    the index rule takes only an ``int``, the rational rule only an ``int``
    or a ``Fraction``, the ring-element rule only those or a ``Poly``, and
    the lambda rule only a ``LambdaScalar``."""
    if kind == "index":
        return type(value) is not int
    if kind == "rational":
        return type(value) is bool or not isinstance(value, (int, Fraction))
    if kind == "ring":
        return type(value) is bool or not isinstance(value, (int, Fraction, Poly))
    return kind == "lambda"


def test_every_public_function_has_a_valid_call():
    assert set(VALID) == public_functions()
    for name, kwargs in VALID.items():
        fn = getattr(lambda_stirling, name)
        assert list(kwargs) == list(inspect.signature(fn).parameters)
        fn(**kwargs)


@pytest.mark.parametrize("name, param, value", cases())
def test_hostile_parameter_is_returned_or_named(name, param, value):
    kwargs = dict(VALID[name], **{param: value})
    kind = KINDS.get((name, param), KINDS.get(param))
    try:
        getattr(lambda_stirling, name)(**kwargs)
    except (ValueError, TypeError) as exc:
        message = str(exc)
        named = NAMED_AS.get((name, param), NAMED_AS.get(param, param))
        assert re.search(rf"\b({named})\b", message), message
        assert not any(text in message for text in FRACTION_MESSAGES), message
        if value is True and kind:
            assert type(exc) is TypeError, message
    else:
        assert not (kind and refused(kind, value)), "accepted"


def identity_checks(tree) -> set:
    """The function names in a module's ``CHECKS: ... = {...}`` table."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "CHECKS"
                and isinstance(node.value, ast.Dict)):
            return {value.id for value in node.value.values if isinstance(value, ast.Name)}
    return set()


def test_no_module_but_poly_defines_a_check_function():
    # poly.py holds the one index, rational and lambda rule, so that no
    # module grows a rule of its own again; the identity checks that
    # _suite.py lists in CHECKS are not parameter rules
    package = Path(lambda_stirling.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "poly.py":
            continue
        tree = ast.parse(path.read_text())
        allowed = identity_checks(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not node.name.startswith("_check_") or node.name in allowed, (
                    f"{path.name} defines {node.name}")


def test_no_module_but_poly_reads_poly_storage():
    # a Poly's integers are its own: code that read them elsewhere would
    # break, or keep a stale copy, when poly.py changes how it stores them
    package = Path(lambda_stirling.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("_nums", "_den", "_coeffs"), (
                    f"{path.name}:{node.lineno} reads Poly.{node.attr}")


def test_only_the_factory_reads_the_lambda_mode():
    # _triangle._new_triangle decides the lambda mode once, when a triangle
    # is made, so that neither triangle class branches on it again
    path = Path(lambda_stirling.__file__).parent / "_triangle.py"
    readers = {getattr(top, "name", "<module>") for top in ast.parse(path.read_text()).body
               for node in ast.walk(top)
               if isinstance(node, ast.Attribute) and node.attr == "is_symbolic"}
    assert readers == {"_new_triangle"}


# values that the ring-element rule refuses
NOT_RING = pytest.mark.parametrize("value", [True, float("nan"), 0.5, "1/2", None, 1j],
                                   ids=["True", "nan", "0.5", "str", "None", "complex"])


@pytest.mark.parametrize("serialize", [
    format_element, csv_element, lambda value: eval_element(value, Fraction(1, 3))],
    ids=["format_element", "csv_element", "eval_element"])
@NOT_RING
def test_serializers_take_only_a_ring_element(serialize, value):
    with pytest.raises(TypeError, match=r"\bvalue must be an int, Fraction or Poly\b"):
        serialize(value)


@pytest.mark.parametrize("build", [Poly, lambda coeffs: TruncatedSeries([*coeffs, 1])],
                         ids=["Poly", "TruncatedSeries"])
@NOT_RING
def test_constructors_take_only_a_ring_element(build, value):
    with pytest.raises(TypeError, match=r"\bcoefficient must be an int, Fraction or Poly\b"):
        build([value])


def raising_functions(tree, raises) -> set:
    """The qualified names (``Class.method``, ``outer.inner``) of the
    functions whose own bodies (nested functions apart) hold a ``raise``
    statement for which ``raises(node)`` is true."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None and raises(child):
                found.add(owner)
            visit(child, owner)

    visit(tree, None)
    return found


def raise_sites(raises) -> set:
    """(module file, qualified function) of each such ``raise`` in the package."""
    package = Path(lambda_stirling.__file__).parent
    return {(path.name, name) for path in sorted(package.glob("*.py"))
            for name in raising_functions(ast.parse(path.read_text()), raises)}


def raises_error(error: str):
    """Whether a ``raise`` statement raises the exception class ``error``."""
    def raises(node) -> bool:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(exc, "id", getattr(exc, "attr", None)) == error
    return raises


def raises_text(text: str):
    """Whether a ``raise`` statement's message holds ``text``."""
    def raises(node) -> bool:
        return any(isinstance(part, ast.Constant) and text in str(part.value)
                   for part in ast.walk(node))
    return raises


def test_only_the_dobinski_domain_raises_unsupported_domain_error():
    # the numeric series' domain is checked in one function, so that a
    # config, the library and the CLI cannot disagree on it again
    sites = raise_sites(raises_error("UnsupportedDomainError"))
    assert sites == {("whitney.py", "_dobinski_domain")}


def test_only_the_config_judges_a_grid_empty():
    # a grid is judged when its config is built, so that no check fails
    # on it after the checks before it have run
    sites = raise_sites(raises_text("empty parameter grid"))
    assert sites == {("_suite.py", "SuiteConfig.validate")}


# -- the CLI -------------------------------------------------------------------

TEXTS = ("0", "1", "3", "-1", "-2/3", "1/2", "7/2", "1/0", "abc", "", "inf", "nan",
         "-0.0", "0.1", "symbolic", "1/" + "1" + "0" * 40)
# command -> option -> the texts it is given; verify always takes --theorem,
# so that no example runs the whole default suite
COMMANDS = {
    "triangle": {"--family": (*TRIANGLE_FAMILIES, "none"), "--n-max": TEXTS,
                 "--r": TEXTS, "--m": TEXTS, "--lambda": TEXTS,
                 "--format": ("csv", "json", "xml")},
    "eval": {"--poly": ("dowling", "bell", "none"), "--n": TEXTS, "--x": TEXTS,
             "--m": TEXTS, "--lambda": TEXTS, "--format": ("text", "json")},
    "dobinski": {"--n": TEXTS, "--x": TEXTS, "--m": TEXTS, "--lambda": TEXTS,
                 "--tol": TEXTS, "--digits": TEXTS},
    "bernoulli": {"--n-max": TEXTS, "--m": TEXTS, "--x": TEXTS,
                  "--format": ("csv", "json")},
    "verify": {"--theorem": ("T2", "ORTHO_PLAIN", "T99", ""), "--n-max": TEXTS,
               "--bernoulli-n-max": TEXTS},
    "dump-series": {"--kind": (*DUMP_KINDS, "none"), "--order": TEXTS, "--k": TEXTS,
                    "--r": TEXTS, "--m": TEXTS, "--x": TEXTS, "--lambda": TEXTS},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for option, texts in COMMANDS[command].items():
        if option == "--theorem" or draw(st.booleans()):
            argv += [option, draw(st.sampled_from(texts))]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argvs())
def test_cli_exits_0_with_output_or_2_with_a_message(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    if status == 0:
        assert out.getvalue(), argv
    else:
        assert status == 2, (argv, status, err.getvalue())
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith(("error: ", "usage: ")), (argv, err.getvalue())
