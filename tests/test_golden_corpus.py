"""Golden hashes of exact outputs, one sha256 per group.

Each group's inputs are literals written here, never library output.  A
change that alters any value, coefficient type, repr or CLI byte in a group
shows as a changed hash.  A change that alters output on purpose re-records
only the groups it names.
"""

import contextlib
import hashlib
import io
from fractions import Fraction

from lambda_stirling.bernoulli import bernoulli_base_series, bernoulli_higher
from lambda_stirling.cli import main
from lambda_stirling.poly import SYMBOLIC, LambdaScalar, Poly, falling_factorial_poly
from lambda_stirling.series import TruncatedSeries, whitney_series
from lambda_stirling.stirling import (
    expand_in_falling_basis,
    rstirling1_lambda,
    rstirling2_lambda,
    stirling1_lambda,
    stirling2_lambda,
    unsigned_rstirling1_lambda,
)
from lambda_stirling.whitney import (
    bell_poly_lambda,
    dowling_poly,
    dowling_series,
    whitney,
    whitney_r,
)

from golden_texts import assert_golden, committed


def sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def cli_record(argv) -> str:
    """argv, exit status, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = exc.code
    return repr((argv, status, out.getvalue(), err.getvalue()))


DUMP_LAMBDAS = ("1/2", "-2/3", "symbolic")
DUMP_ORDERS = (0, 1, 8)
# every dump-series kind, with the options it takes besides --order/--lambda
DUMP_CALLS = (
    ("stirling2", ("--k", "0")),
    ("stirling2", ("--k", "3")),
    ("stirling2", ("--k", "9")),
    ("rstirling2", ("--k", "2", "--r", "0")),
    ("rstirling2", ("--k", "1", "--r", "3")),
    ("whitney", ("--k", "2", "--m", "1")),
    ("whitney", ("--k", "3", "--m", "4")),
    ("whitney-r", ("--k", "2", "--m", "2", "--r", "1")),
    ("dowling", ("--m", "1", "--x", "1")),
    ("dowling", ("--m", "2", "--x", "-3/2")),
)
BERNOULLI_ORDERS = (1, 2, 5)

SERIES_LAMBDAS = (SYMBOLIC,) + tuple(
    LambdaScalar.fixed(Fraction(v)) for v in ("1/3", "-2", "5/7"))
DOWLING_LAMBDAS = tuple(
    LambdaScalar.fixed(Fraction(v)) for v in ("1/3", "-2", "5/7", "1/2"))
ORDERS = (0, 1, 2, 3, 8, 17)


def series_group_lines():
    lines = []
    for kind, options in DUMP_CALLS:
        for lam in DUMP_LAMBDAS:
            for order in DUMP_ORDERS:
                lines.append(cli_record(("dump-series", "--kind", kind, "--order",
                                         str(order), *options, "--lambda", lam)))
    for m in BERNOULLI_ORDERS:
        for order in DUMP_ORDERS:
            lines.append(cli_record(("dump-series", "--kind", "bernoulli-base",
                                     "--order", str(order), "--m", str(m))))
    for lam in SERIES_LAMBDAS:
        for m in (1, 2, 4):
            for r in (0, 1, 3):
                for order in ORDERS:
                    for first in (0, 1, 3, 9):
                        lines.extend(repr(whitney_series(k, m, r, lam, order))
                                     for k in range(first, first + 3))
    for lam in DOWLING_LAMBDAS:
        for x in ("1/2", "0", "-3", "7/5"):
            for m in (1, 2, 4):
                for order in ORDERS + (40,):
                    lines.append(repr(dowling_series(Fraction(x), m, lam, order)))
    for m in (1, 2, 3, 4, 8):
        for order in ORDERS + (40,):
            lines.append(repr(bernoulli_base_series(m, order)))
    return lines


def test_series_group_hash():
    # dump-series calls for every kind, EGF columns, Dowling EGFs and
    # Bernoulli bases: values, coefficient types and CLI bytes
    assert sha256(series_group_lines()) == (
        "c7cfec59b0834e5e7cacb911576188bc8147706fdba6e9cf3733053286e49236")


# rational series with a unit constant term, as literal EGF coefficients
ARITHMETIC_SERIES = (
    (1,),
    (1, 2),
    (-3, 0, 5, Fraction(1, 2)),
    (Fraction(2, 3), Fraction(-1, 4), 0, 0, 7, Fraction(5, 6), -1, 2, Fraction(1, 9)),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
)
EXPONENTS = (-7, -3, -2, -1, 0, 1, 2, 3, 7)


def test_series_arithmetic_group_hash():
    # the series product, integer powers, inverse and exp on literal
    # rational series
    lines = []
    series = [TruncatedSeries(coeffs) for coeffs in ARITHMETIC_SERIES]
    for a in series:
        lines.append(repr(a.inverse()))
        lines.extend(repr(a**k) for k in EXPONENTS)
        lines.extend(repr(a * b) for b in series)
        lines.append(repr(TruncatedSeries((0,) + a.coeffs[1:]).exp()))
    assert sha256(lines) == (
        "0d8dbb475100c459310ad12d06400a54108bc4975b9a64a4e9039948263d64b2")


LIBRARY_LAMBDAS = (
    LambdaScalar.fixed(Fraction(1, 3)), LambdaScalar.fixed(Fraction(-2, 3)), SYMBOLIC)
# each triangle family's value function, with the (r, m) grid it takes
TRIANGLE_FAMILIES = (
    (lambda n, k, r, m, lam: stirling2_lambda(n, k, lam), (0,), (1,)),
    (lambda n, k, r, m, lam: rstirling2_lambda(n, k, r, lam), (0, 2), (1,)),
    (lambda n, k, r, m, lam: stirling1_lambda(n, k, lam), (0,), (1,)),
    (lambda n, k, r, m, lam: rstirling1_lambda(n, k, r, lam), (0, 2), (1,)),
    (lambda n, k, r, m, lam: unsigned_rstirling1_lambda(n, k, r, lam), (0, 2), (1,)),
    (lambda n, k, r, m, lam: whitney(n, k, m, lam), (0,), (1, 3)),
    (lambda n, k, r, m, lam: whitney_r(n, k, m, r, lam), (0, 2), (1, 3)),
)


def record(value) -> str:
    return f"{value!r} {value}"


def library_group_lines():
    lines = []
    for lam in LIBRARY_LAMBDAS:
        for family, shifts, ms in TRIANGLE_FAMILIES:
            for r in shifts:
                for m in ms:
                    for n in range(13):
                        lines.extend(record(family(n, k, r, m, lam)) for k in range(n + 1))
        for x in (Fraction(1, 2), Fraction(-3)):
            for n in range(13):
                lines.extend(record(dowling_poly(n, x, m, lam)) for m in (1, 3))
                lines.append(record(bell_poly_lambda(n, x, lam)))
        lines.extend(record(falling_factorial_poly(k, lam)) for k in range(7))
        expansion = expand_in_falling_basis(Poly([3, 2]) ** 6, lam)
        lines.append(record(expansion.coefficients))
        lines.append(record(expansion.reconstruct()))
    for m in (1, 2, 3):
        for x in (Fraction(0), Fraction(1, 2), Fraction(-3)):
            lines.extend(record(bernoulli_higher(n, m, x)) for n in range(11))
    return lines


def test_library_group_hash():
    # triangle rows of all seven families, Dowling and Bell rows,
    # Bernoulli values, falling factorials and a basis expansion: the
    # reprs and strs of the library's values, nested Poly ones included
    assert sha256(library_group_lines()) == (
        "85bd1fb6dbd8b7c29fa746f3c2a32a7c5dcf25d223becddb3b241367a95a250d")


# each triangle family with the shift and block-size options it needs
CLI_FAMILIES = (
    ("s2lambda", ()),
    ("rstirling2", ("--r", "2")),
    ("s1lambda", ()),
    ("rstirling1", ("--r", "2")),
    ("rstirling1-unsigned", ("--r", "3")),
    ("whitney", ("--m", "3")),
    ("whitney-r", ("--m", "2", "--r", "1")),
)
CLI_LAMBDAS = ("1/3", "-2/3", "symbolic")
CLI_CHECK_IDS = (
    "T2", "T3", "T4", "T5", "T6", "T7", "T9", "T13",
    "ORTHO_PLAIN", "ORTHO_R", "LIMIT_LAMBDA1",
    "GF_T1", "GF_T8", "GF_T10", "GF_T12", "DOBINSKI_T11", "REDUCTIONS",
)
# the documented error paths, each exiting with status 2
CLI_ERRORS = (
    ("triangle", "--family", "s2lambda", "--n-max", "3", "--r", "1", "--lambda", "1/2"),
    ("eval", "--poly", "bell", "--n", "3", "--x", "1", "--m", "2", "--lambda", "1/2"),
    ("triangle", "--family", "rstirling2", "--n-max", "3", "--lambda", "1/2"),
    ("triangle", "--family", "whitney", "--n-max", "3", "--lambda", "1/2"),
    ("triangle", "--family", "s2lambda", "--n-max", "3", "--lambda", "1/0"),
    ("eval", "--poly", "bell", "--n", "3", "--x", "1/0", "--lambda", "1/2"),
    ("triangle", "--family", "s2lambda", "--n-max", "-1", "--lambda", "1/2"),
    ("bernoulli", "--n-max", "-1", "--m", "1", "--x", "1/2"),
    ("dobinski", "--n", "3", "--x", "1/2", "--lambda", "1/2", "--digits", "0"),
    ("dobinski", "--n", "3", "--x", "1/2", "--lambda", "1/2", "--digits", "41"),
    ("verify", "--theorem", "T99"),
)


def cli_group_lines():
    lines = []
    for family, options in CLI_FAMILIES:
        for lam in CLI_LAMBDAS:
            for fmt in ("csv", "json"):
                lines.append(cli_record(("triangle", "--family", family, "--n-max", "4",
                                         *options, "--lambda", lam, "--format", fmt)))
    for lam in CLI_LAMBDAS:
        for fmt in ("text", "json"):
            lines.append(cli_record(("eval", "--poly", "dowling", "--n", "6", "--x", "1/2",
                                     "--m", "2", "--lambda", lam, "--format", fmt)))
            lines.append(cli_record(("eval", "--poly", "bell", "--n", "7", "--x", "-3/2",
                                     "--lambda", lam, "--format", fmt)))
    for m in (1, 2, 3):
        for fmt in ("csv", "json"):
            lines.append(cli_record(("bernoulli", "--n-max", "6", "--m", str(m),
                                     "--x", "1/3", "--format", fmt)))
    # the points of the benchmark's cli workload
    for n in (5, 9):
        for x in ("1/2", "3/2", "2"):
            for m in (1, 2):
                for lam in ("1/2", "1"):
                    lines.append(cli_record(("dobinski", "--n", str(n), "--x", x, "--m",
                                             str(m), "--lambda", lam, "--digits", "20")))
    for check_id in CLI_CHECK_IDS:
        lines.append(cli_record(("verify", "--theorem", check_id, "--n-max", "3",
                                 "--bernoulli-n-max", "2")))
    lines.extend(map(cli_record, CLI_ERRORS))
    return lines


# the CLI group's text is committed as tests/golden/cli.jsonl, one record
# (the repr of argv, exit status, stdout and stderr) a line
CLI_SHA256 = "6d04c3dde853f4b65ea52dcabd00ce12d605aa5c07b5614459c4e21247668369"


def test_cli_group_hash():
    # triangle, eval, bernoulli, dobinski and per-check verify calls and
    # the documented error paths: argv, exit status, stdout and stderr
    assert_golden("\n".join(cli_group_lines()), "cli.jsonl", CLI_SHA256)


def test_cli_text_hashes_to_its_pin():
    assert hashlib.sha256(committed("cli.jsonl").encode()).hexdigest() == CLI_SHA256
