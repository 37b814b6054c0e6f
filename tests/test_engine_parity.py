"""Parity of the integer triangle engine with naive list arithmetic.

Every tabulated family is compared, row by row up to n = 20, with the
definitional expansions in ``oracles`` (which imports nothing from the
package), at fixed lambda with q > 1, negative p and integer values, and
with lambda symbolic.  At fixed lambda the Whitney families meet every
kind of scale a triangle grows by (the denominator of lambda m): 1, the
denominator of lambda, and one strictly between.  The public value types
are asserted on every entry: ``Fraction`` throughout for fixed lambda; for
symbolic lambda ``Fraction(1)`` in row 0 and on the diagonal and ``Poly``
below it, the zero polynomial included.  Up to n = 100 every symbolic entry, evaluated at a fixed lambda,
equals the fixed-lambda triangle; and the symbolic triangles of the
mutants' shapes (gamma != 0, doubled and offset shifts) equal the
recurrence itself, stepped in naive list arithmetic, as do their
fixed-lambda triangles and those of shapes whose gcd(alpha, beta, gamma)
depends on gamma.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_stirling import _triangle
from lambda_stirling.poly import LambdaScalar, Poly, SYMBOLIC, eval_element
from lambda_stirling.stirling import (
    rstirling1_lambda,
    rstirling2_by_difference,
    rstirling2_lambda,
    unsigned_rstirling1_lambda,
)
from lambda_stirling.whitney import whitney_r

import oracles
from mutants import MUTANT_PROVIDERS

N_MAX = 20

# name -> (library value(n, k, lam), oracle row(n, lam value or None))
FAMILIES = {
    "second r=0": (
        lambda n, k, lam: rstirling2_lambda(n, k, 0, lam),
        lambda n, lam: oracles.whitney_type_row(n, 1, 0, lam),
    ),
    "second r=2": (
        lambda n, k, lam: rstirling2_lambda(n, k, 2, lam),
        lambda n, lam: oracles.whitney_type_row(n, 1, 2, lam),
    ),
    "signed first r=0": (
        lambda n, k, lam: rstirling1_lambda(n, k, 0, lam),
        lambda n, lam: oracles.first_kind_row(n, 0, -1, lam),
    ),
    "signed first r=3": (
        lambda n, k, lam: rstirling1_lambda(n, k, 3, lam),
        lambda n, lam: oracles.first_kind_row(n, 3, -1, lam),
    ),
    "unsigned first r=1": (
        lambda n, k, lam: unsigned_rstirling1_lambda(n, k, 1, lam),
        lambda n, lam: oracles.first_kind_row(n, 1, 1, lam),
    ),
    "whitney m=2 r=1": (
        lambda n, k, lam: whitney_r(n, k, 2, 1, lam),
        lambda n, lam: oracles.whitney_type_row(n, 2, 1, lam),
    ),
    "whitney m=3 r=0": (
        lambda n, k, lam: whitney_r(n, k, 3, 0, lam),
        lambda n, lam: oracles.whitney_type_row(n, 3, 0, lam),
    ),
}

# the Whitney families scale by the denominator of lam m: it is 1 at m = 3
# for 1/3 and -2/3, and strictly between 1 and 6 at 5/6 for m = 2 and 3
FIXED_LAMBDAS = (
    Fraction(1, 3), Fraction(-2, 3), Fraction(2), Fraction(-1), Fraction(5, 7),
    Fraction(5, 6),
)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("lam_value", FIXED_LAMBDAS, ids=str)
def test_fixed_lambda_parity(family, lam_value):
    value, oracle_row = FAMILIES[family]
    lam = LambdaScalar.fixed(lam_value)
    for n in range(N_MAX + 1):
        expected = oracle_row(n, lam_value)
        got = [value(n, k, lam) for k in range(n + 1)]
        assert all(type(v) is Fraction for v in got)
        assert got == expected, (family, n)
        assert value(n, n + 1, lam) == 0 and value(n, -1, lam) == 0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_symbolic_lambda_parity(family):
    value, oracle_row = FAMILIES[family]
    for n in range(N_MAX + 1):
        expected = oracle_row(n, None)
        got = [value(n, k, SYMBOLIC) for k in range(n + 1)]
        assert type(got[n]) is Fraction and got[n] == 1
        assert all(type(v) is Poly for v in got[:n])
        assert [oracles.lambda_coeffs(v) for v in got] == expected, (family, n)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_symbolic_entries_evaluate_to_fixed_lambda_to_n_100(fresh_triangles, family):
    # triangles of this test's own, dropped with it
    value = FAMILIES[family][0]
    lam = LambdaScalar.fixed(Fraction(-2, 3))
    for n in range(101):
        got = [eval_element(value(n, k, SYMBOLIC), lam.value) for k in range(n + 1)]
        assert got == [value(n, k, lam) for k in range(n + 1)], (family, n)


# mutant -> (its symbolic entry (n, k), the recurrence parameters it has)
MUTANT_SHAPES = {
    "stirling2": (lambda p, n, k: p.stirling2(n, k, SYMBOLIC), dict(beta=1, r=1)),
    "rstirling2": (lambda p, n, k: p.rstirling2(n, k, 2, SYMBOLIC), dict(beta=1, r=4)),
    "stirling1": (lambda p, n, k: p.stirling1(n, k, SYMBOLIC), dict(alpha=1, gamma=-1)),
    "unsigned_rstirling1": (lambda p, n, k: p.unsigned_rstirling1(n, k, 2, SYMBOLIC),
                            dict(alpha=-1, gamma=1, r=2)),
    "whitney": (lambda p, n, k: p.whitney(n, k, 2, SYMBOLIC), dict(beta=2, r=2)),
    "whitney_r": (lambda p, n, k: p.whitney_r(n, k, 3, 2, SYMBOLIC), dict(beta=3, r=3)),
}


@pytest.mark.parametrize("mutant", sorted(MUTANT_SHAPES))
def test_mutant_shapes_follow_the_recurrence(mutant):
    value, params = MUTANT_SHAPES[mutant]
    providers = MUTANT_PROVIDERS[mutant]
    for n, expected in enumerate(oracles.recurrence_rows(15, **params)):
        got = [value(providers, n, k) for k in range(n + 1)]
        assert [oracles.lambda_coeffs(v) for v in got] == expected, (mutant, n)


# shapes with gamma != 0: a fixed-lam triangle scales by the denominator of
# lam gcd(alpha, beta, gamma), which gamma keeps at 2 in the first two and
# lowers to 1 in the next two, so a scale that read gamma wrong would show;
# the mutants' shapes too
GCD_SHAPES = (
    dict(beta=2, gamma=2, r=1), dict(alpha=2, gamma=-2), dict(beta=2, gamma=1, r=1),
    dict(alpha=2, gamma=3, r=2), dict(alpha=-4, beta=6, gamma=-2, r=1),
    *(params for _, params in MUTANT_SHAPES.values()),
)


@pytest.mark.parametrize("params", GCD_SHAPES,
                         ids=lambda p: ",".join(f"{k}={v}" for k, v in p.items()))
@pytest.mark.parametrize("lam_value", [Fraction(1, 2), Fraction(1, 4)], ids=str)
def test_fixed_lambda_shapes_follow_the_recurrence(params, lam_value):
    triangle = _triangle._new_triangle(LambdaScalar.fixed(lam_value), **params)
    for n, expected in enumerate(oracles.recurrence_rows(N_MAX, **params)):
        got = [triangle.value(n, k) for k in range(n + 1)]
        assert all(type(v) is Fraction for v in got)
        assert got == [sum(c * lam_value ** i for i, c in enumerate(entry))
                       for entry in expected], (params, n)


def test_symbolic_zero_entries_are_zero_poly():
    # r = 0 leaves column 0 empty below row 0: the zero polynomial, not 0
    assert type(rstirling2_lambda(0, 0, 0, SYMBOLIC)) is Fraction
    for n in range(1, 6):
        entry = rstirling2_lambda(n, 0, 0, SYMBOLIC)
        assert type(entry) is Poly and entry.is_zero


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(lambda q: q != 0),
)
def test_second_kind_matches_difference_formula(n, k, r, lam_value):
    got = rstirling2_lambda(n, k, r, LambdaScalar.fixed(lam_value))
    assert type(got) is Fraction
    assert got == rstirling2_by_difference(n, k, r, lam_value)
