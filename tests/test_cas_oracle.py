"""An outside oracle: sympy computes the same values its own way.

Every route and every oracle elsewhere in the repository is written here,
so a misreading of the paper that two of them share would pass every
other check.  sympy, which this module alone imports, gives:

* the EGF columns ((e^{lam m t} - 1)/m)^k e^{r t} / (lam^k k!) as power
  series over Q[lam] (``sympy.polys.ring_series``), against the symbolic
  triangles and ``whitney_series``, for k <= 4, r in {0, 1, 2},
  m in {1, 2} and n <= 8;
* B_n^(m)(x), the EGF coefficients of (t/(e^t - 1))^m e^{x t} over Q[x],
  against ``bernoulli_higher`` for m <= 3 and n <= 8;
* ``sympy.bell(n, x)`` against the Bell row at lambda = 1;
* the Dobinski sum at lambda = 1 and m = 1, e^{-x} sum_k x^k (k + 1)^n / k!,
  as a 50-digit ``sympy.Sum``, against ``dobinski_eval``: the two differ by
  at most its truncation and rounding bounds plus 1e-45.
"""

from fractions import Fraction
from math import factorial

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.ring_series import rs_exp, rs_mul, rs_pow, rs_series_inversion  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

from lambda_stirling import (  # noqa: E402
    SYMBOLIC, LambdaScalar, Poly, bell_poly_lambda, bernoulli_higher, dobinski_eval,
    rstirling2_lambda, whitney_r, whitney_series,
)

ORDER = 8
LAM = sympy.Symbol("L")
X_VALUES = (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(3))


def to_sympy(value):
    """A ring element of the library (an ``int``, a ``Fraction`` or a
    ``Poly`` in lambda) as a sympy expression in ``LAM``."""
    if isinstance(value, Poly):
        return sympy.Add(*(to_sympy(value.coeff(i)) * LAM**i
                           for i in range(value.degree + 1)))
    return sympy.Rational(value.numerator, value.denominator)


def egf_coefficients(series, t, scale=1) -> list:
    """n! [t^n] of a ring series for n <= ORDER, divided by ``scale``, as
    sympy expressions."""
    return [series.coeff_wrt(t, n).as_expr() * factorial(n) / scale
            for n in range(ORDER + 1)]


def sympy_columns(m: int, r: int) -> list:
    """Columns k <= 4 of ((e^{lam m t} - 1)/m)^k e^{r t} / (lam^k k!)."""
    _, t, lam = ring("t, L", sympy.QQ)
    prec = ORDER + 1
    shift = rs_exp(r * t, t, prec)
    base = rs_exp(lam * m * t, t, prec) - 1
    return [egf_coefficients(rs_mul(rs_pow(base, k, t, prec), shift, t, prec)
                             .exquo((lam * m) ** k), t, factorial(k))
            for k in range(5)]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("r", [0, 1, 2])
def test_symbolic_columns_match_sympy(m, r):
    for k, column in enumerate(sympy_columns(m, r)):
        series = whitney_series(k, m, r, SYMBOLIC, ORDER)
        for n, expected in enumerate(column):
            reads = [whitney_r(n, k, m, r, SYMBOLIC), series.coeff(n)]
            if m == 1:
                reads.append(rstirling2_lambda(n, k, r, SYMBOLIC))
            for value in reads:
                assert sympy.expand(to_sympy(value) - expected) == 0, (n, k)


def test_a_column_entry_is_the_known_polynomial():
    # ((e^{lam t} - 1)/lam)^3 e^{2t}/3! at n = 5
    assert sympy.expand(sympy_columns(1, 2)[3][5]) == 25 * LAM**2 + 60 * LAM + 40


def sympy_bernoulli(m: int) -> list:
    """B_n^(m)(x) for n <= ORDER, in the symbol x."""
    _, t, x = ring("t, x", sympy.QQ)
    prec = ORDER + 1
    g = (rs_exp(t, t, prec + 1) - 1).exquo(t)  # (e^t - 1)/t
    power = rs_pow(rs_series_inversion(g, t, prec), m, t, prec)
    return egf_coefficients(rs_mul(power, rs_exp(x * t, t, prec), t, prec), t)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_higher_bernoulli_matches_sympy(m):
    x = sympy.Symbol("x")
    for n, polynomial in enumerate(sympy_bernoulli(m)):
        for value in X_VALUES:
            assert to_sympy(bernoulli_higher(n, m, value)) == polynomial.subs(
                x, to_sympy(value)), (n, value)


def test_a_bernoulli_value_is_the_known_one():
    assert sympy_bernoulli(2)[4].subs(sympy.Symbol("x"), sympy.Rational(1, 2)) == \
        sympy.Rational(-7, 80)


@pytest.mark.parametrize("x", X_VALUES[1:], ids=str)
def test_bell_row_matches_sympy_at_lambda_one(x):
    one = LambdaScalar.fixed(1)
    for n in range(11):
        assert to_sympy(bell_poly_lambda(n, x, one)) == sympy.bell(n, to_sympy(x)), n


@pytest.mark.parametrize("n", [0, 5, 9])
@pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(2, 3), Fraction(2)], ids=str)
def test_dobinski_matches_a_50_digit_sympy_sum(n, x):
    value = dobinski_eval(n, x, 1, 1)
    k = sympy.Symbol("k", integer=True, nonnegative=True)
    c = to_sympy(x)
    total = sympy.exp(-c) * sympy.Sum(c**k * (k + 1) ** n / sympy.factorial(k), (k, 0, sympy.oo))
    reference = sympy.Rational(total.evalf(50))
    numeric = Fraction(value.numeric.man) * Fraction(2) ** value.numeric.exp
    error = abs(numeric - Fraction(int(reference.p), int(reference.q)))
    assert error <= value.truncation_bound + value.rounding_bound + Fraction(1, 10**45)
