"""Whitney-type numbers, Dowling and Bell polynomials, and the numeric
Dobinski-style evaluator: a facade that re-exports each public function
from the verification route that computes it, and the front end of the
Dobinski sum.

The Whitney-type numbers W(n, k) of parameter m and shift r are the
coefficients in (m x + r)^n = sum_k W(n, k) m^k (x)_{k,lam}.

* ``_triangle``, the recurrence: ``whitney``, ``whitney_r`` and the row sums
  ``dowling_poly`` and ``bell_poly_lambda``;
* ``_expansion``, the basis expansion: ``whitney_r_by_expansion``;
* ``series``, the EGFs: ``whitney_series`` and ``dowling_series``.

The identity suite reads the two triangles as its ``Providers`` defaults,
and the EGFs and ``dobinski_eval`` as attributes looked up at call time.

``dobinski_eval`` sums the Dobinski-style series on the domain that
``_dobinski_domain`` checks, exactly over ``int`` but for e^{-c}
(``_dobinski``, loaded with mpmath on the first call).  The result carries
two exact error bounds (``DowlingValue``) whose sum bounds |numeric - exact|,
after the style of midpoint-radius arithmetic (Johansson, "Arb", IEEE
Trans. Computers 66, 2017), and the exact value, read off the triangle; the
numeric sum reads none.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf
from typing import NamedTuple

from ._expansion import whitney_r_by_expansion
from ._triangle import bell_poly_lambda, dowling_poly, whitney, whitney_r
from .poly import SYMBOLIC, LambdaScalar, _check_index, _rational
from .series import dowling_series, whitney_series

DOBINSKI_DIGITS = 40  # least decimal working precision of dobinski_eval
DOBINSKI_TOL = 1e-12  # default tolerance of dobinski_eval
DOBINSKI_MAX_TERMS = 100000  # past this many terms the sum raises ArithmeticError


class UnsupportedDomainError(ValueError):
    """Parameters outside the domain where the numeric series converges."""


class DowlingValue(NamedTuple):
    """Numeric Dowling value with its exact reference and error accounting.

    ``numeric`` is an ``mpmath.mpf`` with ``working_dps`` decimal digits
    (at least ``DOBINSKI_DIGITS``).  ``truncation_terms`` terms were
    summed.  Two exact ``Fraction`` bounds add up to a bound on
    |numeric - exact|: ``truncation_bound`` on the tail of the series
    left out, and ``rounding_bound`` on the rest, which is the width of
    the enclosure of e^{-x/(lam m)} times the partial sum, plus the one
    rounding of ``numeric``.  ``tail_bound`` is twice the first omitted
    term times e^{-x/(lam m)}, rounded to a float as the CLI prints it; it
    is not a rigorous bound, since the float may round down or underflow
    to 0.0.
    """

    n: int
    x: Fraction
    m: int
    lam: Fraction
    exact: Fraction
    numeric: object
    truncation_terms: int
    tail_bound: float
    truncation_bound: Fraction
    rounding_bound: Fraction
    working_dps: int


def _dobinski_domain(x, m: int, lam) -> tuple:
    """x as a ``Fraction``, lam as a fixed ``LambdaScalar`` (read by
    ``LambdaScalar.fixed``) and lam m, in the series' domain: lam > 0, x >= 0,
    m >= 1 and 2c below the term cap, as t_k / t_(k-1) >= c / k, c = x/(lam m)."""
    if lam == SYMBOLIC:
        raise UnsupportedDomainError("the series evaluation needs a fixed rational lambda")
    lam = LambdaScalar.fixed(lam)
    _check_index(m, "parameter m", 1)
    x = _rational(x, "x")
    if lam.value < 0:
        raise UnsupportedDomainError("the numeric series needs lambda > 0")
    if x < 0:
        raise UnsupportedDomainError("the numeric series needs x >= 0")
    lm = lam.value * m
    if 2 * x.numerator * lm.denominator >= DOBINSKI_MAX_TERMS * lm.numerator * x.denominator:
        raise UnsupportedDomainError(
            f"the numeric series needs x/(lambda m) below {DOBINSKI_MAX_TERMS // 2}")
    return x, lam, lm


def dobinski_eval(n: int, x, m: int, lam, tol: float = DOBINSKI_TOL) -> DowlingValue:
    """Sum the Dobinski-style series for d(n, x) at fixed lam > 0, x >= 0.
    lam is a fixed ``LambdaScalar``, as everywhere else, or its bare value
    (an ``int`` or a ``Fraction``); x is read by the rational rule.

    Terms t_k = c^k / k! * (lam m k + 1)^n with c = x/(lam m) are positive
    and their ratio t_k/t_{k-1} decreases in k, so once it is below 1/2
    the remaining tail is below 2 t_k.  Summation stops at the first such
    k where 2 t_k is also below tol times a lower bound on e^{-c}, so the
    truncation error is below tol e^{-c} e^{-c}.  ``tol`` must be a
    positive and finite ``int``, ``float`` or ``Fraction``.
    """
    _check_index(n, "n", 0)
    x, lam, lm = _dobinski_domain(x, m, lam)
    if isinstance(tol, bool) or not isinstance(tol, (int, float, Fraction)) or not 0 < tol < inf:
        raise ValueError("tolerance must be positive and finite")

    from ._dobinski import dobinski_sum  # deferred: only this needs it and mpmath

    exact = dowling_poly(n, x, m, lam)
    return DowlingValue(n, x, m, lam.value, exact, *dobinski_sum(
        n, x / lm, lm, tol, DOBINSKI_DIGITS, DOBINSKI_MAX_TERMS))
