"""Whitney-type numbers, Dowling and Bell polynomials, and the numeric
Dobinski-style evaluator.

The Whitney-type numbers W(n, k) of parameter m (and shift r) are defined by
expanding (m x + r)^n in the generalized falling-factorial basis with the
powers of m factored out:

    (m x + r)^n = sum_k  W(n, k)  m^k  (x)_{k,lam}.

They satisfy the triangular recurrence W(n+1, k) = W(n, k-1) + (lam*m*k + r) W(n, k),
which is what the tabulation uses; the basis-expansion oracle below is the
independent check.  Dowling polynomials are the row sums d(n, x) =
sum_k W(n, k) x^k with r = 1, and the Bell polynomials are the same row sums
for the plain second-kind triangle; both are summed over the triangle's
integer rows by ``NumberTriangle.row_sum``.  The closed Dowling EGF
(``dowling_series``) is one exponential, exp(t + x (e^{lam m t} - 1)/(lam m)).

``dobinski_eval`` sums the infinite-series representation

    d(n, x) = e^{-x/(lam m)} sum_{k>=0} x^k / (k! m^k lam^k) * (lam m k + 1)^n

in high-precision floating point (lam > 0, x >= 0) with a rigorous
geometric-ratio tail bound, and records the exact rational reference value
next to the numeric one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .poly import LambdaScalar, RingElement
from .series import TruncatedSeries, _check_integer, _check_size, lambda_columns
from .stirling import _check_shift, _expansion, _triangle

_ZERO = Fraction(0)
DOBINSKI_DIGITS = 40  # decimal working precision of dobinski_eval


class UnsupportedDomainError(ValueError):
    """Parameters outside the domain where the numeric series converges."""


def _check_params(m: int, r: int) -> None:
    if not isinstance(m, int) or m < 1:
        raise ValueError("parameter m must be a positive integer")
    _check_shift(r)


def whitney_r(n: int, k: int, m: int, r: int, lam: LambdaScalar) -> RingElement:
    """Shifted Whitney-type number, tabulated by the recurrence
    W(n+1, k) = W(n, k-1) + (lam*m*k + r) * W(n, k)."""
    _check_params(m, r)
    return _triangle(lam, 0, m, r).value(n, k)


def whitney(n: int, k: int, m: int, lam: LambdaScalar) -> RingElement:
    """Whitney-type number with unit shift (the Dowling-lattice case)."""
    return whitney_r(n, k, m, 1, lam)


def whitney_r_by_expansion(n: int, k: int, m: int, r: int, lam: LambdaScalar) -> RingElement:
    """Definitional oracle: expand (m x + r)^n in the falling-factorial
    basis and divide coefficient k by m^k (the division is exact)."""
    _check_params(m, r)
    # checked before the cache, where n = 4.0 would find the key 4
    _check_integer(n, "n")
    _check_integer(k, "k")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return _ZERO
    return _expansion(n, m, r, lam)[k] / Fraction(m) ** k


def whitney_series(k: int, m: int, r: int, lam: LambdaScalar, order: int) -> TruncatedSeries:
    """EGF route: ((e^{lam m t} - 1)/(lam m))^k e^{r t} / k!, column k of
    ``series.lambda_columns`` built directly over the integers, carries the
    shifted Whitney-type numbers as EGF coefficients; r = 1 gives the plain
    family."""
    _check_params(m, r)
    return next(lambda_columns(m, r, lam, order, first=k))


def dowling_poly(n: int, x, m: int, lam: LambdaScalar) -> RingElement:
    """Dowling polynomial d(n, x) = sum_k W(n, k) x^k, summed over the
    integer form of the Whitney row (``NumberTriangle.row_sum``)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    x = Fraction(x)
    _check_params(m, 1)
    return _triangle(lam, 0, m, 1).row_sum(n, x)


def bell_poly_lambda(n: int, x, lam: LambdaScalar) -> RingElement:
    """Deformed Bell polynomial: row sum of the plain second-kind triangle
    against powers of x."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    x = Fraction(x)
    return _triangle(lam, 0, 1, 0).row_sum(n, x)


def dowling_series(x, m: int, lam: LambdaScalar, order: int) -> TruncatedSeries:
    """Closed Dowling EGF e^t * exp(x (e^{lam m t} - 1)/(lam m)), truncated,
    as the one exponential exp(t + x (e^{lam m t} - 1)/(lam m)).  Needs a
    fixed rational lambda (the exponent has lambda in a denominator)."""
    if lam.is_symbolic:
        raise ValueError("the closed Dowling EGF needs a fixed rational lambda")
    _check_size(order, "order")
    _check_params(m, 1)
    x = Fraction(x)
    lm = lam.value * m
    # the exponent has EGF coefficients 0, 1 + x, x lm, x lm^2, ...
    exponent = [_ZERO, 1 + x] + [x * lm**j for j in range(1, order)]
    return TruncatedSeries(exponent[: order + 1]).exp()


class DowlingValue(NamedTuple):
    """Numeric Dowling value with its exact reference and error accounting.

    ``numeric`` is an ``mpmath.mpf`` summed at a fixed ``DOBINSKI_DIGITS``
    (40) decimal digits;
    ``tail_bound`` bounds only the truncation of the series, as a float.
    The rounding error of the summation is not in it and can exceed it by
    far once the terms outgrow the working precision (at m = 2, lam = 1/2,
    x = 2 and n = 60 the numeric value is off by about 2.2e26).
    """

    n: int
    x: Fraction
    m: int
    lam: Fraction
    exact: Fraction
    numeric: object
    truncation_terms: int
    tail_bound: float


def _to_mpf(q: Fraction):
    import mpmath

    return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)


def dobinski_eval(n: int, x, m: int, lam, tol: float = 1e-12) -> DowlingValue:
    """Sum the Dobinski-style series for d(n, x) at fixed lam > 0, x >= 0.

    Terms t_k = x^k / (k! m^k lam^k) * (lam m k + 1)^n are positive and
    eventually decay super-geometrically; once t_{k+1}/t_k < 1/2 the
    remaining tail is below 2 t_{k+1}.  Summation stops when that bound,
    scaled by the e^{-x/(lam m)} prefactor twice over, falls below tol.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_params(m, 1)
    x = Fraction(x)
    lam = Fraction(lam)
    if lam <= 0:
        raise UnsupportedDomainError("the numeric series needs lambda > 0")
    if x < 0:
        raise UnsupportedDomainError("the numeric series needs x >= 0")
    if not tol > 0:
        raise ValueError("tolerance must be positive")

    import mpmath  # deferred: only the numeric evaluator needs it

    exact = dowling_poly(n, x, m, LambdaScalar.fixed(lam))
    with mpmath.workdps(DOBINSKI_DIGITS):
        c = _to_mpf(x / (lam * m))
        prefactor = mpmath.exp(-c)
        tol_scaled = mpmath.mpf(tol) * prefactor
        base = mpmath.mpf(1)  # x^k / (k! m^k lam^k)
        lam_m = _to_mpf(Fraction(lam * m))
        xf = _to_mpf(x)

        def term(k: int, base_k):
            return base_k * (lam_m * k + 1) ** n

        total = term(0, base)
        terms = 1
        previous = total
        for k in range(1, 100000):
            base = base * xf / (lam_m * k)
            t_k = term(k, base)
            if previous > 0 and t_k < previous / 2 and 2 * t_k < tol_scaled:
                tail = float(prefactor * 2 * t_k)
                return DowlingValue(
                    n=n, x=x, m=m, lam=lam, exact=exact,
                    numeric=prefactor * total,
                    truncation_terms=terms, tail_bound=tail,
                )
            total += t_k
            terms += 1
            previous = t_k
        raise ArithmeticError("series failed to reach the tail bound")
