"""Higher-order Bernoulli numbers and polynomials.

Defined through the EGF (t/(e^t - 1))^m e^{x t} = sum B_n^(m)(x) t^n / n!.
The order-m base coefficients B_n^(m) = B_n^(m)(0) are produced once from
the series engine (invert (e^t - 1)/t, raise to the m-th power) and cached;
a polynomial value is then the binomial mix sum_j C(n,j) B_j^(m) x^(n-j).
With m = 1 this is the first-Bernoulli-number convention, B_1 = -1/2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb
from threading import Lock

from .series import TruncatedSeries


def bernoulli_base_series(m: int, order: int) -> TruncatedSeries:
    """(t/(e^t - 1))^m as a truncated EGF."""
    if m < 1:
        raise ValueError("order m must be a positive integer")
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    # (e^t - 1)/t = sum t^n/(n+1)!, so its n-th EGF coefficient is 1/(n+1)
    core = TruncatedSeries([Fraction(1, n + 1) for n in range(order + 1)])
    return core.inverse() ** m


class BernoulliTable:
    """Cached base coefficients for one order m, grown on demand."""

    __slots__ = ("m", "_coeffs", "_lock")

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("order m must be a positive integer")
        self.m = m
        self._coeffs: tuple = ()
        self._lock = Lock()

    def base_coeff(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("index must be nonnegative")
        if n >= len(self._coeffs):
            with self._lock:
                if n >= len(self._coeffs):
                    order = max(8, 2 * n)
                    self._coeffs = bernoulli_base_series(self.m, order).coeffs
        return self._coeffs[n]

    def value(self, n: int, x) -> Fraction:
        x = Fraction(x)
        self.base_coeff(n)
        return sum(
            comb(n, j) * self._coeffs[j] * x ** (n - j) for j in range(n + 1)
        )


_table = cache(BernoulliTable)


def bernoulli_higher(n: int, m: int, x) -> Fraction:
    """B_n^(m)(x) for nonnegative n, positive integer order m, rational x."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _table(m).value(n, x)
