"""Higher-order Bernoulli numbers and polynomials.

Defined through the EGF (t/(e^t - 1))^m e^{x t} = sum B_n^(m)(x) t^n / n!.
The order-m base coefficients B_n^(m) = B_n^(m)(0) are the EGF coefficients
of ((e^t - 1)/t)^(-m), produced by the series power recurrence
(``series.power_coeffs``); a table grows by continuing that recurrence to
exactly the index asked for.  A polynomial value is then the binomial mix
sum_j C(n,j) B_j^(m) x^(n-j), summed by Horner's rule in x.  With m = 1 this
is the first-Bernoulli-number convention, B_1 = -1/2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb
from threading import Lock

from .series import TruncatedSeries, power_coeffs


def _check_order(m) -> None:
    if not isinstance(m, int) or m < 1:
        raise ValueError("order m must be a positive integer")


def _core(order: int) -> list:
    # (e^t - 1)/t = sum t^n/(n+1)!, so its n-th EGF coefficient is 1/(n+1)
    return [Fraction(1, n + 1) for n in range(order + 1)]


def bernoulli_base_series(m: int, order: int) -> TruncatedSeries:
    """(t/(e^t - 1))^m as a truncated EGF."""
    _check_order(m)
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    return TruncatedSeries(_core(order)) ** -m


class BernoulliTable:
    """Base coefficients for one order m, grown on demand, and the
    polynomial values built from them.

    The coefficient list only ever has finished values appended, so a read
    below its length needs no lock; growth takes the lock and continues the
    recurrence from wherever the list ends."""

    __slots__ = ("m", "_coeffs", "_lock")

    def __init__(self, m: int):
        _check_order(m)
        self.m = m
        self._coeffs = [Fraction(1)]
        self._lock = Lock()

    def base_coeff(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("index must be nonnegative")
        if n >= len(self._coeffs):
            with self._lock:
                power_coeffs(_core(n), -self.m, n, self._coeffs)
        return self._coeffs[n]

    def value(self, n: int, x) -> Fraction:
        if not isinstance(x, (int, Fraction)):
            raise ValueError("x must be an int or a Fraction")
        self.base_coeff(n)
        coeffs = self._coeffs
        x = Fraction(x)
        # Horner's rule in x: one product per term instead of a power
        value = Fraction(0)
        for j in range(n + 1):
            value = value * x + comb(n, j) * coeffs[j]
        return value


_table = cache(BernoulliTable)


def bernoulli_higher(n: int, m: int, x) -> Fraction:
    """B_n^(m)(x) for nonnegative n, positive integer order m, rational x
    (an ``int`` or a ``Fraction``)."""
    # checked before the cache, where a float m would find the table of
    # the equal int
    _check_order(m)
    return _table(m).value(n, x)
