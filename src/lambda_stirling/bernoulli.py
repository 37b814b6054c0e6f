"""Higher-order Bernoulli numbers and polynomials.

Defined through the EGF (t/(e^t - 1))^m e^{x t} = sum B_n^(m)(x) t^n / n!.
The order-m base coefficients B_n^(m) = B_n^(m)(0) are the EGF coefficients
of G^(-m), G = (e^t - 1)/t (``series._core``, whose powers also give the
column EGFs), raised by J.C.P. Miller's power recurrence.  Its
multipliers are integers, so a table keeps the coefficients as integer
numerators N_j = D B_j^(m) over one common denominator D and grows them
over ``int`` (``series._power_ints``), continuing the recurrence to exactly
the index asked for; ``bernoulli_base_series`` and ``bernoulli_higher`` read
the same cached table.  A polynomial value is the binomial mix
sum_j C(n,j) B_j^(m) x^(n-j); at x = a/b it is one integer Horner pass,
sum_j C(n,j) N_j a^(n-j) b^j, divided once by D b^n.
With m = 1 this is the first-Bernoulli-number convention, B_1 = -1/2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import repeat
from math import comb
from operator import mul
from threading import Lock

from .poly import _check_index, _horner, _rational
from .series import TruncatedSeries, _core, _power_ints


class BernoulliTable:
    """Base coefficients for one order m, grown on demand, and the
    polynomial values built from them.

    The coefficients B_0..B_N are held as one pair (D, [N_0..N_N]) of a
    positive common denominator and integer numerators, B_j = N_j / D.
    Growth takes the lock and continues the recurrence over ``int`` from
    wherever the list ends.  It appends to the list in place while D stays,
    and when a new coefficient needs a larger D it rescales every numerator
    into a new list and publishes the new pair whole.  So a reader takes
    one snapshot of the pair and reads only below that list's length: it
    never needs the lock, and never pairs numerators with another D.  Each
    read reduces once, to one ``Fraction``.  Its callers check m, n and x."""

    __slots__ = ("m", "_state", "_lock")

    def __init__(self, m: int):
        self.m = m
        self._state = (1, [1])
        self._lock = Lock()

    def _snapshot(self, n: int) -> tuple:
        """A consistent (D, numerators) pair that reaches index n >= 0."""
        state = self._state
        if n >= len(state[1]):
            with self._lock:
                den, nums = self._state
                if n >= len(nums):
                    nums, den = _power_ints(_core(n), -self.m, n, nums, den)
                    self._state = (den, nums)
                state = self._state
        return state

    def value(self, n: int, x: Fraction) -> Fraction:
        den, nums = self._snapshot(n)
        a, b = x.numerator, x.denominator
        # the coefficient of x^k is C(n, k) B_(n-k)
        coeffs = list(map(mul, map(comb, repeat(n), range(n + 1)),
                          reversed(nums[: n + 1])))
        return Fraction(_horner(coeffs, a, b), den * b**n)


_table = cache(BernoulliTable)


def bernoulli_base_series(m: int, order: int) -> TruncatedSeries:
    """(t/(e^t - 1))^m as a truncated EGF: the coefficients B_0..B_order
    of the order-m table, grown if needed."""
    _check_index(m, "order m", 1)  # before the cache, as in ``bernoulli_higher``
    _check_index(order, "truncation order", 0)
    den, nums = _table(m)._snapshot(order)
    return TruncatedSeries([Fraction(c, den) for c in nums[: order + 1]])


def bernoulli_higher(n: int, m: int, x) -> Fraction:
    """B_n^(m)(x) for nonnegative integer n, positive integer order m,
    rational x (an ``int`` or a ``Fraction``)."""
    # checked before the cache, where a float m would find the table of
    # the equal int
    _check_index(m, "order m", 1)
    _check_index(n, "n", 0)
    x = _rational(x, "x")
    return _table(m).value(n, x)
