"""Higher-order Bernoulli numbers and polynomials: a facade over the EGF
route.

Defined through the EGF (t/(e^t - 1))^m e^{x t} = sum B_n^(m)(x) t^n / n!.
The order-m base coefficients B_n^(m) = B_n^(m)(0) are the EGF coefficients
of G^(-m), G = (e^t - 1)/t, read from the power table of k = -m
(``series._power_table``, which also holds the column EGFs' powers G^k);
a polynomial value is the table's binomial mix sum_j C(n,j) B_j^(m) x^(n-j).
With m = 1 this is the first-Bernoulli-number convention, B_1 = -1/2.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import _check_index, _rational
from .series import TruncatedSeries, _power_table


def bernoulli_base_series(m: int, order: int) -> TruncatedSeries:
    """(t/(e^t - 1))^m as a truncated EGF: the coefficients B_0..B_order
    of the order-m table, grown if needed."""
    _check_index(m, "order m", 1)  # before the cache, as in ``bernoulli_higher``
    _check_index(order, "truncation order", 0)
    den, nums = _power_table(-m)._snapshot(order)
    return TruncatedSeries([Fraction(c, den) for c in nums[: order + 1]])


def bernoulli_higher(n: int, m: int, x) -> Fraction:
    """B_n^(m)(x) for nonnegative integer n, positive integer order m,
    rational x (an ``int`` or a ``Fraction``)."""
    # checked before the cache, where a float m would find the table of
    # the equal int
    _check_index(m, "order m", 1)
    _check_index(n, "n", 0)
    x = _rational(x, "x")
    return _power_table(-m).value(n, x)
