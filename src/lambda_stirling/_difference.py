"""The finite-difference route: the closed form of the r-shifted second
kind, an alternating sum over k + 1 powers."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .poly import LambdaScalar, _check_index


def rstirling2_by_difference(n: int, k: int, r: int, lam_value) -> Fraction:
    """Finite-difference closed form for a fixed rational lambda:

        lam^(n-k) / k! * sum_{l=0}^{k} C(k,l) (-1)^(k-l) (l + r/lam)^n

    Equals the triangle entry for n >= k and vanishes for 0 <= n < k.
    ``lam_value`` is read by ``LambdaScalar.fixed``: a fixed scalar or its value.
    """
    _check_index(n, "n", 0)
    _check_index(k, "k", 0)
    _check_index(r, "shift r", 0)
    lam_value = LambdaScalar.fixed(lam_value).value
    shift = Fraction(r) / lam_value
    total = sum(
        comb(k, l) * (-1) ** (k - l) * (l + shift) ** n for l in range(k + 1)
    )
    return lam_value ** (n - k) * Fraction(total, factorial(k))


def classical_rstirling2(n: int, k: int, r: int) -> int:
    """Ordinary r-shifted second-kind number over the integers: the
    finite-difference closed form at lam = 1.  Serves as the independent
    reference for the lam -> 1 specialization."""
    _check_index(n, "n")
    _check_index(k, "k")
    _check_index(r, "shift r", 0)
    if n < 0 or k < 0:
        return 0
    value = rstirling2_by_difference(n, k, r, 1)
    if value.denominator != 1:
        raise ArithmeticError("alternating sum was not divisible by k!")
    return int(value)
