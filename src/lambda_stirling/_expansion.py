"""The expansion route, the definition itself: a polynomial written in the
falling-factorial basis (x)_{k,lam} = x(x-lam)...(x-(k-1)lam), and the
oracles ``whitney_r_by_expansion`` and its m = 1 case
``rstirling2_by_expansion``, which read the expansion of (m x + r)^n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .poly import LambdaScalar, Poly, RingElement, _check_index, _check_lambda, _falling_basis


class BasisExpansion(NamedTuple):
    """A polynomial written in the generalized falling-factorial basis."""

    target: Poly
    lam: LambdaScalar
    coefficients: tuple

    def reconstruct(self) -> Poly:
        """Re-expand sum_k c_k (x)_{k,lam}; must reproduce the target."""
        total = Poly.zero()
        basis = _falling_basis(len(self.coefficients) - 1, self.lam)
        for b, c in zip(basis, self.coefficients):
            total = total + b.scale(c)
        return total


def expand_in_falling_basis(target: Poly, lam: LambdaScalar) -> BasisExpansion:
    """Expand a polynomial in the basis (x)_{k,lam} by leading-term
    elimination: the basis is monic of degree k, so coefficients are read
    off from the top degree downward.  This is the definitional oracle the
    recurrences are tested against."""
    if not isinstance(target, Poly):
        raise TypeError("target must be a Poly")
    d = target.degree  # -1 for the zero target, which has no coefficients
    basis = _falling_basis(d, lam)
    coefficients = [Fraction(0)] * (d + 1)
    work = target
    for k in range(d, -1, -1):
        c = work.coeff(k)
        coefficients[k] = c
        if not c == 0:
            work = work - basis[k].scale(c)
    if not work.is_zero:
        raise ArithmeticError("elimination left a nonzero remainder")
    return BasisExpansion(target=target, lam=lam, coefficients=tuple(coefficients))


@cache
def _expansion(n: int, m: int, r: int, lam: LambdaScalar) -> tuple:
    """Coefficient k of (m x + r)^n in the basis (x)_{k,lam} over m^k, k <= n."""
    target = Poly([Fraction(r), Fraction(m)]) ** n
    coefficients = expand_in_falling_basis(target, lam).coefficients
    return tuple(c / Fraction(m) ** k for k, c in enumerate(coefficients))


def whitney_r_by_expansion(n: int, k: int, m: int, r: int, lam: LambdaScalar) -> RingElement:
    """Definitional oracle: expand (m x + r)^n in the falling-factorial
    basis and divide coefficient k by m^k (the division is exact); zero
    outside 0 <= k <= n."""
    _check_index(m, "parameter m", 1)
    _check_index(r, "shift r", 0)
    # checked before the cache, where n = 3.0 would find the key 3 and an
    # unhashable lam would raise the cache's own TypeError
    _check_index(n, "n", 0)
    _check_index(k, "k")
    _check_lambda(lam)
    coefficients = _expansion(n, m, r, lam)
    if 0 <= k <= n:
        return coefficients[k]
    return Fraction(0)


def rstirling2_by_expansion(n: int, k: int, r: int, lam: LambdaScalar) -> RingElement:
    """Definitional route for the r-shifted second kind: expand (x+r)^n in
    the falling-factorial basis and read off coefficient k."""
    return whitney_r_by_expansion(n, k, 1, r, lam)
