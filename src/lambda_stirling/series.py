"""Truncated exponential generating functions over the exact rings.

A ``TruncatedSeries`` of order N stores coefficients a_0..a_N under the EGF
convention: the series represents sum a_n t^n / n!.  Products are therefore
binomial convolutions and coefficients are read off without factorial
bookkeeping.  Binary operations between series of different orders truncate
to the smaller order.  Coefficients are rationals, or lambda-polynomials in
symbolic mode; instances are immutable.

The column EGFs of the paper are one family: column k of the Whitney-type
r-Stirling numbers of parameter m is ((e^{lam m t} - 1)/(lam m))^k e^{r t} / k!,
and the r-shifted second kind is its m = 1 case.  ``lambda_columns`` builds
them from the closed-form base E = (e^{lam m t} - 1)/(lam m), whose EGF
coefficients are 0 and then (lam m)^(n-1).  These are polynomials in lam even
when lam is symbolic, so no step divides by lam.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import comb

from .poly import LambdaScalar, Poly, RingElement, _coerce, format_element


class TruncatedSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        items = tuple(_coerce(c) for c in coeffs)
        if not items:
            raise ValueError("a series needs at least the order-0 coefficient")
        self.coeffs = items

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        """The constant series 1 = e^{0 t}."""
        return cls.exp_linear(Fraction(0), order)

    @classmethod
    def exp_linear(cls, c, order: int) -> "TruncatedSeries":
        """e^{c t}: EGF coefficients are the powers c^n."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        c = _coerce(c)
        coeffs = [Fraction(1)]
        for _ in range(order):
            coeffs.append(coeffs[-1] * c)
        return cls(coeffs)

    def coeff(self, n: int) -> RingElement:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def _align(self, other: "TruncatedSeries"):
        n = min(self.order, other.order)
        return self.coeffs[: n + 1], other.coeffs[: n + 1]

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            coeffs = list(self.coeffs)
            coeffs[0] = coeffs[0] + other
            return TruncatedSeries(coeffs)
        a, b = self._align(other)
        return TruncatedSeries([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self + (-_coerce(other))
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return TruncatedSeries([c * other for c in self.coeffs])
        a, b = self._align(other)
        out = []
        for n in range(len(a)):
            out.append(sum((comb(n, l) * a[l]) * b[n - l] for l in range(n + 1)))
        return TruncatedSeries(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise ValueError("negative series power; use inverse()")
        result = TruncatedSeries.one(self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be invertible
        (nonzero rational, or a nonzero constant polynomial)."""
        c0 = self.coeffs[0]
        if isinstance(c0, Poly):
            if c0.degree != 0:
                raise ValueError("constant term is not invertible in the ring")
            c0 = c0.coeffs[0]
        if c0 == 0:
            raise ValueError("constant term is not invertible in the ring")
        inv0 = Fraction(1) / c0
        out: list = [inv0]
        for n in range(1, self.order + 1):
            acc = sum(
                (comb(n, l) * self.coeffs[l]) * out[n - l] for l in range(1, n + 1)
            )
            out.append(-inv0 * acc)
        return TruncatedSeries(out)

    def exp(self) -> "TruncatedSeries":
        """Exponential of a series with zero constant term, by the EGF
        recurrence b_n = sum_{j=1..n} C(n-1, j-1) a_j b_{n-j} that b' = a' b
        gives for b = e^a."""
        a = self.coeffs
        if not a[0] == 0:
            raise ValueError("exp needs a zero constant term")
        b = [Fraction(1)]
        for n in range(1, len(a)):
            b.append(sum(comb(n - 1, j - 1) * a[j] * b[n - j] for j in range(1, n + 1)))
        return TruncatedSeries(b)

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "egf_coeffs": [format_element(c) for c in self.coeffs],
        }

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"


def lambda_columns(m: int, r: int, lam: LambdaScalar, order: int):
    """Yield the columns C_k = ((e^{lam m t} - 1)/(lam m))^k e^{r t} / k!,
    k = 0, 1, 2, ..., truncated at ``order``: C_0 = e^{r t} and
    C_k = C_{k-1} E / k with the base E = (e^{lam m t} - 1)/(lam m).
    Symbolic columns with k >= 1 hold only ``Poly`` coefficients, all
    others only ``Fraction``."""
    # a zero Poly as E_0 makes every coefficient of a symbolic product a Poly
    zero = Poly() if lam.is_symbolic else Fraction(0)
    powers = TruncatedSeries.exp_linear(lam.element * m, order).coeffs
    base = TruncatedSeries((zero,) + powers[:-1])
    column = TruncatedSeries.exp_linear(Fraction(r), order)
    for k in count(1):
        yield column
        column = column * base * Fraction(1, k)
