"""Truncated exponential generating functions over the exact rings.

A ``TruncatedSeries`` of order N stores coefficients a_0..a_N under the EGF
convention: the series represents sum a_n t^n / n!.  It is the immutable
value the column, Dowling and Bernoulli functions return, with rational
coefficients, or lambda-polynomials in symbolic mode.  Besides reading
coefficients it has three operations: the product of two series (a binomial
convolution, truncated to the smaller order), ``exp`` of a series with zero
constant term, and any integer power of a rational series with a nonzero
constant term, the inverse included.

The column EGFs of the paper are one family: column k of the Whitney-type
r-Stirling numbers of parameter m is ((e^{lam m t} - 1)/(lam m))^k e^{r t} / k!,
and the r-shifted second kind is its m = 1 case.  ``lambda_columns``
builds every column over ``int``, never divides by lam, and stays
independent of the triangles it checks; its docstring gives the formula.

A power is one O(N^2) pass of J.C.P. Miller's recurrence, whose multipliers
are integers, so it runs on integer numerators that share one denominator
(``_power_ints``) and reduces once per coefficient, to one ``Fraction``; the
Bernoulli tables keep that integer form and grow it in place.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, repeat
from math import comb, factorial, gcd
from operator import mul, sub

from .poly import (LambdaScalar, Poly, RingElement, _Frozen, _binary_power, _check_index,
                   _check_lambda, _common_denominator, _element, format_element)


class TruncatedSeries(_Frozen):
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        items = tuple(_element(c, "coefficient") for c in coeffs)
        if not items:
            raise ValueError("a series needs at least the order-0 coefficient")
        object.__setattr__(self, "coeffs", items)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> RingElement:
        if type(n) is not int:
            _check_index(n, "n")
        if not 0 <= n < len(self.coeffs):
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __reduce__(self):
        return (TruncatedSeries, (self.coeffs,))

    def __mul__(self, other):
        """The series product (``_binomial_product``), truncated to the
        smaller order.  The other factor must be a series too."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return TruncatedSeries(_binomial_product(self.coeffs, other.coeffs, order))

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        """A^k for any integer k, in one O(N^2) pass of Miller's recurrence
        over ``int`` (``_power_ints``).  Every coefficient must be rational
        and the constant term nonzero."""
        _check_index(exponent, "series exponent")
        a = self.coeffs
        if any(isinstance(c, Poly) for c in a):
            raise ValueError("series powers need rational coefficients")
        if a[0] == 0:
            raise ValueError("series powers need a nonzero constant term")
        b0 = a[0] ** exponent
        nums, den = _power_ints(_common_denominator(a)[0], exponent, self.order,
                                [b0.numerator], b0.denominator)
        return TruncatedSeries([Fraction(c, den) for c in nums])

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be nonzero."""
        return self ** -1

    def exp(self) -> "TruncatedSeries":
        """Exponential of a series with zero constant term (``_exp_coeffs``)."""
        a = self.coeffs
        if not a[0] == 0:
            raise ValueError("exp needs a zero constant term")
        return TruncatedSeries(_exp_coeffs(a[1:], self.order))

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "egf_coeffs": [format_element(c) for c in self.coeffs],
        }

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"


def _miller_multipliers(k: int, n: int) -> list:
    """k C(n, i-1) - C(n, i) for i = 1..n+1: the integer multipliers of
    step n of Miller's recurrence (C(n, n+1) = 0)."""
    binomials = list(map(comb, repeat(n), range(n + 2)))
    return list(map(sub, map(mul, repeat(k), binomials), binomials[1:]))


def _power_ints(alpha: list, k: int, order: int, nums: list, den: int):
    """Miller's recurrence for A^k over ``int``: the coefficients a_i are
    alpha_i / c for any common denominator c (the recurrence does not see
    c), and b_j = nums[j] / den for one positive ``den``.  Extends ``nums``
    to b_0..b_order and returns ``(nums, den)``.

    Each step sums s = sum_i (k C(n, i-1) - C(n, i)) alpha_i nums[n+1-i]
    over ``int``, so b_{n+1} = s / (alpha_0 den), reduced by one gcd.  When
    that denominator does not divide ``den``, ``den`` is raised to their
    lcm and every numerator rescaled into a new list; otherwise ``nums`` is
    appended to in place.  A list handed in is therefore never changed
    below its length, and the pair returned is always consistent."""
    a0, tail = alpha[0], alpha[1:]
    for n in range(len(nums) - 1, order):
        num = _dot(_miller_multipliers(k, n), tail, reversed(nums))
        d = a0 * den
        g = gcd(num, d)
        if d < 0:
            g = -g
        num, d = num // g, d // g
        if den % d:
            scale = d // gcd(den, d)
            nums = [c * scale for c in nums]
            den *= scale
        nums.append(num * (den // d))
    return nums, den


def _dot(x, y, z):
    """sum_i x_i y_i z_i, as long as the shortest input."""
    return sum(map(mul, map(mul, x, y), z))


def _exp_coeffs(alpha, order: int) -> list:
    """EGF coefficients b_0..b_order of e^A, where A has a_0 = 0 and
    a_j = alpha[j-1]: the recurrence b_n = sum_{j=1..n} C(n-1, j-1) a_j
    b_{n-j} that b' = a' b gives, from b_0 = 1, in the ring of alpha
    (``int`` included)."""
    b = [1]
    for n in range(1, order + 1):
        b.append(_dot(map(comb, repeat(n - 1), range(n)), alpha, reversed(b)))
    return b


def _binomial_product(a, b, order: int) -> list:
    """EGF coefficients 0..order of the product of two series given by
    their EGF coefficients (``int``, ``Fraction`` or ``Poly``): the binomial
    convolution, summed only where both factors can be nonzero."""
    va = next((i for i, c in enumerate(a) if c), order + 1)
    vb = next((i for i, c in enumerate(b) if c), order + 1)
    # term l of coefficient n is C(n, l) a_l b_(n-l), for va <= l <= n - vb
    return [
        _dot(map(comb, repeat(n), range(va, n - vb + 1)), a[va:],
             reversed(b[vb : n - va + 1]))
        for n in range(order + 1)
    ]


def lambda_columns(m: int, r: int, lam: LambdaScalar, order: int, first: int = 0):
    """Yield the columns C_k = ((e^{lam m t} - 1)/(lam m))^k e^{r t} / k!,
    k = first, first + 1, ..., truncated at ``order``.

    The base E = (e^{lam m t} - 1)/(lam m) has EGF coefficients 0 and then
    (lam m)^(n-1), so it is homogeneous: [E^k]_n = eta_{k,n} (lam m)^(n-k),
    where eta_k holds the ``int`` EGF coefficients of (e^t - 1)^k, which do
    not depend on lam, m or r.  Column k is then the binomial mix

        C_k[n] = sum_{l=k..n} C(n, l) eta_{k,l} (lam m)^(l-k) r^(n-l) / k!.

    eta_first is a repeated squaring of e^t - 1 and each later column of
    the walk takes eta_k = eta_{k-1} (e^t - 1), all by integer series
    products.  The derivative recurrence eta_k[n+1] = k (eta_k[n] +
    eta_{k-1}[n]) is the triangle's own recurrence and is not used: the EGF
    route must stay independent of the triangles it checks.

    With lam m = P/q, coefficient n is one ``Fraction`` of
    sum_l C(n, l) eta_{k,l} P^(l-k) (q r)^(n-l) over k! q^(n-k).  With lam
    symbolic it is one ``Poly`` whose lam^j coefficient is
    C(n, j+k) eta_{k,j+k} m^j r^(n-j-k) / k!: the same sum with P = m and
    q = 1, kept term by term as integer numerators over k!
    (``Poly.from_ints``).  Column 0 holds the ``Fraction`` powers of r,
    and a column past ``order`` is zero without being computed.  Symbolic
    columns with k >= 1 hold only ``Poly`` coefficients, all others only
    ``Fraction``.  A column takes O(order) memory: lists of length
    order + 1, with each binomial C(n, l) taken from ``math.comb`` as it
    is used."""
    _check_index(first, "k", 0)
    _check_index(order, "order", 0)
    _check_lambda(lam)
    symbolic = lam.is_symbolic
    lm = Fraction(m) if symbolic else lam.value * m
    p_powers, q_powers, qr_powers = (
        [c**j for j in range(order + 1)]
        for c in (lm.numerator, lm.denominator, lm.denominator * r)
    )
    zero = Poly() if symbolic else Fraction(0)
    e_t_minus_1 = [0] + [1] * order
    eta = None
    for k in count(first):
        if k > order:
            column = TruncatedSeries([zero] * (order + 1))
            while True:
                yield column
        if k == 0:
            yield TruncatedSeries([Fraction(r) ** n for n in range(order + 1)])
            continue
        if eta is None:
            eta = _binary_power(
                e_t_minus_1, k, lambda x, y: _binomial_product(x, y, order))
        else:
            eta = _binomial_product(eta, e_t_minus_1, order)
        # weights[j] = eta_{k,k+j} P^j
        weights = [e * p for e, p in zip(eta[k:], p_powers)]
        scale = factorial(k)
        coeffs = [zero] * k
        for n in range(k, order + 1):
            # term j is C(n, k+j) weights[j] (q r)^(n-k-j)
            binomials = map(comb, repeat(n), range(k, n + 1))
            qr_tail = reversed(qr_powers[: n - k + 1])
            if symbolic:
                coeffs.append(Poly.from_ints(
                    [c * w * t for c, w, t in zip(binomials, weights, qr_tail)],
                    scale))
            else:
                total = _dot(binomials, weights, qr_tail)
                coeffs.append(Fraction(total, scale * q_powers[n - k]))
        yield TruncatedSeries(coeffs)
