"""Truncated exponential generating functions over the exact rings.

A ``TruncatedSeries`` of order N stores coefficients a_0..a_N under the EGF
convention: the series represents sum a_n t^n / n!.  It is the immutable
value the column, Dowling and Bernoulli functions return, with rational
coefficients, or lambda-polynomials in symbolic mode.  Besides reading
coefficients it has three operations: the product of two series (a binomial
convolution, truncated to the smaller order), ``exp`` of a series with zero
constant term, and any integer power of a rational series with a nonzero
constant term, the inverse included.

The column EGFs of the paper and the higher-order Bernoulli bases are powers
of one series, G = (e^t - 1)/t (``_core``): column k of the Whitney-type
r-Stirling numbers of parameter m is (t^k / k!) G^k(lam m t) e^{r t}, the
r-shifted second kind is its m = 1 case, and the order-m Bernoulli base is
G^(-m).  Every power is one O(N^2) pass of J.C.P. Miller's recurrence, whose
multipliers are integers, so it runs on integer numerators over one
denominator (``_power_ints``).  G^k depends on k alone, so one cached table
per nonzero k (``_power_table``) keeps that form and grows it in place: the
columns read k >= 1, the Bernoulli bases k = -m.  The column function
``whitney_series`` (``second_kind_series`` is its m = 1 call) mixes lam, m
and r in on every call, never divides by lam, and reads no triangle.  The
higher-order Bernoulli numbers B_n^(m) are the EGF coefficients of
(t/(e^t - 1))^m = G^(-m) (``bernoulli_base_series``), and B_n^(m)(x), the
coefficients of G^(-m) e^{x t}, the table's binomial mix sum_j C(n, j)
B_j^(m) x^(n-j) (``bernoulli_higher``); at m = 1, B_1 = -1/2.  The closed
Dowling EGF (``dowling_series``) is one exponential, over ``int``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import repeat
from math import comb, gcd, lcm
from operator import mul, sub
from threading import Lock

from .poly import (LambdaScalar, Poly, RingElement, _Frozen, _check_index,
                   _check_lambda, _common_denominator, _element, _horner,
                   _rational, format_element)


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
        binomials = list(map(comb, repeat(n), range(n + 2)))  # C(n, n+1) = 0
        multipliers = map(sub, map(mul, repeat(k), binomials), binomials[1:])
        num = _dot(multipliers, tail, reversed(nums))
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


def dowling_series(x, m: int, lam: LambdaScalar, order: int) -> TruncatedSeries:
    """Closed Dowling EGF e^t * exp(x (e^{lam m t} - 1)/(lam m)), truncated,
    as the one exponential exp(t + x (e^{lam m t} - 1)/(lam m)).  Needs a
    fixed rational lambda (the exponent has lambda in a denominator).

    The exponent has EGF coefficients A = 0, 1 + x, x lm, x lm^2, ... with
    lm = lam m, and ``_exp_coeffs`` runs the exp recurrence over ``int``:
    with x = a/b and lm = p/q, every coefficient is scaled by (b q)^n, so
    A_1 becomes (a + b) q and A_j becomes a q (p b)^(j-1), and B_n is
    published as one ``Fraction`` over (b q)^n."""
    _check_lambda(lam)
    if lam.is_symbolic:
        raise ValueError("the closed Dowling EGF needs a fixed rational lambda")
    _check_index(order, "order", 0)
    _check_index(m, "parameter m", 1)
    x = _rational(x, "x")
    lm = lam.value * m
    a, b, q = x.numerator, x.denominator, lm.denominator
    alpha = [(a + b) * q] + [a * q * (lm.numerator * b) ** j for j in range(1, order)]
    bq = b * q
    return TruncatedSeries(
        [Fraction(c, bq**n) for n, c in enumerate(_exp_coeffs(alpha, order))])


def _binomial_product(a, b, order: int) -> list:
    """EGF coefficients 0..order of the product of two series given by
    their EGF coefficients (``int``, ``Fraction`` or ``Poly``): the binomial
    convolution, whose coefficient n sums C(n, l) a_l b_(n-l) over l <= n."""
    return [_dot(map(comb, repeat(n), range(n + 1)), a, reversed(b[: n + 1]))
            for n in range(order + 1)]


def _core(order: int) -> list:
    """The EGF coefficients 1/(n+1), n = 0..order, of G = (e^t - 1)/t =
    sum t^n/(n+1)!, as integer numerators over lcm(1..order+1), which the
    recurrence does not need."""
    den = lcm(*range(1, order + 2))
    return [den // n for n in range(1, order + 2)]


class _PowerTable:
    """The EGF coefficients h_j of G^k, G = (e^t - 1)/t, for one nonzero
    integer k, grown on demand, as one pair (D, [N_0..N_N]) of a positive
    common denominator and integer numerators, h_j = N_j / D.  Growth takes
    the lock and continues the recurrence from wherever the list ends: it
    appends in place while D stays, and publishes a new pair whole when D
    grows.  So a reader takes one snapshot and reads only below that list's
    length, without the lock and never over another D.  Callers check k, n
    and x."""

    __slots__ = ("k", "_state", "_lock")

    def __init__(self, k: int):
        self.k = k
        self._state = (1, [1])
        self._lock = Lock()

    def _snapshot(self, n: int) -> tuple:
        """A consistent (D, numerators) pair that reaches index n >= 0."""
        state = self._state
        if n >= len(state[1]):
            with self._lock:
                den, nums = self._state
                if n >= len(nums):
                    nums, den = _power_ints(_core(n), self.k, n, nums, den)
                    self._state = (den, nums)
                state = self._state
        return state

    def value(self, n: int, x: Fraction) -> Fraction:
        """EGF coefficient n of G^k e^{x t}, sum_j C(n, j) h_j x^(n-j): at
        x = a/b one integer Horner pass, sum_j C(n, j) N_j a^(n-j) b^j,
        reduced once to one ``Fraction`` over D b^n."""
        den, nums = self._snapshot(n)
        a, b = x.numerator, x.denominator
        coeffs = list(map(mul, map(comb, repeat(n), range(n + 1)),
                          reversed(nums[: n + 1])))
        return Fraction(_horner(coeffs, a, b), den * b**n)


_power_table = cache(_PowerTable)


def whitney_series(k: int, m: int, r: int, lam: LambdaScalar, order: int) -> TruncatedSeries:
    """EGF route: column k of the Whitney-type r-Stirling numbers of
    parameter m, C_k = ((e^{lam m t} - 1)/(lam m))^k e^{r t} / k! =
    (t^k / k!) G^k(lam m t) e^{r t} with G = (e^t - 1)/t, truncated at
    ``order``; its EGF coefficients are the shifted Whitney-type numbers
    (r = 1: the plain family).

    The table of G^k (``_power_table``) gives h_j = N_j / D, j <= order - k,
    which do not depend on lam, m or r; then C_k[n] = C(n, k) s_(n-k), where
    s_i = sum_j C(i, j) h_j (lam m)^j r^(i-j) is the EGF coefficient of
    G^k(lam m t) e^{r t}.  With lam m = P/q, w_j = N_j P^j and x = q r,
    s_i D q^i is the first entry of row i of the shift T_0 = w,
    T_(l+1)[j] = T_l[j+1] + x T_l[j] (additions and one product per entry),
    and coefficient n is one ``Fraction`` over D q^(n-k).  With lam symbolic
    it is one ``Poly`` whose lam^j coefficient is C(n, k) C(n-k, j) N_j m^j
    r^(n-k-j) / D (``Poly.from_ints``).  No step divides by lam, and no
    triangle is read: the EGF route stays independent of the triangles it
    checks.  Column 0 holds the ``Fraction`` powers of r, a column past
    ``order`` is zero without being computed, and symbolic columns with
    k >= 1 hold only ``Poly`` coefficients, all others only ``Fraction``."""
    _check_index(m, "parameter m", 1)
    _check_index(r, "shift r", 0)
    _check_index(k, "k", 0)
    _check_index(order, "order", 0)
    _check_lambda(lam)
    symbolic = lam.is_symbolic
    zero = Poly() if symbolic else Fraction(0)
    if k > order:
        return TruncatedSeries([zero] * (order + 1))
    if k == 0:
        return TruncatedSeries([Fraction(r) ** n for n in range(order + 1)])
    lm = Fraction(m) if symbolic else lam.value * m
    p, q = lm.numerator, lm.denominator
    top = order - k
    den, nums = _power_table(k)._snapshot(top)
    weights = [c * p**j for j, c in enumerate(nums[: top + 1])]  # N_j P^j
    coeffs = [zero] * k
    if symbolic:
        r_powers = [r**i for i in range(top + 1)]
        for i in range(top + 1):
            # term j is C(i, j) weights[j] r^(i-j), all times C(i + k, k)
            scale, binomials = comb(i + k, k), map(comb, repeat(i), range(i + 1))
            terms = zip(binomials, weights, reversed(r_powers[: i + 1]))
            coeffs.append(Poly.from_ints([scale * c * w * t for c, w, t in terms], den))
        return TruncatedSeries(coeffs)
    x, row, sums = q * r, weights, []
    while row:
        sums.append(row[0])
        row = [a + x * b for a, b in zip(row[1:], row)] if x else row[1:]
    coeffs += [Fraction(comb(i + k, k) * s, den * q**i) for i, s in enumerate(sums)]
    return TruncatedSeries(coeffs)


def second_kind_series(k: int, r: int, lam: LambdaScalar, order: int) -> TruncatedSeries:
    """EGF route: the series ((e^{lam t} - 1)/lam)^k e^{r t} / k! carries
    the r-shifted second-kind numbers T(n, k) as its EGF coefficients: the
    column ``whitney_series`` at m = 1."""
    return whitney_series(k, 1, r, lam, order)


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
