"""Lambda-deformed Stirling-family numbers, computed along independent routes.

The central objects are the second-kind numbers defined by expanding shifted
powers in the generalized falling-factorial basis,

    (x + r)^n = sum_k  T(n, k)  (x)_{k,lam},      (x)_{k,lam} = x(x-lam)...(x-(k-1)lam),

and the first-kind companions obtained by expanding shifted falling (and
rising) factorials in plain powers of x.  Every family satisfies a triangular
recurrence of the shared shape (the unified form of Hsu and Shiue)

    T(n+1, k) = T(n, k-1) + c(n, k) * T(n, k),
    c(n, k) = lam (beta k - alpha n + gamma) + r,

with integer alpha, beta, gamma, r: the second kind is beta = 1, the signed
and unsigned first kinds alpha = 1 and alpha = -1, the Whitney-type numbers
(in ``whitney``) beta = m.  ``NumberTriangle`` grows it lazily over Python
integers for a fixed lambda = p/q (entries scaled by q^(n-k)), and reads a
symbolic entry's lambda coefficients off the integer triangle at lambda = 1
(S_{2,lam}(n, k) = lam^(n-k) S_2(n, k), shifted by
T(n, k) = sum_l C(n, l) r^(n-l) S_{2,lam}(l, k) for the second kind).  A row
becomes public ``Fraction``/``Poly`` values on its first read, and its row
sums against powers of x (the Dowling and Bell rows) are taken over the
integers without converting it.  Alongside the recurrences the module
carries the definitional basis-expansion oracle, the finite-difference
closed form and the EGF route, so every value can be cross-checked by
computations that share no code path; none of them uses ``NumberTriangle``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate, repeat, zip_longest
from math import comb, factorial
from operator import mul
from threading import Lock
from typing import NamedTuple

from .poly import (LambdaScalar, Poly, RingElement, _check_index, _check_lambda,
                   _falling_basis, _horner)
from .series import TruncatedSeries, lambda_columns

_ZERO = Fraction(0)
_ONE = Fraction(1)


class NumberTriangle:
    """Lazily grown triangle of the unified recurrence

        T(n+1, k) = T(n, k-1) + c(n, k) T(n, k),
        c(n, k) = lam (beta k - alpha n + gamma) + r,

    with T(0, 0) = 1, integer parameters alpha, beta, gamma, r and lam a
    ``LambdaScalar``.  Values outside 0 <= k <= n are zero.

    Only a fixed lam = p/q is grown, over Python integers, from the newest
    integer row (the frontier): row n stores U(n, k) = q^(n-k) T(n, k), and
    U(n+1, k) = U(n, k-1) + ((beta k - alpha n + gamma) p + r q) U(n, k).
    A symbolic triangle keeps the triangle A at lam = 1, r = 0 and the same
    (alpha, beta, gamma), and reads row n off it, k <= j <= n: with
    alpha = 0 (T is lam^(n-k) A, shifted binomially in r) lam^(j-k) has the
    coefficient C(n, j) r^(n-j) A(j, k); with beta = 0 (row n is the product
    of x + r + lam (gamma - alpha i) over i < n) lam^(n-j) has
    C(j, k) r^(j-k) A(n, j).  It refuses any other shape.

    A row becomes its public tuple on its first ``value`` read:
    ``Fraction(U, q^(n-k))``, or for symbolic lam ``Poly`` below the diagonal
    (``Poly.from_ints`` of the integer coefficients, no ``Fraction``) and
    ``Fraction(1)`` on it and in row 0.  Until then a fixed row is held as
    its integers and a symbolic one as ``None``.  ``row_sum`` works on the
    integers, recovered from a public fixed row and read off A for a
    symbolic one, so a row that is only summed is never converted.

    The triangle trusts its callers for n, k and the ``int`` parameters
    (``_lookup``, ``dowling_poly``, ... apply the index rule): ``value``
    gives 0 outside 0 <= k <= n and ``row_sum`` takes n >= 0.  It checks
    only lam, which is how ``_lookup`` refuses a lam of the wrong type.

    Rows are appended whole and a slot only ever swaps what it holds for
    the public tuple of its row, so a lookup of a public row is a plain
    read; two readers that race to convert a row may both build its tuple,
    and either is kept.  Only growth takes the lock.
    """

    __slots__ = ("_rows", "_frontier", "_base", "_params", "_lock")

    def __init__(self, lam: LambdaScalar, *, alpha: int = 0, beta: int = 0,
                 gamma: int = 0, r: int = 0):
        _check_lambda(lam)
        self._params = (lam, alpha, beta, gamma, r)
        self._lock = Lock()
        if lam.is_symbolic:
            if alpha and beta:
                raise ValueError("a symbolic triangle needs alpha = 0 or beta = 0")
            self._base = NumberTriangle(LambdaScalar(1), alpha=alpha, beta=beta, gamma=gamma)
            self._rows = [None]  # a slot that holds no public row yet
        else:
            self._frontier = [1]
            self._rows = [self._frontier]

    def _grow(self, n: int) -> None:
        lam, alpha, beta, gamma, r = self._params
        with self._lock:
            rows = self._rows
            if lam.is_symbolic:
                rows.extend(repeat(None, n + 1 - len(rows)))
                return
            p, q = lam.value.numerator, lam.value.denominator
            while len(rows) <= n:
                ints = self._frontier
                m = len(ints) - 1  # row m -> row m + 1
                self._frontier = [
                    left + ((beta * k - alpha * m + gamma) * p + r * q) * cur
                    for k, (left, cur) in enumerate(zip([0] + ints, ints + [0]))
                ]
                rows.append(self._frontier)

    def _publish(self, n: int) -> tuple:
        """Replace row n by its public tuple."""
        lam = self._params[0]
        ints = self._ints(n)
        if lam.is_symbolic:
            row = tuple(map(Poly.from_ints, ints[:-1])) + (_ONE,)
        else:
            row = tuple(map(Fraction, ints, _falling_powers(lam.value.denominator, n)))
        self._rows[n] = row
        return row

    def _ints(self, n: int) -> list:
        """The integer form of row n: for fixed lam grown if missing and
        recovered exactly if it is public, for symbolic lam read off A."""
        lam, alpha, _, _, r = self._params
        if lam.is_symbolic:
            base, powers = self._base, [r ** i for i in range(n + 1)]
            if alpha == 0:  # entry k lists C(n, j) r^(n-j) A(j, k) for j = k..n
                w = [comb(n, j) * powers[n - j] for j in range(n + 1)]
                a = [base._ints(j) for j in range(n + 1)]
                return [[w[j] * a[j][k] for j in range(k, n + 1)] for k in range(n + 1)]
            a = base._ints(n)  # entry k lists C(j, k) r^(j-k) A(n, j) for j = n..k
            return [[comb(j, k) * powers[j - k] * a[j] for j in range(n, k - 1, -1)]
                    for k in range(n + 1)]
        row = self._slot(n)
        if type(row) is not tuple:
            return row
        powers = _falling_powers(lam.value.denominator, n)
        return [e.numerator * (p // e.denominator) for e, p in zip(row, powers)]

    def _slot(self, n: int):
        """Row n >= 0 as it is held (``None``, integers or public), grown if missing."""
        try:
            return self._rows[n]
        except IndexError:
            self._grow(n)
            return self._rows[n]

    def value(self, n: int, k: int) -> RingElement:
        if k < 0 or k > n:  # n < 0 included
            return _ZERO
        try:
            row = self._rows[n]
        except IndexError:
            row = self._slot(n)
        if type(row) is not tuple:
            row = self._publish(n)
        return row[k]

    def row_sum(self, n: int, x: Fraction) -> RingElement:
        """sum_k T(n, k) x^k, summed over the integer form of row n.

        With x = a/b and lam = p/q this is S / (q b)^n, where
        S = sum_k U(n, k) (a q)^k b^(n-k) is one homogeneous Horner pass
        over ``int``.  With lam symbolic the same pass runs once per power
        of lam and gives a ``Poly`` with coefficients s_j / b^n; row 0 sums
        to ``Fraction(1)``, as its only entry is.
        """
        ints = self._ints(n)
        a, b = x.numerator, x.denominator
        lam = self._params[0]
        if not lam.is_symbolic:
            q = lam.value.denominator
            return Fraction(_horner(ints, a * q, b), (q * b) ** n)
        if n == 0:
            return _ONE
        return Poly.from_ints(
            [_horner(column, a, b) for column in zip_longest(*ints, fillvalue=0)],
            b ** n)


def _falling_powers(q: int, n: int) -> list:
    """[q^n, q^(n-1), ..., q^0]: the denominators q^(n-k) of row n."""
    return list(accumulate(repeat(q, n), mul, initial=1))[::-1]


_TRIANGLES: dict = {}  # (lam, alpha, beta, r) -> NumberTriangle


def _triangle(lam: LambdaScalar, alpha: int, beta: int, r: int) -> NumberTriangle:
    """The shared triangle of the recurrence parameters, made on first use.

    ``_TRIANGLES`` is keyed by the parameters themselves, so families that
    coincide (Whitney at m = 1 and the second kind) share one triangle.  It
    is unbounded and takes no lock: a miss builds a triangle and stores it
    with ``setdefault``, so threads that miss on the same key at once may
    each build one, but only the first stored is kept and every one of them
    gets it.  A hit builds nothing.  A lam that is not a ``LambdaScalar`` is
    refused by the triangle's constructor and stored nowhere.
    """
    key = (lam, alpha, beta, r)
    try:
        return _TRIANGLES[key]
    except KeyError:
        return _TRIANGLES.setdefault(key, NumberTriangle(lam, alpha=alpha, beta=beta, r=r))


def _lookup(n: int, k: int, lam: LambdaScalar, alpha: int, beta: int, r: int) -> RingElement:
    """Entry (n, k) of the triangle of (lam, alpha, beta, r), its indices
    checked by exact type comparisons, and by the index rule only to raise.

    A hit is one subscript of ``_TRIANGLES`` (lam is interned, so its key
    compares and hashes in C) and, for 0 <= k <= n in a row that is already
    public, one tuple index; every other case goes through ``_triangle``
    (which refuses a lam that is not a ``LambdaScalar``) and
    ``NumberTriangle.value``."""
    if type(n) is not int or type(k) is not int or type(r) is not int or r < 0:
        _check_index(n, "n")
        _check_index(k, "k")
        _check_index(r, "shift r", 0)
    try:
        triangle = _TRIANGLES[lam, alpha, beta, r]
    except KeyError:
        triangle = _triangle(lam, alpha, beta, r)
    if 0 <= k <= n:
        rows = triangle._rows
        if n < len(rows):
            row = rows[n]
            if type(row) is tuple:
                return row[k]
    return triangle.value(n, k)


def rstirling2_lambda(n: int, k: int, r: int, lam: LambdaScalar) -> RingElement:
    """Entry T(n, k) of the r-shifted second-kind triangle, tabulated by the
    recurrence T(n+1, k) = T(n, k-1) + (lam*k + r) * T(n, k)."""
    return _lookup(n, k, lam, 0, 1, r)


def stirling2_lambda(n: int, k: int, lam: LambdaScalar) -> RingElement:
    """Plain second-kind number: coefficient of (x)_{k,lam} in x^n."""
    return _lookup(n, k, lam, 0, 1, 0)


def rstirling1_lambda(n: int, k: int, r: int, lam: LambdaScalar) -> RingElement:
    """Coefficient of x^k in the shifted falling factorial
    (x+r)(x+r-lam)...(x+r-(n-1)lam); row extension multiplies by (x+r-n*lam)."""
    return _lookup(n, k, lam, 1, 0, r)


def stirling1_lambda(n: int, k: int, lam: LambdaScalar) -> RingElement:
    """Coefficient of x^k in the plain falling factorial (x)_{n,lam}."""
    return _lookup(n, k, lam, 1, 0, 0)


def unsigned_rstirling1_lambda(n: int, k: int, r: int, lam: LambdaScalar) -> RingElement:
    """Coefficient of x^k in the shifted rising product
    (x+r)(x+r+lam)...(x+r+(n-1)lam)."""
    return _lookup(n, k, lam, -1, 0, r)


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


def _by_expansion(n: int, k: int, m: int, r: int, lam: LambdaScalar) -> RingElement:
    """Entry k of ``_expansion(n, m, r, lam)``, zero outside 0 <= k <= n."""
    # checked before the cache, where n = 3.0 would find the key 3
    _check_index(n, "n", 0)
    _check_index(k, "k")
    coefficients = _expansion(n, m, r, lam)
    if 0 <= k <= n:
        return coefficients[k]
    return _ZERO


def rstirling2_by_expansion(n: int, k: int, r: int, lam: LambdaScalar) -> RingElement:
    """Definitional route for the r-shifted second kind: expand (x+r)^n in
    the falling-factorial basis and read off coefficient k."""
    _check_index(r, "shift r", 0)
    return _by_expansion(n, k, 1, r, lam)


def second_kind_series(k: int, r: int, lam: LambdaScalar, order: int) -> TruncatedSeries:
    """EGF route: the series ((e^{lam t} - 1)/lam)^k e^{r t} / k! carries
    the r-shifted second-kind numbers T(n, k) as its EGF coefficients.  It is
    column k of ``series.lambda_columns`` at m = 1, built directly over the
    integers from the powers of e^t - 1, with no division by lam."""
    _check_index(r, "shift r", 0)
    return next(lambda_columns(1, r, lam, order, first=k))


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
