"""The triangle route: the Stirling-family numbers tabulated by their
recurrence.  Every family satisfies one triangular recurrence (the unified
form of Hsu and Shiue)

    T(n+1, k) = T(n, k-1) + c(n, k) * T(n, k),
    c(n, k) = lam (beta k - alpha n + gamma) + r,

with integer alpha, beta, gamma, r: the second kind is beta = 1, the signed
and unsigned first kinds alpha = 1 and alpha = -1, the Whitney-type numbers
beta = m.  ``_new_triangle`` picks the one integer grower,
``NumberTriangle``, for a fixed lambda (entries scaled by q^(n-k), where q
is the denominator of lambda gcd(alpha, beta, gamma), that is of lambda m
for the Whitney families).  It builds each row in one C-level ``map``
pass, its coefficients, linear in k, taken from a ``range``, keeps one
list of the powers q^0..q^n beside its rows, and publishes each entry
through ``poly._lowest`` (the sign on the numerator, as q^(n-k) > 0) with
the window q^(2t), the widest even power of q within one ``int`` digit
(q^2 when none is).  An entry U / q^j past it takes g = gcd(U, q^(2t))
first, one short division, and g is gcd(U, q^j) when it divides q^t: only
primes p of q divide both, and then v_p(U) <= t v_p(q) < j v_p(q).  The
one symbolic reader, ``SymbolicTriangle``, reads an entry's lambda
coefficients off the integer triangle at lambda = 1.  Both keep one row
protocol: slot n of ``_rows`` is ``None`` until row n is public, that is
until its tuple of values is stored there.  A fixed-lambda triangle holds
its integer rows apart and drops each when it publishes the row.

The seven public triangle readers and the row sums ``dowling_poly`` and
``bell_poly_lambda`` live here, beside the cache ``_TRIANGLES``; the
facades ``stirling`` and ``whitney`` re-export them.  A reader answers a
warm read in one frame, its own: a subscript of ``_TRIANGLES`` and an index
of a public row.  ``_lookup`` is its miss path, and the one place that
checks the readers' arguments.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, gcd
from operator import add, mul
from threading import Lock

from .poly import (LambdaScalar, Poly, RingElement, _check_index, _check_lambda, _horner,
                   _lowest, _rational)

_ZERO = Fraction(0)
_ONE = Fraction(1)
_DIGIT = 1 << sys.int_info.bits_per_digit  # every int below it is one CPython digit


class NumberTriangle:
    """The unified recurrence above, T(0, 0) = 1, at a fixed lam, grown
    lazily over Python integers from the newest integer row (the frontier).
    The recurrence reads lam only through lam g, g = gcd(alpha, beta, gamma)
    (1 when all three are 0), so with lam g = p/q and (alpha, beta, gamma)
    divided by g, row n stores U(n, k) = q^(n-k) T(n, k), and
    U(n+1, k) = U(n, k-1) + ((beta k - alpha n + gamma) p + r q) U(n, k).
    For the Whitney families q is the denominator of lam m, not of lam.
    The coefficient steps by beta p in k, so a new row is one pass of
    ``map(add, ...)`` over ``map(mul, ...)`` with the coefficients of
    k = 0..n+1 as a ``range`` (``repeat`` when beta p = 0): the same sums,
    in the same order, as entry by entry.

    The integer rows are held in ``_ints``, the public rows in ``_rows``
    and the powers q^0..q^n in ``_powers``, which grow together: q^n is
    appended before ``_rows[n]`` exists.  ``_rows[n]`` is ``None`` until
    the row's first ``value`` read stores its public tuple, each entry
    ``_lowest(U, q^(n-k), q^(2t), q^t)``: the ``Fraction`` U / q^(n-k) in
    lowest terms (no gcd when q = 1), the sign on U, as q^(n-k) > 0.  The
    window q^(2t) is the widest with t >= 1 and q^(2t) below one ``int``
    digit (t = 1 when there is none): past it the gcd of U and q^(2t) is
    one short division, and it settles the entry when it divides q^t
    (``_lowest`` has the proof).  ``_ints[n]`` is dropped to ``None`` only
    after the tuple is stored, so no row is held twice and a racing reader
    always finds one of the two.  ``row_sum`` recovers a public row's
    integers against the same powers, so a row that is only summed is
    never converted.

    It checks only that lam is a ``LambdaScalar`` and trusts its callers
    (``_lookup``, ``dowling_poly``, ...) for the ``int`` parameters and n,
    k: ``value`` gives 0 outside 0 <= k <= n and ``row_sum`` takes n >= 0.
    Two readers that race to publish a row may both build its tuple, and
    either is kept.  Only growth takes the lock.
    """

    __slots__ = ("_rows", "_ints", "_powers", "_frontier", "_params", "_window", "_lock")

    def __init__(self, lam: LambdaScalar, *, alpha: int = 0, beta: int = 0,
                 gamma: int = 0, r: int = 0):
        _check_lambda(lam)
        g = gcd(alpha, beta, gamma) or 1
        scaled = lam.value * g
        q = scaled.denominator
        self._params = (scaled.numerator, q, alpha // g, beta // g, gamma // g, r)
        t = 1
        while q > 1 and q ** (2 * t + 2) < _DIGIT:
            t += 1
        self._window = (q ** (2 * t), q ** t)
        self._lock = Lock()
        self._frontier = [1]
        self._ints = [self._frontier]
        self._powers = [1]
        self._rows = [None]

    def _row(self, n: int):
        """The integers of row n >= 0, grown if missing, or ``None`` once the
        row is public."""
        rows, ints, powers = self._rows, self._ints, self._powers
        if len(rows) <= n:
            p, q, alpha, beta, gamma, r = self._params
            step = beta * p
            with self._lock:
                while len(rows) <= n:
                    last = self._frontier
                    m = len(last) - 1  # row m -> row m + 1
                    c0 = (gamma - alpha * m) * p + r * q
                    coeffs = range(c0, c0 + step * (m + 2), step) if step else repeat(c0)
                    self._frontier = list(map(add, [0] + last, map(mul, coeffs, last + [0])))
                    # so _ints[n] and q^n exist once _rows[n] does
                    ints.append(self._frontier)
                    powers.append(powers[-1] * q)
                    rows.append(None)
        return ints[n]

    def value(self, n: int, k: int) -> Fraction:
        if k < 0 or k > n:  # n < 0 included
            return _ZERO
        ints = self._row(n)  # read before the row: it is dropped after
        row = self._rows[n]
        if row is None:  # its first read makes it public
            window, half = self._window
            row = self._rows[n] = tuple(map(_lowest, ints, self._powers[n::-1],
                                            repeat(window), repeat(half)))
            self._ints[n] = None
        return row[k]

    def row_sum(self, n: int, x: Fraction) -> Fraction:
        """sum_k T(n, k) x^k.  With x = a/b this is S / (q b)^n, where
        S = sum_k U(n, k) (a q)^k b^(n-k) is one homogeneous Horner pass
        over ``int``."""
        a, b, q = x.numerator, x.denominator, self._params[1]
        ints = self._row(n)
        if ints is None:  # a public row: recover its integers exactly
            ints = [e.numerator * (p // e.denominator)
                    for e, p in zip(self._rows[n], self._powers[n::-1])]
        return Fraction(_horner(ints, a * q, b), (q * b) ** n)


class SymbolicTriangle:
    """The unified recurrence at a symbolic lam, read off the triangle A of
    (alpha, beta, gamma) at lam = 1, r = 0, a private ``NumberTriangle``
    whose rows stay integers, as nothing reads its values.  With alpha = 0
    (T is lam^(n-k) A, shifted binomially in r) lam^(j-k) has the
    coefficient C(n, j) r^(n-j) A(j, k) in T(n, k); with beta = 0 (row n is
    the product of x + r + lam (gamma - alpha i) over i < n) lam^(n-j) has
    C(j, k) r^(j-k) A(n, j).  It refuses any other shape.

    A slot holds ``None`` until the row's first ``value`` read stores its
    public tuple: ``Poly.from_ints`` of the integer coefficients below the
    diagonal, ``Fraction(1)`` on it.  Only A's growth takes a lock: padding
    ``_rows`` with ``None`` only appends, so it overwrites no public row,
    and readers that pad at once may add more slots than asked for, each
    an unread row all the same.  Readers that race to publish a row build
    equal tuples, and either is kept.
    """

    __slots__ = ("_rows", "_base", "_params")

    def __init__(self, *, alpha: int = 0, beta: int = 0, gamma: int = 0, r: int = 0):
        if alpha and beta:
            raise ValueError("a symbolic triangle needs alpha = 0 or beta = 0")
        self._base = NumberTriangle(LambdaScalar(1), alpha=alpha, beta=beta, gamma=gamma)
        self._params = (alpha, r)
        self._rows = [None]

    def _entries(self, n: int) -> list:
        """The lam-coefficient lists of the entries of row n."""
        alpha, r = self._params
        base, powers = self._base, [r ** i for i in range(n + 1)]
        if alpha == 0:  # entry k lists C(n, j) r^(n-j) A(j, k) for j = k..n
            w = [comb(n, j) * powers[n - j] for j in range(n + 1)]
            a = [base._row(j) for j in range(n + 1)]
            return [[w[j] * a[j][k] for j in range(k, n + 1)] for k in range(n + 1)]
        a = base._row(n)  # entry k lists C(j, k) r^(j-k) A(n, j) for j = n..k
        return [[comb(j, k) * powers[j - k] * a[j] for j in range(n, k - 1, -1)]
                for k in range(n + 1)]

    def value(self, n: int, k: int) -> RingElement:
        if k < 0 or k > n:  # n < 0 included
            return _ZERO
        self._rows.extend(repeat(None, n + 1 - len(self._rows)))
        if self._rows[n] is None:
            self._rows[n] = tuple(map(Poly.from_ints, self._entries(n)[:-1])) + (_ONE,)
        return self._rows[n][k]

    def row_sum(self, n: int, x: Fraction) -> RingElement:
        """sum_k T(n, k) x^k for alpha = 0, the only shape a library function
        sums.  With x = a/b, b^n times the coefficient of lam^(j-k) gets
        C(n, j) r^(n-j) A(j, k) a^k b^(n-k) from each j whose weight
        C(n, j) r^(n-j) is nonzero; row 0 sums to ``Fraction(1)``."""
        alpha, r = self._params
        if alpha:
            raise ValueError("a symbolic row sum needs alpha = 0")
        if n == 0:
            return _ONE
        a, b = x.numerator, x.denominator
        scale = list(map(mul, accumulate(repeat(a, n), mul, initial=1), _falling_powers(b, n)))
        sums = [0] * (n + 1)
        for j in range(n + 1):
            weight = comb(n, j) * r ** (n - j)
            if weight:  # only j = n when r = 0
                for k, entry in enumerate(self._base._row(j)):
                    sums[j - k] += weight * entry * scale[k]
        return Poly.from_ints(sums, b ** n)


def _falling_powers(b: int, n: int) -> list:
    """[b^n, b^(n-1), ..., b^0]: the powers b^(n-k) that scale row n of a
    symbolic row sum at x = a/b."""
    return list(accumulate(repeat(b, n), mul, initial=1))[::-1]


_TRIANGLES: dict = {}  # (lam, alpha, beta, r) -> NumberTriangle or SymbolicTriangle


def _new_triangle(lam: LambdaScalar, **params):
    """A new triangle of lam and the ``int`` alpha, beta, gamma and r: the one
    reader of the lam mode, so that neither triangle class branches on it."""
    _check_lambda(lam)
    if lam.is_symbolic:
        return SymbolicTriangle(**params)
    return NumberTriangle(lam, **params)


def _triangle(lam: LambdaScalar, alpha: int, beta: int, r: int):
    """The shared triangle of the recurrence parameters, made on first use.

    ``_TRIANGLES`` is keyed by the parameters themselves, so families that
    coincide (Whitney at m = 1 and the second kind) share one triangle.  It
    is unbounded and takes no lock: a miss builds a triangle and stores it
    with ``setdefault``, so threads that miss on the same key at once may
    each build one, but only the first stored is kept and every one of them
    gets it.  A hit builds nothing.  A lam that is not a ``LambdaScalar`` is
    refused by ``_new_triangle`` and stored nowhere, an unhashable one too:
    only such a lam makes the key unhashable.
    """
    key = (lam, alpha, beta, r)
    try:
        return _TRIANGLES[key]
    except (KeyError, TypeError):
        return _TRIANGLES.setdefault(key, _new_triangle(lam, alpha=alpha, beta=beta, r=r))


def _lookup(n: int, k: int, lam: LambdaScalar, alpha: int, beta: int, r: int) -> RingElement:
    """Entry (n, k) of the triangle of (lam, alpha, beta, r): the miss path
    of the seven public triangle readers, and the one place that checks
    their arguments: by exact type comparisons, and by the index rule only
    to raise.  With alpha = 0 (second kind, Whitney) beta is the Whitney m.

    Each reader answers a warm read in its own frame: behind exact ``int``
    tests of its indices and 0 <= k <= n (tested first, as a negative n
    reads a row from the end of the list), one subscript of ``_TRIANGLES``
    (lam is interned, so its key compares and hashes in C), then the row's
    slot and the entry.  An absent triangle raises ``KeyError``, an ungrown
    row ``IndexError`` and a row that is not public (its slot is ``None``)
    ``TypeError``, and each is a miss.  A hit needs no range test of r or
    m, since only checked arguments make a key.  Every miss comes here,
    through ``_triangle`` (which refuses a lam that is not a
    ``LambdaScalar``) to the triangle's ``value``."""
    if alpha == 0 and (type(beta) is not int or beta < 1):
        _check_index(beta, "parameter m", 1)
    if type(n) is not int or type(k) is not int or type(r) is not int or r < 0:
        _check_index(n, "n")
        _check_index(k, "k")
        _check_index(r, "shift r", 0)
    return _triangle(lam, alpha, beta, r).value(n, k)


def rstirling2_lambda(n: int, k: int, r: int, lam: LambdaScalar) -> RingElement:
    """Entry T(n, k) of the r-shifted second-kind triangle, tabulated by the
    recurrence T(n+1, k) = T(n, k-1) + (lam*k + r) * T(n, k)."""
    if type(n) is int and type(k) is int and type(r) is int and 0 <= k <= n:
        try:
            return _TRIANGLES[lam, 0, 1, r]._rows[n][k]
        except (KeyError, IndexError, TypeError):
            pass
    return _lookup(n, k, lam, 0, 1, r)


def stirling2_lambda(n: int, k: int, lam: LambdaScalar) -> RingElement:
    """Plain second-kind number: coefficient of (x)_{k,lam} in x^n."""
    if type(n) is int and type(k) is int and 0 <= k <= n:
        try:
            return _TRIANGLES[lam, 0, 1, 0]._rows[n][k]
        except (KeyError, IndexError, TypeError):
            pass
    return _lookup(n, k, lam, 0, 1, 0)


def rstirling1_lambda(n: int, k: int, r: int, lam: LambdaScalar) -> RingElement:
    """Coefficient of x^k in the shifted falling factorial
    (x+r)(x+r-lam)...(x+r-(n-1)lam); row extension multiplies by (x+r-n*lam)."""
    if type(n) is int and type(k) is int and type(r) is int and 0 <= k <= n:
        try:
            return _TRIANGLES[lam, 1, 0, r]._rows[n][k]
        except (KeyError, IndexError, TypeError):
            pass
    return _lookup(n, k, lam, 1, 0, r)


def stirling1_lambda(n: int, k: int, lam: LambdaScalar) -> RingElement:
    """Coefficient of x^k in the plain falling factorial (x)_{n,lam}."""
    if type(n) is int and type(k) is int and 0 <= k <= n:
        try:
            return _TRIANGLES[lam, 1, 0, 0]._rows[n][k]
        except (KeyError, IndexError, TypeError):
            pass
    return _lookup(n, k, lam, 1, 0, 0)


def unsigned_rstirling1_lambda(n: int, k: int, r: int, lam: LambdaScalar) -> RingElement:
    """Coefficient of x^k in the shifted rising product
    (x+r)(x+r+lam)...(x+r+(n-1)lam)."""
    if type(n) is int and type(k) is int and type(r) is int and 0 <= k <= n:
        try:
            return _TRIANGLES[lam, -1, 0, r]._rows[n][k]
        except (KeyError, IndexError, TypeError):
            pass
    return _lookup(n, k, lam, -1, 0, r)


def whitney_r(n: int, k: int, m: int, r: int, lam: LambdaScalar) -> RingElement:
    """Shifted Whitney-type number, tabulated by the recurrence
    W(n+1, k) = W(n, k-1) + (lam*m*k + r) * W(n, k)."""
    if type(n) is int and type(k) is int and type(m) is int and type(r) is int and 0 <= k <= n:
        try:
            return _TRIANGLES[lam, 0, m, r]._rows[n][k]
        except (KeyError, IndexError, TypeError):
            pass
    return _lookup(n, k, lam, 0, m, r)


def whitney(n: int, k: int, m: int, lam: LambdaScalar) -> RingElement:
    """Whitney-type number with unit shift (the Dowling-lattice case)."""
    if type(n) is int and type(k) is int and type(m) is int and 0 <= k <= n:
        try:
            return _TRIANGLES[lam, 0, m, 1]._rows[n][k]
        except (KeyError, IndexError, TypeError):
            pass
    return _lookup(n, k, lam, 0, m, 1)


def dowling_poly(n: int, x, m: int, lam: LambdaScalar) -> RingElement:
    """Dowling polynomial d(n, x) = sum_k W(n, k) x^k, summed over ``int``
    by the Whitney triangle's ``row_sum``."""
    _check_index(n, "n", 0)
    _check_index(m, "parameter m", 1)
    return _triangle(lam, 0, m, 1).row_sum(n, _rational(x, "x"))


def bell_poly_lambda(n: int, x, lam: LambdaScalar) -> RingElement:
    """Deformed Bell polynomial: row sum of the plain second-kind triangle
    against powers of x."""
    _check_index(n, "n", 0)
    return _triangle(lam, 0, 1, 0).row_sum(n, _rational(x, "x"))
