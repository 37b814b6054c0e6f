"""The numeric core of ``whitney.dobinski_eval``: the Dobinski-style
series summed exactly over ``int``, and its error accounting.

Only e^{-c} is transcendental: mpmath encloses it between two integers over
one power of 2, and only the two error bounds are built as ``Fraction``s.
The stop search tests term by term while the integers are short, then
bisects; binary splitting sums ranges of ``LEAF_TERMS`` terms by a forward
loop.  This module loads on the first ``dobinski_eval``, as mpmath does.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import ceil, factorial, lgamma, log, log10

from mpmath import mp
from mpmath.libmp import (dps_to_prec, from_man_exp, from_rational, mpf_exp,
                          round_ceiling, round_floor)

GUARD_BITS = 20  # working bits beyond log2(value) + log2(1/tol)
SCAN_BITS = 256  # the stop search tests each k while u^(k-1), v^k k! are shorter
LEAF_TERMS = 16  # binary splitting sums ranges this short by a forward loop


def _dyadic(man: int, exp: int) -> Fraction:
    """man * 2^exp as an exact ``Fraction``."""
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _quotient(num: int, den: int, bits: int, up: bool) -> tuple:
    """(man, exp) with man 2^exp = num / den (den > 0) rounded up, or to
    nearest, to an integer man of about ``bits`` bits, whatever power of 2
    num and den share.  mpmath's ``from_rational`` strips the trailing zero
    bits of a huge factorial multiple 8 at a time, in quadratic time."""
    shift = bits + den.bit_length() - abs(num).bit_length()
    num, den = (num << shift, den) if shift >= 0 else (num, den << -shift)
    man = -(-num // den) if up else (2 * num + den) // (2 * den)
    return man, -shift


def _enclosure(u: int, v: int, prec: int) -> tuple:
    """(lo, hi, exp) with lo 2^exp <= e^{-u/v} <= hi 2^exp and exp < 0:
    mpmath rounds -u/v and then exp toward each end at ``prec`` bits, and
    each end is moved one more unit in the last place outward, so the
    enclosure holds even if a directed rounding of exp is off by one unit."""
    ends = []
    for rnd, step in ((round_floor, -1), (round_ceiling, 1)):
        _, man, exp, bc = mpf_exp(from_rational(-u, v, prec, rnd), prec, rnd)
        ends.append(((man << prec - bc) + step, exp - prec + bc))
    exp = min(ends[0][1], ends[1][1])  # at most 1 - prec, as e^{-u/v} <= 1
    return (*(man << e - exp for man, e in ends), exp)


def _first_true(pred, k: int, max_terms: int) -> int:
    """The least j >= k with pred(j), for a predicate that is false and
    then true from k on, found by doubling and then bisection; past
    ``max_terms`` the series counts as not converging."""
    hi = k
    while not pred(hi):
        if hi >= max_terms:
            raise ArithmeticError("series failed to reach the tail bound")
        k, hi = hi + 1, min(2 * hi, max_terms)
    return k + bisect_left(range(k, hi), True, key=pred)


def _split_sum(a: int, b: int, u: int, v: int, f) -> tuple:
    """Binary splitting of sum_{k=a..b-1} f(k) u^(k-a+1) / prod_{j=a..k} v j,
    a >= 1, down to ranges of ``LEAF_TERMS`` summed by a forward loop:
    returns (P, Q, T) with P = u^(b-a), Q = prod_{j=a..b-1} v j, T / Q the sum."""
    if b - a <= LEAF_TERMS:
        p, q, t = 1, 1, 0
        for j in range(a, b):
            p, q, t = p * u, q * v * j, t * v * j + p * u * f(j)
        return p, q, t
    mid = (a + b) // 2
    return _join(_split_sum(a, mid, u, v, f), _split_sum(mid, b, u, v, f))


def _join(left: tuple, right: tuple) -> tuple:  # (P, Q, T) of two adjacent ranges as one
    return left[0] * right[0], left[1] * right[1], left[2] * right[1] + left[0] * right[2]


def dobinski_sum(n: int, c: Fraction, lm: Fraction, tol, digits: int,
                 max_terms: int) -> tuple:
    """The numeric fields of ``whitney.DowlingValue`` for the series of
    d(n, x) with c = x/(lam m) >= 0 and lm = lam m > 0: (numeric,
    truncation_terms, tail_bound, truncation_bound, rounding_bound,
    working_dps), at least ``digits`` decimal digits working, at most
    ``max_terms`` terms and a positive ``int``, ``float`` or ``Fraction`` tol.

    The stopping rule is ``dobinski_eval``'s: with c = u/v, lam m = p/q and
    t_k = u^k (p k + q)^n / (v^k k! q^n), both tests compare integers.
    While u^(k-1) and v^k k! are shorter than ``SCAN_BITS``, each k is
    tested in turn, and they and the partial sum, one integer over
    v^(k-1) (k-1)! q^n, are kept from term to term.  Past that, as the terms
    decrease once the ratio test holds, doubling and bisection find the
    first k to pass both (float logarithms, their k-free part taken once,
    settle the second test where far apart), and binary splitting sums the
    rest, a forward loop over each range of ``LEAF_TERMS`` terms or fewer.
    The working precision is fixed after the sum.
    """
    p, q, u, v = lm.numerator, lm.denominator, c.numerator, c.denominator
    tn, td = tol.as_integer_ratio()
    prec = dps_to_prec(digits)
    lo, hi, e = _enclosure(u, v, prec)  # e^{-c} within [lo, hi] 2^e
    qn = q**n
    # t_k < tol lo 2^e / 2  iff  u^k (p k + q)^n below < above v^k k!
    below, above = td << 1 - e, tn * lo * qn
    lu, lv, la, lb = log(u or 1), log(v), log(above), log(below)  # u = 0 stops at k = 1

    def power(k):  # (p k + q)^n
        return (p * k + q) ** n

    def passes(k):  # both tests; float logarithms decide the second where far apart
        if 2 * u * power(k) >= v * k * power(k - 1):
            return False
        logs = (-k * lu, k * lv, lgamma(k + 1), -n * log(p * k + q))
        gap = la - lb + sum(logs)
        if abs(gap) > 1e-9 * (1 + abs(la) + abs(lb) + sum(map(abs, logs))):
            return gap > 0
        return u**k * power(k) * below < above * v**k * factorial(k)

    # term by term: P, Q, T of the terms below k as _split_sum takes them, and (p (k-1) + q)^n
    k, pk, dk, total, last = 1, 1, 1, qn, qn
    while True:
        now, vk = power(k), v * k
        term, den = pk * u * now, dk * vk  # t_k = term / (den q^n)
        if term * below < above * den and 2 * u * now < vk * last:
            break
        if k >= max_terms or (pk | den).bit_length() > SCAN_BITS:
            j, k = k, _first_true(passes, k, max_terms)
            pk, dk, total = _join((pk, dk, total), _split_sum(j, k, u, v, power))
            break
        k, pk, dk, total, last = k + 1, pk * u, den, total * vk + term, now
    d = dk * qn  # the partial sum is total / d
    omitted, omitted_den = pk * u * power(k), d * v * k  # the first term left out
    # bits above 2^0 of the value (below total hi 2^e / d) and of 1/tol
    need = (total.bit_length() - d.bit_length() + hi.bit_length() + e - 1
            + td.bit_length() - tn.bit_length() + 3 + GUARD_BITS)
    working_dps = max(digits, ceil(need * log10(2)))
    if dps_to_prec(working_dps) > prec:
        prec = dps_to_prec(working_dps)
        lo, hi, e = _enclosure(u, v, prec)
    mid = lo + hi  # e^{-c} is near mid 2^(e-1)
    _, man, exp, _ = value = from_man_exp(*_quotient(mid * total, d << 1 - e, prec, False))
    # numeric - e^{-c} total / d is within numeric - [lo, hi] total / d, all over d 2^-g
    g = min(exp, e)
    r, den = man * d << exp - g, d << -g
    return (
        mp.make_mpf(value), k, omitted * mid / (omitted_den << -e),
        _dyadic(*_quotient(2 * omitted * hi, omitted_den << -e, prec, True)),
        max(_dyadic(*_quotient(r - (lo * total << e - g), den, prec, True)),
            _dyadic(*_quotient((hi * total << e - g) - r, den, prec, True))),
        working_dps,
    )
