"""The numeric core of ``whitney.dobinski_eval``: the Dobinski-style
series summed exactly over ``int``, and its error accounting.

Only e^{-c} is transcendental.  mpmath encloses it between two dyadic
rationals; everything else is integer arithmetic, and both error bounds
are exact ``Fraction``s.  This module is imported on the first call of
``dobinski_eval``, as mpmath is, so no other caller compiles or loads it.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, factorial, lgamma, log, log10

from mpmath import mp
from mpmath.libmp import (dps_to_prec, from_man_exp, from_rational, mpf_exp,
                          round_ceiling, round_floor)

GUARD_BITS = 20  # working bits beyond log2(value) + log2(1/tol)


def _dyadic(man: int, exp: int) -> Fraction:
    """man * 2^exp as an exact ``Fraction``."""
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _quotient(num: int, den: int, bits: int, up: bool) -> tuple:
    """(man, exp) with man 2^exp = num / den (den > 0) rounded up, or to
    nearest, to an integer man of about ``bits`` bits.  mpmath's
    ``from_rational`` strips the trailing zero bits of a huge factorial
    multiple 8 at a time, which costs time quadratic in its size."""
    shift = bits + den.bit_length() - abs(num).bit_length()
    num, den = (num << shift, den) if shift >= 0 else (num, den << -shift)
    man = -(-num // den) if up else (2 * num + den) // (2 * den)
    return man, -shift


def exp_neg_enclosure(u: int, v: int, prec: int) -> tuple:
    """Dyadic ``Fraction``s lo <= e^{-u/v} <= hi: mpmath rounds -u/v and
    then exp toward each end at ``prec`` bits, and each end is moved one
    more unit in the last place outward, so the enclosure holds even if a
    directed rounding of exp is off by one unit."""
    ends = []
    for rnd, step in ((round_floor, -1), (round_ceiling, 1)):
        _, man, exp, bc = mpf_exp(from_rational(-u, v, prec, rnd), prec, rnd)
        shift = prec - bc
        ends.append(_dyadic((man << shift) + step, exp - shift))
    return tuple(ends)


def _first_true(pred, k: int, max_terms: int) -> int:
    """The least j >= k with pred(j), for a predicate that is false and
    then true from k on, found by doubling and then bisection; past
    ``max_terms`` the series counts as not converging."""
    hi = k
    while not pred(hi):
        if hi >= max_terms:
            raise ArithmeticError("series failed to reach the tail bound")
        k, hi = hi + 1, min(2 * hi, max_terms)
    while k < hi:
        mid = (k + hi) // 2
        if pred(mid):
            hi = mid
        else:
            k = mid + 1
    return hi


def _split_sum(a: int, b: int, u: int, v: int, f) -> tuple:
    """Binary splitting of sum_{k=a..b-1} f(k) prod_{j=a..k} u_j / v_j,
    with u_0 = v_0 = 1 and u_j = u, v_j = v j for j >= 1: returns (P, Q, T)
    with P = prod u_j, Q = prod v_j and the sum equal to T / Q."""
    if b - a == 1:
        return (u, v * a, u * f(a)) if a else (1, 1, f(0))
    mid = (a + b) // 2
    p1, q1, t1 = _split_sum(a, mid, u, v, f)
    p2, q2, t2 = _split_sum(mid, b, u, v, f)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def dobinski_sum(n: int, c: Fraction, lm: Fraction, tol: Fraction, digits: int,
                 max_terms: int) -> tuple:
    """The numeric fields of ``whitney.DowlingValue`` for the series of
    d(n, x) with c = x/(lam m) >= 0 and lm = lam m > 0: (numeric,
    truncation_terms, tail_bound, truncation_bound, rounding_bound,
    working_dps), at least ``digits`` decimal digits working and at most
    ``max_terms`` terms.

    The stopping rule is ``dobinski_eval``'s.  Everything but e^{-c} is
    exact over ``int``.  With c = u/v and
    lam m = p/q, t_k = u^k (p k + q)^n / (v^k k! q^n), and both tests are
    integer comparisons.  Past the first k where the ratio test holds the
    terms decrease, so each test is false and then true, and the stopping
    k is found by doubling and bisection; float logarithms settle the
    second test where its sides differ by far more than their rounding.
    The partial sum, one integer numerator over v^(k-1) (k-1)! q^n, is
    taken by binary splitting, so it costs a few big products rather than
    one pass over a growing numerator per term.  The working precision is
    fixed only after the sum, from log2 of its value.
    """
    p, q, u, v = lm.numerator, lm.denominator, c.numerator, c.denominator
    prec = dps_to_prec(digits)
    lo, hi = exp_neg_enclosure(u, v, prec)
    qn = q**n
    stop = tol * lo / 2

    def power(k):  # (p k + q)^n
        return (p * k + q) ** n

    def term(k):  # t_k as an unreduced pair: huge ints make gcd the cost
        return u**k * power(k), v**k * factorial(k) * qn

    def below_stop(k):  # t_k < tol lo / 2
        if u:  # float logarithms decide where they are far apart
            logs = (log(stop.numerator), -log(stop.denominator), -k * log(u),
                    k * log(v), lgamma(k + 1), -n * log(p * k + q), n * log(q))
            gap = sum(logs)
            if abs(gap) > 1e-9 * (1 + sum(map(abs, logs))):
                return gap > 0
        num, den = term(k)
        return num * stop.denominator < stop.numerator * den

    k = _first_true(lambda k: 2 * u * power(k) < v * k * power(k - 1), 1, max_terms)
    k = _first_true(below_stop, k, max_terms)
    _, d, total = _split_sum(0, k, u, v, power)
    d *= qn  # the partial sum is total / d
    omitted, omitted_den = term(k)  # the first term left out
    # bits above 2^0 of the value (below total hi / d) and of 1/tol
    need = (
        total.bit_length() - d.bit_length()
        + hi.numerator.bit_length() - hi.denominator.bit_length()
        + tol.denominator.bit_length() - tol.numerator.bit_length()
        + 3 + GUARD_BITS
    )
    working_dps = max(digits, ceil(need * log10(2)))
    if dps_to_prec(working_dps) > prec:
        prec = dps_to_prec(working_dps)
        lo, hi = exp_neg_enclosure(u, v, prec)
    mid = (lo + hi) / 2

    # a Fraction times a huge int keeps a small power-of-2 denominator, so
    # no gcd below meets two huge ints
    def over(f, den, up):  # f / den, rounded to about prec bits
        return _quotient(f.numerator, f.denominator * den, prec, up)

    numeric = mp.make_mpf(from_man_exp(*over(mid * total, d, False)))
    r_d = _dyadic(numeric.man, numeric.exp) * d
    tail = 2 * omitted * mid
    return (
        numeric, k, tail.numerator / (tail.denominator * omitted_den),
        _dyadic(*over(2 * omitted * hi, omitted_den, True)),
        # e^{-c} total / d lies in [lo total / d, hi total / d]
        max(_dyadic(*over(r_d - lo * total, d, True)),
            _dyadic(*over(hi * total - r_d, d, True))),
        working_dps,
    )
