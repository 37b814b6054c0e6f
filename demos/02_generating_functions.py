#!/usr/bin/env python3
"""Exact truncated exponential generating functions.

A TruncatedSeries stores the coefficients a_n of sum a_n t^n / n! up to a
chosen order; everything stays in exact rational (or polynomial-in-lam)
arithmetic.  This script builds the column generating functions of each
triangle in closed form and checks them against the recurrence triangles,
then the Dowling polynomial EGF and the higher-order Bernoulli series, and
combines them with the series product, inverse and exponential.
"""

from fractions import Fraction

from lambda_stirling import (
    SYMBOLIC,
    LambdaScalar,
    TruncatedSeries,
    bernoulli_base_series,
    bernoulli_higher,
    dowling_poly,
    dowling_series,
    format_element,
    rstirling2_lambda,
    second_kind_series,
    whitney_r,
    whitney_series,
)


def main():
    order = 8
    lam = LambdaScalar.fixed(Fraction(1, 2))

    print("Warm-up: exp(e^t - 1) generates the Bell numbers.")
    # column k = 1 of the second kind at lam = 1 is e^t - 1 itself
    e_t_minus_1 = second_kind_series(1, 0, LambdaScalar.fixed(1), order)
    bell = e_t_minus_1.exp()
    print("  coefficients:", [str(bell.coeff(n)) for n in range(order + 1)])

    print("\nColumn EGF of the second-kind triangle:")
    print("  sum_n T(n, k; r) t^n / n! = (e^{lam t} - 1)^k e^{r t} / (lam^k k!)")
    k, r = 3, 2
    series = second_kind_series(k, r, lam, order)
    triangle = [rstirling2_lambda(n, k, r, lam) for n in range(order + 1)]
    from_series = [series.coeff(n) for n in range(order + 1)]
    assert triangle == from_series
    print(f"  k={k}, r={r}, lam=1/2: both routes give")
    print("   ", [str(v) for v in triangle])

    print("\nThe same with lam symbolic (coefficients become polynomials in lam):")
    sym = second_kind_series(2, 1, SYMBOLIC, 4)
    for n in range(5):
        assert sym.coeff(n) == rstirling2_lambda(n, 2, 1, SYMBOLIC)
    c4 = format_element(sym.coeff(4))
    print("  orders 0..4 agree with the recurrence triangle, e.g. coefficient")
    print(f"  of t^4/4! is [{', '.join(c4)}] as [c0, c1, c2] in powers of lam.")

    print("\nWhitney column EGF, (e^{lam m t} - 1)^k e^{r t} / ((lam m)^k k!):")
    m = 2
    ws = whitney_series(k=2, m=m, r=1, lam=lam, order=order)
    wt = [whitney_r(n, 2, m, 1, lam) for n in range(order + 1)]
    assert [ws.coeff(n) for n in range(order + 1)] == wt
    print(f"  k=2, m={m}, r=1, lam=1/2:", [str(v) for v in wt])

    print("\nDowling polynomial EGF: e^t * exp(x (e^{lam m t} - 1)/(lam m))")
    x = Fraction(3, 2)
    ds = dowling_series(x, m, lam, order)
    rows = [dowling_poly(n, x, m, lam) for n in range(order + 1)]
    assert [ds.coeff(n) for n in range(order + 1)] == rows
    print(f"  x=3/2, m={m}, lam=1/2:", [str(v) for v in rows])

    print("\nHigher-order Bernoulli numbers: (t / (e^t - 1))^m.")
    base1 = bernoulli_base_series(1, 6)
    print("  m=1 gives the classical sequence:",
          [str(base1.coeff(n)) for n in range(7)])
    base2 = bernoulli_base_series(2, 6)
    assert base1 * base1 == base2
    print("  and the m=2 series is exactly the square of the m=1 series.")

    print("\nBernoulli polynomials by multiplying in e^{x t}:")
    xval = Fraction(1, 3)
    poly_series = base2 * TruncatedSeries([xval**n for n in range(7)])
    for n in range(5):
        direct = bernoulli_higher(n, 2, xval)
        assert poly_series.coeff(n) == direct
    print("  B_n^(2)(1/3) for n=0..4:",
          [str(bernoulli_higher(n, 2, xval)) for n in range(5)])

    print("\nSeries inverses are exact too: (t/(e^t - 1)) * ((e^t - 1)/t) = 1.")
    inv = base1.inverse()
    assert base1 * inv == TruncatedSeries([1, 0, 0, 0, 0, 0, 0])
    print("  verified up to order 6.")

    print("\nAll coefficients above are exact rationals; nothing was rounded.")


if __name__ == "__main__":
    main()
