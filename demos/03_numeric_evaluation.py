#!/usr/bin/env python3
"""Numeric Dowling values with rigorous truncation and rounding bounds.

The Dowling polynomial d(n, x) (here with m, lam fixed, lam > 0, x >= 0)
also equals a convergent infinite series of positive terms

    d(n, x) = e^{-c} sum_{k >= 0} (x / (lam m))^k (lam m k + 1)^n / k!,
    with c = x / (lam m).

The evaluator sums this series exactly over the integers, stops once twice
the next term drops below the requested tolerance (scaled by e^{-c}), and
multiplies by an enclosure of e^{-c} taken at a working precision chosen per
call: at least 40 digits, and more when the value is large.  It reports two
exact bounds, one for the truncated tail and one for the rounding, and
returns the exact rational value alongside so the two can be compared.  This
script prints a table and verifies that the sum of the two bounds really does
dominate the observed errors.
"""

from fractions import Fraction

import mpmath

from lambda_stirling import (
    LambdaScalar,
    UnsupportedDomainError,
    dobinski_eval,
    dowling_poly,
)


def exact_error(res) -> Fraction:
    """|numeric - exact|, exactly: the mpf is a dyadic rational."""
    numeric = Fraction(res.numeric.man) * Fraction(2) ** res.numeric.exp
    return abs(numeric - res.exact)


def main():
    x = Fraction(3, 2)
    m = 2
    lam = Fraction(1, 2)
    tol = 1e-12

    print(f"Evaluating d(n, x={x}) with m={m}, lam={lam}, tolerance {tol:g}.")
    print(f"{'n':>2}  {'exact':>22}  {'numeric (25 digits)':>32}  {'terms':>5}  "
          f"{'trunc bound':>11}  {'round bound':>11}  {'actual err':>11}")
    worst_err = 0.0
    for n in range(9):
        res = dobinski_eval(n, x, m, lam, tol=tol)
        exact = dowling_poly(n, x, m, LambdaScalar.fixed(lam))
        assert res.exact == exact
        err = exact_error(res)
        worst_err = max(worst_err, float(err))
        assert err <= res.truncation_bound + res.rounding_bound <= Fraction(tol), n
        print(f"{n:>2}  {str(res.exact):>22}  {mpmath.nstr(res.numeric, 25):>32}  "
              f"{res.truncation_terms:>5}  {float(res.truncation_bound):>11.3e}  "
              f"{float(res.rounding_bound):>11.3e}  {float(err):>11.3e}")
    print(f"\nWorst observed |numeric - exact| on the table: {worst_err:.3e}")
    print("Every row satisfies: actual error <= truncation bound + rounding")
    print("bound <= tolerance.  Both bounds are computed from the series alone,")
    print("without knowing the exact value.")

    print("\nLarge terms raise the working precision, not the error:")
    for n in (30, 60):
        res = dobinski_eval(n, Fraction(2), 2, lam, tol=tol)
        print(f"  n={n}: {res.working_dps} digits, {res.truncation_terms} terms, "
              f"actual error {float(exact_error(res)):.2e}")

    print("\nTightening the tolerance just makes the evaluator sum further:")
    for tight in (1e-6, 1e-12, 1e-20):
        res = dobinski_eval(6, x, m, lam, tol=tight)
        print(f"  tol={tight:>7.0e}: {res.truncation_terms:>3} terms, "
              f"truncation bound {float(res.truncation_bound):.2e}, "
              f"actual error {float(exact_error(res)):.2e}")

    print("\nDomain handling (the series needs lam > 0 and x >= 0):")
    for bad_kwargs, label in (
        (dict(n=2, x=1, m=1, lam=Fraction(-1, 2)), "lam = -1/2"),
        (dict(n=2, x=Fraction(-1), m=1, lam=Fraction(1, 2)), "x = -1"),
    ):
        try:
            dobinski_eval(**bad_kwargs)
        except UnsupportedDomainError as exc:
            print(f"  {label}: rejected with UnsupportedDomainError: {exc}")

    print("\nEdge case x = 0: the series collapses to its k = 0 term, so the")
    res0 = dobinski_eval(5, 0, m, lam)
    print(f"value is exactly 1 (got exact={res0.exact}, "
          f"numeric={mpmath.nstr(res0.numeric, 5)}, "
          f"terms={res0.truncation_terms}).")


if __name__ == "__main__":
    main()
