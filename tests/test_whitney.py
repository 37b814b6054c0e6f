import hashlib
import itertools
from fractions import Fraction
from math import comb, factorial

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lambda_stirling import _dobinski, _triangle
from lambda_stirling._dobinski import _enclosure
from lambda_stirling.poly import LambdaScalar, Poly, SYMBOLIC
from lambda_stirling.series import TruncatedSeries
from lambda_stirling.stirling import rstirling2_lambda, stirling2_lambda
from lambda_stirling.whitney import (
    DOBINSKI_DIGITS,
    UnsupportedDomainError,
    bell_poly_lambda,
    dobinski_eval,
    dowling_poly,
    dowling_series,
    whitney,
    whitney_r,
    whitney_r_by_expansion,
    whitney_series,
)

import oracles

LAM = Poly([0, 1])
HALF = LambdaScalar.fixed(Fraction(1, 2))


def test_whitney_symbolic_frozen():
    # W(2,1) = W(1,0) + (lam m + 1) W(1,1) = lam m + 2
    for m in (1, 2, 3):
        assert whitney(2, 1, m, SYMBOLIC) == m * LAM + 2
        assert whitney(2, 2, m, SYMBOLIC) == 1
        assert whitney(2, 0, m, SYMBOLIC) == 1


def test_whitney_r_symbolic_frozen():
    for m, r in ((1, 2), (2, 3)):
        assert whitney_r(1, 0, m, r, SYMBOLIC) == r
        assert whitney_r(2, 1, m, r, SYMBOLIC) == m * LAM + 2 * r


def test_domain_validation():
    with pytest.raises(ValueError):
        whitney(2, 1, 0, SYMBOLIC)
    with pytest.raises(ValueError):
        whitney_r(2, 1, -1, 1, SYMBOLIC)
    with pytest.raises(ValueError):
        whitney_r(2, 1, 2, -1, SYMBOLIC)
    with pytest.raises(ValueError):
        whitney_series(1, 2, 1, SYMBOLIC, -1)


def test_expansion_oracle_agreement_symbolic():
    for m in (1, 2, 3):
        for r in (0, 1, 2):
            for n in range(6):
                for k in range(n + 1):
                    assert whitney_r_by_expansion(
                        n, k, m, r, SYMBOLIC
                    ) == whitney_r(n, k, m, r, SYMBOLIC)


def test_recurrence_matches_naive_oracle():
    lam_value = Fraction(-2, 5)
    lam = LambdaScalar.fixed(lam_value)
    for m in (1, 3):
        for r in (1, 2):
            for n in range(6):
                for k in range(n + 1):
                    assert whitney_r(n, k, m, r, lam) == oracles.naive_whitney_r(
                        n, k, m, r, lam_value
                    )


def test_series_route_matches_triangle():
    lam = LambdaScalar.fixed(Fraction(2))
    for m in (1, 2):
        for r in (1, 3):
            for k in range(4):
                series = whitney_series(k, m, r, lam, 6)
                for n in range(7):
                    assert series.coeff(n) == whitney_r(n, k, m, r, lam)


def test_series_route_symbolic():
    series = whitney_series(2, 2, 1, SYMBOLIC, 5)
    for n in range(6):
        assert series.coeff(n) == whitney(n, 2, 2, SYMBOLIC)


def test_reductions():
    for lam in (HALF, SYMBOLIC):
        for n in range(6):
            for k in range(n + 1):
                for r in (0, 1, 2):
                    assert whitney_r(n, k, 1, r, lam) == rstirling2_lambda(
                        n, k, r, lam
                    )
                for m in (1, 2, 3):
                    assert whitney_r(n, k, m, 1, lam) == whitney(n, k, m, lam)
                assert whitney_r(n, k, 1, 0, lam) == stirling2_lambda(n, k, lam)


def test_dowling_poly_values():
    # m=1, lam=1: Dowling rows specialize to shifted Bell values
    one = LambdaScalar.fixed(Fraction(1))
    assert dowling_poly(2, Fraction(1), 1, one) == 5
    assert dowling_poly(1, Fraction(1, 2), 2, HALF) == Fraction(3, 2)
    assert dowling_poly(0, Fraction(7), 3, HALF) == 1


def test_bell_poly_symbolic():
    x = Fraction(1, 3)
    expected = stirling2_lambda(2, 1, SYMBOLIC) * x + stirling2_lambda(
        2, 2, SYMBOLIC
    ) * x**2
    assert bell_poly_lambda(2, x, SYMBOLIC) == expected
    assert bell_poly_lambda(2, x, SYMBOLIC) == LAM * x + x**2


def test_bell_is_dowling_at_m1_r_equiv():
    # row sums against x: bell uses the plain triangle, dowling the m-family
    for n in range(6):
        assert bell_poly_lambda(n, Fraction(2), HALF) == sum(
            stirling2_lambda(n, k, HALF) * Fraction(2) ** k for k in range(n + 1)
        )


def test_dowling_series_matches_rows():
    lam = HALF
    series = dowling_series(Fraction(1, 2), 2, lam, 7)
    for n in range(8):
        assert series.coeff(n) == dowling_poly(n, Fraction(1, 2), 2, lam)


# (m, lam) -> the denominator of lam m that the Whitney triangle scales by;
# m = 1 at lam = -3 is the Bell row, of the plain second kind
SCALED_ROWS = {
    (2, Fraction(1, 2)): 1, (3, Fraction(-2, 3)): 1, (3, Fraction(5, 6)): 2,
    (1, Fraction(-3)): 1,
}


@pytest.mark.parametrize("m, lam_value", SCALED_ROWS, ids=str)
def test_row_sums_under_the_scale_of_lam_m(fresh_triangles, m, lam_value):
    # each row is summed once while it is held as integers and once after
    # its entries are published, so both branches of row_sum run
    lam = LambdaScalar.fixed(lam_value)
    r = 0 if m == 1 else 1

    def row_sum(n, x):
        return bell_poly_lambda(n, x, lam) if m == 1 else dowling_poly(n, x, m, lam)

    xs = (Fraction(-5, 2), Fraction(3, 4), Fraction(2))
    for n in range(21):
        row = oracles.whitney_type_row(n, m, r, lam_value)
        expected = [sum(w * x**k for k, w in enumerate(row)) for x in xs]
        before = [row_sum(n, x) for x in xs]
        triangle = _triangle._TRIANGLES[lam, 0, m, r]
        assert triangle._rows[n] is None and type(triangle._ints[n]) is list
        assert [whitney_r(n, k, m, r, lam) for k in range(n + 1)] == row
        assert type(triangle._rows[n]) is tuple and triangle._ints[n] is None
        after = [row_sum(n, x) for x in xs]
        assert before == after == expected, n
        assert all(type(v) is Fraction for v in before + after)
    assert triangle._params[1] == SCALED_ROWS[m, lam_value]


ROW_LAMBDAS = [SYMBOLIC] + [
    LambdaScalar.fixed(Fraction(v)) for v in ("1/3", "-2/3", "2", "-1", "5/7")
]
row_points = st.one_of(
    st.sampled_from([Fraction(0), Fraction(-1), Fraction(-5, 2), Fraction(3, 4)]),
    st.fractions(min_value=-6, max_value=6, max_denominator=9),
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=40),
    lam=st.sampled_from(ROW_LAMBDAS),
    x=row_points,
    read_first=st.booleans(),
)
@example(n=40, lam=ROW_LAMBDAS[1], x=Fraction(-5, 2), read_first=False)
@example(n=40, lam=ROW_LAMBDAS[0], x=Fraction(3, 4), read_first=True)
@example(n=0, lam=ROW_LAMBDAS[0], x=Fraction(0), read_first=False)
def test_row_sums_match_entrywise_sums(n, lam, x, read_first):
    # A fresh cache makes the first touch of row n either the row sum (over
    # the grown integer form) or the entry reads (after which the sum
    # recovers the integers from the public values).
    _triangle._TRIANGLES.clear()
    rows = [
        (lambda k, m=m: whitney(n, k, m, lam), lambda m=m: dowling_poly(n, x, m, lam))
        for m in (1, 2, 3)
    ]
    rows.append((lambda k: stirling2_lambda(n, k, lam), lambda: bell_poly_lambda(n, x, lam)))
    for entry, row_sum in rows:
        if read_first:
            expected = sum(entry(k) * x**k for k in range(n + 1))
            got = row_sum()
        else:
            got = row_sum()
            expected = sum(entry(k) * x**k for k in range(n + 1))
        assert got == expected
        assert type(got) is type(expected)
        if isinstance(got, Poly):
            assert got.coeffs == expected.coeffs


def test_dowling_rows_match_series_at_order_40():
    x = Fraction(-3, 4)
    for lam in ROW_LAMBDAS[1:]:
        for m in (1, 2, 3):
            series = dowling_series(x, m, lam, 40)
            for n in range(41):
                assert dowling_poly(n, x, m, lam) == series.coeff(n)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: dowling_poly(-1, 1, 2, HALF), ValueError),
        (lambda: dowling_poly(3, 1, 0, HALF), ValueError),
        (lambda: dowling_poly(0, 1, 0, SYMBOLIC), ValueError),
        (lambda: dowling_poly(3, 1, 2.0, HALF), ValueError),
        (lambda: dowling_poly(3, 1, Fraction(2), SYMBOLIC), ValueError),
        (lambda: dowling_poly(3, 1, 2, Fraction(1, 2)), TypeError),
        (lambda: dowling_poly(3, 1, 2, "symbolic"), TypeError),
        (lambda: bell_poly_lambda(-1, 1, HALF), ValueError),
        (lambda: bell_poly_lambda(3, 1, Fraction(1, 2)), TypeError),
        (lambda: bell_poly_lambda(0, 1, 2), TypeError),
    ],
)
def test_row_functions_reject_bad_input(call, error):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error


@pytest.mark.parametrize("lam", ROW_LAMBDAS[1:], ids=str)
def test_dowling_series_is_the_exp_of_its_exponent(lam):
    # the integer recurrence against TruncatedSeries.exp over Fraction
    for x in (Fraction(0), Fraction(1, 2), Fraction(-7, 3)):
        for m in (1, 2, 3):
            lm = lam.value * m
            exponent = [0, 1 + x] + [x * lm**j for j in range(1, 24)]
            for order in (0, 1, 2, 24):
                expected = TruncatedSeries(exponent[: order + 1]).exp()
                assert dowling_series(x, m, lam, order).coeffs == expected.coeffs


def test_dowling_series_rejects_symbolic():
    with pytest.raises(ValueError):
        dowling_series(Fraction(1), 1, SYMBOLIC, 5)


def test_shear_to_second_kind():
    # sum_l C(n,l) W_1(l,k) (lam-1)^(n-l) = {n+1 brace k+1}_lam, symbolically
    shear = SYMBOLIC.element - 1
    for n in range(6):
        for k in range(n + 1):
            lhs = sum(
                comb(n, l) * whitney(l, k, 1, SYMBOLIC) * shear ** (n - l)
                for l in range(k, n + 1)
            )
            assert lhs == stirling2_lambda(n + 1, k + 1, SYMBOLIC)


# --- numeric series evaluation -------------------------------------------------


def test_dobinski_matches_exact():
    import mpmath

    for lam_value in (Fraction(1, 2), Fraction(1)):
        for m in (1, 2):
            for x in (Fraction(1, 2), Fraction(2)):
                for n in range(6):
                    result = dobinski_eval(n, x, m, lam_value, 1e-12)
                    exact = mpmath.mpf(result.exact.numerator) / mpmath.mpf(
                        result.exact.denominator
                    )
                    assert abs(result.numeric - exact) <= 1e-10
                    assert result.tail_bound <= 1e-12 * float(result.numeric)
                    assert result.truncation_terms > 0


def test_dobinski_takes_lambda_as_every_other_function_does():
    # a LambdaScalar, as the triangles take it, or its bare value
    scalar = dobinski_eval(3, Fraction(1, 2), 2, HALF)
    assert scalar == dobinski_eval(3, Fraction(1, 2), 2, Fraction(1, 2))
    assert scalar.lam == Fraction(1, 2)
    with pytest.raises(UnsupportedDomainError, match="needs a fixed rational lambda"):
        dobinski_eval(3, Fraction(1, 2), 2, SYMBOLIC)


@pytest.mark.parametrize("x, lam", [(Fraction(1), Fraction(1, 10**30)), (10**30, HALF)],
                         ids=["tiny-lambda", "huge-x"])
def test_dobinski_refuses_a_series_that_cannot_converge(x, lam):
    # t_k / t_(k-1) >= c / k with c = x/(lam m), so no k below 2c passes
    # the ratio test; e^{-c} is not even enclosed (it overflowed before)
    with pytest.raises(UnsupportedDomainError, match=r"x/\(lambda m\) below 50000"):
        dobinski_eval(3, x, 1, lam)


def test_dobinski_domain_errors():
    with pytest.raises(UnsupportedDomainError):
        dobinski_eval(3, Fraction(1), 1, Fraction(-1, 2), 1e-10)
    with pytest.raises(UnsupportedDomainError):
        dobinski_eval(3, Fraction(-1), 1, Fraction(1, 2), 1e-10)
    with pytest.raises(ValueError):
        dobinski_eval(3, Fraction(1), 1, Fraction(1, 2), 0.0)
    with pytest.raises(ValueError):
        dobinski_eval(-1, Fraction(1), 1, Fraction(1, 2), 1e-10)


def test_dobinski_x_zero():
    result = dobinski_eval(4, Fraction(0), 2, Fraction(1, 2), 1e-12)
    assert result.exact == 1  # only the k=0 block survives
    assert abs(result.numeric - 1) <= 1e-10


def dyadic(value):
    # an mpf is a dyadic rational, so it converts exactly
    return Fraction(value.man) * Fraction(2) ** value.exp


def exact_error(result):
    return abs(dyadic(result.numeric) - result.exact)


def test_dobinski_large_terms_stay_within_the_bounds():
    # the terms reach about 1e86; at a fixed 40 digits the sum was off by
    # about 2.2e26 against a tail bound of 1e-14
    result = dobinski_eval(60, Fraction(2), 2, Fraction(1, 2), 1e-12)
    assert exact_error(result) <= Fraction(1e-12)
    bound = result.truncation_bound + result.rounding_bound
    assert exact_error(result) <= bound <= Fraction(1e-12)
    assert result.working_dps > DOBINSKI_DIGITS
    assert result.truncation_terms == 104


def test_dobinski_bounds_are_exact_fractions():
    result = dobinski_eval(5, Fraction(3, 2), 2, Fraction(1, 2), 1e-12)
    assert type(result.truncation_bound) is Fraction
    assert type(result.rounding_bound) is Fraction
    assert result.working_dps == DOBINSKI_DIGITS
    # the CLI's float tail bound is the truncation bound up to rounding
    assert result.tail_bound == pytest.approx(float(result.truncation_bound))


@pytest.mark.parametrize("n, x, m, lam", [
    (5, Fraction(3, 2), 2, Fraction(1, 2)),
    (60, Fraction(2), 2, Fraction(1, 2)),
    (20, Fraction(10), 1, Fraction(1, 10)),
    (9, Fraction(0), 1, Fraction(1)),
])
def test_dobinski_bounds_split_truncation_from_rounding(n, x, m, lam):
    # against e^{-c} times the partial sum, enclosed at 3000 bits: the
    # rounding bound covers numeric's distance from it, the truncation
    # bound the exact value's
    result = dobinski_eval(n, x, m, lam, 1e-12)
    c, lm = x / (lam * m), lam * m
    partial = sum(c**k / factorial(k) * (lm * k + 1) ** n
                  for k in range(result.truncation_terms))
    iv, numeric = mpmath.iv, dyadic(result.numeric)
    prec, iv.prec = iv.prec, 3000
    try:
        def enclose(q):
            return iv.mpf(q.numerator) / q.denominator

        centre = iv.exp(-enclose(c)) * enclose(partial)
        for value, bound in ((numeric, result.rounding_bound),
                             (result.exact, result.truncation_bound)):
            gap = enclose(value) - centre
            assert -enclose(bound) <= gap <= enclose(bound)
    finally:
        iv.prec = prec
    # the rounding bound is a few units in the last place of the value
    assert result.rounding_bound <= Fraction(2) ** (10 - result.working_dps * 3) * result.exact


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=80),
    x=st.fractions(min_value=0, max_value=50, max_denominator=7),
    m=st.integers(min_value=1, max_value=3),
    lam=st.sampled_from([Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(2)]),
    tol=st.sampled_from([1e-12, 1e-30, 0.5]),
)
@example(n=80, x=Fraction(50), m=1, lam=Fraction(1, 10), tol=1e-12)
@example(n=80, x=Fraction(50), m=3, lam=Fraction(2), tol=1e-12)
@example(n=20, x=Fraction(50), m=1, lam=Fraction(1, 10), tol=1e-12)
@example(n=7, x=Fraction(0), m=2, lam=Fraction(1, 2), tol=1e-12)
def test_dobinski_error_within_truncation_plus_rounding(n, x, m, lam, tol):
    result = dobinski_eval(n, x, m, lam, tol)
    bound = result.truncation_bound + result.rounding_bound
    assert exact_error(result) <= bound <= Fraction(tol)


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1), Fraction(7, 3)])
def test_dobinski_stops_at_the_first_term_both_tests_pass(lam):
    # the stopping k, found term by term or past SCAN_BITS by bisection (and
    # float logarithms), is the one a term-by-term scan over Fractions finds;
    # x/(lam m) reaches 200 and k the hundreds, and at tol = 1e9 the ratio
    # test alone decides where c is small
    for m in (1, 2):
        for x in (Fraction(0), Fraction(1, 3), Fraction(2), Fraction(19, 2), Fraction(100)):
            c = x / (lam * m)
            lo, _, e = _enclosure(
                c.numerator, c.denominator, mpmath.libmp.dps_to_prec(DOBINSKI_DIGITS))
            lo = Fraction(lo, 1 << -e)  # the lower end, e < 0
            for n, tol in itertools.product((0, 1, 7, 30, 60), (1e-12, 1e9)):
                k, last = 1, Fraction(1)  # t_0
                while True:
                    term = last * c / k * ((lam * m * k + 1) / (lam * m * (k - 1) + 1)) ** n
                    if term < last / 2 and 2 * term < Fraction(tol) * lo:
                        break
                    k, last = k + 1, term
                assert dobinski_eval(n, x, m, lam, tol).truncation_terms == k


@pytest.mark.parametrize("n, x, m, lam", [
    (60, Fraction(200), 1, Fraction(1)),
    (5, Fraction(2000), 1, Fraction(1)),
    (3, Fraction(50), 2, Fraction(1, 10)),
])
def test_dobinski_stop_search_falls_back_to_the_exact_comparison(monkeypatch, n, x, m, lam):
    # with every float logarithm 0.0 no probe of the bisection is far enough
    # from the bound for the logarithms to settle it, so each probe that
    # passes the ratio test takes the exact comparison over int, the one
    # reader of factorial; the stop and every field stay the same
    want = dobinski_eval(n, x, m, lam)
    exact = []

    def counted(k):
        exact.append(k)
        return factorial(k)

    monkeypatch.setattr(_dobinski, "log", lambda value: 0.0)
    monkeypatch.setattr(_dobinski, "lgamma", lambda value: 0.0)
    monkeypatch.setattr(_dobinski, "factorial", counted)
    got = dobinski_eval(n, x, m, lam)
    assert exact
    for field in got._fields:
        assert getattr(got, field) == getattr(want, field), field
    assert got.numeric._mpf_ == want.numeric._mpf_


@pytest.mark.parametrize("n, x, m, lam, k", [
    (1, Fraction(1, 3), 1, Fraction(1), 12),
    (200, Fraction(50), 1, Fraction(1), 798),
])
def test_dobinski_sum_refuses_to_pass_max_terms(n, x, m, lam, k):
    # the search may stop at max_terms but not past it, term by term (k = 12)
    # and by bisection (k = 798) alike
    lm = lam * m
    args = (n, x / lm, lm, 1e-12, DOBINSKI_DIGITS)
    assert _dobinski.dobinski_sum(*args, max_terms=k)[1] == k
    with pytest.raises(ArithmeticError, match="failed to reach the tail bound"):
        _dobinski.dobinski_sum(*args, max_terms=k - 1)


@pytest.mark.parametrize("k, max_terms", [(1, 1), (1, 40), (2, 2), (3, 37), (5, 64), (17, 300)])
def test_stop_search_probes_by_doubling_then_bisection(k, max_terms):
    # for every stop in [k, max_terms] the search tests the predicate at
    # the same j in the same order as a hand-written doubling and bisection,
    # and past max_terms it raises after the same probes
    for threshold in range(k, max_terms + 2):
        probes = []

        def passes(j):
            probes.append(j)
            return j >= threshold

        first, expected = oracles.first_true_probes(k, max_terms, threshold)
        if first is None:
            with pytest.raises(ArithmeticError, match="failed to reach the tail bound"):
                _dobinski._first_true(passes, k, max_terms)
        else:
            assert _dobinski._first_true(passes, k, max_terms) == first == threshold
        assert probes == expected, threshold


# every field of dobinski_eval over 11 n x 6 x x 2 m x 4 lambda x 2 tol =
# 1,056 points: the mpf as (man, exp), the float tail bound as its repr,
# both exact bounds as p/q, the working digits and the exact value
DOBINSKI_FIELDS_SHA256 = "54652b2bef7a88c6fcc1172ebfa02091cc0fd6c200ed6160edadbf37bbd539b0"


def test_dobinski_fields_pinned():
    digest = hashlib.sha256()
    for n in (0, 1, 2, 3, 5, 8, 13, 21, 30, 45, 60):
        for x in ("0", "1/2", "3/2", "2", "10", "50"):
            for m in (1, 3):
                for lam in ("1/10", "1/2", "1", "5/3"):
                    for tol in (1e-12, 1e-30):
                        v = dobinski_eval(n, Fraction(x), m, Fraction(lam), tol)
                        digest.update(repr((
                            v.numeric.man, v.numeric.exp, v.truncation_terms,
                            repr(v.tail_bound), *(f"{b.numerator}/{b.denominator}" for b in
                                                  (v.truncation_bound, v.rounding_bound)),
                            v.working_dps, str(v.exact),
                        )).encode())
    assert digest.hexdigest() == DOBINSKI_FIELDS_SHA256


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -float("inf"), -1e-12])
def test_dobinski_rejects_non_finite_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        dobinski_eval(3, Fraction(1), 1, Fraction(1, 2), tol)
