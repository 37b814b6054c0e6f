import operator
import pickle
import sys
import time
from fractions import Fraction
from functools import cache
from itertools import islice
from math import comb, factorial
from threading import Thread

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lambda_stirling.bernoulli import bernoulli_base_series, bernoulli_higher
from lambda_stirling import _triangle, series
from lambda_stirling.poly import SYMBOLIC, LambdaScalar, Poly
from lambda_stirling.series import TruncatedSeries
from lambda_stirling.stirling import rstirling2_by_difference, second_kind_series
from lambda_stirling.whitney import dowling_series, whitney_series

from golden_texts import assert_golden
from oracles import (
    alternating_sum_stirling2,
    egf_exp,
    egf_mul,
    egf_power_ring,
    higher_bernoulli,
    lambda_coeffs,
    series_columns,
)

LAM = Poly([0, 1])
HALF = LambdaScalar.fixed(Fraction(1, 2))

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_coeff_out_of_range_raises():
    s = TruncatedSeries([1, 1, 1, 1])
    with pytest.raises(IndexError):
        s.coeff(4)
    with pytest.raises(IndexError):
        s.coeff(-1)


def test_series_is_an_immutable_value():
    # a series used as a dict key must keep its hash, so its one field
    # cannot be assigned or deleted, as with LambdaScalar
    s = TruncatedSeries([1, 2, 3])
    table = {s: "found"}
    with pytest.raises(AttributeError):
        s.coeffs = (Fraction(7),)
    with pytest.raises(AttributeError):
        del s.coeffs
    assert s.coeffs == (1, 2, 3)
    assert table[s] == table[TruncatedSeries([1, 2, 3])] == "found"
    copy = pickle.loads(pickle.dumps(s))
    assert copy == s and hash(copy) == hash(s) and repr(copy) == repr(s)
    # a value that is no series, even its own coefficient tuple, is left
    # to the other operand, and compares unequal
    assert s.__eq__(s.coeffs) is NotImplemented
    assert s != s.coeffs and s != 1


def test_mul_is_binomial_convolution():
    # e^t * e^t = e^{2t}
    e = TruncatedSeries([1] * 7)
    prod = e * e
    assert [prod.coeff(n) for n in range(7)] == [2**n for n in range(7)]


def test_squared_difference_symbolic():
    # (e^{lam t} - 1)^2 has second EGF coefficient 2 lam^2
    s = TruncatedSeries([Poly()] + [LAM**n for n in range(1, 5)])
    sq = s * s
    assert sq.coeff(0) == 0
    assert sq.coeff(1) == 0
    assert sq.coeff(2) == 2 * LAM**2
    assert sq.coeff(3) == LAM**3 * (2**3 - 2)  # 2^3 - 2 = 6


def test_scalar_ops():
    # a series is no ring element of its own: an exact scalar is not an
    # operand of +, - or *, on either side
    s = TruncatedSeries([1, 1, 1, 1])
    for op in (operator.add, operator.sub, operator.mul):
        for scalar in (1, Fraction(1, 2), LAM):
            with pytest.raises(TypeError):
                op(s, scalar)
            with pytest.raises(TypeError):
                op(scalar, s)


def test_negative_order_rejected():
    # a series of order -1 would hold no coefficient
    with pytest.raises(ValueError):
        TruncatedSeries([])
    with pytest.raises(ValueError):
        whitney_series(1, 1, 0, HALF, -1)
    with pytest.raises(ValueError):
        dowling_series(Fraction(2), 1, HALF, -3)
    with pytest.raises(ValueError):
        bernoulli_base_series(2, -1)


def test_inverse_roundtrip():
    # e^{2t} + t^2; the EGF coefficient of t^2 is 2!
    s = TruncatedSeries([2**n + (2 if n == 2 else 0) for n in range(7)])
    inv = s.inverse()
    prod = s * inv
    assert prod == TruncatedSeries([1, 0, 0, 0, 0, 0, 0])


def test_inverse_needs_nonzero_constant():
    s = TruncatedSeries([0, 1, 0, 0, 0])  # the series t
    with pytest.raises(ValueError):
        s.inverse()


def test_exp_gives_bell_numbers():
    inner = TruncatedSeries([0] + [1] * 8)  # e^t - 1
    bell = inner.exp()
    assert [bell.coeff(n) for n in range(9)] == BELL


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        TruncatedSeries([1, 0, 0, 0]).exp()


def test_exp_of_sum_is_product():
    a = [0, 1, 0, 0, 0, 0, 0]  # the series t
    b = [0] + [Fraction(2**n, 3) for n in range(1, 7)]  # (e^{2t} - 1)/3
    lhs = TruncatedSeries([x + y for x, y in zip(a, b)]).exp()
    rhs = TruncatedSeries(a).exp() * TruncatedSeries(b).exp()
    assert lhs == rhs


@given(
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
        max_size=8,
    )
)
def test_exp_matches_power_sum_oracle(tail):
    a = [Fraction(0)] + tail
    assert list(TruncatedSeries(a).exp().coeffs) == egf_exp(a)


def test_symbolic_base_column_is_lambda_powers():
    # column 1 at m = 1, r = 0 is the base (e^{lam t} - 1)/lam itself
    base = whitney_series(1, 1, 0, SYMBOLIC, 6)
    assert base.coeff(0) == 0
    for n in range(1, 7):
        assert base.coeff(n) == LAM ** (n - 1)


@pytest.mark.parametrize("order", [0, 1, 2, 17])
def test_column_coefficient_types(order):
    # each column, past the order too, is the same through both EGF entry
    # points, with one coefficient type
    lams = [SYMBOLIC, LambdaScalar.fixed(Fraction(1, 3)), LambdaScalar.fixed(-2)]
    for lam in lams:
        for m in (1, 3):
            for r in (0, 2):
                columns = [whitney_series(k, m, r, lam, order) for k in range(order + 3)]
                for k, column in enumerate(columns):
                    direct = [whitney_series(k, m, r, lam, order)]
                    if m == 1:
                        direct.append(second_kind_series(k, r, lam, order))
                    assert all(d == column for d in direct), (lam, m, r, k)
                    kind = Poly if lam.is_symbolic and k >= 1 else Fraction
                    for series in [column] + direct:
                        assert series.order == order
                        assert all(type(c) is kind for c in series.coeffs), (lam, m, r, k)


@st.composite
def order_and_first(draw):
    order = draw(st.integers(min_value=0, max_value=20))
    return order, draw(st.integers(min_value=0, max_value=order + 2))


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(
        st.just(SYMBOLIC),
        st.fractions(min_value=-3, max_value=3, max_denominator=5)
        .filter(lambda v: v != 0)
        .map(LambdaScalar.fixed),
    ),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=3),
    order_and_first(),
)
@example(SYMBOLIC, 2, 3, (20, 0))  # the longest symbolic columns
def test_columns_match_generic_series_oracle(lam, m, r, order_first):
    order, first = order_first
    oracle = series_columns(m, r, None if lam.is_symbolic else lam.value, order)
    kind = Poly if lam.is_symbolic else Fraction
    expected_columns = islice(oracle, first, None)
    for k, expected in zip(range(first, first + 3), expected_columns):
        column = whitney_series(k, m, r, lam, order)
        assert [lambda_coeffs(c) for c in column.coeffs] == expected, (k, order)
        assert all(type(c) is (kind if k else Fraction) for c in column.coeffs)


# the column reprs that test_each_column_is_one_power_pass pins, one a line,
# committed as tests/golden/series_columns.txt
COLUMNS_SHA256 = "4a87aa65547357c908d0b08ee89141267b0edb059d571037f9694f7db9ff5149"


def test_each_column_is_one_power_pass(monkeypatch):
    # the first read of column k makes one pass of the power recurrence, to
    # order - k; a read the table of G^k already reaches makes none, and a
    # longer one continues from the table's end.  No column takes a series
    # product, and the values and coefficient types are pinned as the
    # column walk built them
    def refuse(*args):
        raise AssertionError("a column took a series product")

    calls = []

    def counted(alpha, k, order, nums, den):
        calls.append((k, order, len(nums)))
        return power_ints(alpha, k, order, nums, den)

    power_ints = series._power_ints
    monkeypatch.setattr(series, "_binomial_product", refuse)
    monkeypatch.setattr(series, "_power_ints", counted)
    monkeypatch.setattr(series, "_power_table", cache(series._PowerTable))
    lines, seen = [], set()
    for lam in (SYMBOLIC, LambdaScalar.fixed(Fraction(-2, 3))):
        for r in (0, 2):
            for k in range(12):
                for build in (lambda: second_kind_series(k, r, lam, 9),
                              lambda: whitney_series(k, 3, r, lam, 9)):
                    lines.append(repr(build()))
                    # every table starts at h_0 = 1, so k = 9 reads it as is
                    first = 1 <= k <= 8 and k not in seen
                    assert calls == ([(k, 9 - k, 1)] if first else []), (lam, r, k)
                    if first:
                        seen.add(k)
                    calls.clear()
    assert_golden("\n".join(lines), "series_columns.txt", COLUMNS_SHA256)
    lam = LambdaScalar.fixed(Fraction(1, 3))
    for order, expected in ((20, [(3, 17, 7)]), (15, []), (20, [])):
        assert list(second_kind_series(3, 2, lam, order).coeffs) == [
            rstirling2_by_difference(n, 3, 2, Fraction(1, 3)) for n in range(order + 1)]
        assert calls == expected, order
        calls.clear()


def test_power_tables_grow_safely_and_apart(monkeypatch):
    # 8 threads read columns of one k at mixed orders, lam and r while its
    # table grows (and rescales its denominator); each value equals the
    # one a single thread computes.  Columns k and Bernoulli order k read
    # the tables of k and -k, never one table
    lams = [LambdaScalar.fixed(Fraction(v)) for v in ("1/3", "-5/2", "2")] + [SYMBOLIC]
    requests = [(order, lam, r) for order in range(4, 61, 4) for lam in lams for r in (0, 3)]
    monkeypatch.setattr(series, "_power_table", cache(series._PowerTable))
    expected = {req: whitney_series(4, 2, req[2], req[1], req[0]) for req in requests}
    monkeypatch.setattr(series, "_power_table", cache(series._PowerTable))
    seen = []

    def worker(i):
        mine = requests[i * 15:] + requests[: i * 15]
        for order, lam, r in (reversed(mine) if i % 2 else mine):
            seen.append(((order, lam, r), whitney_series(4, 2, r, lam, order)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8 * len(requests)
    for req, column in seen:
        assert column == expected[req], req

    tables = cache(series._PowerTable)
    monkeypatch.setattr(series, "_power_table", tables)
    lam, x = LambdaScalar.fixed(Fraction(1, 3)), Fraction(2, 5)
    classical = higher_bernoulli(3, 24)
    for n in range(3, 25):
        assert list(whitney_series(3, 1, 0, lam, n).coeffs) == [
            rstirling2_by_difference(j, 3, 0, Fraction(1, 3)) for j in range(n + 1)]
        assert bernoulli_higher(n, 3, x) == sum(
            comb(n, j) * classical[j] * x ** (n - j) for j in range(n + 1))
    assert tables.cache_info().currsize == 2
    assert tables(3).k == 3 and tables(-3).k == -3


def test_columns_and_bernoulli_bases_read_no_triangle(monkeypatch):
    # the EGF and Bernoulli routes stay closed off from the triangles they
    # check: with every triangle seam refusing, they still return (that
    # their modules import no triangle is tests/test_import_graph.py's)
    def refuse(*args, **kwargs):
        raise AssertionError("a triangle was read")

    monkeypatch.setattr(_triangle, "_lookup", refuse)
    monkeypatch.setattr(_triangle, "_triangle", refuse)
    monkeypatch.setattr(_triangle.NumberTriangle, "_row", refuse)
    monkeypatch.setattr(series, "_power_table", cache(series._PowerTable))
    for lam in (SYMBOLIC, LambdaScalar.fixed(Fraction(-2, 3))):
        assert whitney_series(3, 2, 1, lam, 12).order == 12
    assert dowling_series(Fraction(1, 2), 2, LambdaScalar.fixed(Fraction(-2, 3)), 12).order == 12
    assert bernoulli_base_series(2, 12).order == 12
    assert bernoulli_higher(12, 2, Fraction(1, 3)) == sum(
        comb(12, j) * b * Fraction(1, 3) ** (12 - j)
        for j, b in enumerate(higher_bernoulli(2, 12)))


@pytest.mark.parametrize("lam", [Fraction(1, 3), Fraction(-5, 2)])
@pytest.mark.parametrize("r", [0, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_long_small_k_columns_match_finite_differences(k, r, lam):
    # the longest shifts: order 200 with k <= 3, r = 0 (no shift at all)
    # and r = 2, against the finite-difference closed form entry by entry
    column = second_kind_series(k, r, LambdaScalar.fixed(lam), 200)
    assert list(column.coeffs) == [
        rstirling2_by_difference(n, k, r, lam) for n in range(201)]


@pytest.mark.parametrize("lam, r", [(Fraction(1, 3), 2), (Fraction(-5, 2), 0)])
def test_large_columns_match_finite_differences(lam, r):
    # columns k up to 60 at order 64, far past the generic oracle's order
    # 20, against the finite-difference closed form entry by entry
    for k in range(0, 61, 4):
        column = second_kind_series(k, r, LambdaScalar.fixed(lam), 64)
        assert list(column.coeffs) == [
            rstirling2_by_difference(n, k, r, lam) for n in range(65)], k


@pytest.mark.parametrize("lam", [SYMBOLIC, LambdaScalar.fixed(Fraction(-2, 3))])
def test_column_past_order_costs_no_work(lam):
    # a column index past the order gives the zero column at once: no
    # factorial of k and no power of the base, whatever k is
    start = time.perf_counter()
    columns = [second_kind_series(10**12, 2, lam, 8)]
    columns += [whitney_series(10**12, m, r, lam, 8) for m, r in ((1, 1), (3, 0))]
    assert time.perf_counter() - start < 0.5
    zero = Poly() if lam.is_symbolic else Fraction(0)
    for column in columns:
        assert column.order == 8
        assert [type(c) for c in column.coeffs] == [type(zero)] * 9
        assert all(c == 0 for c in column.coeffs)


def test_non_integer_column_index_rejected():
    lam = LambdaScalar.fixed(Fraction(1, 2))
    with pytest.raises(ValueError, match="k must be an integer"):
        second_kind_series(2.0, 0, lam, 5)
    with pytest.raises(ValueError, match="k must be an integer"):
        whitney_series(2.0, 2, 1, lam, 5)


@pytest.mark.parametrize("call", [
    lambda: TruncatedSeries([1, 2, 3]).coeff(1.0),
    lambda: whitney_series(1, 1, 0, HALF, 2.5),
    lambda: second_kind_series(1, 0, HALF, 2.5),
    lambda: whitney_series(1, 2, 1, HALF, 2.5),
    lambda: dowling_series(Fraction(1), 1, HALF, 2.5),
    lambda: bernoulli_base_series(1, 2.5),
    lambda: bernoulli_higher(2.5, 1, 0),
], ids=[
    "coeff", "whitney_series_m1", "second_kind_series",
    "whitney_series", "dowling_series", "bernoulli_base_series",
    "bernoulli_higher",
])
def test_non_integer_size_rejected(call):
    # an order or index that is not an int is refused up front, not by
    # range() or a list index with TypeError
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_second_kind_gf_matches_alternating_sum():
    # coefficient n of (e^t - 1)^k / k! is the ordinary second-kind number;
    # the product of k factors e^t - 1 has no constant term to raise
    k = 3
    factor = TruncatedSeries([0] + [1] * 8)
    s = factor * factor * factor
    for n in range(9):
        assert s.coeff(n) / factorial(k) == alternating_sum_stirling2(n, k)


def test_pow_zero_is_one():
    s = TruncatedSeries([5**n for n in range(5)])
    assert s**0 == TruncatedSeries([1, 0, 0, 0, 0])


def test_pow_rejects_non_integer_exponent():
    s = TruncatedSeries([5**n for n in range(5)])
    with pytest.raises(ValueError):
        s**2.0
    with pytest.raises(ValueError):
        s ** Fraction(1, 2)


def oracle_power(a: list, k: int) -> list:
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for _ in range(k):
        out = egf_mul(out, a)
    return out


rational = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=80, deadline=None)
@given(
    rational.filter(lambda c: c != 0),
    st.lists(rational, max_size=24),
    st.integers(min_value=-6, max_value=12),
)
@example(Fraction(1), [], 0)
@example(Fraction(-2, 3), [Fraction(1, 2), 0, 3], -5)
def test_pow_matches_repeated_products(lead, tail, k):
    # a nonnegative power against k products; a negative one against the
    # identity A^k A^(-k) = 1
    a = [lead] + tail
    power = TruncatedSeries(a) ** k
    assert power.order == len(tail)
    assert all(type(c) is Fraction for c in power.coeffs)
    if k >= 0:
        assert list(power.coeffs) == oracle_power(a, k)
    else:
        assert egf_mul(list(power.coeffs), oracle_power(a, -k)) == oracle_power(a, 0)


@settings(max_examples=60, deadline=None)
@given(
    rational.filter(lambda c: c not in (0, 1)),
    st.lists(rational, max_size=24),
    st.integers(min_value=-6, max_value=6),
)
def test_rational_power_matches_ring_path(lead, tail, k):
    # the integer recurrence against the same recurrence run step by step
    # in Fraction ring arithmetic; they must agree exactly
    a, order = [lead] + tail, len(tail)
    got = TruncatedSeries(a) ** k
    assert got.order == order
    assert all(type(c) is Fraction for c in got.coeffs)
    assert list(got.coeffs) == egf_power_ring(a, k)


@pytest.mark.parametrize("coeffs", [
    [0, 1, 2],  # the constant term is not invertible
    [Poly(), 1],  # the same, at symbolic lambda
    [LAM, 1, 0],  # lam + t: a polynomial coefficient
    [1, LAM],
    [Poly([2]), 1],  # a constant polynomial is still a polynomial
])
@pytest.mark.parametrize("k", [-2, 0, 3])
def test_pow_domain(coeffs, k):
    # powers are taken over the rationals only, with a nonzero constant term
    with pytest.raises(ValueError):
        TruncatedSeries(coeffs) ** k


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_foreign_operand_raises_type_error(op):
    # neither a series nor an exact scalar: Python raises TypeError, as
    # for Poly
    s = TruncatedSeries([1, 2])
    for other in (0.5, "1", None, [1, 2]):
        with pytest.raises(TypeError):
            op(s, other)
        with pytest.raises(TypeError):
            op(other, s)


def test_alignment_truncates_to_smaller_order():
    a = TruncatedSeries([1] * 7)
    b = TruncatedSeries([1] * 4)
    assert (a * b).order == (b * a).order == 3
    assert a * b == TruncatedSeries([2**n for n in range(4)])


series_entries = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.builds(Poly, st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5),
                             max_size=3)),
)


@st.composite
def egf_lists(draw):
    """EGF coefficients, some of them zeros of each kind up front."""
    zeros = draw(st.lists(st.sampled_from([0, Fraction(0), Poly()]), max_size=4))
    return zeros + draw(st.lists(series_entries, min_size=1, max_size=6))


@settings(max_examples=150, deadline=None)
@given(egf_lists(), egf_lists())
@example([Poly()] * 4, [1, 2, 3, 4, 5])  # an all-zero factor
@example([0, 0, Fraction(1, 2), 3], [0, LAM, 1 + LAM, 2])  # both with leading zeros
@example([Fraction(0)] * 3, [Poly()] * 3)
def test_binomial_product_is_the_naive_product(a, b):
    # every coefficient is the full binomial sum: equal, and of the same type,
    # whatever zeros either factor starts with
    expected = egf_mul(a, b)
    got = series._binomial_product(a, b, len(expected) - 1)
    assert got == expected
    assert [type(c) for c in got] == [type(c) for c in expected]
    assert (TruncatedSeries(a) * TruncatedSeries(b)).coeffs == tuple(expected)


def test_to_json():
    s = TruncatedSeries([1, LAM, LAM**2])
    assert s.to_json() == {"order": 2, "egf_coeffs": ["1", ["0", "1"], ["0", "0", "1"]]}
