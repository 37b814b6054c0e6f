import operator
import time
from fractions import Fraction
from itertools import islice
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lambda_stirling.bernoulli import (
    BernoulliTable,
    bernoulli_base_series,
    bernoulli_higher,
)
from lambda_stirling.poly import SYMBOLIC, LambdaScalar, Poly
from lambda_stirling.series import TruncatedSeries, lambda_columns, power_coeffs
from lambda_stirling.stirling import second_kind_series
from lambda_stirling.whitney import dowling_series, whitney_series

from oracles import alternating_sum_stirling2, egf_exp, egf_mul, series_column

LAM = Poly([0, 1])

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_exp_linear_coeffs_are_powers():
    s = TruncatedSeries.exp_linear(Fraction(3), 5)
    assert [s.coeff(n) for n in range(6)] == [3**n for n in range(6)]


def test_exp_linear_symbolic():
    s = TruncatedSeries.exp_linear(LAM, 4)
    assert s.coeff(3) == LAM**3


def test_coeff_out_of_range_raises():
    s = TruncatedSeries.one(3)
    with pytest.raises(IndexError):
        s.coeff(4)


def test_mul_is_binomial_convolution():
    # e^t * e^t = e^{2t}
    e = TruncatedSeries.exp_linear(Fraction(1), 6)
    prod = e * e
    assert [prod.coeff(n) for n in range(7)] == [2**n for n in range(7)]


def test_squared_difference_symbolic():
    # (e^{lam t} - 1)^2 has second EGF coefficient 2 lam^2
    s = TruncatedSeries.exp_linear(LAM, 4) - 1
    sq = s * s
    assert sq.coeff(0) == 0
    assert sq.coeff(1) == 0
    assert sq.coeff(2) == 2 * LAM**2
    assert sq.coeff(3) == LAM**3 * (2**3 - 2)  # 2^3 - 2 = 6


def test_scalar_ops():
    s = TruncatedSeries.exp_linear(Fraction(1), 3)
    assert (s - 1).coeff(0) == 0
    assert (s * Fraction(2)).coeff(2) == 2
    assert (1 + (s - 1)).coeff(0) == 1


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries.one(-1)
    with pytest.raises(ValueError):
        TruncatedSeries.exp_linear(Fraction(2), -3)


def test_inverse_roundtrip():
    # e^{2t} + t^2; the EGF coefficient of t^2 is 2!
    s = TruncatedSeries.exp_linear(Fraction(2), 6) + TruncatedSeries([0, 0, 2, 0, 0, 0, 0])
    inv = s.inverse()
    prod = s * inv
    assert prod == TruncatedSeries.one(6)


def test_inverse_needs_nonzero_constant():
    s = TruncatedSeries([0, 1, 0, 0, 0])  # the series t
    with pytest.raises(ValueError):
        s.inverse()


def test_exp_gives_bell_numbers():
    inner = TruncatedSeries.exp_linear(Fraction(1), 8) - 1
    bell = inner.exp()
    assert [bell.coeff(n) for n in range(9)] == BELL


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        TruncatedSeries.one(3).exp()


def test_exp_of_sum_is_product():
    a = TruncatedSeries([0, 1, 0, 0, 0, 0, 0])  # the series t
    b = (TruncatedSeries.exp_linear(Fraction(2), 6) - 1) * Fraction(1, 3)
    lhs = (a + b).exp()
    rhs = a.exp() * b.exp()
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
    base = next(islice(lambda_columns(1, 0, SYMBOLIC, 6), 1, None))
    assert base.coeff(0) == 0
    for n in range(1, 7):
        assert base.coeff(n) == LAM ** (n - 1)


@pytest.mark.parametrize("order", [0, 1, 2, 17])
def test_column_coefficient_types(order):
    # the walk from column 0 is the reference for the columns built
    # directly as one power of the base
    lams = [SYMBOLIC, LambdaScalar.fixed(Fraction(1, 3)), LambdaScalar.fixed(-2)]
    for lam in lams:
        for m in (1, 3):
            for r in (0, 2):
                columns = list(islice(lambda_columns(m, r, lam, order), order + 3))
                tail = list(islice(lambda_columns(m, r, lam, order, first=2), order + 1))
                assert tail == columns[2:]
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
@example(SYMBOLIC, 2, 3, (20, 0))  # the longest symbolic walk
def test_columns_match_generic_series_oracle(lam, m, r, order_first):
    order, first = order_first
    walk = lambda_columns(m, r, lam, order, first)
    for k, column in zip(range(first, first + 3), walk):
        expected = series_column(m, r, lam, order, k)
        assert column == expected, (k, order)
        assert [type(c) for c in column.coeffs] == [type(c) for c in expected.coeffs]


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


HALF = LambdaScalar.fixed(Fraction(1, 2))


@pytest.mark.parametrize("call", [
    lambda: TruncatedSeries.exp_linear(Fraction(1), 2.5),
    lambda: TruncatedSeries.one(2.0),
    lambda: next(lambda_columns(1, 0, HALF, 2.5)),
    lambda: second_kind_series(1, 0, HALF, 2.5),
    lambda: whitney_series(1, 2, 1, HALF, 2.5),
    lambda: dowling_series(Fraction(1), 1, HALF, 2.5),
    lambda: bernoulli_base_series(1, 2.5),
    lambda: BernoulliTable(1).base_coeff(2.0),
    lambda: BernoulliTable(1).value(2.5, Fraction(1, 3)),
    lambda: bernoulli_higher(2.5, 1, 0),
], ids=[
    "exp_linear", "one", "lambda_columns", "second_kind_series",
    "whitney_series", "dowling_series", "bernoulli_base_series",
    "base_coeff", "table_value", "bernoulli_higher",
])
def test_non_integer_size_rejected(call):
    # an order or index that is not an int is refused up front, not by
    # range() or a list index with TypeError
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_second_kind_gf_matches_alternating_sum():
    # coefficient n of (e^t - 1)^k / k! is the ordinary second-kind number
    k = 3
    s = ((TruncatedSeries.exp_linear(Fraction(1), 8) - 1) ** k) * Fraction(
        1, factorial(k)
    )
    for n in range(9):
        assert s.coeff(n) == alternating_sum_stirling2(n, k)


def test_pow_zero_is_one():
    s = TruncatedSeries.exp_linear(Fraction(5), 4)
    assert s**0 == TruncatedSeries.one(4)


def test_pow_rejects_non_integer_exponent():
    s = TruncatedSeries.exp_linear(Fraction(5), 4)
    with pytest.raises(ValueError):
        s**2.0
    with pytest.raises(ValueError):
        s ** Fraction(1, 2)


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# a coefficient polynomial in a symbolic lambda
lam_poly = st.lists(small, min_size=1, max_size=3).map(Poly)


def oracle_power(a: list, k: int) -> list:
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for _ in range(k):
        out = egf_mul(out, a)
    return out


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sampled_from([Fraction(0), Poly()]), max_size=2),
    st.one_of(small, lam_poly).filter(lambda c: c != 0),
    st.lists(st.one_of(small, lam_poly), max_size=6),
    st.integers(min_value=-4, max_value=12),
)
# lam + t: the recurrence cannot divide by lam, the ring product can
@example([], LAM, [1, 0, 0], 5)
@example([], LAM, [1, 0, 0], -1)
def test_pow_matches_repeated_products(zeros, lead, tail, k):
    a = zeros + [lead] + tail
    series = TruncatedSeries(a)
    unit = not isinstance(lead, Poly) or lead.degree == 0
    if k >= 0:
        assert list((series**k).coeffs) == oracle_power(a, k)
    elif zeros or not unit:
        with pytest.raises(ValueError):
            series**k
    else:
        product = series**k * TruncatedSeries(oracle_power(a, -k))
        assert product == TruncatedSeries.one(series.order)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_foreign_operand_raises_type_error(op):
    # neither a series nor an exact scalar: the operators return
    # NotImplemented and Python raises TypeError, as for Poly
    s = TruncatedSeries([1, 2])
    for other in (0.5, "1", None, [1, 2]):
        with pytest.raises(TypeError):
            op(s, other)
        with pytest.raises(TypeError):
            op(other, s)


def test_alignment_truncates_to_smaller_order():
    a = TruncatedSeries.exp_linear(Fraction(1), 6)
    b = TruncatedSeries.exp_linear(Fraction(1), 3)
    assert (a + b).order == 3
    assert (a * b).order == 3


def test_to_json():
    s = TruncatedSeries.exp_linear(LAM, 2)
    assert s.to_json() == {"order": 2, "egf_coeffs": ["1", ["0", "1"], ["0", "0", "1"]]}


rational = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(
    rational.filter(lambda c: c not in (0, 1)),
    st.lists(rational, max_size=24),
    st.integers(min_value=-6, max_value=6),
)
def test_rational_power_matches_ring_path(lead, tail, k):
    # the same series with every coefficient a constant Poly takes the
    # ring-generic loop; the integer path must agree with it exactly
    a, order = [lead] + tail, len(tail)
    got = power_coeffs(a, k, order)
    assert len(got) == order + 1
    assert all(type(c) is Fraction for c in got)
    wrapped = [Poly([c]) for c in a]
    assert power_coeffs(wrapped, k, order) == got
