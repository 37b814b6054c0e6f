import sys
from fractions import Fraction
from math import comb
from threading import Thread

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_stirling.bernoulli import bernoulli_base_series, bernoulli_higher
from lambda_stirling.series import TruncatedSeries, _PowerTable

import oracles

small_fractions = st.fractions(min_value=-12, max_value=12, max_denominator=8)


def test_classical_base_values():
    table = _PowerTable(-1)
    assert table.value(0, 0) == 1
    assert table.value(1, 0) == Fraction(-1, 2)
    assert table.value(2, 0) == Fraction(1, 6)
    assert table.value(3, 0) == 0
    assert table.value(4, 0) == Fraction(-1, 30)


def test_base_matches_defining_recurrence():
    oracle = oracles.classical_bernoulli(12)
    table = _PowerTable(-1)
    for n in range(13):
        assert table.value(n, 0) == oracle[n]


def test_order_two_base_is_self_convolution():
    classical = oracles.classical_bernoulli(10)
    table = _PowerTable(-2)
    for n in range(11):
        expected = sum(
            comb(n, j) * classical[j] * classical[n - j] for j in range(n + 1)
        )
        assert table.value(n, 0) == expected


def test_order_must_be_positive():
    # the table trusts its callers; the public functions check m
    with pytest.raises(ValueError):
        bernoulli_higher(4, 0, Fraction(1, 3))


def test_frozen_higher_order_values():
    assert bernoulli_higher(1, 2, Fraction(0)) == -1
    assert bernoulli_higher(2, 2, Fraction(0)) == Fraction(5, 6)
    assert bernoulli_higher(0, 3, Fraction(7)) == 1


def egf_inverse(a: list) -> list:
    """1/A for an EGF coefficient list with a[0] != 0, solving
    sum_l C(n, l) a_l b_(n-l) = [n = 0] for b_n in turn."""
    b = [1 / Fraction(a[0])]
    for n in range(1, len(a)):
        b.append(-sum(comb(n, l) * a[l] * b[n - l] for l in range(1, n + 1)) / a[0])
    return b


def test_base_series_matches_table():
    # ((e^t - 1)/t)^(-m) by a list inverse and EGF products, not by the
    # power recurrence that both bernoulli_base_series and value(n, 0) run
    inverse = egf_inverse([Fraction(1, n + 1) for n in range(9)])
    expected = oracles.egf_mul(oracles.egf_mul(inverse, inverse), inverse)
    series = bernoulli_base_series(3, 8)
    table = _PowerTable(-3)
    for n in range(9):
        assert series.coeff(n) == expected[n] == table.value(n, 0)


def test_polynomial_from_independent_series_route():
    # B_n^{(m)}(x) is the n-th EGF coefficient of (t/(e^t-1))^m e^{xt}
    m = 2
    x = Fraction(2, 5)
    series = bernoulli_base_series(m, 8) * TruncatedSeries([x**n for n in range(9)])
    for n in range(9):
        assert series.coeff(n) == bernoulli_higher(n, m, x)


def test_classical_difference_property():
    # B_n(x+1) - B_n(x) = n x^(n-1)
    x = Fraction(3, 7)
    for n in range(1, 9):
        delta = bernoulli_higher(n, 1, x + 1) - bernoulli_higher(n, 1, x)
        assert delta == n * x ** (n - 1)


@settings(max_examples=30)
@given(small_fractions, small_fractions, st.integers(min_value=0, max_value=6))
def test_addition_theorem(x, y, n):
    # B_n^{(m)}(x + y) = sum_j C(n, j) B_j^{(m)}(x) y^(n-j)
    m = 2
    lhs = bernoulli_higher(n, m, x + y)
    rhs = sum(
        comb(n, j) * bernoulli_higher(j, m, x) * y ** (n - j) for j in range(n + 1)
    )
    assert lhs == rhs


def test_domain_checks():
    with pytest.raises(ValueError):
        bernoulli_higher(-1, 1, Fraction(0))
    with pytest.raises(ValueError):
        bernoulli_higher(2, -1, Fraction(0))


def test_non_integer_order_and_float_x_rejected():
    for call in (
        lambda: bernoulli_base_series(2.0, 5),
        lambda: bernoulli_higher(2, 2.0, Fraction(0)),
        # a float x is a binary fraction, not the rational it spells
        lambda: bernoulli_higher(2, 1, 0.1),
        lambda: bernoulli_higher(2, 1, 0.5),
    ):
        with pytest.raises(ValueError):
            call()


def test_table_grown_in_one_jump_equals_stepwise_growth():
    for m in (1, 2, 5):
        jump, steps = _PowerTable(-m), _PowerTable(-m)
        last = jump.value(40, 0)
        values = [steps.value(n, 0) for n in range(41)]
        assert values[-1] == last
        assert values == [jump.value(n, 0) for n in range(41)]
        assert values == list(bernoulli_base_series(m, 40).coeffs)


def test_degree_in_x():
    # B_n^(m)(x) has exact degree n in x: the n-th finite difference is
    # constant n! and the (n+1)-st vanishes
    n, m = 5, 3
    pts = [Fraction(j) for j in range(n + 3)]
    values = [bernoulli_higher(n, m, p) for p in pts]
    for _ in range(n):
        values = [b - a for a, b in zip(values, values[1:])]
    assert values[0] == values[1]  # constant after n differences
    assert values[1] - values[0] == 0


def test_order_sum_composition():
    # base series multiply: order m1 * order m2 = order m1+m2
    a = bernoulli_base_series(1, 7)
    b = bernoulli_base_series(2, 7)
    c = bernoulli_base_series(3, 7)
    assert a * b == c


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_table_matches_independent_oracle(m):
    # the oracle multiplies the classical numbers out; it shares no code
    # with the power recurrence that grows the tables
    oracle = oracles.higher_bernoulli(m, 30)
    steps, jump = _PowerTable(-m), _PowerTable(-m)
    jump.value(30, 0)
    assert [steps.value(n, 0) for n in range(31)] == oracle
    assert [jump.value(n, 0) for n in range(31)] == oracle
    assert list(bernoulli_base_series(m, 30).coeffs) == oracle
    for x in (Fraction(0), Fraction(-2, 3), Fraction(5, 4), 3):
        for n in (0, 1, 7, 30):
            expected = sum(
                comb(n, j) * oracle[j] * Fraction(x) ** (n - j) for j in range(n + 1)
            )
            got = jump.value(n, x)
            assert got == expected and type(got) is Fraction


def test_concurrent_growth_never_pairs_numerators_with_another_denominator():
    # Growth rescales the integer numerators whenever the common
    # denominator grows; a reader must see one whole (denominator,
    # numerators) pair, never new numerators over the old denominator.
    n_max, x = 90, Fraction(-2, 7)
    want = _PowerTable(-3)
    expected = [(want.value(n, 0), want.value(n, x)) for n in range(n_max + 1)]
    shared = _PowerTable(-3)
    seen = []

    def worker(i):
        for n in range(n_max + 1):
            for j in (n, n // 2, (i * n) % (n + 1), max(0, n - 1 - i % 3)):
                seen.append((j, shared.value(j, 0), shared.value(j, x)))

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
    assert len(seen) == 8 * 4 * (n_max + 1)
    for j, coeff, value in seen:
        assert (coeff, value) == expected[j]
