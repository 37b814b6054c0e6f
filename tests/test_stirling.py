import copy
import hashlib
import inspect
import os
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from threading import Barrier, Thread

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lambda_stirling import _difference, _expansion, _triangle
from lambda_stirling._triangle import NumberTriangle
from lambda_stirling.poly import LambdaScalar, Poly, SYMBOLIC, eval_element, falling_factorial_poly
from lambda_stirling.stirling import (
    classical_rstirling2,
    expand_in_falling_basis,
    rstirling1_lambda,
    rstirling2_by_difference,
    rstirling2_by_expansion,
    rstirling2_lambda,
    second_kind_series,
    stirling1_lambda,
    stirling2_lambda,
    unsigned_rstirling1_lambda,
)
from lambda_stirling.whitney import (
    bell_poly_lambda,
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

nonzero_fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
).filter(lambda q: q != 0)


# --- frozen values (hand-derived) --------------------------------------------


def test_second_kind_symbolic_frozen():
    # x^2 = (x)_{2,lam} + lam * (x)_{1,lam}
    assert stirling2_lambda(2, 1, SYMBOLIC) == LAM
    assert stirling2_lambda(2, 2, SYMBOLIC) == 1
    # x^3 = (x)_3 + 3 lam (x)_2 + lam^2 (x)_1
    assert stirling2_lambda(3, 1, SYMBOLIC) == LAM**2
    assert stirling2_lambda(3, 2, SYMBOLIC) == 3 * LAM
    assert stirling2_lambda(3, 3, SYMBOLIC) == 1


def test_shifted_second_kind_symbolic_frozen():
    # (x + r)^1 = (x)_1 + r (x)_0
    assert rstirling2_lambda(1, 0, 3, SYMBOLIC) == 3
    assert rstirling2_lambda(1, 1, 3, SYMBOLIC) == 1
    # T(2,1) = T(1,0) + (lam + r) T(1,1) = lam + 2r
    assert rstirling2_lambda(2, 1, 3, SYMBOLIC) == LAM + 6
    # row-sum at k=0 is r^n
    assert rstirling2_lambda(4, 0, 2, SYMBOLIC) == 16


def test_out_of_triangle_is_zero():
    assert stirling2_lambda(2, 5, SYMBOLIC) == 0
    assert stirling2_lambda(3, -1, SYMBOLIC) == 0
    assert rstirling2_lambda(0, 0, 2, SYMBOLIC) == 1


def test_negative_shift_rejected():
    with pytest.raises(ValueError):
        rstirling2_lambda(2, 1, -1, SYMBOLIC)
    with pytest.raises(ValueError):
        rstirling2_by_expansion(2, 1, -1, SYMBOLIC)


def test_series_rejects_negative_order():
    with pytest.raises(ValueError):
        second_kind_series(2, 0, SYMBOLIC, -1)


def test_first_kind_symbolic_frozen():
    # (x)_{2,lam} = x^2 - lam x
    assert stirling1_lambda(2, 1, SYMBOLIC) == -LAM
    assert stirling1_lambda(2, 2, SYMBOLIC) == 1
    # (x+r)(x+r-lam) constant term: r(r - lam)
    r = 2
    assert rstirling1_lambda(2, 0, r, SYMBOLIC) == Poly([r * r, -r])
    # unsigned: x(x + lam) = x^2 + lam x
    assert unsigned_rstirling1_lambda(2, 1, 0, SYMBOLIC) == LAM


def test_unsigned_is_signed_at_negated_lambda():
    lam_value = Fraction(2, 3)
    pos = LambdaScalar.fixed(lam_value)
    neg = LambdaScalar.fixed(-lam_value)
    for r in (0, 1, 2):
        for n in range(7):
            for k in range(n + 1):
                assert unsigned_rstirling1_lambda(
                    n, k, r, pos
                ) == rstirling1_lambda(n, k, r, neg)


def test_difference_formula_frozen():
    assert rstirling2_by_difference(2, 1, 0, Fraction(1, 2)) == Fraction(1, 2)
    assert rstirling2_by_difference(3, 0, 2, Fraction(1, 2)) == 8
    assert rstirling2_by_difference(3, 1, 1, Fraction(1, 2)) == Fraction(19, 4)
    # vanishing above the diagonal
    assert rstirling2_by_difference(2, 4, 1, Fraction(1, 2)) == 0


@pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(-1, 3), 2])
def test_difference_formula_takes_a_fixed_scalar_or_its_value(value):
    # lambda is read by LambdaScalar.fixed, as at every other fixed-lambda
    # entry point, so the scalar and its bare value give the same entry
    for n, k, r in ((3, 1, 0), (4, 2, 1), (2, 4, 3)):
        assert (rstirling2_by_difference(n, k, r, LambdaScalar(value))
                == rstirling2_by_difference(n, k, r, value))


# --- cross-route agreement ----------------------------------------------------


def test_expansion_oracle_matches_recurrence_symbolic():
    for r in (0, 2):
        for n in range(7):
            for k in range(n + 1):
                assert rstirling2_by_expansion(n, k, r, SYMBOLIC) == rstirling2_lambda(
                    n, k, r, SYMBOLIC
                )


def test_recurrence_matches_naive_oracle():
    lam_value = Fraction(-1, 3)
    lam = LambdaScalar.fixed(lam_value)
    for r in (0, 1, 3):
        for n in range(7):
            for k in range(n + 1):
                assert rstirling2_lambda(n, k, r, lam) == oracles.naive_rstirling2(
                    n, k, r, lam_value
                )


def test_first_kind_matches_naive_expansion():
    lam_value = Fraction(3, 4)
    lam = LambdaScalar.fixed(lam_value)
    for r in (0, 2):
        for n in range(7):
            falling = oracles.falling_poly(n, lam_value, Fraction(r))
            rising = oracles.rising_poly(n, lam_value, Fraction(r))
            for k in range(n + 1):
                assert rstirling1_lambda(n, k, r, lam) == falling[k]
                assert unsigned_rstirling1_lambda(n, k, r, lam) == rising[k]


def test_series_route_matches_triangle():
    lam = LambdaScalar.fixed(Fraction(2))
    for r in (0, 1):
        for k in range(5):
            series = second_kind_series(k, r, lam, 6)
            for n in range(7):
                assert series.coeff(n) == rstirling2_lambda(n, k, r, lam)


def test_series_route_symbolic():
    series = second_kind_series(2, 1, SYMBOLIC, 5)
    for n in range(6):
        assert series.coeff(n) == rstirling2_lambda(n, 2, 1, SYMBOLIC)


# --- basis expansion ----------------------------------------------------------


def test_expand_reconstruct_roundtrip_fixed():
    target = Poly([Fraction(3), Fraction(-2), Fraction(0), Fraction(1)])
    expansion = expand_in_falling_basis(target, HALF)
    assert expansion.reconstruct() == target


def test_expand_reconstruct_roundtrip_symbolic():
    target = Poly([Fraction(1), Fraction(4), Fraction(2)])
    expansion = expand_in_falling_basis(target, SYMBOLIC)
    assert expansion.reconstruct() == target


@settings(max_examples=40)
@given(
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=5),
        min_size=1,
        max_size=6,
    ),
    nonzero_fractions,
)
def test_expand_reconstruct_property(coeffs, lam_value):
    target = Poly(coeffs)
    lam = LambdaScalar.fixed(lam_value)
    expansion = expand_in_falling_basis(target, lam)
    assert expansion.reconstruct() == target
    assert len(expansion.coefficients) == max(target.degree + 1, 0)


def test_expansion_matches_naive_oracle():
    lam_value = Fraction(5, 7)
    target = Poly([Fraction(2), Fraction(0), Fraction(1), Fraction(1)])
    ours = expand_in_falling_basis(target, LambdaScalar.fixed(lam_value))
    naive = oracles.expand_in_falling_basis(
        [Fraction(2), Fraction(0), Fraction(1), Fraction(1)], lam_value
    )
    assert list(ours.coefficients) == naive


def test_an_elimination_that_leaves_a_remainder_raises(monkeypatch):
    # a basis of 2 x^k is not monic, so reading coefficient k off the top
    # degree and subtracting c 2 x^k leaves -c x^k behind
    monkeypatch.setattr(_expansion, "_falling_basis",
                        lambda d, lam: [Poly([0] * k + [2]) for k in range(d + 1)])
    with pytest.raises(ArithmeticError, match="nonzero remainder"):
        expand_in_falling_basis(Poly([Fraction(1), Fraction(3)]), HALF)


# --- classical limits ---------------------------------------------------------


def test_classical_rstirling2_matches_partition_count():
    for r in (0, 1, 2):
        for n in range(6):
            for k in range(n + 1):
                assert classical_rstirling2(n, k, r) == oracles.count_r_partitions(
                    n, k, r
                )


def test_a_sum_not_divisible_by_k_factorial_raises(monkeypatch):
    monkeypatch.setattr(_difference, "rstirling2_by_difference",
                        lambda n, k, r, lam_value: Fraction(7, 2))
    with pytest.raises(ArithmeticError, match="not divisible by k!"):
        classical_rstirling2(4, 2, 1)


def test_classical_plain_matches_alternating_sum():
    for n in range(9):
        for k in range(n + 1):
            assert classical_rstirling2(n, k, 0) == oracles.alternating_sum_stirling2(
                n, k
            )


def test_lambda_one_specializes_to_classical():
    for r in (0, 3):
        for n in range(8):
            for k in range(n + 1):
                sym = rstirling2_lambda(n, k, r, SYMBOLIC)
                assert eval_element(sym, Fraction(1)) == classical_rstirling2(n, k, r)


def test_lambda_zero_collapses_to_identity():
    for n in range(8):
        for k in range(n + 1):
            sym = stirling2_lambda(n, k, SYMBOLIC)
            assert eval_element(sym, Fraction(0)) == (1 if n == k else 0)


# --- the fixed-lambda scale ---------------------------------------------------


@pytest.mark.parametrize("lam_value, scale", [(Fraction(-2, 3), 1), (Fraction(5, 6), 2)],
                         ids=["-2/3", "5/6"])
def test_whitney_rows_are_scaled_by_the_denominator_of_lam_m(fresh_triangles, lam_value,
                                                             scale):
    # W reads lam only through lam m, so at m = 3 the unpublished integer
    # rows hold den(3 lam)^(n-k) W(n, k): the entries themselves at -2/3,
    # 2^(n-k) times them at 5/6 (not 3^(n-k) and 6^(n-k))
    lam = LambdaScalar.fixed(lam_value)
    triangle = _triangle._triangle(lam, 0, 3, 1)
    for n in range(31):
        held = list(triangle._row(n))
        assert all(type(u) is int for u in held)
        entries = [whitney(n, k, 3, lam) for k in range(n + 1)]
        assert held == [scale ** (n - k) * entry for k, entry in enumerate(entries)], n


def test_a_scale_one_row_is_published_without_powers(monkeypatch, fresh_triangles):
    # at lam m = -2 a published entry is Fraction(U), so no power list is
    # built; at lam m = 5/2 each published row builds one, of 2
    calls = []
    powers = _triangle._falling_powers

    def counted(q, n):
        calls.append(q)
        return powers(q, n)

    monkeypatch.setattr(_triangle, "_falling_powers", counted)
    integral = [whitney(40, k, 3, LambdaScalar.fixed(Fraction(-2, 3))) for k in range(41)]
    assert calls == []
    assert all(type(e) is Fraction and e.denominator == 1 for e in integral)
    whitney(40, 1, 3, LambdaScalar.fixed(Fraction(5, 6)))
    assert calls == [2]


# (lam, recurrence parameters) with the scale q of lam gcd(alpha, beta, gamma)
PUBLISHED_SHAPES = [
    (Fraction(-2, 3), dict(beta=3, r=1), 1),  # whitney m = 3
    (Fraction(3), dict(alpha=-1, r=2), 1),
    (Fraction(5, 6), dict(beta=3, r=1), 2),
    (Fraction(-1, 2), dict(beta=1), 2),  # r = 0: zero entries in column 0
    (Fraction(1, 4), dict(alpha=2, beta=4, gamma=6, r=1), 2),
    (Fraction(1, 3), dict(beta=1, r=2), 3),
    (Fraction(-2, 3), dict(alpha=-1, r=3), 3),
    (Fraction(-7, 3), dict(alpha=-1, gamma=2, r=1), 3),
    (Fraction(-5, 6), dict(alpha=1, r=2), 6),
    (Fraction(1, 6), dict(alpha=1, gamma=-3), 6),
]


def test_fraction_has_the_slots_that_publication_fills():
    # poly._lowest builds each published entry by filling these two slots,
    # so a fractions module that renames them fails here
    assert Fraction.__slots__ == ("_numerator", "_denominator")


@pytest.mark.parametrize("lam_value, params, scale", PUBLISHED_SHAPES)
def test_published_entries_are_the_fractions_of_their_integers(lam_value, params, scale):
    # every entry of rows 0..60 is the Fraction U / q^(n-k) itself: same
    # type, lowest terms, positive denominator, hash, repr and str, and it
    # survives pickle and copy
    lam = LambdaScalar.fixed(lam_value)
    source, triangle = NumberTriangle(lam, **params), NumberTriangle(lam, **params)
    assert triangle._params[1] == scale
    for n in range(61):
        ints = list(source._row(n))
        for k, v in enumerate(read_row(triangle, n)):
            want = Fraction(ints[k], scale ** (n - k))
            assert type(v) is Fraction
            assert (v.numerator, v.denominator) == (want.numerator, want.denominator)
            assert gcd(v.numerator, v.denominator) == 1 and v.denominator > 0
            assert (hash(v), repr(v), str(v)) == (hash(want), repr(want), str(want))
            for back in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
                assert type(back) is Fraction and back == want
                assert (back.numerator, back.denominator) == (want.numerator, want.denominator)


# --- caching / concurrency ----------------------------------------------------


def test_cache_hit_at_a_new_equal_lambda_runs_no_fraction_comparison(monkeypatch):
    # a lambda built anew from an equal value is the interned object in the
    # cache key, so a hit compares no values; a hit that fell back to
    # Fraction.__eq__ would raise here
    stored = LambdaScalar.fixed(Fraction(1, 3))
    reads = (
        lambda lam: rstirling2_lambda(9, 4, 2, lam),
        lambda lam: whitney_r(9, 4, 3, 2, lam),
        lambda lam: rstirling2_by_expansion(9, 4, 2, lam),
    )
    cached = [read(stored) for read in reads]
    fresh = LambdaScalar.fixed(Fraction(2, 6))
    assert fresh is stored

    def no_fraction_eq(self, other):
        raise AssertionError("Fraction.__eq__ called on a cache hit")

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__eq__", no_fraction_eq)
        hits = [read(fresh) for read in reads]
    assert hits == cached


def test_float_lambda_is_refused():
    # a float is a binary fraction, not the rational it spells: neither
    # LambdaScalar nor a triangle function reads it as lambda
    with pytest.raises(ValueError, match="lambda must be an int or a Fraction, not float"):
        LambdaScalar(0.5)
    with pytest.raises(TypeError, match="lam must be a LambdaScalar"):
        stirling2_lambda(3, 1, 0.5)


def test_triangle_rows_immutable_and_consistent():
    tri = NumberTriangle(LambdaScalar.fixed(1), beta=1)
    # ordinary second-kind numbers at lam=1, and zero outside 0 <= k <= n
    assert [tri.value(3, k) for k in range(-1, 5)] == [0, 0, 1, 3, 1, 0]
    assert tri.value(-1, 0) == 0


@pytest.mark.parametrize("lam", [HALF, SYMBOLIC], ids=["fixed", "symbolic"])
def test_non_integer_triangle_index_rejected(lam):
    rstirling2_lambda(3, 1, 0, lam)  # rows 0..3 exist, so some calls hit
    for call, name in (
        (lambda: rstirling2_lambda(2, 2.5, 0, lam), "k"),
        (lambda: rstirling2_lambda(2.5, 3, 0, lam), "n"),
        (lambda: rstirling2_lambda(2.0, 1, 0, lam), "n"),
        (lambda: rstirling2_lambda(9.0, 1, 0, lam), "n"),
        (lambda: rstirling2_lambda(Fraction(3), 1, 0, lam), "n"),
        (lambda: rstirling2_lambda(3, 1.0, 0, lam), "k"),
        (lambda: rstirling2_lambda(9, 1.0, 0, lam), "k"),
        (lambda: rstirling2_lambda(-1.5, 0, 0, lam), "n"),
        (lambda: stirling1_lambda(2.0, 1, lam), "n"),
        (lambda: unsigned_rstirling1_lambda(3, 1.0, 1, lam), "k"),
        (lambda: whitney_r(9.0, 1, 2, 1, lam), "n"),
        (lambda: dowling_poly(2.0, 1, 2, lam), "n"),
        (lambda: bell_poly_lambda(Fraction(3), 1, lam), "n"),
        (lambda: falling_factorial_poly(2.0, lam), "n"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            call()
    # integer indices outside 0 <= k <= n are still zero
    assert rstirling2_lambda(2, 3, 0, lam) == 0 and rstirling2_lambda(-1, 0, 0, lam) == 0
    # a bool is not read as the index 1, on the hit path either
    with pytest.raises(TypeError, match="^n must be an integer, not a bool$"):
        rstirling2_lambda(True, 1, 0, lam)
    with pytest.raises(TypeError, match="^k must be an integer, not a bool$"):
        rstirling2_lambda(1, True, 0, lam)
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        bell_poly_lambda(-1, 1, lam)


def test_non_integer_oracle_index_rejected():
    # the int calls run first, so a float index that reached the
    # expansion cache would find the entry of the equal int
    assert rstirling2_by_expansion(3, 1, 0, HALF) == Fraction(1, 4)
    assert whitney_r_by_expansion(4, 1, 2, 1, HALF) == 15
    for call, name in (
        (lambda: rstirling2_by_expansion(3.0, 1, 0, HALF), "n"),
        (lambda: rstirling2_by_expansion(3, 1.0, 0, HALF), "k"),
        (lambda: whitney_r_by_expansion(4.0, 1, 2, 1, HALF), "n"),
        (lambda: whitney_r_by_expansion(4, 1.0, 2, 1, HALF), "k"),
        (lambda: rstirling2_by_difference(3.0, 1, 0, Fraction(1, 2)), "n"),
        (lambda: rstirling2_by_difference(3, 1.0, 0, Fraction(1, 2)), "k"),
        (lambda: classical_rstirling2(3.0, 1, 0), "n"),
        (lambda: classical_rstirling2(3, 1.0, 0), "k"),
        (lambda: classical_rstirling2(-1.0, 1, 0), "n"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            call()


def test_triangle_parameters_must_be_integers():
    # the triangle trusts its callers' integers, but refuses a bare lambda
    with pytest.raises(TypeError):
        NumberTriangle(Fraction(1, 2), beta=1)


def test_symbolic_triangle_needs_alpha_or_beta_zero():
    # a symbolic entry is read off the lam = 1 triangle by a closed form
    # that holds only when c(n, k) depends on one index
    with pytest.raises(ValueError, match="alpha = 0 or beta = 0"):
        _triangle._new_triangle(SYMBOLIC, alpha=1, beta=1)
    assert NumberTriangle(LambdaScalar.fixed(2), alpha=1, beta=2).value(2, 1) == 2
    assert _triangle._new_triangle(SYMBOLIC, gamma=2, r=1).value(2, 1) == Poly([2, 4])


def test_symbolic_row_sum_needs_alpha_zero():
    # no library function sums a first-kind row at symbolic lam, so the
    # reader sums only the alpha = 0 shape and refuses the other
    with pytest.raises(ValueError, match="alpha = 0"):
        _triangle.SymbolicTriangle(alpha=1, r=2).row_sum(3, Fraction(1, 2))


@settings(max_examples=80, deadline=None)
@given(m=st.sampled_from([1, 2, 3]), r=st.integers(min_value=0, max_value=3),
       n=st.integers(min_value=0, max_value=60),
       x=st.fractions(min_value=-6, max_value=6, max_denominator=9))
@example(m=3, r=3, n=60, x=Fraction(-5, 2))
@example(m=1, r=0, n=0, x=Fraction(0))
def test_symbolic_row_sum_matches_entrywise_sum(m, r, n, x):
    # the row sum reads the lam = 1 triangle straight, the entries come
    # from the per-entry assembler: two routes to one polynomial
    triangle = _triangle.SymbolicTriangle(beta=m, r=r)
    got = triangle.row_sum(n, x)
    expected = sum(triangle.value(n, k) * x**k for k in range(n + 1))
    assert got == expected and type(got) is type(expected)
    if isinstance(got, Poly):
        assert got.coeffs == expected.coeffs
        assert list(map(type, got.coeffs)) == list(map(type, expected.coeffs))


def test_symbolic_row_sums_build_no_entry(monkeypatch, fresh_triangles):
    # a row sum never reaches the per-entry assembler; the digests are of
    # the values that summing the assembled entries gave
    def no_entries(self, n):
        raise AssertionError("a row sum built the entries of its row")

    monkeypatch.setattr(_triangle.SymbolicTriangle, "_entries", no_entries)
    values = (bell_poly_lambda(200, Fraction(3, 4), SYMBOLIC),
              dowling_poly(60, Fraction(-5, 2), 2, SYMBOLIC))
    assert [hashlib.sha256(repr(value).encode()).hexdigest() for value in values] == [
        "4766653b29e5d3faf0525baeab1cd12a7dfc3c168624eaace49165fdbdfd622a",
        "aaa3a5fab31115f3b9c4e8f6e12ff54d4d9a94f507b2f5e1ba44c6e54949c071",
    ]


COLD_SYMBOLIC_READ = """
import hashlib, resource, sys
from fractions import Fraction
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from lambda_stirling import SYMBOLIC, bell_poly_lambda, eval_element, rstirling2_lambda
for value in (rstirling2_lambda(400, 200, 2, SYMBOLIC),
              bell_poly_lambda(400, Fraction(1, 2), SYMBOLIC)):
    print(hashlib.sha256(str(eval_element(value, Fraction(-2, 3))).encode()).hexdigest())
"""


def test_cold_symbolic_read_in_bounded_memory(fresh_triangles):
    # a symbolic row is read off the integer triangle at lam = 1, so a
    # cold read at n = 400 keeps no cubic store of lambda coefficients; the
    # address-space limit holds in the child only
    src = os.path.join(os.path.dirname(_triangle.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", COLD_SYMBOLIC_READ], env=env,
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    lam = LambdaScalar.fixed(Fraction(-2, 3))
    expected = [hashlib.sha256(str(value).encode()).hexdigest() for value in (
        rstirling2_lambda(400, 200, 2, lam), bell_poly_lambda(400, Fraction(1, 2), lam))]
    assert proc.stdout.split() == expected


@pytest.mark.parametrize("call", [
    lambda lam: second_kind_series(2, 0, lam, 4),
    lambda lam: whitney_series(2, 2, 1, lam, 4),
    lambda lam: dowling_series(Fraction(1), 2, lam, 4),
    lambda lam: falling_factorial_poly(2, lam),
    lambda lam: expand_in_falling_basis(Poly([1, 2, 3]), lam),
    lambda lam: rstirling2_by_expansion(3, 1, 0, lam),
    lambda lam: whitney_r_by_expansion(4, 1, 2, 1, lam),
], ids=[
    "second_kind_series", "whitney_series", "dowling_series", "falling_factorial_poly",
    "expand_in_falling_basis", "rstirling2_by_expansion", "whitney_r_by_expansion",
])
def test_lambda_must_be_a_lambda_scalar(call):
    # a bare rational is refused as the triangles refuse it, not with an
    # AttributeError from deep inside
    with pytest.raises(TypeError, match="lam must be a LambdaScalar"):
        call(Fraction(1, 2))


# each public triangle function, its arguments between k and lambda
TRIANGLE_READS = (
    (stirling2_lambda, ()),
    (rstirling2_lambda, (2,)),
    (stirling1_lambda, ()),
    (rstirling1_lambda, (2,)),
    (unsigned_rstirling1_lambda, (2,)),
    (whitney, (3,)),
    (whitney_r, (3, 2)),
)


@pytest.mark.parametrize("symbolic", [False, True], ids=["fixed", "symbolic"])
@pytest.mark.parametrize("fn, extra", TRIANGLE_READS, ids=[fn.__name__ for fn, _ in TRIANGLE_READS])
def test_warm_read_enters_only_the_lookup_frames(fn, extra, symbolic):
    # a hit is a dict subscript and a tuple index in the public function's
    # own frame: no _lookup (nor whitney_r below whitney), no Python-level
    # __eq__, __hash__ or NumberTriangle.value, even at a lambda built apart
    # from the one in the cache key
    stored = SYMBOLIC if symbolic else LambdaScalar.fixed(Fraction(1, 3))
    want = fn(9, 4, *extra, stored)  # grows the triangle and publishes row 9
    lam = LambdaScalar(None) if symbolic else LambdaScalar.fixed(Fraction(2, 6))
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        got = fn(9, 4, *extra, lam)
    finally:
        sys.setprofile(None)
    assert got == want
    assert entered == [fn.__name__], entered


# (parameter, bad value, what every triangle reader returns or raises for it);
# each reader is called with n = 4, k = 1, r = 2, m = 2, lambda = 1/3 but
# for the one bad value
BAD_ARGUMENTS = (
    ("n", True, TypeError("n must be an integer, not a bool")),
    ("n", 4.0, ValueError("n must be an integer")),
    ("n", -1, Fraction(0)),
    ("k", True, TypeError("k must be an integer, not a bool")),
    ("k", 2.0, ValueError("k must be an integer")),
    ("k", -1, Fraction(0)),
    ("k", 5, Fraction(0)),
    ("r", True, TypeError("shift r must be an integer, not a bool")),
    ("r", -1, ValueError("shift r must be nonnegative")),
    ("m", True, TypeError("parameter m must be an integer, not a bool")),
    ("m", False, TypeError("parameter m must be an integer, not a bool")),
    ("m", 0, ValueError("parameter m must be positive")),
    ("m", -1, ValueError("parameter m must be positive")),
    ("lam", Fraction(1, 3), TypeError("lam must be a LambdaScalar")),
    ("lam", [LambdaScalar.fixed(Fraction(1, 3))], TypeError("lam must be a LambdaScalar")),
)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("fn", [fn for fn, _ in TRIANGLE_READS],
                         ids=[fn.__name__ for fn, _ in TRIANGLE_READS])
def test_bad_arguments_answer_alike_cold_and_warm(fn, warm, fresh_triangles):
    # warm, the reader's own rows 0..6 are public, and those of r = 1 or
    # m = 1, so True (which hashes like 1) and -1 (which indexes the last
    # row) would find a public row if a hit tested no type or range
    lam = LambdaScalar.fixed(Fraction(1, 3))
    params = list(inspect.signature(fn).parameters)
    base = {name: dict(n=4, k=1, r=2, m=2).get(name, lam) for name in params}
    if warm:
        for shift in ({}, {"r": 1}, {"m": 1}):
            args = dict(base, **{name: 1 for name in shift if name in params})
            for n in range(7):
                for k in range(n + 1):
                    fn(**dict(args, n=n, k=k))
    cases = [case for case in BAD_ARGUMENTS if case[0] in params]
    assert len(cases) == 9 + 2 * ("r" in params) + 4 * ("m" in params)
    for name, value, want in cases:
        try:
            got = fn(**dict(base, **{name: value}))
        except (TypeError, ValueError) as exc:
            got = exc
        if isinstance(want, Exception):
            assert (type(got), str(got)) == (type(want), str(want)), (name, value)
        else:
            assert type(got) is Fraction and got == want, (name, value)


def test_racing_misses_on_one_key_get_one_triangle(monkeypatch):
    # every thread misses (the build is slowed down), each may build a
    # triangle, and all of them get the one that is kept
    barrier = Barrier(8, timeout=60)
    got = []

    def slow_build(*args, **kwargs):
        time.sleep(0.01)
        return NumberTriangle(*args, **kwargs)

    def worker():
        barrier.wait()
        got.append(_triangle._triangle(lam, 0, 1, 7))

    lam = LambdaScalar.fixed(Fraction(-11, 7))
    monkeypatch.setattr(_triangle, "NumberTriangle", slow_build)
    threads = [Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8
    assert all(t is _triangle._TRIANGLES[lam, 0, 1, 7] for t in got)
    # a hit builds nothing
    monkeypatch.setattr(_triangle, "NumberTriangle", None)
    assert _triangle._triangle(lam, 0, 1, 7) is got[0]
    assert rstirling2_lambda(3, 1, 7, lam) == got[0].value(3, 1)


def test_concurrent_growth_is_consistent():
    lam = LambdaScalar.fixed(Fraction(7, 5))
    results = []

    def worker():
        results.append(rstirling2_lambda(40, 17, 5, lam))

    threads = [Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    fresh = NumberTriangle(lam, beta=1, r=5)
    assert all(v == fresh.value(40, 17) for v in results)


def read_row(triangle, n):
    return tuple(triangle.value(n, k) for k in range(n + 1))


def test_lock_free_reads_race_growth():
    lam = LambdaScalar.fixed(Fraction(-2, 3))
    want = NumberTriangle(lam, alpha=-1, r=2)
    shared = NumberTriangle(lam, alpha=-1, r=2)
    seen = []

    def worker(start):
        for n in range(start, 60, 4):
            seen.append((n, read_row(shared, n), shared.value(n, n // 2)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [Thread(target=worker, args=(i % 4,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 16 * 15
    for n, row, entry in seen:
        assert row == read_row(want, n) and entry == want.value(n, n // 2)


def test_row_sums_and_reads_race_conversion():
    # Rows stay integer (or, at symbolic lam, None) until their first read;
    # readers that race the swap to the public tuple, and sums that race it,
    # must each see one whole form of the row.  The symbolic reader pads its
    # slots with None without a lock: padding only appends, so a racing pad
    # adds spare unread slots but never overwrites a public row.
    x = Fraction(-3, 5)
    for lam, n_rows in ((LambdaScalar.fixed(Fraction(-2, 3)), 60), (SYMBOLIC, 30)):
        want = _triangle._new_triangle(lam, beta=2, r=1)
        sums = [want.row_sum(n, x) for n in range(n_rows)]
        shared = _triangle._new_triangle(lam, beta=2, r=1)
        seen = []

        def worker(i):
            for n in range(n_rows):
                op = (i + n) % 3
                if op == 0:
                    seen.append((0, n, shared.row_sum(n, x)))
                elif op == 1:
                    seen.append((1, n, read_row(shared, n)))
                else:
                    seen.append((2, n, shared.value(n, n // 2)))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [Thread(target=worker, args=(i,)) for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 16 * n_rows
        for op, n, got in seen:
            expected = (sums[n], read_row(want, n), want.value(n, n // 2))[op]
            assert got == expected and type(got) is type(expected)


def test_reads_and_sums_race_publication_in_shuffled_orders(fresh_triangles):
    # threads share one Whitney triangle of scale 2 (lam m = 5/2), each
    # reading every entry of rows 0..40 and summing each row at two points,
    # in its own order; every result is the single-thread one, and every
    # published row has dropped its integers, so no row is held twice
    lam, xs = LambdaScalar.fixed(Fraction(5, 6)), (Fraction(-3, 5), Fraction(7, 2))
    ops = [(whitney, n, k) for n in range(41) for k in range(n + 1)]
    ops += [(dowling_poly, n, x) for n in range(41) for x in xs]
    want = [fn(n, arg, 3, lam) for fn, n, arg in ops]
    _triangle._TRIANGLES.clear()
    results = {}

    def worker(seed):
        order = list(range(len(ops)))
        random.Random(seed).shuffle(order)
        results[seed] = {i: ops[i][0](ops[i][1], ops[i][2], 3, lam) for i in order}

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [Thread(target=worker, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    for got in results.values():
        assert [got[i] for i in range(len(ops))] == want
        assert all(type(got[i]) is type(w) for i, w in enumerate(want))
    triangle = _triangle._TRIANGLES[lam, 0, 3, 1]
    assert triangle._params[1] == 2 and len(triangle._rows) == 41
    assert all(type(row) is tuple for row in triangle._rows)
    assert all(ints is None for ints in triangle._ints)


def test_a_sum_inside_publication_finds_the_integers(monkeypatch):
    # a row_sum that runs while value publishes the row, at its first
    # entry, stands for a racing thread at the worst point: it still finds
    # the integers, as they are dropped only after the tuple is stored
    lam, x = LambdaScalar.fixed(Fraction(5, 6)), Fraction(-3, 5)
    want = NumberTriangle(lam, beta=3, r=1)
    triangle = NumberTriangle(lam, beta=3, r=1)
    calls, sums, lowest = [], [], _triangle._lowest

    def converting(*args):
        calls.append(args)
        if len(calls) == 1:
            sums.append(triangle.row_sum(12, x))
        return lowest(*args)

    monkeypatch.setattr(_triangle, "_lowest", converting)
    row = read_row(triangle, 12)
    monkeypatch.undo()
    assert sums == [want.row_sum(12, x)]
    assert row == read_row(want, 12) and triangle._ints[12] is None

def test_a_summed_row_misses_once_then_hits(fresh_triangles):
    # dowling_poly grows row 12 without publishing it, so the first read of
    # it misses on its None slot and goes to _lookup, which publishes it;
    # the second read is a hit in whitney's own frame
    lam = LambdaScalar.fixed(Fraction(5, 6))
    dowling_poly(12, Fraction(1, 2), 3, lam)
    triangle = _triangle._TRIANGLES[lam, 0, 3, 1]
    assert triangle._rows[12] is None and type(triangle._ints[12]) is list

    def entered_frames():
        entered = []

        def profile(frame, event, arg):
            if event == "call":
                entered.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            got = whitney(12, 5, 3, lam)
        finally:
            sys.setprofile(None)
        assert got == oracles.whitney_type_row(12, 3, 1, Fraction(5, 6))[5]
        return entered

    first = entered_frames()
    assert first[0] == "whitney" and first.count("_lookup") == 1, first
    assert entered_frames() == ["whitney"]
    assert type(triangle._rows[12]) is tuple and triangle._ints[12] is None
