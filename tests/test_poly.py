import copy
import gc
import operator
import pickle
import sys
import tracemalloc
from fractions import Fraction
from math import lcm
from threading import Barrier, Thread

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lambda_stirling import poly
from lambda_stirling.poly import (
    LambdaScalar,
    Poly,
    SYMBOLIC,
    eval_element,
    falling_factorial_poly,
    format_element,
    csv_element,
)
from lambda_stirling._triangle import _new_triangle, _triangle
from lambda_stirling.stirling import BasisExpansion, expand_in_falling_basis
from lambda_stirling.whitney import dobinski_eval

from oracles import poly_add, poly_mul, strip

X = Poly.x()

small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)
coeff_lists = st.lists(small_fractions, min_size=0, max_size=6)


def test_trailing_zeros_stripped():
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly([0, 0]).is_zero
    assert Poly([]).is_zero


def test_a_poly_is_true_when_nonzero():
    zeros = [Poly(), Poly([0, Fraction(0)]), Poly.from_ints([0], 3), Poly([Poly()])]
    others = [Poly([Fraction(1, 2)]), X, Poly([Poly([1]), X])]
    assert [bool(p) for p in zeros + others] == [False] * 4 + [True] * 3


def test_degree():
    assert Poly.zero().degree == -1
    assert Poly([Fraction(3)]).degree == 0
    assert (X**4).degree == 4


def test_coeff_out_of_range_is_zero():
    p = Poly([1, 2])
    assert p.coeff(0) == 1
    assert p.coeff(5) == 0


def test_basic_arithmetic():
    p = 1 + X
    assert p * p == 1 + 2 * X + X**2
    assert p - p == Poly.zero()
    assert -p == Poly([-1, -1])
    assert (2 + X) * 3 == Poly([6, 3])
    assert 3 * (2 + X) == Poly([6, 3])


def test_equality_with_scalars():
    assert Poly([Fraction(5)]) == Fraction(5)
    assert Poly([Fraction(5)]) == 5
    assert Poly.zero() == 0
    assert X != 3
    # a value that is no ring element, a float included, is left to the
    # other operand, and compares unequal
    assert Poly([3]).__eq__(3.0) is NotImplemented
    assert Poly([3]) != 3.0 and X != "x"


def test_hash_matches_scalar_for_constants():
    assert hash(Poly([Fraction(7, 2)])) == hash(Fraction(7, 2))
    d = {Fraction(7, 2): "value"}
    assert d[Poly([Fraction(7, 2)])] == "value"


def test_zero_poly_hashes_like_zero():
    assert Poly.zero() == 0
    assert hash(Poly.zero()) == hash(0) == hash(Fraction(0))
    assert {0: "value"}.get(Poly.zero()) == "value"
    assert {Fraction(0): "value"}.get(Poly()) == "value"


def test_float_rejected():
    with pytest.raises(TypeError):
        Poly([0.5])
    with pytest.raises(TypeError):
        X * 0.5


def test_int_subclass_becomes_fraction():
    class Count(int):
        pass

    (c,) = Poly([Count(1)]).coeffs
    assert type(c) is Fraction and c == 1
    # bool is the one int subclass the ring-element rule refuses
    with pytest.raises(TypeError, match=r"\bcoefficient must be an int, .* not bool$"):
        Poly([True])


@pytest.mark.parametrize("p", [Poly([1, 2]), falling_factorial_poly(2, SYMBOLIC)],
                         ids=["scalar", "nested"])
def test_arithmetic_refuses_a_bool_as_the_constructor_does(p):
    for flag in (True, False):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(p, flag)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(flag, p)
        with pytest.raises(TypeError, match="^c must be an int, Fraction or Poly, not bool$"):
            p.scale(flag)
        with pytest.raises(TypeError, match="^point must be a rational number, not a bool$"):
            p(flag)
    # an int, an int subclass other than bool and a Fraction are still scalars
    assert p * 2 == 2 * p == p.scale(Fraction(2)) == p + p
    assert p + 1 - 1 == p and 1 - p == -p + 1 and p / 2 == p.scale(Fraction(1, 2))


def test_pow_matches_repeated_multiplication():
    p = 1 + 2 * X
    explicit = Poly.one()
    for _ in range(5):
        explicit = explicit * p
    assert p**5 == explicit
    assert p**0 == Poly.one()


def test_scale_is_coefficientwise():
    # scale() multiplies coefficients by a ring element; with a Poly argument
    # that is *not* the same as same-variable multiplication.
    p = Poly([Fraction(1), Fraction(2)])
    lam = Poly([0, 1])
    scaled = p.scale(lam)
    assert scaled.coeff(0) == lam
    assert scaled.coeff(1) == 2 * lam
    assert p * lam == Poly([0, 1, 2])  # convolution in the same variable


def test_call_horner():
    p = X**3 - 2 * X + 5
    assert p(Fraction(3)) == 27 - 6 + 5


def test_eval_element_handles_scalars_and_nested():
    assert eval_element(Fraction(3, 2), Fraction(7)) == Fraction(3, 2)
    nested = Poly([Poly([0, 1]), Fraction(2)])  # lam + 2x with lam nested
    value = eval_element(nested, Fraction(3))
    assert value == Poly([6, 1])  # still a poly in lam: 6 + lam


def test_format_element():
    assert format_element(Fraction(-3, 4)) == "-3/4"
    assert format_element(Poly([1, 2])) == ["1", "2"]
    assert format_element(Poly([Fraction(5)])) == "5"
    assert csv_element(Fraction(1, 2)) == "1/2"
    assert csv_element(Poly([0, 1])) == "0,1"


@given(coeff_lists, coeff_lists, small_fractions)
def test_evaluation_is_ring_homomorphism(a, b, point):
    p, q = Poly(a), Poly(b)
    assert (p + q)(point) == p(point) + q(point)
    assert (p * q)(point) == p(point) * q(point)


@given(coeff_lists, coeff_lists)
def test_mul_commutes_and_distributes(a, b):
    p, q = Poly(a), Poly(b)
    assert p * q == q * p
    assert p * (q + 1) == p * q + p


def _from_ints(a):
    """The integer-backed polynomial of the Fraction list a, built from its
    numerators over their common denominator."""
    den = lcm(*(c.denominator for c in a))
    return Poly.from_ints([c.numerator * (den // c.denominator) for c in a], den)


def _assert_poly(p, expected):
    assert all(type(c) is Fraction for c in p.coeffs)
    assert list(p.coeffs) == expected
    assert p == Poly(expected) and p.degree == len(expected) - 1


@given(coeff_lists, coeff_lists, small_fractions, st.integers(0, 4))
def test_integer_arithmetic_matches_fraction_reference(a, b, c, e):
    for p, q in ((Poly(a), Poly(b)), (_from_ints(a), _from_ints(b))):
        _assert_poly(p, strip(a))
        _assert_poly(p + q, strip(poly_add(a, b)))
        _assert_poly(p + c, strip(poly_add(a, [c])))
        _assert_poly(c - p, strip(poly_add([c], [-x for x in a])))
        _assert_poly(p - q, strip(poly_add(a, [-x for x in b])))
        _assert_poly(-p, strip(-x for x in a))
        _assert_poly(p * q, strip(poly_mul(a, b)))
        _assert_poly(p.scale(c), strip(x * c for x in a))
        _assert_poly(c * p, strip(x * c for x in a))
        if c:
            _assert_poly(p / c, strip(x / c for x in a))
        power = [Fraction(1)]
        for _ in range(e):
            power = strip(poly_mul(power, a))
        _assert_poly(p**e, power)
        value = sum((x * c**i for i, x in enumerate(a)), Fraction(0))
        assert p(c) == value and type(p(c)) is Fraction


@pytest.mark.parametrize("coeffs", [
    [], [0], [0, 0], [5], [Fraction(-7, 3)], [1, 0, 2, 0], [0, Fraction(1, 2), Fraction(-2, 3)],
    [Fraction(3, 4), Fraction(1, 4)],
])
def test_from_ints_matches_general_constructor(coeffs):
    built = _from_ints([Fraction(c) for c in coeffs])
    general = Poly(coeffs)
    for p in (built, pickle.loads(pickle.dumps(built)),
              pickle.loads(pickle.dumps(general))):
        assert p == general and general == p
        assert hash(p) == hash(general)
        assert repr(p) == repr(general) and str(p) == str(general)
        assert format_element(p) == format_element(general)
        assert all(type(c) is Fraction for c in p.coeffs)
    if len(general.coeffs) <= 1:
        scalar = general.coeffs[0] if general.coeffs else Fraction(0)
        assert built == scalar and hash(built) == hash(scalar)
        nested = Poly([Poly([scalar])])  # a constant with a Poly coefficient
        assert nested == built and hash(nested) == hash(built)


def test_nested_constant_coefficients_equal_their_scalar_twin():
    nested = Poly([Poly([3]), Fraction(1, 2)])
    twin = Poly.from_ints([6, 1], 2)
    assert nested == twin and twin == nested and hash(nested) == hash(twin)
    # the constant lambda-polynomial Poly([3]) is stored as its scalar
    assert repr(nested) == repr(twin) == "Poly([Fraction(3, 1), Fraction(1, 2)])"
    copy = pickle.loads(pickle.dumps(nested))
    assert copy == nested and repr(copy) == repr(nested)


def test_format_element_reduces_like_fraction_str():
    p = Poly.from_ints([2, -3, 0, 4, 6], 4)
    assert p.coeffs == (Fraction(1, 2), Fraction(-3, 4), 0, 1, Fraction(3, 2))
    assert format_element(p) == [str(c) for c in p.coeffs]
    assert csv_element(p) == "1/2,-3/4,0,1,3/2"


def _same_fraction(value, want):
    # equal, and alike in type, str, repr (so in lowest terms) and hash
    assert type(value) is Fraction
    assert (value, str(value), repr(value), hash(value)) == (want, str(want), repr(want), hash(want))


@given(st.lists(st.integers(-10**6, 10**6), max_size=6), st.integers(1, 720))
@example([6, 4, 3], 12)  # lowest terms as a whole, not coefficient by coefficient
@example([0, 5, -10], 10)
@example([7, 0, 0], 1)
@example([], 5)
def test_scalar_coefficients_are_the_fractions_of_their_integers(nums, den):
    # coeffs, coeff and format_element publish nums[i] / den through one
    # reducer, and each is Fraction(nums[i], den) however it is read
    p = Poly.from_ints(nums, den)
    expected = [Fraction(c, den) for c in nums]
    while expected and not expected[-1]:
        expected.pop()
    coeffs = p.coeffs
    assert len(coeffs) == len(expected)
    for i, want in enumerate(expected):
        _same_fraction(coeffs[i], want)
        _same_fraction(p.coeff(i), want)
    _same_fraction(p.coeff(len(expected)), Fraction(0))
    if len(expected) > 1:
        assert format_element(p) == [str(c) for c in expected]
    else:
        assert format_element(p) == str(expected[0] if expected else Fraction(0))


@pytest.mark.parametrize("p", [Poly.from_ints([3, -1, 2], 5), Poly([Fraction(1, 2), 1 + X]),
                               Poly(), Poly([Poly()])], ids=repr)
def test_a_product_with_zero_is_the_zero_polynomial(p):
    for product in (p * Poly(), Poly() * p, p * Poly.from_ints([0, 0], 7)):
        assert product.is_zero and product.degree == -1
        assert repr(product) == "Poly([])" and product == 0 and hash(product) == hash(0)


def test_reading_coeffs_keeps_nothing():
    # the entries rstirling2_lambda(n, k, 2, SYMBOLIC) for n <= 60, from a
    # triangle of their own, so that no earlier read has touched them
    triangle = _new_triangle(SYMBOLIC, beta=1, r=2)
    entries = [e for n in range(61) for k in range(n + 1)
               if isinstance(e := triangle.value(n, k), Poly)]
    assert len(entries) == 61 * 60 // 2
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for entry in entries:
            entry.coeffs
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 100_000, grown


def test_non_integer_power_rejected():
    # the index rule, as for a series exponent
    p = 1 + X
    for exponent in (2.0, Fraction(2)):
        with pytest.raises(ValueError, match="polynomial power must be an integer"):
            p**exponent
    with pytest.raises(TypeError, match="polynomial power must be an integer, not a bool"):
        p**True
    with pytest.raises(ValueError, match="polynomial power must be nonnegative"):
        p**-1


@pytest.mark.parametrize("p", [Poly([1, 2]), falling_factorial_poly(2, SYMBOLIC)],
                         ids=["scalar", "nested"])
def test_coeff_takes_the_index_rule(p):
    with pytest.raises(TypeError, match="i must be an integer, not a bool"):
        p.coeff(True)
    with pytest.raises(ValueError, match="i must be an integer"):
        p.coeff(1.5)
    # an integer index outside the coefficients still reads 0
    assert p.coeff(-1) == 0 and p.coeff(5) == 0


def test_lambda_scalar_modes():
    fixed = LambdaScalar.fixed(Fraction(1, 2))
    assert not fixed.is_symbolic
    assert fixed.element == Fraction(1, 2)
    assert str(fixed) == "1/2"
    assert SYMBOLIC.is_symbolic
    assert SYMBOLIC.element == Poly([0, 1])
    assert str(SYMBOLIC) == "symbolic"


def test_lambda_scalar_zero_rejected():
    with pytest.raises(ValueError):
        LambdaScalar.fixed(Fraction(0))


def test_lambda_scalar_hashable_and_frozen():
    a = LambdaScalar.fixed(Fraction(2))
    b = LambdaScalar.fixed(Fraction(2))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, SYMBOLIC}) == 2
    assert LambdaScalar(Fraction(2)) == LambdaScalar(value=Fraction(2)) == a
    assert LambdaScalar() == SYMBOLIC
    assert a != Fraction(2) and SYMBOLIC != None  # noqa: E711
    assert repr(a) == "LambdaScalar(value=Fraction(2, 1))"
    assert repr(SYMBOLIC) == "LambdaScalar(value=None)"
    with pytest.raises(AttributeError):
        a.value = Fraction(3)
    with pytest.raises(AttributeError):
        del a.value
    with pytest.raises(AttributeError):
        a.other = 1
    assert a.value == Fraction(2)
    for lam in (a, SYMBOLIC):
        copy = pickle.loads(pickle.dumps(lam))
        assert copy == lam and hash(copy) == hash(lam)


def test_lambda_scalar_rejects_what_is_not_a_finite_rational():
    # a bool is not read as lambda = 1, None is not the symbolic lambda in
    # fixed mode, and a non-finite float gets a message that names lambda
    with pytest.raises(TypeError, match="lambda"):
        LambdaScalar(True)
    with pytest.raises(TypeError, match="lambda"):
        LambdaScalar.fixed(False)
    with pytest.raises(TypeError, match="lambda"):
        LambdaScalar.fixed(None)
    for value in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="lambda"):
            LambdaScalar(value)
    assert LambdaScalar(None) == SYMBOLIC


def test_fixed_reads_a_fixed_scalar_and_refuses_the_symbolic_one():
    half = LambdaScalar(Fraction(1, 2))
    assert LambdaScalar.fixed(half) is half
    assert LambdaScalar.fixed(Fraction(1, 2)) == half
    for symbolic in (SYMBOLIC, LambdaScalar(None)):
        with pytest.raises(TypeError, match=r"^lambda must be a rational number in fixed mode"):
            LambdaScalar.fixed(symbolic)


@pytest.mark.parametrize("value", ["1/0", "1/2", 0.5, 1j, object()],
                         ids=["zero-denominator", "str", "float", "complex", "object"])
def test_lambda_scalar_reads_only_an_int_or_a_fraction(value):
    # the rational rule: no string, float or other type reaches Fraction,
    # whose own errors (ZeroDivisionError, a TypeError naming no
    # parameter) would escape
    with pytest.raises(ValueError, match="^lambda must be an int or a Fraction, not "):
        LambdaScalar(value)
    with pytest.raises(ValueError, match="^point must be an int or a Fraction, not "):
        eval_element(Poly([1, 2]), value)


# small parts, so that pairs sharing only a numerator or only a denominator
# come up often
lambda_values = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))


@given(lambda_values, lambda_values, st.integers(1, 6))
@example(Fraction(1, 3), Fraction(1, 3), 2)  # built as 2/6: equal to 1/3
@example(Fraction(1, 2), Fraction(1, 3), 1)  # same numerator, different values
@example(Fraction(1, 3), Fraction(2, 3), 1)  # same denominator, different values
def test_lambda_scalar_equality_hash_and_pickle_contract(a, b, c):
    # equality is decided on the reduced (numerator, denominator) pair, so
    # it must agree with the equality of the values however they were built
    lam_a = LambdaScalar(Fraction(a.numerator * c, a.denominator * c))
    lam_b = LambdaScalar.fixed(b)
    assert (lam_a == lam_b) == (a == b)
    assert (lam_a != lam_b) == (a != b)
    if a == b:
        assert hash(lam_a) == hash(lam_b)
    copy = pickle.loads(pickle.dumps(lam_a))
    assert copy == lam_a and hash(copy) == hash(lam_a)
    assert _triangle(copy, 0, 1, 0) is _triangle(lam_a, 0, 1, 0)
    for other in (SYMBOLIC, a, a.numerator, None):
        assert lam_a != other and not lam_a == other


def test_lambda_scalar_is_interned():
    third = LambdaScalar.fixed(Fraction(1, 3))
    assert LambdaScalar.fixed(Fraction(2, 6)) is third
    assert LambdaScalar(Fraction(-2, -6)) is third
    assert LambdaScalar(3) is LambdaScalar(Fraction(6, 2))
    assert LambdaScalar(None) is SYMBOLIC and LambdaScalar() is SYMBOLIC
    assert LambdaScalar.symbolic() is SYMBOLIC
    for lam in (third, SYMBOLIC):
        assert pickle.loads(pickle.dumps(lam)) is lam
        assert copy.copy(lam) is lam and copy.deepcopy(lam) is lam
        assert copy.deepcopy([lam, lam])[1] is lam
    # equality and hashing are object's own: identity, run in C
    assert "__eq__" not in vars(LambdaScalar) and "__hash__" not in vars(LambdaScalar)


def test_threads_that_build_one_new_lambda_get_one_object():
    barrier = Barrier(8, timeout=60)
    got = []

    def worker():
        barrier.wait()
        got.append(LambdaScalar.fixed(Fraction(-9973, 31)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8 and all(lam is got[0] for lam in got)


def test_intern_table_keeps_no_lambda_alive():
    key = (9967, 29)
    lam = LambdaScalar.fixed(Fraction(*key))
    assert poly._INTERNED[key] is lam
    del lam
    gc.collect()
    assert key not in poly._INTERNED
    # a lambda built again later is a new live instance
    assert LambdaScalar.fixed(Fraction(*key)).value == Fraction(*key)


def test_value_records_keep_their_contracts():
    lam = LambdaScalar.fixed(Fraction(1, 2))
    target = Poly([1, 2, 1])
    expansion = expand_in_falling_basis(target, lam)
    assert expansion == BasisExpansion(target, lam, expansion.coefficients)
    assert expansion == BasisExpansion(
        coefficients=expansion.coefficients, lam=lam, target=target)
    assert expansion.reconstruct() == target
    assert repr(expansion) == (
        "BasisExpansion(target=Poly([Fraction(1, 1), Fraction(2, 1), "
        "Fraction(1, 1)]), lam=LambdaScalar(value=Fraction(1, 2)), "
        "coefficients=(Fraction(1, 1), Fraction(5, 2), Fraction(1, 1)))"
    )
    dowling = dobinski_eval(3, Fraction(1, 2), 2, Fraction(1, 2))
    assert dowling.exact == Fraction(49, 8) and dowling.truncation_terms > 0
    assert repr(dowling).startswith(
        "DowlingValue(n=3, x=Fraction(1, 2), m=2, lam=Fraction(1, 2), "
        "exact=Fraction(49, 8), numeric=mpf(")
    for record, field in ((expansion, "lam"), (dowling, "tail_bound")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)


def test_falling_factorial_symbolic():
    lam = Poly([0, 1])
    ff2 = falling_factorial_poly(2, SYMBOLIC)
    assert ff2.coeff(0) == 0
    assert ff2.coeff(1) == -lam
    assert ff2.coeff(2) == 1


def test_falling_factorial_fixed():
    ff3 = falling_factorial_poly(3, LambdaScalar.fixed(Fraction(1)))
    assert ff3 == Poly([0, 2, -3, 1])  # x(x-1)(x-2)


@given(st.integers(min_value=1, max_value=8), small_fractions.filter(lambda q: q != 0))
def test_falling_factorial_roots(n, lam_value):
    lam = LambdaScalar.fixed(lam_value)
    ff = falling_factorial_poly(n, lam)
    assert ff.degree == n
    assert ff(Fraction(0)) == 0
    assert ff((n - 1) * lam_value) == 0
    # monic
    assert ff.coeff(n) == 1


def test_falling_factorial_symbolic_vs_fixed_specialization():
    lam_value = Fraction(2, 3)
    sym = falling_factorial_poly(4, SYMBOLIC)
    fixed = falling_factorial_poly(4, LambdaScalar.fixed(lam_value))
    for i in range(5):
        assert eval_element(sym.coeff(i), lam_value) == fixed.coeff(i)


# x-polynomials at symbolic lambda: their coefficients are lambda-polynomials
symbolic_falling = st.builds(falling_factorial_poly, st.integers(0, 4), st.just(SYMBOLIC))


@st.composite
def nested_polys(draw):
    """Sums and products of symbolic falling factorials."""
    value = draw(symbolic_falling)
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from((operator.add, operator.mul)))
        value = op(value, draw(symbolic_falling))
    return value


@settings(max_examples=60, deadline=None)
@given(nested_polys(), nested_polys())
def test_nested_poly_value_contract(p, q):
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and repr(copy) == repr(p)
    # equal values built in different orders hash equal
    for a, b in ((p + q, q + p), (p * q, q * p), (Poly(p.coeffs), p)):
        assert a == b and hash(a) == hash(b)
    assert (p == 1) == (p.degree == 0 and p.coeff(0) == 1)
    formatted = format_element(p)
    if p.degree >= 1:
        assert formatted == [str(c) for c in p.coeffs]
        assert len(formatted) == p.degree + 1
    else:
        assert formatted == str(p.coeff(0))
