"""Dense univariate polynomials over exact scalars, and the deformation scalar.

``Poly`` is deliberately variable-agnostic: the same class serves
polynomials in the deformation parameter lambda (rational coefficients) and
polynomials in an evaluation variable x, whose coefficients may themselves
be lambda-polynomials when lambda is kept symbolic.  Arithmetic freely mixes
``Fraction`` and ``int`` scalars with ``Poly`` values, so downstream code
never branches on the mode.

When every coefficient is a scalar, a ``Poly`` stores integer numerators
(lowest degree first, trailing zeros stripped) over one positive common
denominator, reduced so that the numerators and the denominator share no
factor; equal polynomials are therefore stored alike.  ``+``, ``-``, ``*``,
``scale``, ``/``, ``**`` and Horner evaluation run on those integers and
reduce once per result, and ``Poly.from_ints`` wraps integer lists without
building any ``Fraction``.  Those integers are its only form: ``coeffs``,
the tuple of ``Fraction`` coefficients, is built afresh on each read and
kept nowhere.  A polynomial with a ``Poly`` among its coefficients (an
x-polynomial at symbolic lambda) keeps that tuple itself, and its
arithmetic runs coefficient by coefficient in the ring; a constant
lambda-polynomial among them is stored as its scalar.

Two multiplications exist and must not be confused when polynomials nest:
``p * q`` convolves p and q as polynomials in the *same* variable, while
``p.scale(c)`` multiplies every coefficient of p by the ring element c.  Use
``scale`` whenever c lives one level down (a lambda-polynomial acting on the
coefficients of an x-polynomial).

``LambdaScalar`` selects the coefficient ring: a fixed nonzero rational value
of lambda, or lambda left as a formal symbol.  Instances are immutable and
interned (one object per value), which makes them cheap cache keys; all
values produced here are immutable and safe to share across threads.

The package's parameter rules live here: ``_check_index``, ``_rational``,
``_check_lambda``, ``LambdaScalar.fixed`` and ``_element`` (see the package docstring).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from threading import Lock
from typing import Iterable, Union
from weakref import WeakValueDictionary

RingElement = Union[Fraction, "Poly"]


def _element(value, name: str) -> RingElement:
    """The ring-element rule: a ``Fraction`` or a ``Poly`` as it is, an ``int``
    but no ``bool`` as its ``Fraction``; any other value raises ``TypeError``."""
    if isinstance(value, (Fraction, Poly)):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"{name} must be an int, Fraction or Poly, not {type(value).__name__}")


def _reduce(nums, den: int):
    """``(numerators, denominator)`` of the coefficients nums[i] / den,
    den > 0: trailing zeros stripped and the common factor divided out."""
    end = len(nums)
    while end and not nums[end - 1]:
        end -= 1
    nums = tuple(nums[:end])
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = tuple(c // g for c in nums)
    return nums, den


def _lowest(num: int, den: int, window: int | None = None, half: int = 1) -> Fraction:
    """The ``Fraction`` num / den of ``int`` num and den > 0, built as the
    standard library builds its own results: one gcd of num and den is
    divided out (none when den = 1) and the lowest terms fill the two
    slots, with no type dispatch, zero test or sign fix-up.  The sign stays
    on the numerator, as den > 0 and the gcd is positive.  The value is
    equal, hashed, printed, pickled and copied as ``Fraction(num, den)``.

    The window (``NumberTriangle.value`` alone passes one) is window =
    q^(2t) and half = q^t for some t >= 1, and then den must be a power
    q^j of the same q.  Past the window (den > window) the gcd is first
    taken against the window: if g = gcd(num, q^(2t)) divides q^t it is
    gcd(num, q^j), as for each prime p of q, with a = v_p(q),
    min(v_p(num), 2ta) <= ta gives v_p(num) <= ta < ja.  Otherwise
    (num = 0 included, where g = q^(2t)) the full ``math.gcd`` decides."""
    if den != 1:
        if window is None or den <= window:
            g = gcd(num, den)
        else:
            g = gcd(num, window)
            if half % g:
                g = gcd(num, den)
        if g != 1:
            num //= g
            den //= g
    value = object.__new__(Fraction)
    value._numerator = num
    value._denominator = den
    return value


def _common_denominator(values):
    """``(numerators, denominator)`` of the rationals ``values`` over their
    least common denominator: values[i] = numerators[i] / denominator."""
    den = lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


def _check_index(value, name: str, low: int | None = None) -> None:
    """The index rule: an ``int`` that is not a ``bool``, at least ``low``
    (0 or 1) when given; a ``bool`` raises ``TypeError``, else ``ValueError``."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not a bool")
    if not isinstance(value, int):
        raise ValueError(f"{name} must be an integer")
    if low is not None and value < low:
        raise ValueError(f"{name} must be {'nonnegative' if low == 0 else 'positive'}")


def _rational(value, name: str) -> Fraction:
    """The rational rule: an ``int`` that is not a ``bool``, or a
    ``Fraction``, as a ``Fraction``; a ``bool`` raises ``TypeError``, else
    ``ValueError`` (no float and no string is read)."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a rational number, not a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise ValueError(f"{name} must be an int or a Fraction, not {type(value).__name__}")


class Poly:
    """Dense univariate polynomial with exact coefficients."""

    # scalar coefficients: _nums/_den hold them and _coeffs is left unset;
    # nested coefficients: _nums is None and _coeffs holds them
    __slots__ = ("_nums", "_den", "_coeffs")

    def __init__(self, coeffs: Iterable = ()):
        items = list(coeffs)
        if not all(isinstance(c, (int, Fraction)) and type(c) is not bool for c in items):
            # a constant lambda-polynomial coefficient is stored as its scalar
            items = [c.coeff(0) if isinstance(c, Poly) and c.degree <= 0
                     else _element(c, "coefficient") for c in items]
            while items and items[-1] == 0:
                items.pop()
            if any(isinstance(c, Poly) for c in items):
                self._nums = self._den = None
                self._coeffs = tuple(items)
                return
        self._nums, self._den = _reduce(*_common_denominator(items))

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls([1])

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    @classmethod
    def from_ints(cls, coeffs, den: int = 1) -> "Poly":
        """The polynomial with coefficients coeffs[i] / den (lowest degree
        first), for ``int`` coeffs and a positive ``int`` den, built from
        the integers directly: no type dispatch and no ``Fraction``."""
        poly = object.__new__(cls)
        poly._nums, poly._den = _reduce(coeffs, den)
        return poly

    @property
    def coeffs(self) -> tuple:
        """The coefficients, lowest degree first: ``Fraction`` scalars, or
        ``Poly`` and ``Fraction`` values when they nest.  Scalar ones are
        built from the integers on each read and kept nowhere."""
        if self._nums is None:
            return self._coeffs
        return tuple(map(_lowest, self._nums, repeat(self._den)))

    @property
    def is_zero(self) -> bool:
        return not (self._coeffs if self._nums is None else self._nums)

    @property
    def degree(self) -> int:
        # zero polynomial reports -1; callers treat it as the "minus
        # infinity" sentinel and check is_zero before relying on it
        if self._nums is None:
            return len(self._coeffs) - 1
        return len(self._nums) - 1

    def coeff(self, i: int) -> RingElement:
        if type(i) is not int:
            _check_index(i, "i")
        if self._nums is None:
            if 0 <= i < len(self._coeffs):
                return self._coeffs[i]
        elif 0 <= i < len(self._nums):
            return _lowest(self._nums[i], self._den)
        return Fraction(0)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            if self._nums is None or other._nums is None:
                return self.coeffs == other.coeffs
            return self._nums == other._nums and self._den == other._den
        if isinstance(other, (int, Fraction)):
            if self._nums is None:
                return len(self._coeffs) == 1 and self._coeffs[0] == other
            if not self._nums:
                return other == 0
            return (len(self._nums) == 1 and self._nums[0] == other.numerator
                    and self._den == other.denominator)
        return NotImplemented

    def __hash__(self):
        # constants, the zero polynomial included, hash like the scalar
        # they compare equal to
        if self.degree <= 0:
            return hash(self.coeff(0))
        return hash(self.coeffs)

    def __reduce__(self):
        if self._nums is None:
            return (Poly, (self._coeffs,))
        return (Poly.from_ints, (self._nums, self._den))

    def __add__(self, other):
        # a bool operand is no scalar here, as in the constructor: it falls
        # through to NotImplemented, and Python raises TypeError
        if isinstance(other, (int, Fraction)) and other is not True and other is not False:
            other = Poly.from_ints((other.numerator,), other.denominator)
        elif not isinstance(other, Poly):
            return NotImplemented
        if self._nums is None or other._nums is None:
            a, b = self.coeffs, other.coeffs
            if len(a) < len(b):
                a, b = b, a
            out = list(a)
            for i, c in enumerate(b):
                out[i] = out[i] + c
            return Poly(out)
        a, da, b, db = self._nums, self._den, other._nums, other._den
        if da != db:
            den = lcm(da, db)
            a = [c * (den // da) for c in a]
            b = [c * (den // db) for c in b]
            da = den
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly.from_ints(out, da)

    __radd__ = __add__

    def __neg__(self):
        if self._nums is None:
            return Poly([-c for c in self._coeffs])
        return Poly.from_ints([-c for c in self._nums], self._den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Poly)) and other is not True and other is not False:
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)) and other is not True and other is not False:
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and other is not True and other is not False:
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if self._nums is None or other._nums is None:
            a, b = self.coeffs, other.coeffs
            out = [Fraction(0)] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] = out[i + j] + x * y
            return Poly(out)
        a, b = self._nums, other._nums
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return Poly.from_ints(out, self._den * other._den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)) and other is not True and other is not False:
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Poly":
        """Multiply every coefficient by the ring element c."""
        if (self._nums is not None and isinstance(c, (int, Fraction))
                and c is not True and c is not False):
            num = c.numerator
            return Poly.from_ints([a * num for a in self._nums],
                                  self._den * c.denominator)
        c = _element(c, "c")
        return Poly([a * c for a in self.coeffs])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other is not True and other is not False:
            return self.scale(Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> "Poly":
        _check_index(exponent, "polynomial power", 0)
        result = Poly.one()
        for bit in f"{exponent:b}":  # square-and-multiply from the top bit
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __call__(self, point):
        """Horner evaluation; works for nested coefficients as well."""
        if point is True or point is False:
            raise TypeError("point must be a rational number, not a bool")
        if self._nums is not None and isinstance(point, (int, Fraction)):
            nums = self._nums
            if not nums:
                return Fraction(0)
            b = point.denominator
            return Fraction(_horner(nums, point.numerator, b),
                            self._den * b ** (len(nums) - 1))
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            cs = f"({c})" if isinstance(c, Poly) else str(c)
            if i == 0:
                parts.append(cs)
            elif i == 1:
                parts.append(f"{cs}*x")
            else:
                parts.append(f"{cs}*x^{i}")
        return " + ".join(parts)


def _horner(coeffs, a: int, b: int) -> int:
    """sum_k coeffs[k] a^k b^(n-k) over ``int``, n = len(coeffs) - 1: the
    homogeneous Horner pass that sums a polynomial with integer coefficients
    at x = a/b scaled by b^n, without any ``Fraction``."""
    total, b_power = 0, 1
    for c in reversed(coeffs):
        total = total * a + c * b_power
        b_power *= b
    return total


def eval_element(value: RingElement, point: Fraction) -> Fraction:
    """Evaluate a ring element at a rational lambda (constants pass through);
    ``value`` and ``point`` are read by the ring-element and rational rules."""
    point = _rational(point, "point")
    if isinstance(value, Poly):
        return value(point)
    return _element(value, "value")


def format_element(value: RingElement):
    """Serialize a ring element: ``"p/q"`` string, or a list of coefficient
    strings (lowest degree first) for a genuinely non-constant polynomial."""
    if isinstance(value, Poly):
        if value.degree <= 0:
            return str(value.coeff(0))
        if value._nums is None:
            return [str(c) for c in value.coeffs]
        return [str(_lowest(c, value._den)) for c in value._nums]
    return str(_element(value, "value"))


def csv_element(value: RingElement) -> str:
    """Single-cell form: polynomial coefficients joined by commas."""
    as_json = format_element(value)
    if isinstance(as_json, list):
        return ",".join(as_json)
    return as_json


_INTERNED = WeakValueDictionary()  # (numerator, denominator), or None -> LambdaScalar
_INTERN_LOCK = Lock()


class _Frozen:
    """Refuses assignment and deletion, so that a hash never changes."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LambdaScalar(_Frozen):
    """Deformation parameter: a fixed nonzero rational, or symbolic.

    A fixed value is read by the rational rule (an ``int`` or a
    ``Fraction``) and kept as a ``Fraction``.  ``element`` is the ring
    representation of lambda itself, a ``Fraction`` in fixed mode and the
    degree-1 ``Poly`` in symbolic mode.  Instances are immutable and
    interned: the constructor returns the one live instance of each value
    (``SYMBOLIC`` for ``None``), so two scalars are equal exactly when they
    are the same object, and equality and hashing are ``object``'s own.  A
    cache hit keyed by lambda thus runs no Python-level ``__eq__`` or
    ``__hash__``.  The intern table holds its instances weakly, so it keeps
    no lambda alive by itself; pickling and copying return the interned
    instance.
    """

    __slots__ = ("value", "__weakref__")

    def __new__(cls, value=None):
        key = None
        if value is not None:
            value = _rational(value, "lambda")
            if value == 0:
                raise ValueError("lambda must be nonzero in fixed mode")
            key = (value.numerator, value.denominator)
        with _INTERN_LOCK:
            self = _INTERNED.get(key)
            if self is None:
                self = object.__new__(cls)
                object.__setattr__(self, "value", value)
                _INTERNED[key] = self
        return self

    def __repr__(self) -> str:
        return f"LambdaScalar(value={self.value!r})"

    def __reduce__(self):
        return (LambdaScalar, (self.value,))

    @classmethod
    def fixed(cls, value) -> "LambdaScalar":
        """A fixed lambda: a fixed ``LambdaScalar`` as it is, or its bare value by
        the rational rule; ``None`` and the symbolic scalar raise ``TypeError``."""
        if isinstance(value, cls):
            if value.value is not None:
                return value
        elif value is not None:
            return cls(value)
        raise TypeError(f"lambda must be a rational number in fixed mode, not {value}")

    @classmethod
    def symbolic(cls) -> "LambdaScalar":
        return cls(None)

    @property
    def is_symbolic(self) -> bool:
        return self.value is None

    @property
    def element(self) -> RingElement:
        if self.value is None:
            return Poly([0, 1])
        return self.value

    def __str__(self) -> str:
        return "symbolic" if self.value is None else str(self.value)


SYMBOLIC = LambdaScalar.symbolic()


def _check_lambda(lam) -> None:
    """Reject a deformation parameter that is not a ``LambdaScalar``."""
    if not isinstance(lam, LambdaScalar):
        raise TypeError("lam must be a LambdaScalar")


def _falling_basis(d: int, lam: LambdaScalar) -> list:
    """The falling factorials [(x)_{0,lam}, ..., (x)_{d,lam}], built up in turn."""
    _check_lambda(lam)
    basis = [Poly.one()]
    lam_elem = lam.element
    for i in range(d):
        basis.append(basis[-1] * Poly([-(i * lam_elem), 1]))
    return basis


def falling_factorial_poly(n: int, lam: LambdaScalar) -> Poly:
    """Generalized falling factorial x(x-lam)(x-2*lam)...(x-(n-1)*lam) as a
    polynomial in x; the empty product (n=0) is 1."""
    _check_index(n, "n", 0)
    return _falling_basis(n, lam)[n]
