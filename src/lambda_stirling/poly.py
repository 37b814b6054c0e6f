"""Dense univariate polynomials over exact scalars, and the deformation scalar.

``Poly`` stores coefficients lowest degree first, trailing zeros stripped, so
equal polynomials have equal coefficient tuples.  The class is deliberately
variable-agnostic: the same representation serves polynomials in the
deformation parameter lambda (rational coefficients) and polynomials in an
evaluation variable x, whose coefficients may themselves be lambda-polynomials
when lambda is kept symbolic.  Arithmetic freely mixes ``Fraction`` and ``int``
scalars with ``Poly`` values, so downstream code never branches on the mode.

Two multiplications exist and must not be confused when polynomials nest:
``p * q`` convolves p and q as polynomials in the *same* variable, while
``p.scale(c)`` multiplies every coefficient of p by the ring element c.  Use
``scale`` whenever c lives one level down (a lambda-polynomial acting on the
coefficients of an x-polynomial).

``LambdaScalar`` selects the coefficient ring: a fixed nonzero rational value
of lambda, or lambda left as a formal symbol.  Instances are immutable and
hashable, which makes them usable as cache keys; all values produced here are
immutable and safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

RingElement = Union[Fraction, "Poly"]


def _coerce(value) -> RingElement:
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (Poly, Fraction)):
        return value
    raise TypeError(f"exact coefficient expected, got {type(value).__name__}")


class Poly:
    """Dense univariate polynomial with exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        items = [_coerce(c) for c in coeffs]
        while items and items[-1] == 0:
            items.pop()
        self.coeffs = tuple(items)

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
    def from_ints(cls, coeffs: list) -> "Poly":
        """The polynomial with ``int`` coefficients ``coeffs`` (lowest degree
        first), built without the per-coefficient type dispatch of the
        general constructor."""
        end = len(coeffs)
        while end and not coeffs[end - 1]:
            end -= 1
        poly = object.__new__(cls)
        poly.coeffs = tuple(map(Fraction, coeffs[:end]))
        return poly

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        # zero polynomial reports -1; callers treat it as the "minus
        # infinity" sentinel and check is_zero before relying on it
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> RingElement:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if not self.coeffs:
                return other == 0
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        # constants, the zero polynomial included, hash like the scalar
        # they compare equal to
        if len(self.coeffs) <= 1:
            return hash(self.coeff(0))
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -_coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Poly":
        """Multiply every coefficient by the ring element c."""
        c = _coerce(c)
        if c == 0:
            return Poly()
        return Poly([a * c for a in self.coeffs])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, point):
        """Horner evaluation; works for nested coefficients as well."""
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
    """Evaluate a ring element at a rational lambda (constants pass through)."""
    if isinstance(value, Poly):
        return value(point)
    return value


def format_element(value: RingElement):
    """Serialize a ring element: ``"p/q"`` string, or a list of coefficient
    strings (lowest degree first) for a genuinely non-constant polynomial."""
    if isinstance(value, Poly):
        if value.degree <= 0:
            return str(value.coeff(0))
        return [str(c) for c in value.coeffs]
    return str(value)


def csv_element(value: RingElement) -> str:
    """Single-cell form: polynomial coefficients joined by commas."""
    as_json = format_element(value)
    if isinstance(as_json, list):
        return ",".join(as_json)
    return as_json


class LambdaScalar:
    """Deformation parameter: a fixed nonzero rational, or symbolic.

    A fixed value may be anything ``Fraction`` accepts and is kept as a
    ``Fraction``, so equal scalars always carry the same exact value.
    ``element`` is the ring representation of lambda itself, a ``Fraction``
    in fixed mode and the degree-1 ``Poly`` in symbolic mode.  Instances
    are immutable; two are equal when their values are.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value=None):
        if value is not None:
            value = Fraction(value)
            if value == 0:
                raise ValueError("lambda must be nonzero in fixed mode")
        object.__setattr__(self, "value", value)
        # every triangle lookup hashes its lambda as part of the cache key,
        # and a Fraction recomputes its hash on each call
        object.__setattr__(self, "_hash", 0 if value is None else hash(value))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"LambdaScalar(value={self.value!r})"

    def __reduce__(self):
        return (LambdaScalar, (self.value,))

    @classmethod
    def fixed(cls, value) -> "LambdaScalar":
        return cls(value)

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


def falling_factorial_poly(n: int, lam: LambdaScalar) -> Poly:
    """Generalized falling factorial x(x-lam)(x-2*lam)...(x-(n-1)*lam) as a
    polynomial in x; the empty product (n=0) is 1."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    result = Poly.one()
    lam_elem = lam.element
    for i in range(n):
        result = result * Poly([-(i * lam_elem), 1])
    return result
