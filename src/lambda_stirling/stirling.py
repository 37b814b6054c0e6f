"""Lambda-deformed Stirling numbers of both kinds, and r-shifted ones: a
facade that picks a verification route for each public name.

The triangle functions read the recurrence (``_triangle``): each answers a
warm read in its own frame, one subscript of ``_TRIANGLES`` and one tuple
index behind exact ``int`` type tests, and hands every other case to
``_lookup``, the miss path, which checks the arguments.  The oracles
read the falling-factorial basis expansion (``_expansion``), the finite
difference (``_difference``) and the EGF columns (``series``).  The routes
share no code, so each one checks the others.
"""

from __future__ import annotations

from ._difference import classical_rstirling2, rstirling2_by_difference
from ._expansion import BasisExpansion, _by_expansion, expand_in_falling_basis
from ._triangle import _TRIANGLES, _lookup
from .poly import LambdaScalar, RingElement, _check_index
from .series import TruncatedSeries, lambda_column


def rstirling2_lambda(n: int, k: int, r: int, lam: LambdaScalar) -> RingElement:
    """Entry T(n, k) of the r-shifted second-kind triangle, tabulated by the
    recurrence T(n+1, k) = T(n, k-1) + (lam*k + r) * T(n, k)."""
    if type(n) is int and type(k) is int and type(r) is int:
        try:
            row = _TRIANGLES[lam, 0, 1, r]._rows[n]
        except (KeyError, IndexError, TypeError):
            row = None
        if type(row) is tuple and 0 <= k <= n:
            return row[k]
    return _lookup(n, k, lam, 0, 1, r)


def stirling2_lambda(n: int, k: int, lam: LambdaScalar) -> RingElement:
    """Plain second-kind number: coefficient of (x)_{k,lam} in x^n."""
    if type(n) is int and type(k) is int:
        try:
            row = _TRIANGLES[lam, 0, 1, 0]._rows[n]
        except (KeyError, IndexError, TypeError):
            row = None
        if type(row) is tuple and 0 <= k <= n:
            return row[k]
    return _lookup(n, k, lam, 0, 1, 0)


def rstirling1_lambda(n: int, k: int, r: int, lam: LambdaScalar) -> RingElement:
    """Coefficient of x^k in the shifted falling factorial
    (x+r)(x+r-lam)...(x+r-(n-1)lam); row extension multiplies by (x+r-n*lam)."""
    if type(n) is int and type(k) is int and type(r) is int:
        try:
            row = _TRIANGLES[lam, 1, 0, r]._rows[n]
        except (KeyError, IndexError, TypeError):
            row = None
        if type(row) is tuple and 0 <= k <= n:
            return row[k]
    return _lookup(n, k, lam, 1, 0, r)


def stirling1_lambda(n: int, k: int, lam: LambdaScalar) -> RingElement:
    """Coefficient of x^k in the plain falling factorial (x)_{n,lam}."""
    if type(n) is int and type(k) is int:
        try:
            row = _TRIANGLES[lam, 1, 0, 0]._rows[n]
        except (KeyError, IndexError, TypeError):
            row = None
        if type(row) is tuple and 0 <= k <= n:
            return row[k]
    return _lookup(n, k, lam, 1, 0, 0)


def unsigned_rstirling1_lambda(n: int, k: int, r: int, lam: LambdaScalar) -> RingElement:
    """Coefficient of x^k in the shifted rising product
    (x+r)(x+r+lam)...(x+r+(n-1)lam)."""
    if type(n) is int and type(k) is int and type(r) is int:
        try:
            row = _TRIANGLES[lam, -1, 0, r]._rows[n]
        except (KeyError, IndexError, TypeError):
            row = None
        if type(row) is tuple and 0 <= k <= n:
            return row[k]
    return _lookup(n, k, lam, -1, 0, r)


def rstirling2_by_expansion(n: int, k: int, r: int, lam: LambdaScalar) -> RingElement:
    """Definitional route for the r-shifted second kind: expand (x+r)^n in
    the falling-factorial basis and read off coefficient k."""
    _check_index(r, "shift r", 0)
    return _by_expansion(n, k, 1, r, lam)


def second_kind_series(k: int, r: int, lam: LambdaScalar, order: int) -> TruncatedSeries:
    """EGF route: the series ((e^{lam t} - 1)/lam)^k e^{r t} / k! carries
    the r-shifted second-kind numbers T(n, k) as its EGF coefficients: the
    column ``series.lambda_column`` at m = 1."""
    _check_index(r, "shift r", 0)
    return lambda_column(k, 1, r, lam, order)
