"""Exact arithmetic for the lambda-deformed Stirling, Whitney/Dowling and
higher-order Bernoulli families.

The deformation replaces ordinary powers by generalized falling factorials
(x)_{n,lambda} = x (x - lambda) ... (x - (n-1) lambda).  Everything is
computed over the rationals (or over polynomials in lambda when the
parameter is kept symbolic); no floating point enters except in the explicit
numeric series evaluator, which reports exact truncation and rounding bounds
with each value.

Public surface:

* triangles: :func:`stirling2_lambda`, :func:`rstirling2_lambda`,
  :func:`stirling1_lambda`, :func:`rstirling1_lambda`,
  :func:`unsigned_rstirling1_lambda`, :func:`whitney`, :func:`whitney_r`
* polynomials: :func:`dowling_poly`, :func:`bell_poly_lambda`,
  :func:`bernoulli_higher`
* generating functions: :class:`TruncatedSeries`,
  :func:`second_kind_series`, :func:`whitney_series`, :func:`dowling_series`,
  :func:`bernoulli_base_series`
* numeric evaluation: :func:`dobinski_eval`, whose default tolerance is
  ``DOBINSKI_TOL`` (``from lambda_stirling.whitney import DOBINSKI_TOL``:
  the package's ``whitney`` is the function, not the submodule)
* verification: :func:`run_suite`, :func:`check_identity`,
  :func:`resolve_theorem13_variant`, :class:`SuiteConfig`
* exact scalars: :class:`LambdaScalar`, :data:`SYMBOLIC`, :class:`Poly`;
  rationals are plain :class:`fractions.Fraction` values

Every public function reads its parameters by five rules, before any
cache: an index is an ``int``, a rational an ``int`` or a ``Fraction`` (no
float, no string), lambda a ``LambdaScalar``, a fixed lambda also its bare
rational, and a ring element (a coefficient too) an ``int``, a ``Fraction``
or a ``Poly``.  A ``bool``, a non-scalar or symbolic fixed lambda and a
non-ring element raise ``TypeError``, any other bad value ``ValueError``.

Each public function lives in the route module that computes it: the
triangles and the Dowling and Bell row sums in ``_triangle``, the
expansion oracles and ``expand_in_falling_basis`` in ``_expansion``,
``rstirling2_by_difference`` and ``classical_rstirling2`` in
``_difference``, and the series, the Bernoulli functions included, in
``series``.  The facades ``stirling``, ``whitney`` and ``bernoulli``
re-export them, and ``whitney`` also holds ``dobinski_eval``.

Triangles are cached in a dict in ``_triangle``; basis expansions and the
powers G^k of G = (e^t - 1)/t behind the columns and the Bernoulli bases
by ``functools.cache``, a power keyed by k alone.  The caches are
unbounded, and each triangle or table grows under its own lock.

The verification names load on first use.  ``lambda_stirling.identities``
is a stub that only lists them, in the ``__all__`` that this package's
``__all__`` extends; the first lookup of one (``CHECKS``,
``run_suite``, ...), through this package or through the stub, imports the
suite from ``lambda_stirling._suite``, so code that never verifies never
pays for it.
"""

from . import identities
from .bernoulli import bernoulli_base_series, bernoulli_higher
from .poly import (
    LambdaScalar,
    Poly,
    SYMBOLIC,
    eval_element,
    falling_factorial_poly,
    format_element,
)
from .series import TruncatedSeries
from .stirling import (
    BasisExpansion,
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
from .whitney import (
    DowlingValue,
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

__version__ = "0.1.0"

def __getattr__(name):
    if name in identities.__all__:
        return getattr(identities, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BasisExpansion",
    "DowlingValue",
    "LambdaScalar",
    "Poly",
    "SYMBOLIC",
    "TruncatedSeries",
    "UnsupportedDomainError",
    "bell_poly_lambda",
    "bernoulli_base_series",
    "bernoulli_higher",
    "classical_rstirling2",
    "dobinski_eval",
    "dowling_poly",
    "dowling_series",
    "eval_element",
    "expand_in_falling_basis",
    "falling_factorial_poly",
    "format_element",
    "rstirling1_lambda",
    "rstirling2_by_difference",
    "rstirling2_by_expansion",
    "rstirling2_lambda",
    "second_kind_series",
    "stirling1_lambda",
    "stirling2_lambda",
    "unsigned_rstirling1_lambda",
    "whitney",
    "whitney_r",
    "whitney_r_by_expansion",
    "whitney_series",
    "__version__",
] + identities.__all__
