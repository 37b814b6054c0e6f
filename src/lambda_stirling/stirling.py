"""Lambda-deformed Stirling numbers of both kinds, and r-shifted ones: a
facade that re-exports each public function from the verification route
that computes it.

* ``_triangle``, the recurrence: ``stirling2_lambda``, ``rstirling2_lambda``,
  ``stirling1_lambda``, ``rstirling1_lambda``, ``unsigned_rstirling1_lambda``;
* ``_expansion``, the falling-factorial basis expansion:
  ``rstirling2_by_expansion``, ``expand_in_falling_basis``, ``BasisExpansion``;
* ``_difference``, the finite difference: ``rstirling2_by_difference``,
  ``classical_rstirling2``;
* ``series``, the EGF columns: ``second_kind_series``.

The routes share no code, so each one checks the others.  The identity
suite reads the readers as its ``Providers`` defaults and the oracles as
attributes of this module, looked up at call time.
"""

from ._difference import classical_rstirling2, rstirling2_by_difference
from ._expansion import BasisExpansion, expand_in_falling_basis, rstirling2_by_expansion
from ._triangle import (rstirling1_lambda, rstirling2_lambda, stirling1_lambda,
                        stirling2_lambda, unsigned_rstirling1_lambda)
from .series import second_kind_series
