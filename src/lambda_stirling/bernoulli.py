"""Higher-order Bernoulli numbers and polynomials: a facade over the EGF
route, ``series``, where ``bernoulli_base_series`` and ``bernoulli_higher``
read the power table of G = (e^t - 1)/t at k = -m.  ``bernoulli_higher`` is
the identity suite's ``Providers`` default."""

from .series import bernoulli_base_series, bernoulli_higher
