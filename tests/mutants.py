"""Deliberately corrupted value providers for negative-control tests.

Each mutant perturbs exactly one recurrence coefficient (or one Bernoulli
base value) and is otherwise the real computation, so a verification suite
that cannot distinguish a mutant from the genuine article is not testing
anything.  Mutants are deterministic and cached the same way the real
triangles are, so feeding them to the suite keeps reports reproducible.
"""

from __future__ import annotations

from fractions import Fraction

from lambda_stirling.bernoulli import bernoulli_higher
from lambda_stirling.identities import Providers
from lambda_stirling.poly import LambdaScalar
from lambda_stirling._triangle import _new_triangle


def _cached_triangle_family(params_of):
    """Map lambda-mode (and extra integer parameters) to a corrupted
    triangle from ``_new_triangle``, mirroring the library's own per-family
    caches.  ``params_of`` turns the family's integer parameters into the
    recurrence parameters of the triangle."""
    cache: dict = {}

    def value(n, k, *params, lam: LambdaScalar):
        key = (params, lam)
        tri = cache.get(key)
        if tri is None:
            tri = cache[key] = _new_triangle(lam, **params_of(*params))
        return tri.value(n, k)

    return value


# multiplier c(n, k) = lam * (beta*k - alpha*n + gamma) + r
_mut_s2 = _cached_triangle_family(lambda: dict(beta=1, r=1))  # should be r=0
_mut_rs2 = _cached_triangle_family(lambda r: dict(beta=1, r=2 * r))  # should be r=r
_mut_s1 = _cached_triangle_family(lambda: dict(alpha=1, gamma=-1))  # should be gamma=0
_mut_u1 = _cached_triangle_family(lambda r: dict(alpha=-1, gamma=1, r=r))  # gamma=0
_mut_w = _cached_triangle_family(lambda m: dict(beta=m, r=2))  # should be r=1
_mut_wr = _cached_triangle_family(lambda m, r: dict(beta=m, r=r + 1))  # should be r=r


def _mut_bernoulli(n, m, x):
    value = bernoulli_higher(n, m, x)
    if n == 1:
        return value + Fraction(1, 7)
    return value


MUTANT_PROVIDERS = {
    "stirling2": Providers(stirling2=lambda n, k, lam: _mut_s2(n, k, lam=lam)),
    "rstirling2": Providers(
        rstirling2=lambda n, k, r, lam: _mut_rs2(n, k, r, lam=lam)
    ),
    "stirling1": Providers(stirling1=lambda n, k, lam: _mut_s1(n, k, lam=lam)),
    "unsigned_rstirling1": Providers(
        unsigned_rstirling1=lambda n, k, r, lam: _mut_u1(n, k, r, lam=lam)
    ),
    "whitney": Providers(whitney=lambda n, k, m, lam: _mut_w(n, k, m, lam=lam)),
    "whitney_r": Providers(
        whitney_r=lambda n, k, m, r, lam: _mut_wr(n, k, m, r, lam=lam)
    ),
    "bernoulli": Providers(bernoulli=_mut_bernoulli),
}
