"""Mechanical verification of the algebraic identities tying the families
together.

Each check has a short stable id (``T2`` .. ``T13`` for the recurrence and
convolution identities, ``GF_*`` for generating-function cross-checks,
``ORTHO_*`` for matrix inversions, and so on).  A check evaluates both sides
of its identity over a finite parameter grid through *independent* routes:
a generating-function coefficient against a recurrence table, the
definitional basis-expansion oracle against itself one row up, a closed
finite-difference form against a tabulation.  The two sides of a check never
share the code path whose correctness the check is supposed to establish.

Results are ``IdentityReport`` records: pass/fail, the number of instances
checked, and on failure the first offending parameter tuple with both side
values serialized exactly.  Reports are deterministic, so a run with a fixed
configuration is byte-identical across processes.

A grid check is declared once, as a generator ``(cfg, providers)`` of
(params, lhs, rhs) triples under ``@_grid(check_id, template)``.  The
``str.format`` template is its grid text, filled from the config fields
that ``_grid_text`` names.  ``CHECKS`` maps each id to the resulting
``cfg -> IdentityReport`` callable; ``run_suite`` and ``check_identity``
look an entry up at call time, so a callable put in its place runs instead.

A check reaches each route one way, never by a bare name: a triangle or
Bernoulli value through the injectable ``Providers`` bundle, whose defaults
are the route functions the facades re-export, and any other route as a
``stirling`` or ``whitney`` attribute looked up at call time.  Tests inject
deliberately corrupted recurrences to demonstrate that every check actually
bites (negative controls).

Two checks resolve ambiguities empirically rather than assuming an answer:

* ``T13`` evaluates the candidate argument conventions for the
  Whitney/Bernoulli convolution, ``(r-1)/(m*lam)`` (constant across the sum)
  and ``(r-n+l)/(m*lam)`` (varying with the summation index; the printed
  ``(r-j)/(m*lam)`` form is the same family), and reports which single
  family survives the full grid.
* ``ORTHO_R`` verifies the true inversion partner of the shifted second-kind
  matrix.  The naive same-shift pairing sum_k T(n,k) S_r(k,m) is *not* an
  inversion: it composes two basis changes that both move by +r, giving
  C(n,m) (2r)^(n-m) (value 2r already at n=1, m=0).  The actual inverse pairs
  T with the sign-alternating unsigned first-kind numbers,
  sum_k T(n,k) (-1)^(k-m) U(k,m) = [n = m], and that is what this check
  establishes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from importlib import import_module
from math import comb
from typing import Callable

from . import _triangle
from . import series as _series
from . import stirling as _stirling
# the package binds the function ``whitney`` over the submodule's name, so
# ``from . import whitney`` would return the function
_whitney = import_module(".whitney", __package__)
from .poly import (LambdaScalar, SYMBOLIC, _check_index, _rational, eval_element,
                   format_element)


@dataclass(frozen=True)
class Providers:
    """The value sources the checks consume; swap entries to test the suite."""

    stirling2: Callable = _triangle.stirling2_lambda
    rstirling2: Callable = _triangle.rstirling2_lambda
    stirling1: Callable = _triangle.stirling1_lambda
    unsigned_rstirling1: Callable = _triangle.unsigned_rstirling1_lambda
    whitney: Callable = _triangle.whitney
    whitney_r: Callable = _triangle.whitney_r
    bernoulli: Callable = _series.bernoulli_higher


@dataclass(frozen=True)
class SuiteConfig:
    """Parameter grids for a suite run.  The defaults match the documented
    verification grid; Bernoulli-heavy checks use the smaller ``bernoulli_n_max``.
    A config is validated when it is built, ``dataclasses.replace`` included:
    its bounds, its check ids, each grid value by the rule of the function
    that consumes it (Dobinski points crossed) and each selected check's grid
    for an instance, so a bad grid fails before any check runs."""

    n_max: int = 10
    bernoulli_n_max: int = 8
    r_values: tuple = (0, 1, 2, 3)
    m_values: tuple = (1, 2, 3)
    alpha_values: tuple = (1, 2, 3)
    fixed_lambdas: tuple = (Fraction(1, 2), Fraction(2), Fraction(-1, 3))
    bernoulli_shift_lambdas: tuple = (Fraction(1, 2), Fraction(2))
    egf_x_values: tuple = (Fraction(1, 2), Fraction(1), Fraction(2, 3))
    egf_lambdas: tuple = (Fraction(1, 2), Fraction(-1, 3))
    dobinski_x_values: tuple = (Fraction(1, 2), Fraction(1), Fraction(2))
    dobinski_m_values: tuple = (1, 2)
    dobinski_lambdas: tuple = (Fraction(1, 2), Fraction(1))
    theorems: tuple | None = None
    providers: Providers = field(default_factory=Providers)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        _check_index(self.n_max, "n_max", 0)
        _check_index(self.bernoulli_n_max, "bernoulli_n_max", 0)
        for name in (
            "r_values", "m_values", "alpha_values", "fixed_lambdas",
            "bernoulli_shift_lambdas", "egf_x_values", "egf_lambdas",
            "dobinski_x_values", "dobinski_m_values", "dobinski_lambdas",
        ):
            if not getattr(self, name):
                raise ValueError(f"empty parameter grid: {name}")
        for r in self.r_values:
            _check_index(r, "shift r", 0)
        for name in ("m_values", "alpha_values", "dobinski_m_values"):
            for v in getattr(self, name):
                _check_index(v, f"{name} entry {v!r}", 1)
        for name in ("fixed_lambdas", "bernoulli_shift_lambdas", "egf_lambdas"):
            _fixed(getattr(self, name))
        for x in self.egf_x_values:
            _rational(x, "egf_x_values entry")
        for x in self.dobinski_x_values:
            for m in self.dobinski_m_values:
                for lam in self.dobinski_lambdas:
                    _whitney._dobinski_domain(x, m, lam)
        if self.theorems is not None:
            if isinstance(self.theorems, str):
                raise TypeError("theorems must be a sequence of check ids, not a str")
            if not self.theorems:
                raise ValueError("no check ids selected")
            unknown = [str(t) for t in self.theorems if not isinstance(t, str) or t not in CHECKS]
            if unknown:
                raise ValueError(f"unknown check ids: {', '.join(unknown)}")
        for check_id, empty in (("T4", self.n_max < 2), ("T13", max(self.r_values) < 1)):
            if check_id in (self.theorems or CHECKS) and empty:
                raise ValueError(f"{check_id}: empty parameter grid")

    def lambdas(self) -> tuple:
        """The fixed-lambda scalars, then the symbolic one."""
        return _fixed(self.fixed_lambdas) + (SYMBOLIC,)


def _fixed(grid) -> tuple:
    """A fixed-lambda grid as ``LambdaScalar``s, for the checks and ``validate``."""
    return tuple(LambdaScalar.fixed(v) for v in grid)


@dataclass(frozen=True)
class IdentityReport:
    theorem_id: str
    parameter_grid: str
    checked_instances: int
    status: str  # "pass" | "fail"
    witness: dict | None = None
    details: dict | None = None

    def __post_init__(self):
        if self.status == "pass" and self.checked_instances <= 0:
            raise ValueError("a passing report needs at least one instance")

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.details is None:
            del out["details"]
        return out


def _witness(params: dict, lhs, rhs) -> dict:
    # a side that a check describes in words (DOBINSKI_T11, T13) is kept
    return {
        "params": {key: str(value) for key, value in params.items()},
        "lhs": lhs if isinstance(lhs, str) else format_element(lhs),
        "rhs": rhs if isinstance(rhs, str) else format_element(rhs),
    }


def _config(cfg) -> SuiteConfig:
    """``cfg``, or the default grid for ``None``."""
    if not isinstance(cfg, (SuiteConfig, type(None))):
        raise TypeError("cfg must be a SuiteConfig")
    return cfg or SuiteConfig()


def _grid_text(template: str, cfg: SuiteConfig) -> str:
    """A check's grid description: ``template`` filled from the config."""
    return template.format(
        n_max=cfg.n_max,
        b_max=cfg.bernoulli_n_max,
        r=list(cfg.r_values),
        r_pos=[r for r in cfg.r_values if r >= 1],
        m=list(cfg.m_values),
        alpha=list(cfg.alpha_values),
        fixed=[str(v) for v in cfg.fixed_lambdas],
        shift=[str(v) for v in cfg.bernoulli_shift_lambdas],
        egf_x=[str(v) for v in cfg.egf_x_values],
        egf_lam=[str(v) for v in cfg.egf_lambdas],
        dob_x=[str(v) for v in cfg.dobinski_x_values],
        dob_m=list(cfg.dobinski_m_values),
        dob_lam=[str(v) for v in cfg.dobinski_lambdas],
        tol=_whitney.DOBINSKI_TOL,
    )


def _grid(theorem_id: str, template: str):
    """Declare a grid check: the decorated ``generate(cfg, providers)``
    yields (params, lhs, rhs) triples over the grid ``template`` describes,
    and becomes the ``cfg -> IdentityReport`` callable that ``CHECKS`` holds.
    The report counts the triples and keeps the first mismatch."""

    def declare(generate):
        def check(cfg: SuiteConfig) -> IdentityReport:
            grid_desc = _grid_text(template, cfg)
            checked = 0
            witness = None
            for params, lhs, rhs in generate(cfg, cfg.providers):
                checked += 1
                if witness is None and lhs != rhs:
                    witness = _witness(params, lhs, rhs)
            return IdentityReport(
                theorem_id=theorem_id,
                parameter_grid=grid_desc,
                checked_instances=checked,
                status="pass" if witness is None else "fail",
                witness=witness,
            )

        check.__doc__ = generate.__doc__
        return check

    return declare


def _cells(n_max: int):
    for n in range(n_max + 1):
        for k in range(n + 1):
            yield n, k


# --- individual checks ------------------------------------------------------


@_grid("T2", "n,k <= {n_max} (full rectangle), r in {r}, lambda in {fixed}")
def _check_t2(cfg: SuiteConfig, p: Providers):
    """Finite-difference closed form against the tabulated triangle,
    including the vanishing rectangle 0 <= n < k."""
    for lam in _fixed(cfg.fixed_lambdas):
        for r in cfg.r_values:
            for n in range(cfg.n_max + 1):
                for k in range(cfg.n_max + 1):
                    lhs = _stirling.rstirling2_by_difference(n, k, r, lam)
                    rhs = p.rstirling2(n, k, r, lam)
                    yield {"n": n, "k": k, "r": r, "lambda": lam}, lhs, rhs


@_grid("T3", "n <= {n_max}, k <= n, r in {r}, all lambda modes")
def _check_t3(cfg: SuiteConfig, p: Providers):
    """Shifted triangle from the plain one: T(n,k) = sum_l C(n,l) S2(l,k) r^(n-l)."""
    for lam in cfg.lambdas():
        for r in cfg.r_values:
            for n, k in _cells(cfg.n_max):
                lhs = p.rstirling2(n, k, r, lam)
                rhs = sum(
                    (comb(n, l) * Fraction(r) ** (n - l)) * p.stirling2(l, k, lam)
                    for l in range(k, n + 1)
                )
                yield {"n": n, "k": k, "r": r, "lambda": lam}, lhs, rhs


@_grid("T4", "1 <= k <= n < {n_max}, r in {r}, all lambda modes; "
             "both sides via basis expansion")
def _check_t4(cfg: SuiteConfig, p: Providers):
    """The defining recurrence, with *both* sides produced by the
    basis-expansion oracle rather than the recurrence itself."""
    for lam in cfg.lambdas():
        lam_elem = lam.element
        for r in cfg.r_values:
            for n in range(cfg.n_max):
                for k in range(1, n + 1):
                    lhs = _stirling.rstirling2_by_expansion(n + 1, k, r, lam)
                    rhs = _stirling.rstirling2_by_expansion(n, k - 1, r, lam) + (
                        lam_elem * k + r
                    ) * _stirling.rstirling2_by_expansion(n, k, r, lam)
                    yield {"n": n, "k": k, "r": r, "lambda": lam}, lhs, rhs


@_grid("T5", "n <= {n_max}, j+k <= n, r in {r}, all lambda modes")
def _check_t5(cfg: SuiteConfig, p: Providers):
    """Cross-convolution splitting the shifted triangle at an inner index:
    C(j+k,k) T(n,k+j) = sum_l C(n,l) S2(l,k) T(n-l,j) for j+k <= n."""
    for lam in cfg.lambdas():
        for r in cfg.r_values:
            for n in range(cfg.n_max + 1):
                for j in range(n + 1):
                    for k in range(n - j + 1):
                        lhs = comb(j + k, k) * p.rstirling2(n, k + j, r, lam)
                        rhs = sum(
                            comb(n, l)
                            * p.stirling2(l, k, lam)
                            * p.rstirling2(n - l, j, r, lam)
                            for l in range(k, n - j + 1)
                        )
                        params = {"n": n, "k": k, "j": j, "r": r, "lambda": lam}
                        yield params, lhs, rhs


@_grid("T6", "n <= {n_max}, k <= n, r in {r}, all lambda modes")
def _check_t6(cfg: SuiteConfig, p: Providers):
    """Plain triangle back from the shifted one by the alternating mix:
    S2(n,k) = sum_l C(n,l) T(l,k) (-r)^(n-l)."""
    for lam in cfg.lambdas():
        for r in cfg.r_values:
            for n, k in _cells(cfg.n_max):
                lhs = p.stirling2(n, k, lam)
                rhs = sum(
                    (comb(n, l) * Fraction(-r) ** (n - l))
                    * p.rstirling2(l, k, r, lam)
                    for l in range(k, n + 1)
                )
                yield {"n": n, "k": k, "r": r, "lambda": lam}, lhs, rhs


@_grid("T7", "n <= {b_max}, k <= n, m in {m}, r in {r}, lambda in {fixed}")
def _check_t7(cfg: SuiteConfig, p: Providers):
    """Bernoulli connection: T(n,k)/C(k+m,k) equals the binomial mix of the
    plain triangle against higher-order Bernoulli values at r/lam."""
    for lam in _fixed(cfg.fixed_lambdas):
        for r in cfg.r_values:
            shift = Fraction(r) / lam.value
            for m in cfg.m_values:
                for n, k in _cells(cfg.bernoulli_n_max):
                    lhs = p.rstirling2(n, k, r, lam) / comb(k + m, k)
                    rhs = sum(
                        Fraction(comb(n, l), comb(l + m, l))
                        * p.stirling2(l + m, k + m, lam)
                        * p.bernoulli(n - l, m, shift)
                        * lam.value ** (n - l)
                        for l in range(k, n + 1)
                    )
                    yield {"n": n, "k": k, "m": m, "r": r, "lambda": lam}, lhs, rhs


@_grid("T9", "n <= {n_max}, k <= n, symbolic lambda")
def _check_t9(cfg: SuiteConfig, p: Providers):
    """Whitney-to-second-kind shear: sum_l C(n,l) W_1(l,k) (lam-1)^(n-l)
    = S2(n+1, k+1), over symbolic lambda."""
    lam = SYMBOLIC
    lam_minus_one = lam.element - 1
    for n, k in _cells(cfg.n_max):
        lhs = sum(
            comb(n, l) * p.whitney(l, k, 1, lam) * lam_minus_one ** (n - l)
            for l in range(k, n + 1)
        )
        rhs = p.stirling2(n + 1, k + 1, lam)
        yield {"n": n, "k": k, "lambda": lam}, lhs, rhs


T13_VARIANTS = {
    "const": "(r-1)/(m*lambda)",
    "shifted": "(r-n+l)/(m*lambda)",
}
# the grid shared by the T13 variant checks and the T13 report
_T13_GRID = "n <= {b_max}, alpha in {alpha}, m in {m}, r in {r_pos}, lambda in {shift}"
_T13_REPORT_GRID = (
    f"adjudication between argument conventions {' vs '.join(T13_VARIANTS.values())}; "
    + _T13_GRID
)


def _t13_variant(variant: str, numerator):
    """The grid check of one candidate argument convention for T13, whose
    Bernoulli argument is ``numerator(r, n - l) / (m * lam)``."""

    @_grid(f"T13[{variant}]", f"B-argument {T13_VARIANTS[variant]}; {_T13_GRID}")
    def generate(cfg: SuiteConfig, p: Providers):
        """One candidate argument convention for the Whitney/Bernoulli
        convolution: W_r(n,k)/C(k+a,k) = sum_l C(n,l)/C(l+a,l) W(l+a,k+a)
        B_(n-l)^(a)(ARG) (lam m)^(n-l)."""
        for lam in _fixed(cfg.bernoulli_shift_lambdas):
            for m in cfg.m_values:
                for r in [r for r in cfg.r_values if r >= 1]:
                    for alpha in cfg.alpha_values:
                        for n, k in _cells(cfg.bernoulli_n_max):
                            lhs = p.whitney_r(n, k, m, r, lam) / comb(k + alpha, k)
                            rhs = sum(
                                Fraction(comb(n, l), comb(l + alpha, l))
                                * p.whitney(l + alpha, k + alpha, m, lam)
                                * p.bernoulli(n - l, alpha,
                                              Fraction(numerator(r, n - l)) / (m * lam.value))
                                * (lam.value * m) ** (n - l)
                                for l in range(k, n + 1)
                            )
                            params = {"n": n, "k": k, "m": m, "r": r, "alpha": alpha,
                                      "lambda": lam}
                            yield params, lhs, rhs

    return generate


_T13_CHECKS = {
    "const": _t13_variant("const", lambda r, j: r - 1),
    "shifted": _t13_variant("shifted", lambda r, j: r - j),
}


@dataclass(frozen=True)
class Theorem13Resolution:
    """Outcome of evaluating every candidate argument convention."""

    variant_reports: dict
    verified: str | None

    @property
    def ok(self) -> bool:
        return self.verified is not None


def resolve_theorem13_variant(cfg: SuiteConfig | None = None) -> Theorem13Resolution:
    """Evaluate each inequivalent candidate on the full grid and demand that
    exactly one family survives."""
    cfg = _config(cfg)
    replace(cfg, theorems=("T13",))  # an empty grid raises as when T13 is selected
    reports = {name: check(cfg) for name, check in _T13_CHECKS.items()}
    passing = [name for name, report in reports.items() if report.status == "pass"]
    verified = passing[0] if len(passing) == 1 else None
    return Theorem13Resolution(variant_reports=reports, verified=verified)


def _check_t13(cfg: SuiteConfig) -> IdentityReport:
    resolution = resolve_theorem13_variant(cfg)
    reports = resolution.variant_reports
    passing = ",".join(name for name, r in reports.items() if r.status == "pass")
    details = {
        "variants": {name: report.status for name, report in reports.items()},
        "verified_variant": T13_VARIANTS[resolution.verified] if resolution.ok else None,
        "failing_witnesses": {
            name: report.witness for name, report in reports.items()
            if report.status == "fail"
        },
    }
    return IdentityReport(
        theorem_id="T13",
        parameter_grid=_grid_text(_T13_REPORT_GRID, cfg),
        checked_instances=sum(r.checked_instances for r in reports.values()),
        status="pass" if resolution.ok else "fail",
        witness=None if resolution.ok else _witness(
            {"passing_variants": passing or "none"},
            "exactly one passing variant family",
            "see details",
        ),
        details=details,
    )


@_grid("ORTHO_PLAIN", "n, m <= {n_max}, symbolic lambda")
def _check_ortho_plain(cfg: SuiteConfig, p: Providers):
    """Mutual inversion of the plain matrices:
    sum_k S2(n,k) S1(k,m) = [n = m]."""
    lam = SYMBOLIC
    for n in range(cfg.n_max + 1):
        for m in range(cfg.n_max + 1):
            total = sum(
                p.stirling2(n, k, lam) * p.stirling1(k, m, lam)
                for k in range(m, n + 1)
            )
            expected = Fraction(1 if n == m else 0)
            yield {"n": n, "m": m, "lambda": lam}, total, expected


@_grid("ORTHO_R", "n, m <= {n_max}, r in {r}, all lambda modes; "
                  "sign-alternating pairing with the unsigned first kind")
def _check_ortho_r(cfg: SuiteConfig, p: Providers):
    """True inversion partner of the shifted second-kind matrix:
    sum_k T(n,k) (-1)^(k-m) U(k,m) = [n = m], with U the unsigned shifted
    first-kind numbers.  (The same-shift signed pairing composes to
    C(n,m)(2r)^(n-m) instead and is not an inversion; see the module
    docstring.)"""
    for lam in cfg.lambdas():
        for r in cfg.r_values:
            for n in range(cfg.n_max + 1):
                for m in range(cfg.n_max + 1):
                    total = sum(
                        (-1) ** (k - m)
                        * p.rstirling2(n, k, r, lam)
                        * p.unsigned_rstirling1(k, m, r, lam)
                        for k in range(m, n + 1)
                    )
                    expected = Fraction(1 if n == m else 0)
                    yield {"n": n, "m": m, "r": r, "lambda": lam}, total, expected


@_grid("LIMIT_LAMBDA1", "n <= {n_max}, k <= n: lambda=1 against the classical integer "
                        "formula for r in {r}; lambda=0 against [n = k]")
def _check_limit_lambda1(cfg: SuiteConfig, p: Providers):
    """Specializations of the symbolic triangle: at lambda = 1 the ordinary
    r-shifted numbers (independent integer route), at lambda = 0 the plain
    triangle collapses to the identity matrix."""
    for r in cfg.r_values:
        for n, k in _cells(cfg.n_max):
            symbolic_value = p.rstirling2(n, k, r, SYMBOLIC)
            lhs = eval_element(symbolic_value, Fraction(1))
            rhs = Fraction(_stirling.classical_rstirling2(n, k, r))
            yield {"n": n, "k": k, "r": r, "limit": "lambda=1"}, lhs, rhs
    for n, k in _cells(cfg.n_max):
        lhs = eval_element(p.stirling2(n, k, SYMBOLIC), Fraction(0))
        rhs = Fraction(1 if n == k else 0)
        yield {"n": n, "k": k, "limit": "lambda=0"}, lhs, rhs


def _columns_against(n_max: int, m: int, r: int, lam: LambdaScalar, lookup):
    """(n, k, EGF coefficient, ``lookup(n, k)``) for n, k <= n_max, reading
    column k of ((e^{lam m t}-1)/m)^k e^{rt}/(lam^k k!) for each k."""
    for k in range(n_max + 1):
        series = _whitney.whitney_series(k, m, r, lam, n_max)
        for n in range(n_max + 1):
            yield n, k, series.coeff(n), lookup(n, k)


@_grid("GF_T1", "n, k <= {n_max}, r in {r}, all lambda modes")
def _check_gf_t1(cfg: SuiteConfig, p: Providers):
    """EGF coefficients of (e^{lam t}-1)^k e^{rt}/(lam^k k!) against the
    tabulated shifted triangle."""
    for lam in cfg.lambdas():
        for r in cfg.r_values:
            lookup = lambda n, k: p.rstirling2(n, k, r, lam)
            for n, k, lhs, rhs in _columns_against(cfg.n_max, 1, r, lam, lookup):
                yield {"n": n, "k": k, "r": r, "lambda": lam}, lhs, rhs


@_grid("GF_T8", "n, k <= {n_max}, m in {m}, lambda in {fixed}")
def _check_gf_t8(cfg: SuiteConfig, p: Providers):
    """EGF coefficients of ((e^{lam m t}-1)/m)^k e^t/(lam^k k!) against the
    Whitney-type triangle."""
    for lam in _fixed(cfg.fixed_lambdas):
        for m in cfg.m_values:
            lookup = lambda n, k: p.whitney(n, k, m, lam)
            for n, k, lhs, rhs in _columns_against(cfg.n_max, m, 1, lam, lookup):
                yield {"n": n, "k": k, "m": m, "lambda": lam}, lhs, rhs


def _dowling_row(p: Providers, n: int, x, m: int, lam: LambdaScalar):
    """Dowling polynomial d(n, x) = sum_k W(n, k) x^k, read through the
    provided Whitney triangle."""
    return sum(p.whitney(n, k, m, lam) * Fraction(x) ** k for k in range(n + 1))


@_grid("GF_T10", "n <= {b_max}, x in {egf_x}, m in {m}, lambda in {egf_lam}")
def _check_gf_t10(cfg: SuiteConfig, p: Providers):
    """Dowling EGF e^t exp(x (e^{lam m t}-1)/(lam m)) against the polynomial
    rows built from the Whitney triangle."""
    n_max = cfg.bernoulli_n_max
    for lam in _fixed(cfg.egf_lambdas):
        for m in cfg.m_values:
            for x in cfg.egf_x_values:
                series = _whitney.dowling_series(x, m, lam, n_max)
                for n in range(n_max + 1):
                    lhs = series.coeff(n)
                    rhs = _dowling_row(p, n, x, m, lam)
                    yield {"n": n, "x": x, "m": m, "lambda": lam}, lhs, rhs


@_grid("GF_T12", "n, k <= {n_max}, m in {m}, r in {r}, lambda in {fixed}")
def _check_gf_t12(cfg: SuiteConfig, p: Providers):
    """EGF coefficients of ((e^{lam m t}-1)/m)^k e^{rt}/(lam^k k!) against
    the shifted Whitney-type triangle."""
    for lam in _fixed(cfg.fixed_lambdas):
        for m in cfg.m_values:
            for r in cfg.r_values:
                lookup = lambda n, k: p.whitney_r(n, k, m, r, lam)
                for n, k, lhs, rhs in _columns_against(cfg.n_max, m, r, lam, lookup):
                    yield {"n": n, "k": k, "m": m, "r": r, "lambda": lam}, lhs, rhs


def _mpf(q: Fraction):
    """``q`` at mpmath's working precision, for a witness line."""
    import mpmath

    return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)


@_grid("DOBINSKI_T11",
       "n <= {b_max}, x in {dob_x}, m in {dob_m}, lambda in {dob_lam}, tol {tol}")
def _check_dobinski(cfg: SuiteConfig, p: Providers):
    """Numeric series evaluation against the exact polynomial rows: the
    error is within the sum of the reported truncation and rounding
    bounds, and that sum is within ``whitney.DOBINSKI_TOL``."""
    tol = _whitney.DOBINSKI_TOL
    for lam in _fixed(cfg.dobinski_lambdas):
        for m in cfg.dobinski_m_values:
            for x in cfg.dobinski_x_values:
                for n in range(cfg.bernoulli_n_max + 1):
                    value = _whitney.dobinski_eval(n, x, m, lam, tol)
                    exact = _dowling_row(p, n, x, m, lam)
                    # the mpf is a dyadic rational, so the difference is
                    # taken exactly; no working precision hides it
                    man, exp = value.numeric.man, value.numeric.exp
                    error = abs(Fraction(man) * Fraction(2) ** exp - exact)
                    bound = value.truncation_bound + value.rounding_bound
                    params = {"n": n, "x": x, "m": m, "lambda": lam, "tol": tol}
                    if error <= bound <= tol:
                        yield params, Fraction(0), Fraction(0)
                    else:
                        # an error past tol is named against tol, any other
                        # failure against the bound
                        yield (
                            params,
                            f"|error| = {_mpf(error)}",
                            f"tolerance {tol}" if error > tol else f"bound {_mpf(bound)}",
                        )


@_grid("REDUCTIONS", "n <= {n_max}, k <= n, r in {r}, m in {m}, all lambda modes")
def _check_reductions(cfg: SuiteConfig, p: Providers):
    """Specialization chain: the shifted Whitney family at m=1 is the shifted
    second-kind triangle, at r=1 the plain Whitney family, and at m=1, r=0
    the plain second-kind triangle."""
    for lam in cfg.lambdas():
        for n, k in _cells(cfg.n_max):
            params = {"n": n, "k": k, "lambda": lam}
            for r in cfg.r_values:
                lhs = p.whitney_r(n, k, 1, r, lam)
                rhs = p.rstirling2(n, k, r, lam)
                yield {**params, "reduction": f"m=1,r={r}"}, lhs, rhs
            for m in cfg.m_values:
                lhs = p.whitney_r(n, k, m, 1, lam)
                rhs = p.whitney(n, k, m, lam)
                yield {**params, "reduction": f"m={m},r=1"}, lhs, rhs
            lhs = p.whitney_r(n, k, 1, 0, lam)
            rhs = p.stirling2(n, k, lam)
            yield {**params, "reduction": "m=1,r=0"}, lhs, rhs


CHECKS: dict[str, Callable[[SuiteConfig], IdentityReport]] = {
    "T2": _check_t2,
    "T3": _check_t3,
    "T4": _check_t4,
    "T5": _check_t5,
    "T6": _check_t6,
    "T7": _check_t7,
    "T9": _check_t9,
    "T13": _check_t13,
    "ORTHO_PLAIN": _check_ortho_plain,
    "ORTHO_R": _check_ortho_r,
    "LIMIT_LAMBDA1": _check_limit_lambda1,
    "GF_T1": _check_gf_t1,
    "GF_T8": _check_gf_t8,
    "GF_T10": _check_gf_t10,
    "GF_T12": _check_gf_t12,
    "DOBINSKI_T11": _check_dobinski,
    "REDUCTIONS": _check_reductions,
}


def check_identity(theorem_id: str, cfg: SuiteConfig | None = None) -> IdentityReport:
    """Run a single named check over the configured grid."""
    cfg = _config(cfg)
    if not isinstance(theorem_id, str) or theorem_id not in CHECKS:
        raise ValueError(f"unknown check id {theorem_id!r}; valid ids: {', '.join(CHECKS)}")
    replace(cfg, theorems=(theorem_id,))  # an empty grid raises as when it is selected
    return CHECKS[theorem_id](cfg)


@dataclass(frozen=True)
class SuiteResult:
    reports: tuple
    exit_status: int

    @property
    def failed(self) -> tuple:
        return tuple(r.theorem_id for r in self.reports if r.status == "fail")

    def to_json_lines(self) -> str:
        lines = [json.dumps(r.to_dict(), default=str) for r in self.reports]
        summary = {
            "summary": True,
            "total": len(self.reports),
            "failed": list(self.failed),
            "status": "pass" if not self.failed else "fail",
        }
        lines.append(json.dumps(summary))
        return "\n".join(lines) + "\n"


def run_suite(cfg: SuiteConfig | None = None) -> SuiteResult:
    """Run every configured check in the fixed registry order."""
    cfg = _config(cfg)
    selected = cfg.theorems if cfg.theorems is not None else tuple(CHECKS)
    reports = tuple(CHECKS[theorem_id](cfg) for theorem_id in selected)
    exit_status = 0 if all(r.status == "pass" for r in reports) else 1
    return SuiteResult(reports=reports, exit_status=exit_status)
