"""Acceptance gate: one test per stated criterion, each printing a single
``ACCEPTANCE <n> <label>: PASS/FAIL`` line (visible with ``pytest -s``).

Criterion 2 computes the literal same-shift pairing
sum_k T(n,k;r) * S_r(k,m).  It is not an inversion: T expands (x + r)^n in
the falling factorials (x)_{k,lambda} and S_r expands (x + r)_{k,lambda} in
powers of x, so both shift by +r, the composition lands on (x + 2r)^n and
the sum equals C(n,m) (2r)^(n-m) for m <= n (0 otherwise).  The test asserts
that closed form on every instance; at r = 0 it is exactly [n = m], and for
r >= 1 the identity-matrix claim fails on precisely the instances with m < n,
first at n=1, m=0, r=1 with sum 2 instead of 0.  The companion tests directly
below it verify (a) the closed form on a smaller grid and (b) the true
inversion partner, sum_k T(n,k) (-1)^(k-m) U(k,m) = [n = m] with U the
unsigned first-kind numbers.
"""

from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from lambda_stirling.identities import (
    SuiteConfig,
    check_identity,
    resolve_theorem13_variant,
    run_suite,
)
from lambda_stirling.poly import LambdaScalar, SYMBOLIC
from lambda_stirling.stirling import (
    rstirling1_lambda,
    rstirling2_by_difference,
    rstirling2_by_expansion,
    rstirling2_lambda,
    second_kind_series,
    unsigned_rstirling1_lambda,
)
from lambda_stirling.whitney import dobinski_eval, whitney_r, whitney_r_by_expansion

from golden_texts import assert_golden, committed, sha256
from mutants import MUTANT_PROVIDERS


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {label}: {status}{suffix}")
    return ok


def test_criterion_1_quadruple_agreement():
    checked = 0
    mismatch = None
    for lam_value in (Fraction(1, 2), Fraction(2), Fraction(-1, 3)):
        lam = LambdaScalar.fixed(lam_value)
        for r in range(4):
            series_by_k = {
                k: second_kind_series(k, r, lam, 12) for k in range(13)
            }
            for n in range(13):
                for k in range(n + 1):
                    recurrence = rstirling2_lambda(n, k, r, lam)
                    expansion = rstirling2_by_expansion(n, k, r, lam)
                    fps = series_by_k[k].coeff(n)
                    difference = rstirling2_by_difference(n, k, r, lam_value)
                    checked += 1
                    if not (recurrence == expansion == fps == difference):
                        mismatch = mismatch or (n, k, r, lam_value)
    ok = mismatch is None
    assert report(
        1,
        "four-route agreement n<=12",
        ok,
        f"{checked} instances" if ok else f"first mismatch {mismatch}",
    )


def test_criterion_2_literal_same_shift_orthogonality():
    # The same-shift pairing composes to (x + 2r)^n (module docstring), so
    # [n = m] holds only on the r = 0 slice.  Assert the closed form on every
    # instance and pin the identity-matrix counterexamples, which follow from
    # the grid alone: every (n, m, r) with r >= 1 and m < n.
    checked = 0
    closed_form_misses = []
    identity_misses = []
    for r in range(4):
        for n in range(13):
            for m_hat in range(13):
                total = sum(
                    rstirling2_lambda(n, k, r, SYMBOLIC)
                    * rstirling1_lambda(k, m_hat, r, SYMBOLIC)
                    for k in range(m_hat, n + 1)
                )
                closed_form = (
                    comb(n, m_hat) * Fraction(2 * r) ** (n - m_hat)
                    if m_hat <= n
                    else Fraction(0)
                )
                checked += 1
                if total != closed_form:
                    closed_form_misses.append((n, m_hat, r, str(total)))
                if total != Fraction(1 if n == m_hat else 0):
                    identity_misses.append((n, m_hat, r, total))
    predicted = [
        (n, m_hat, r) for r in range(1, 4) for n in range(13) for m_hat in range(n)
    ]
    assert len(predicted) == 3 * comb(13, 2) == 234
    pinned = [miss[:3] for miss in identity_misses]
    r0_misses = [miss for miss in identity_misses if miss[2] == 0]
    ok = (
        not closed_form_misses
        and pinned == predicted
        and identity_misses[0] == (1, 0, 1, 2)
    )
    report(
        2,
        "literal same-shift pairing equals C(n,m)(2r)^(n-m), n,m<=12",
        ok,
        f"{checked} instances, {len(pinned)} pinned counterexamples to [n=m]"
        if ok
        else f"{len(closed_form_misses)}/{checked} closed-form mismatches",
    )
    assert checked == 676
    assert not closed_form_misses, (
        "the same-shift pairing departs from C(n,m)(2r)^(n-m): "
        f"{len(closed_form_misses)}/{checked} mismatches; first "
        f"(n, m, r, sum) = {closed_form_misses[0]}"
    )
    assert not r0_misses, f"[n = m] fails at r = 0: first {r0_misses[0]}"
    assert pinned == predicted, (
        "[n = m] deviations differ from the r >= 1, m < n instances: "
        f"unexpected {sorted(set(pinned) - set(predicted))[:3]}, "
        f"missing {sorted(set(predicted) - set(pinned))[:3]}"
    )
    assert identity_misses[0] == (1, 0, 1, 2), (
        f"first counterexample {identity_misses[0]}, expected (1, 0, 1, 2)"
    )


def test_criterion_2_companion_literal_pairing_closed_form():
    checked = 0
    ok = True
    for r in range(4):
        for n in range(9):
            for m_hat in range(9):
                total = sum(
                    rstirling2_lambda(n, k, r, SYMBOLIC)
                    * rstirling1_lambda(k, m_hat, r, SYMBOLIC)
                    for k in range(m_hat, n + 1)
                )
                expected = (
                    comb(n, m_hat) * Fraction(2 * r) ** (n - m_hat)
                    if m_hat <= n
                    else Fraction(0)
                )
                checked += 1
                if total != expected:
                    ok = False
    assert report(
        "2-SUPPLEMENT-A",
        "literal pairing equals C(n,m)(2r)^(n-m)",
        ok,
        f"{checked} instances",
    )


def test_criterion_2_companion_corrected_inversion():
    checked = 0
    ok = True
    for r in range(4):
        for n in range(13):
            for m_hat in range(13):
                total = sum(
                    (-1) ** (k - m_hat)
                    * rstirling2_lambda(n, k, r, SYMBOLIC)
                    * unsigned_rstirling1_lambda(k, m_hat, r, SYMBOLIC)
                    for k in range(m_hat, n + 1)
                )
                checked += 1
                if total != Fraction(1 if n == m_hat else 0):
                    ok = False
    assert report(
        "2-SUPPLEMENT-B",
        "corrected inversion with unsigned first kind n,m<=12",
        ok,
        f"{checked} instances",
    )


def _symbolic_config(**overrides) -> SuiteConfig:
    merged = dict(
        n_max=10,
        fixed_lambdas=(Fraction(1, 2),),
    )
    merged.update(overrides)
    return SuiteConfig(**merged)


@pytest.mark.parametrize("theorem_id", ["T3", "T4", "T5", "T6"])
def test_criterion_3_conversion_identities(theorem_id):
    rep = check_identity(theorem_id, _symbolic_config())
    assert report(
        3,
        f"{theorem_id} on n<=10, r<=3, symbolic lambda",
        rep.status == "pass",
        f"{rep.checked_instances} instances"
        if rep.status == "pass"
        else str(rep.witness),
    )


def test_criterion_4_bernoulli_connection():
    rep = check_identity("T7", SuiteConfig())
    assert report(
        4,
        "T7 n<=8, m<=3, r<=3, lambda in {1/2,2,-1/3}",
        rep.status == "pass",
        f"{rep.checked_instances} instances"
        if rep.status == "pass"
        else str(rep.witness),
    )


def test_criterion_5_whitney_shear():
    rep = check_identity("T9", _symbolic_config())
    assert report(
        5,
        "T9 n<=10, symbolic lambda",
        rep.status == "pass",
        f"{rep.checked_instances} instances"
        if rep.status == "pass"
        else str(rep.witness),
    )


def test_criterion_6_whitney_oracle_and_series():
    checked = 0
    mismatch = None
    for m in (1, 2, 3):
        for r in range(4):
            for n in range(11):
                for k in range(n + 1):
                    checked += 1
                    if whitney_r(n, k, m, r, SYMBOLIC) != whitney_r_by_expansion(
                        n, k, m, r, SYMBOLIC
                    ):
                        mismatch = mismatch or (n, k, m, r)
    oracle_ok = mismatch is None

    gf_cfg = SuiteConfig(n_max=10, fixed_lambdas=(Fraction(1, 2), Fraction(2)))
    rep8 = check_identity("GF_T8", gf_cfg)
    rep12 = check_identity("GF_T12", gf_cfg)
    series_ok = rep8.status == "pass" and rep12.status == "pass"
    assert report(
        6,
        "Whitney recurrence vs oracle (symbolic) + T8/T12 series (lambda 1/2, 2)",
        oracle_ok and series_ok,
        f"{checked} oracle + {rep8.checked_instances + rep12.checked_instances} series instances"
        if oracle_ok and series_ok
        else f"oracle mismatch {mismatch}, T8 {rep8.status}, T12 {rep12.status}",
    )


def test_criterion_7_reductions():
    rep = check_identity("REDUCTIONS", SuiteConfig())
    assert report(
        7,
        "specializations m=1 / r=1 / (m=1,r=0) over the full grid",
        rep.status == "pass",
        f"{rep.checked_instances} instances"
        if rep.status == "pass"
        else str(rep.witness),
    )


def test_criterion_8_dowling_egf():
    rep = check_identity("GF_T10", SuiteConfig())
    assert report(
        8,
        "T10 EGF n<=8, x in {1/2,1,2/3}, m<=3, lambda in {1/2,-1/3}",
        rep.status == "pass",
        f"{rep.checked_instances} instances"
        if rep.status == "pass"
        else str(rep.witness),
    )


def test_criterion_9_dobinski():
    import mpmath

    checked = 0
    worst_err = 0.0
    ok = True
    for lam_value in (Fraction(1, 2), Fraction(1)):
        for m in (1, 2):
            for x in (Fraction(1, 2), Fraction(1), Fraction(2)):
                for n in range(9):
                    result = dobinski_eval(n, x, m, lam_value, 1e-12)
                    exact = mpmath.mpf(result.exact.numerator) / mpmath.mpf(
                        result.exact.denominator
                    )
                    err = abs(float(result.numeric - exact))
                    worst_err = max(worst_err, err)
                    checked += 1
                    if err > 1e-10 or result.tail_bound > 1e-12 * float(
                        result.numeric
                    ):
                        ok = False
    assert report(
        9,
        "Dobinski |numeric-exact|<=1e-10, tail<=1e-12 of sum",
        ok,
        f"{checked} instances, worst error {worst_err:.2e}",
    )


def test_criterion_10_t13_adjudication():
    resolution = resolve_theorem13_variant(SuiteConfig())
    passing = [
        name
        for name, rep in resolution.variant_reports.items()
        if rep.status == "pass"
    ]
    ok = resolution.ok and resolution.verified == "const"
    assert report(
        10,
        "T13: exactly one Bernoulli-argument convention survives",
        ok,
        "verified variant (r-1)/(m*lambda)"
        if ok
        else f"passing variants: {passing or 'none'}",
    )


def test_criterion_11_classical_limits():
    rep = check_identity("LIMIT_LAMBDA1", SuiteConfig())
    assert report(
        11,
        "lambda=1 matches classical r-Stirling, lambda=0 collapses to [n=k]",
        rep.status == "pass",
        f"{rep.checked_instances} instances"
        if rep.status == "pass"
        else str(rep.witness),
    )


# the small grid the mutant negative controls run on
MUTANT_GRID = SuiteConfig(
    n_max=5,
    bernoulli_n_max=4,
    r_values=(0, 1, 2),
    m_values=(1, 2),
    alpha_values=(1, 2),
    fixed_lambdas=(Fraction(1, 2), Fraction(2)),
    bernoulli_shift_lambdas=(Fraction(1, 2),),
    egf_x_values=(Fraction(1, 2),),
    egf_lambdas=(Fraction(1, 2),),
    dobinski_x_values=(Fraction(1),),
    dobinski_m_values=(1,),
    dobinski_lambdas=(Fraction(1, 2),),
)


def test_criterion_12_negative_controls():
    undetected = []
    for name, providers in sorted(MUTANT_PROVIDERS.items()):
        cfg = replace(MUTANT_GRID, providers=providers)
        result = run_suite(cfg)
        caught = any(
            r.status == "fail" and r.witness is not None for r in result.reports
        )
        if not (result.exit_status == 1 and caught):
            undetected.append(name)
    ok = not undetected
    assert report(
        12,
        "every recurrence-coefficient mutation is detected with a witness",
        ok,
        f"{len(MUTANT_PROVIDERS)} mutants"
        if ok
        else f"undetected: {', '.join(undetected)}",
    )


# the two pinned texts are committed in tests/golden beside their hashes
GOLDEN_SHA256 = {
    "suite.jsonl": "edc220924ad22c07ddc2ad5fbdea0b3e67b5c27e0053720d59470b0292fd0506",
    "mutant_reports.jsonl": "20028d8589b362241a66e8a4655420976c0235e4304c55aa1143aab75095f79b",
}


def test_golden_report_hashes():
    # the default suite's JSON lines and the mutant reports on the
    # criterion-12 grid (concatenated in sorted mutant order) are pinned
    # byte for byte: a change to any exact value or verdict shows here
    assert_golden(run_suite().to_json_lines(), "suite.jsonl", GOLDEN_SHA256["suite.jsonl"])
    mutant_lines = "".join(
        run_suite(replace(MUTANT_GRID, providers=providers)).to_json_lines()
        for _, providers in sorted(MUTANT_PROVIDERS.items()))
    assert_golden(mutant_lines, "mutant_reports.jsonl", GOLDEN_SHA256["mutant_reports.jsonl"])


@pytest.mark.parametrize("name, digest", GOLDEN_SHA256.items())
def test_golden_texts_hash_to_their_pins(name, digest):
    # the committed texts are the ones the pins hash, so a re-recorded pin
    # shows as a diff of its text
    assert sha256(committed(name)) == digest
