import json
from dataclasses import replace
from fractions import Fraction

import pytest

from lambda_stirling import LambdaScalar, UnsupportedDomainError, _suite
from lambda_stirling.identities import (
    CHECKS,
    IdentityReport,
    SuiteConfig,
    check_identity,
    resolve_theorem13_variant,
    run_suite,
)

from mutants import MUTANT_PROVIDERS

SMALL = dict(
    n_max=5,
    bernoulli_n_max=4,
    r_values=(0, 1, 2),
    m_values=(1, 2),
    alpha_values=(1, 2),
    fixed_lambdas=(Fraction(1, 2), Fraction(2)),
    bernoulli_shift_lambdas=(Fraction(1, 2),),
    egf_x_values=(Fraction(1, 2),),
    egf_lambdas=(Fraction(1, 2),),
    dobinski_x_values=(Fraction(1), Fraction(2)),
    dobinski_m_values=(1,),
    dobinski_lambdas=(Fraction(1, 2),),
)


def small_config(**overrides) -> SuiteConfig:
    merged = {**SMALL, **overrides}
    return SuiteConfig(**merged)


EXPECTED_ORDER = (
    "T2", "T3", "T4", "T5", "T6", "T7", "T9", "T13",
    "ORTHO_PLAIN", "ORTHO_R", "LIMIT_LAMBDA1",
    "GF_T1", "GF_T8", "GF_T10", "GF_T12", "DOBINSKI_T11", "REDUCTIONS",
)


def test_dobinski_check_compares_exactly():
    # |numeric - exact| taken at mpmath's default 53 bits read 4.8e-7 at
    # (n, x, m, lambda) = (21, 1/2, 1, 1/2); the exact difference is below
    # the 1e-12 tolerance on the whole n <= 21 grid
    report = check_identity("DOBINSKI_T11", SuiteConfig(bernoulli_n_max=21))
    assert report.checked_instances == 264
    assert report.status == "pass", report.witness


def test_registry_order():
    assert tuple(CHECKS) == EXPECTED_ORDER


@pytest.mark.parametrize("theorem_id", EXPECTED_ORDER)
def test_each_check_passes_on_small_grid(theorem_id):
    report = check_identity(theorem_id, small_config())
    assert report.status == "pass", report.witness
    assert report.checked_instances > 0
    assert report.witness is None
    assert report.theorem_id == theorem_id


def test_package_exports_resolve():
    import lambda_stirling

    missing = [n for n in lambda_stirling.__all__ if not hasattr(lambda_stirling, n)]
    assert missing == []
    # the stub star-exports the nine suite names, each the suite's own object
    from lambda_stirling import _suite

    names = {}
    exec("from lambda_stirling.identities import *", names)
    del names["__builtins__"]
    assert sorted(names) == sorted(lambda_stirling.identities.__all__)
    assert len(names) == 9
    assert all(value is getattr(_suite, name) for name, value in names.items())


def test_unknown_check_id_rejected():
    with pytest.raises(ValueError):
        check_identity("T99", small_config())
    with pytest.raises(ValueError):
        small_config(theorems=("T99",)).validate()


def test_replaced_check_is_called(monkeypatch):
    # the benchmark times the suite by replacing CHECKS entries in place,
    # so run_suite and check_identity must look each entry up per call
    calls = []
    original = CHECKS["T2"]

    def counting(cfg):
        calls.append(cfg)
        return original(cfg)

    monkeypatch.setitem(CHECKS, "T2", counting)
    run_suite(small_config(theorems=("T2",)))
    check_identity("T2", small_config())
    assert len(calls) == 2


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        small_config(r_values=()).validate()
    with pytest.raises(ValueError):
        run_suite(small_config(fixed_lambdas=()))


def test_config_rejects_a_bad_grid_when_built():
    with pytest.raises(ValueError):
        SuiteConfig(n_max=-1)
    # a non-integer bound fails here, not later inside range()
    with pytest.raises(ValueError, match="n_max must be an integer"):
        SuiteConfig(n_max=2.5)
    with pytest.raises(ValueError, match="bernoulli_n_max must be an integer"):
        SuiteConfig(bernoulli_n_max=2.5)
    with pytest.raises(ValueError):
        SuiteConfig(theorems=("T99",))
    # replace builds a new config through __init__, so it validates too
    with pytest.raises(ValueError):
        replace(SuiteConfig(), r_values=())


@pytest.mark.parametrize("field, value", [
    ("r_values", 1.5),
    ("r_values", -1),
    ("m_values", 0),
    ("dobinski_m_values", 0),
    ("alpha_values", -1),
    ("fixed_lambdas", 0),
    ("bernoulli_shift_lambdas", 0),
    ("egf_lambdas", 0),
    ("dobinski_lambdas", -1),
    ("dobinski_x_values", -1),
    ("egf_x_values", "a"),
])
def test_config_rejects_a_bad_grid_value_when_built(field, value):
    # each grid value meets the rule of the function that consumes it
    # when the config is built, not partway through run_suite
    with pytest.raises(ValueError):
        SuiteConfig(**{field: (value,)})


def test_config_checks_the_dobinski_term_cap_when_built():
    # a grid point past the cap fails when the config is built, not in
    # DOBINSKI_T11 after the fifteen checks before it have run
    with pytest.raises(UnsupportedDomainError, match=r"x/\(lambda m\) below 50000"):
        SuiteConfig(dobinski_x_values=(Fraction(10**6),))
    # the cap is on x/(lambda m), so the x, m and lambda grids are crossed:
    # x = 30000 at lambda = 1/2 is inside it for m = 2 only
    grids = dict(dobinski_x_values=(30000,), dobinski_lambdas=(Fraction(1, 2),))
    SuiteConfig(dobinski_m_values=(2,), **grids)
    with pytest.raises(UnsupportedDomainError):
        SuiteConfig(dobinski_m_values=(2, 1), **grids)


@pytest.mark.parametrize("field", ["fixed_lambdas", "bernoulli_shift_lambdas", "egf_lambdas"])
def test_config_rejects_none_in_a_fixed_lambda_grid_when_built(field):
    # LambdaScalar(None) is the symbolic lambda; a fixed grid must not
    # accept it and fail later inside run_suite
    with pytest.raises(TypeError, match="lambda"):
        SuiteConfig(**{field: (None,)}, theorems=("T2",), n_max=3)


def test_config_refuses_a_selected_check_with_an_empty_grid_when_built():
    # T4 needs n_max >= 2 and T13 a shift r >= 1; the config says so when
    # it is built, not after the checks before them have run
    with pytest.raises(ValueError, match="^T4: empty parameter grid$"):
        SuiteConfig(n_max=1)
    with pytest.raises(ValueError, match="^T13: empty parameter grid$"):
        SuiteConfig(r_values=(0,))
    # a selection without the check takes the grid
    SuiteConfig(n_max=1, theorems=("T2",))
    SuiteConfig(r_values=(0,), theorems=("T2",))


@pytest.mark.parametrize("call, message", [
    (lambda: check_identity("T4", SuiteConfig(n_max=1, theorems=("T2",))), "T4"),
    (lambda: check_identity("T13", SuiteConfig(r_values=(0,), theorems=("T2",))), "T13"),
    (lambda: resolve_theorem13_variant(SuiteConfig(r_values=(0,), theorems=("T2",))), "T13"),
], ids=["check_identity T4", "check_identity T13", "resolve_theorem13_variant"])
def test_every_entry_point_refuses_an_empty_grid_as_the_config_does(call, message):
    # a config that does not select the check still reaches it through
    # these entry points, which judge its grid as one that selects it
    with pytest.raises(ValueError, match=f"^{message}: empty parameter grid$"):
        call()


@pytest.mark.parametrize("check_id, shown", [(1.5, "1.5"), (True, "True"), (None, "None")])
def test_config_names_a_check_id_that_is_not_a_string(check_id, shown):
    with pytest.raises(ValueError, match=rf"^unknown check ids: T99, {shown}$"):
        SuiteConfig(theorems=("T2", "T99", check_id))


def test_config_refuses_a_bare_string_of_check_ids():
    # a string is a sequence of characters, not of check ids
    with pytest.raises(TypeError, match=r"\btheorems\b"):
        SuiteConfig(theorems="T2")


def test_fixed_lambda_grids_take_scalars_or_their_values():
    # every fixed-lambda grid is read by LambdaScalar.fixed, so a grid of
    # scalars reports exactly as the same grid of bare values
    fields = ("fixed_lambdas", "bernoulli_shift_lambdas", "egf_lambdas", "dobinski_lambdas")
    bare = small_config(n_max=3, bernoulli_n_max=3)
    scalars = replace(bare, **{name: tuple(map(LambdaScalar, getattr(bare, name)))
                               for name in fields})
    assert run_suite(scalars).to_json_lines() == run_suite(bare).to_json_lines()


def test_dobinski_check_holds_the_error_to_the_reported_bounds(monkeypatch):
    # an evaluator that reports zero bounds is caught even though its
    # error is within tolerance, and the witness names the bound
    real = _suite._whitney.dobinski_eval

    def zero_bounds(*args):
        return real(*args)._replace(truncation_bound=Fraction(0), rounding_bound=Fraction(0))

    monkeypatch.setattr(_suite._whitney, "dobinski_eval", zero_bounds)
    report = check_identity("DOBINSKI_T11", small_config(theorems=("DOBINSKI_T11",)))
    assert report.status == "fail"
    assert report.witness["rhs"].startswith("bound ")
    assert report.witness["lhs"].startswith("|error| = ")


def test_empty_check_selection_rejected():
    # an empty selection would run no check and report a pass
    with pytest.raises(ValueError):
        small_config(theorems=()).validate()
    with pytest.raises(ValueError):
        run_suite(small_config(theorems=()))


def test_pass_requires_instances():
    with pytest.raises(ValueError):
        IdentityReport(
            theorem_id="T2",
            parameter_grid="empty",
            checked_instances=0,
            status="pass",
        )


def test_run_suite_order_and_exit_status():
    result = run_suite(small_config())
    assert tuple(r.theorem_id for r in result.reports) == EXPECTED_ORDER
    assert result.exit_status == 0
    assert result.failed == ()


def test_theorem_filter():
    result = run_suite(small_config(theorems=("T9", "REDUCTIONS")))
    assert tuple(r.theorem_id for r in result.reports) == ("T9", "REDUCTIONS")


def test_reports_are_byte_identical_across_runs():
    a = run_suite(small_config(theorems=("T3", "T13", "DOBINSKI_T11")))
    b = run_suite(small_config(theorems=("T3", "T13", "DOBINSKI_T11")))
    assert a.to_json_lines() == b.to_json_lines()


def test_json_lines_shape():
    result = run_suite(small_config(theorems=("T2",)))
    lines = result.to_json_lines().strip().split("\n")
    assert len(lines) == 2
    record = json.loads(lines[0])
    assert record["theorem_id"] == "T2"
    assert record["status"] == "pass"
    assert record["checked_instances"] > 0
    summary = json.loads(lines[-1])
    assert summary == {"summary": True, "total": 1, "failed": [], "status": "pass"}


def test_t13_resolution_names_constant_variant():
    resolution = resolve_theorem13_variant(small_config())
    assert resolution.ok
    assert resolution.verified == "const"
    assert resolution.variant_reports["shifted"].status == "fail"
    witness = resolution.variant_reports["shifted"].witness
    assert witness is not None and "params" in witness


def test_t13_report_details():
    report = check_identity("T13", small_config())
    assert report.status == "pass"
    assert report.details["verified_variant"] == "(r-1)/(m*lambda)"
    assert report.details["variants"] == {"const": "pass", "shifted": "fail"}
    assert "shifted" in report.details["failing_witnesses"]


def test_ortho_r_uses_true_inverse_and_literal_pairing_fails():
    # the same-shift signed pairing is NOT an inversion: at n=1, m=0 it
    # composes to 2r.  Demonstrate that directly, then confirm the suite's
    # corrected pairing passes.
    from lambda_stirling.poly import SYMBOLIC
    from lambda_stirling.stirling import rstirling1_lambda, rstirling2_lambda

    r = 2
    literal = sum(
        rstirling2_lambda(1, k, r, SYMBOLIC) * rstirling1_lambda(k, 0, r, SYMBOLIC)
        for k in range(0, 2)
    )
    assert literal == 2 * r  # not the Kronecker delta value 0

    report = check_identity("ORTHO_R", small_config())
    assert report.status == "pass"


def test_literal_pairing_composes_to_binomial_power():
    # sum_k T(n,k;r) S_r(k,m) = C(n,m) (2r)^(n-m): composing the two
    # expansions shifts twice, landing on (x + 2r)^n.
    from math import comb

    from lambda_stirling.poly import LambdaScalar
    from lambda_stirling.stirling import rstirling1_lambda, rstirling2_lambda

    lam = LambdaScalar.fixed(Fraction(1, 2))
    for r in (0, 1, 2):
        for n in range(6):
            for m in range(6):
                total = sum(
                    rstirling2_lambda(n, k, r, lam) * rstirling1_lambda(k, m, r, lam)
                    for k in range(m, n + 1)
                )
                expected = (
                    comb(n, m) * Fraction(2 * r) ** (n - m) if m <= n else Fraction(0)
                )
                assert total == expected


@pytest.mark.parametrize("name", sorted(MUTANT_PROVIDERS))
def test_negative_controls(name):
    config = small_config(providers=MUTANT_PROVIDERS[name])
    result = run_suite(config)
    assert result.exit_status == 1, f"mutant {name} went undetected"
    failed = [r for r in result.reports if r.status == "fail"]
    assert failed, f"mutant {name} produced no failing report"
    for report in failed:
        assert report.witness is not None
        assert "params" in report.witness
        assert "lhs" in report.witness and "rhs" in report.witness


def test_negative_control_seeds_differ_from_real():
    # sanity: each mutant actually changes at least one small value
    from lambda_stirling.identities import Providers
    from lambda_stirling.poly import SYMBOLIC

    real = Providers()
    mutated = MUTANT_PROVIDERS
    assert mutated["stirling2"].stirling2(3, 1, SYMBOLIC) != real.stirling2(
        3, 1, SYMBOLIC
    )
    assert mutated["rstirling2"].rstirling2(2, 1, 1, SYMBOLIC) != real.rstirling2(
        2, 1, 1, SYMBOLIC
    )
    assert mutated["stirling1"].stirling1(3, 1, SYMBOLIC) != real.stirling1(
        3, 1, SYMBOLIC
    )
    assert mutated["unsigned_rstirling1"].unsigned_rstirling1(
        3, 1, 1, SYMBOLIC
    ) != real.unsigned_rstirling1(3, 1, 1, SYMBOLIC)
    assert mutated["whitney"].whitney(2, 1, 2, SYMBOLIC) != real.whitney(
        2, 1, 2, SYMBOLIC
    )
    assert mutated["whitney_r"].whitney_r(2, 1, 2, 1, SYMBOLIC) != real.whitney_r(
        2, 1, 2, 1, SYMBOLIC
    )
    assert mutated["bernoulli"].bernoulli(1, 1, Fraction(0)) != real.bernoulli(
        1, 1, Fraction(0)
    )


def test_t13_discriminating_instance():
    # the two argument conventions genuinely differ: at n=2, k=0, alpha=1,
    # m=1, r=1 the summation index enters the Bernoulli argument, and only
    # the constant convention reproduces the Whitney value.
    from math import comb

    from lambda_stirling.bernoulli import bernoulli_higher
    from lambda_stirling.poly import LambdaScalar
    from lambda_stirling.whitney import whitney, whitney_r

    lam_value = Fraction(1, 2)
    lam = LambdaScalar.fixed(lam_value)
    n, k, alpha, m, r = 2, 0, 1, 1, 1
    lhs = whitney_r(n, k, m, r, lam) / comb(k + alpha, k)

    def rhs(arg_of_l):
        return sum(
            Fraction(comb(n, l), comb(l + alpha, l))
            * whitney(l + alpha, k + alpha, m, lam)
            * bernoulli_higher(n - l, alpha, arg_of_l(l))
            * (lam_value * m) ** (n - l)
            for l in range(k, n + 1)
        )

    const = rhs(lambda l: Fraction(r - 1) / (m * lam_value))
    shifted = rhs(lambda l: Fraction(r - (n - l)) / (m * lam_value))
    assert const == lhs
    assert shifted != lhs
    assert shifted != const
