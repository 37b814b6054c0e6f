import csv
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from lambda_stirling import cli
from lambda_stirling.cli import main
from lambda_stirling.poly import LambdaScalar, SYMBOLIC, csv_element, format_element
from lambda_stirling.bernoulli import bernoulli_higher
from lambda_stirling.stirling import rstirling2_lambda
from lambda_stirling.whitney import bell_poly_lambda, dowling_poly, whitney_series

from golden_texts import assert_golden


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def test_triangle_csv_parity_with_library(capsys):
    code, out, _ = run_cli(
        capsys,
        "triangle", "--family", "rstirling2", "--n-max", "4",
        "--r", "2", "--lambda", "1/2",
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["n", "k", "value"]
    lam = LambdaScalar.fixed(Fraction(1, 2))
    body = rows[1:]
    expected_cells = [
        [str(n), str(k), csv_element(rstirling2_lambda(n, k, 2, lam))]
        for n in range(5)
        for k in range(n + 1)
    ]
    assert body == expected_cells


def test_triangle_symbolic_cells_quote_polynomials(capsys):
    code, out, _ = run_cli(
        capsys,
        "triangle", "--family", "s2lambda", "--n-max", "2", "--lambda", "symbolic",
    )
    assert code == 0
    rows = parse_csv(out)
    # body rows: (0,0), (1,0), (1,1), (2,0), (2,1), (2,2); the (2,1) cell
    # holds the polynomial lam -> coefficients "0,1"
    assert rows[5] == ["2", "1", "0,1"]
    # raw text must carry the quoted cell
    assert '"0,1"' in out


def test_triangle_r_zero_matches_plain_family(capsys):
    code_a, out_a, _ = run_cli(
        capsys,
        "triangle", "--family", "rstirling2", "--n-max", "5",
        "--r", "0", "--lambda", "2",
    )
    code_b, out_b, _ = run_cli(
        capsys,
        "triangle", "--family", "s2lambda", "--n-max", "5", "--lambda", "2",
    )
    assert code_a == code_b == 0
    assert out_a == out_b


def test_triangle_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "triangle", "--family", "whitney", "--n-max", "3",
        "--m", "2", "--lambda", "symbolic", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "whitney"
    assert payload["m"] == 2
    assert payload["lambda"] == "symbolic"
    from lambda_stirling.whitney import whitney

    for row in payload["rows"]:
        value = whitney(row["n"], row["k"], 2, SYMBOLIC)
        assert row["value"] == format_element(value)


# the parameters each family takes between k and lambda, in call order
FAMILY_PARAMETERS = {
    "s2lambda": (),
    "rstirling2": ("r",),
    "s1lambda": (),
    "rstirling1": ("r",),
    "rstirling1-unsigned": ("r",),
    "whitney": ("m",),
    "whitney-r": ("m", "r"),
}
PARAMETER_VALUES = {"r": ("--r", "1"), "m": ("--m", "2")}


def triangle_argv(family, *names):
    argv = ["triangle", "--family", family, "--n-max", "3", "--lambda", "1/2"]
    for name in names:
        argv += PARAMETER_VALUES[name]
    return argv


def test_triangle_rejects_stray_parameters(capsys):
    cases = [
        (family, (*takes, stray), stray)
        for family, takes in FAMILY_PARAMETERS.items()
        for stray in ("r", "m")
        if stray not in takes
    ]
    cases += [
        ("s2lambda", ("m", "r"), "r"),  # --r is named first, whatever the order
        ("rstirling2", ("m",), "m"),  # a stray one is named before a missing one
    ]
    for family, names, stray in cases:
        code, out, err = run_cli(capsys, *triangle_argv(family, *names))
        assert (code, out) == (2, ""), (family, names)
        assert err == f"error: family {family!r} does not take --{stray}\n"


def test_triangle_requires_shift_for_shifted_family(capsys):
    cases = [("whitney-r", (), "r")]  # --r is named before --m
    for family, takes in FAMILY_PARAMETERS.items():
        assert run_cli(capsys, *triangle_argv(family, *takes))[0] == 0, family
        cases += [
            (family, tuple(name for name in takes if name != missing), missing)
            for missing in takes
        ]
    for family, names, missing in cases:
        code, out, err = run_cli(capsys, *triangle_argv(family, *names))
        assert (code, out) == (2, ""), (family, names)
        assert err == f"error: family {family!r} needs --{missing}\n"


# dump-series kind -> the options it takes besides --order
DUMP_OPTIONS = {
    "stirling2": ("--k", "--lambda"),
    "rstirling2": ("--k", "--r", "--lambda"),
    "whitney": ("--k", "--m", "--lambda"),
    "whitney-r": ("--k", "--m", "--r", "--lambda"),
    "bernoulli-base": ("--m",),
    "dowling": ("--m", "--x", "--lambda"),
}
DUMP_VALUES = {"--k": "2", "--r": "1", "--m": "2", "--x": "3/2", "--lambda": "1/2"}


def test_dump_series_rejects_stray_options(capsys):
    for kind, takes in DUMP_OPTIONS.items():
        argv = ["dump-series", "--kind", kind, "--order", "3"]
        for option in takes:
            argv += [option, DUMP_VALUES[option]]
        assert run_cli(capsys, *argv)[0] == 0, kind
        for stray, value in DUMP_VALUES.items():
            if stray in takes:
                continue
            code, out, err = run_cli(capsys, *argv, stray, value)
            assert (code, out) == (2, ""), (kind, stray)
            assert err == f"error: kind {kind!r} does not take {stray}\n"


@pytest.mark.parametrize("argv, message", [
    # each printed the same bytes as without the stray option, or exited 0
    (("dump-series", "--kind", "stirling2", "--k", "1", "--order", "3",
      "--r", "5", "--lambda", "1/2"), "kind 'stirling2' does not take --r"),
    (("eval", "--poly", "bell", "--n", "3", "--x", "1/2", "--lambda", "1/2",
      "--m", "7"), "poly 'bell' does not take --m"),
    (("dump-series", "--kind", "bernoulli-base", "--order", "3",
      "--lambda", "1/0"), "kind 'bernoulli-base' does not take --lambda"),
    # a stray option is named before any other fault
    (("dump-series", "--kind", "bernoulli-base", "--order", "-1", "--k", "2"),
     "kind 'bernoulli-base' does not take --k"),
    (("dump-series", "--kind", "whitney", "--order", "3", "--m", "0",
      "--x", "1/0"), "kind 'whitney' does not take --x"),
], ids=["stirling2-r", "bell-m", "bernoulli-base-lambda", "before-order", "before-x"])
def test_stray_option_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, defaults", [
    (("dump-series", "--kind", "stirling2", "--order", "4"),
     ("--k", "0", "--lambda", "symbolic")),
    (("dump-series", "--kind", "rstirling2", "--k", "2", "--order", "4"),
     ("--r", "0")),
    (("dump-series", "--kind", "whitney", "--k", "2", "--order", "4",
      "--lambda", "1/2"), ("--m", "1")),
    (("dump-series", "--kind", "bernoulli-base", "--order", "4"), ("--m", "1")),
    (("dump-series", "--kind", "dowling", "--order", "4", "--lambda", "1/2"),
     ("--x", "1", "--m", "1")),
    (("eval", "--poly", "dowling", "--n", "4", "--x", "2/3", "--lambda", "1/2",
      "--format", "json"), ("--m", "1")),
], ids=["stirling2", "rstirling2", "whitney", "bernoulli-base", "dowling", "eval"])
def test_left_out_options_take_their_defaults(capsys, argv, defaults):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, *argv, *defaults)[1]


def test_triangle_json_lists_r_before_m(capsys):
    code, out, _ = run_cli(
        capsys, *triangle_argv("whitney-r", "m", "r"), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["family", "n_max", "lambda", "rows", "r", "m"]
    assert (payload["r"], payload["m"]) == (1, 2)


def test_cli_family_table_matches_the_benchmark_map(monkeypatch):
    # the benchmark calls the triangle functions as the CLI does; its map
    # is read from its source file without writing bytecode next to it
    import importlib
    import importlib.util

    from lambda_stirling.cli import TRIANGLE_FAMILIES

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(workloads)
    assert set(workloads._FAMILIES) == set(TRIANGLE_FAMILIES)
    for family, (module, name, takes_r, takes_m) in workloads._FAMILIES.items():
        fn = getattr(importlib.import_module(f"lambda_stirling.{module}"), name)
        params = ("m",) * takes_m + ("r",) * takes_r
        assert TRIANGLE_FAMILIES[family][0] is fn, family
        assert TRIANGLE_FAMILIES[family][1] == params, family


@pytest.mark.parametrize("argv, option", [
    (("triangle", "--family", "s2lambda", "--n-max", "3", "--lambda", "1/0"),
     "--lambda"),
    (("eval", "--poly", "bell", "--n", "3", "--x", "1/2", "--lambda", "1/0"),
     "--lambda"),
    (("dobinski", "--n", "3", "--x", "1", "--lambda", "1/0"), "--lambda"),
    (("dump-series", "--kind", "stirling2", "--k", "1", "--order", "3",
      "--lambda", "1/0"), "--lambda"),
    (("eval", "--poly", "bell", "--n", "3", "--x", "1/0", "--lambda", "1/2"),
     "--x"),
    (("bernoulli", "--n-max", "3", "--m", "1", "--x", "1/0"), "--x"),
    (("dobinski", "--n", "3", "--x", "1/0", "--lambda", "1/2"), "--x"),
    (("dump-series", "--kind", "dowling", "--order", "3", "--x", "1/0",
      "--lambda", "1/2"), "--x"),
], ids=lambda value: value.strip("-") if isinstance(value, str) else value[0])
def test_zero_denominator_names_the_option(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {option}: zero denominator in '1/0'\n"


@pytest.mark.parametrize("argv, option, text", [
    (("eval", "--poly", "bell", "--n", "3", "--x", "abc", "--lambda", "1/2"), "--x", "abc"),
    (("eval", "--poly", "bell", "--n", "3", "--x", "nan", "--lambda", "1/2"), "--x", "nan"),
    (("triangle", "--family", "s2lambda", "--n-max", "3", "--lambda", "inf"),
     "--lambda", "inf"),
    (("bernoulli", "--n-max", "3", "--m", "1", "--x", "1/2/3"), "--x", "1/2/3"),
], ids=["x-abc", "x-nan", "lambda-inf", "x-two-slashes"])
def test_unreadable_rational_names_the_option(capsys, argv, option, text):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {option}: not a rational number: {text!r}\n"


@pytest.mark.parametrize("text", ["1e4301", "-1e-4301", "2.5E+1_0000"])
def test_decimal_exponent_past_the_digit_limit_is_refused(capsys, text):
    # the interpreter's limit on int/str digits (4,300 by default) bounds
    # the exponent; 1e4300 and below parse as before
    argv = ("eval", "--poly", "bell", "--n", "2", f"--x={text}", "--lambda", "1/2")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"error: --x: decimal exponent beyond {limit} in {text!r}\n"
    assert run_cli(capsys, *argv[:5], "--x=-1e-1", *argv[6:])[:2] == (0, "-1/25\n")


@pytest.mark.parametrize("module", ["lambda_stirling", "lambda_stirling.cli"])
def test_main_modules_exit_with_the_status_of_main(module, capsys, monkeypatch):
    # python -m of the package and of the CLI module, run in this process:
    # each prints what main prints and exits with its status
    for argv, status in ((["eval", "--poly", "bell", "--n", "3", "--x", "2", "--lambda", "1/2"], 0),
                         (["eval", "--poly", "bell", "--n", "3", "--x", "2", "--lambda", "0"], 2)):
        expected = run_cli(capsys, *argv)
        assert expected[0] == status
        monkeypatch.setattr(sys, "argv", [module, *argv])
        with warnings.catch_warnings():
            # the CLI module is imported already, where python -m starts afresh
            warnings.filterwarnings("ignore", "'lambda_stirling.cli' found in sys.modules",
                                    RuntimeWarning)
            with pytest.raises(SystemExit) as stop:
                runpy.run_module(module, run_name="__main__")
        captured = capsys.readouterr()
        assert (stop.value.code, captured.out, captured.err) == expected


def test_a_huge_decimal_exponent_is_refused_before_it_is_expanded():
    # Fraction("1e10000000") alone ran 10.8 s; a dash token after --x is its
    # value, refused by the exponent bound as --x=-1e10000000 is
    for spelling in [("--x=1e10000000",), ("--x=-1e-10000000",), ("--x", "-1e10000000")]:
        proc = run_cli_process("-m", "lambda_stirling", "eval", "--poly", "bell", "--n", "2",
                               *spelling, "--lambda", "1/2", timeout=20)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "error: " in proc.stderr and "Traceback" not in proc.stderr


LIFTED_LIMIT_CLI = """
import sys, time
sys.set_int_max_str_digits(0)
from lambda_stirling.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""


def test_the_exponent_bound_holds_after_the_caller_lifts_the_digit_limit():
    # a process that lifts the int/str digit limit before it imports the CLI
    # keeps the bound of the interpreter's default limit; read from the
    # caller's limit, the bound was gone and this call ran 14.8 s
    proc = run_cli_process("-c", LIFTED_LIMIT_CLI, "eval", "--poly", "bell", "--n", "1",
                           "--x", "1e1000000", "--lambda", "1")
    assert proc.returncode == 2
    assert proc.stderr == "error: --x: decimal exponent beyond 4300 in '1e1000000'\n"
    assert float(proc.stdout) < 1.0


@pytest.mark.parametrize("text, message", [
    ("-1/0", "zero denominator in '-1/0'"),
    ("-1e10000000", "decimal exponent beyond {limit} in '-1e10000000'"),
    ("-abc", "not a rational number: '-abc'"),
], ids=["zero-denominator", "huge-exponent", "unreadable"])
def test_a_refused_negative_value_keeps_its_own_message(capsys, text, message):
    # a dash token after an option that takes a value is that option's
    # value, whether or not it reads as a rational, so the error names it
    # as the --x=... spelling does
    message = message.format(limit=sys.get_int_max_str_digits())
    bell = ("eval", "--poly", "bell", "--n", "2")
    spaced = run_cli(capsys, *bell, "--x", text, "--lambda", "1/2")
    assert spaced == (2, "", f"error: --x: {message}\n")
    assert run_cli(capsys, *bell, f"--x={text}", "--lambda", "1/2") == spaced
    triangle = ("triangle", "--family", "s2lambda", "--n-max", "2", "--lambda")
    assert run_cli(capsys, *triangle, text) == (2, "", f"error: --lambda: {message}\n")


def test_an_option_string_is_no_option_value(capsys):
    # -h and --... stay options, and --help takes no value: --help -2/3
    # prints the help as --help does
    def exit_of(*argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        return (exc.value.code, *capsys.readouterr())

    bell = ("eval", "--poly", "bell", "--n", "2", "--lambda", "1/2")
    code, out, err = exit_of(*bell, "--x", "-h")
    assert (code, out) == (2, "") and "argument --x: expected one argument" in err
    code, out, err = exit_of(*bell, "--x", "--m")
    assert (code, out) == (2, "") and "argument --x: expected one argument" in err
    helped = exit_of(*bell, "--help")
    assert helped[0] == 0 and helped[1].startswith("usage: ")
    assert exit_of(*bell, "--help", "-2/3") == helped
    assert exit_of(*bell, "--he", "-1") == helped


def test_a_dash_output_path_is_the_value(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ("triangle", "--family", "s2lambda", "--n-max", "2", "--lambda", "1/2")
    assert run_cli(capsys, *argv, "--output", "-table.csv")[:2] == (0, "")
    assert (tmp_path / "-table.csv").read_bytes() == run_cli(capsys, *argv)[1].encode("utf-8")


def test_zero_lambda_exits_2(capsys):
    for argv, message in (
        (("triangle", "--family", "s2lambda", "--n-max", "3", "--lambda", "0"),
         "nonzero"),
        (("eval", "--poly", "bell", "--n", "3", "--x", "abc", "--lambda", "1/2"),
         "abc"),
        (("eval", "--poly", "bell", "--n", "3", "--x", "1/0", "--lambda", "1/2"),
         ""),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and message in err


def test_rational_spellings_give_identical_output(capsys):
    triangle = ("triangle", "--family", "rstirling2", "--n-max", "4", "--r", "1")
    bell = ("eval", "--poly", "bell", "--n", "4", "--lambda", "1/3")
    for argv, reference in (
        (triangle + ("--lambda", " 1/2 "), triangle + ("--lambda", "1/2")),
        (triangle + ("--lambda", "2/4"), triangle + ("--lambda", "1/2")),
        # argparse alone reads -2/3 and -1e-1 as options, not as the value
        (triangle + ("--lambda", "-2/3"), triangle + ("--lambda=-2/3",)),
        (bell + ("--x", "-1/2"), bell + ("--x=-1/2",)),
        (triangle + ("--lambda", "-5e-1"), triangle + ("--lambda=-5e-1",)),
        (bell + ("--x", "-1e-1"), bell + ("--x=-1e-1",)),
        (bell + ("--x", "-2.5E+1"), bell + ("--x=-2.5E+1",)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", argv
        assert out == run_cli(capsys, *reference)[1], argv


def test_eval_dowling_parity(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval", "--poly", "dowling", "--n", "4", "--x", "2/3",
        "--m", "2", "--lambda", "1/2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    expected = dowling_poly(4, Fraction(2, 3), 2, LambdaScalar.fixed(Fraction(1, 2)))
    assert payload["value"] == format_element(expected)
    assert payload["m"] == 2


def test_eval_bell_text(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval", "--poly", "bell", "--n", "3", "--x", "1", "--lambda", "symbolic",
    )
    assert code == 0
    expected = bell_poly_lambda(3, Fraction(1), SYMBOLIC)
    assert out.strip() == csv_element(expected)


@pytest.mark.parametrize("argv", [
    ("eval", "--poly", "bell", "--n", "50", "--x", "1e100", "--lambda", "1"),
    ("bernoulli", "--n-max", "2", "--m", "1", "--x", "1e2500"),
], ids=["eval", "bernoulli"])
def test_values_past_the_int_digit_limit_print(capsys, argv):
    # both values have more than the 4,300 digits Python prints by default
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = get_limit()
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert get_limit() == before
    if argv[0] == "eval":
        cells, expected = [out.strip()], [bell_poly_lambda(50, 10**100, LambdaScalar(1))]
    else:
        cells = [row[1] for row in parse_csv(out)[1:]]
        expected = [bernoulli_higher(n, 1, 10**2500) for n in range(3)]
    if before is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert [Fraction(c) for c in cells] == expected
    finally:
        if before is not None:
            sys.set_int_max_str_digits(before)


def test_dobinski_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "dobinski", "--n", "3", "--x", "1/2", "--m", "2", "--lambda", "1/2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == "49/8"
    assert payload["numeric"].startswith("6.124999999")
    assert payload["tail_bound"] <= 1e-12 * 6.2
    assert payload["truncation_terms"] > 0


@pytest.mark.parametrize("digits", ["0", "-3"])
def test_dobinski_rejects_nonpositive_digits(capsys, digits):
    code, out, err = run_cli(
        capsys,
        "dobinski", "--n", "3", "--x", "1/2", "--m", "2", "--lambda", "1/2",
        "--digits", digits,
    )
    assert code == 2
    assert out == ""
    assert err == "error: --digits must be positive\n"


@pytest.mark.parametrize("digits", ["41", "1000000"])
def test_dobinski_rejects_digits_beyond_working_precision(capsys, digits):
    # the sum carries 40 digits, and printing more takes time that grows
    # with the number asked for
    code, out, err = run_cli(
        capsys,
        "dobinski", "--n", "3", "--x", "1/2", "--m", "2", "--lambda", "1/2",
        "--digits", digits,
    )
    assert code == 2
    assert out == ""
    assert err == "error: --digits must be at most 40\n"


def test_dobinski_prints_the_full_working_precision(capsys):
    code, out, _ = run_cli(
        capsys,
        "dobinski", "--n", "3", "--x", "1/2", "--m", "2", "--lambda", "1/2",
        "--digits", "40",
    )
    assert code == 0
    numeric = json.loads(out)["numeric"]
    assert numeric.startswith("6.124999999")
    assert len(numeric.replace(".", "")) == 40


@pytest.mark.parametrize("tol", ["inf", "nan", "-inf", "0"])
def test_dobinski_rejects_non_finite_tolerance(capsys, tol):
    code, out, err = run_cli(
        capsys,
        "dobinski", "--n", "3", "--x", "1/2", "--lambda", "1/2", f"--tol={tol}",
    )
    assert code == 2
    assert out == ""
    assert err == "error: tolerance must be positive and finite\n"


# the benchmark's 24 dobinski calls (n in {5, 9}) and the README example
DOBINSKI_ARGVS = [
    ["dobinski", "--n", str(n), "--x", x, "--m", str(m), "--lambda", lam,
     "--digits", "20"]
    for n in (5, 9) for x in ("1/2", "3/2", "2") for m in (1, 2) for lam in ("1/2", "1")
] + [["dobinski", "--n", "4", "--x", "3/2", "--m", "2", "--lambda", "1/2", "--digits", "20"]]


# stdout recorded when the series was summed at a fixed 40 digits, committed
# as tests/golden/cli_dobinski.txt
DOBINSKI_SHA256 = "dbe6c20df35296a7e58f037b587677ee87ca166713d8f219d3fd60e153dd0769"


def test_dobinski_output_pinned(capsys):
    outputs = []
    for argv in DOBINSKI_ARGVS:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert_golden("".join(outputs), "cli_dobinski.txt", DOBINSKI_SHA256)


def test_dobinski_rejects_symbolic(capsys):
    code, _, err = run_cli(
        capsys,
        "dobinski", "--n", "3", "--x", "1/2", "--m", "2", "--lambda", "symbolic",
    )
    assert code == 2
    assert "rational" in err


def test_bernoulli_csv_parity(capsys):
    code, out, _ = run_cli(
        capsys,
        "bernoulli", "--n-max", "5", "--m", "2", "--x", "1/3",
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["n", "value"]
    for n, row in enumerate(rows[1:]):
        assert row == [str(n), csv_element(bernoulli_higher(n, 2, Fraction(1, 3)))]


def test_verify_subcommand_passes_and_reports(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--theorem", "T9", "--theorem", "REDUCTIONS", "--n-max", "5",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first["theorem_id"] == "T9" and first["status"] == "pass"
    summary = json.loads(lines[-1])
    assert summary["summary"] is True and summary["status"] == "pass"


def test_verify_with_an_empty_t4_grid_exits_2_before_any_check(capsys, monkeypatch):
    from lambda_stirling.identities import CHECKS

    calls = []
    monkeypatch.setitem(CHECKS, "T2", calls.append)
    code, out, err = run_cli(capsys, "verify", "--n-max", "1")
    assert (code, out, err) == (2, "", "error: T4: empty parameter grid\n")
    assert calls == []


def test_verify_unknown_theorem_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--theorem", "T99")
    assert code == 2
    assert "unknown check ids" in err


def test_dump_series_parity(capsys):
    code, out, _ = run_cli(
        capsys,
        "dump-series", "--kind", "whitney-r", "--k", "2", "--m", "2",
        "--r", "1", "--order", "5", "--lambda", "1/2",
    )
    assert code == 0
    payload = json.loads(out)
    series = whitney_series(2, 2, 1, LambdaScalar.fixed(Fraction(1, 2)), 5)
    assert payload == {"kind": "whitney-r", **series.to_json()}


def test_dump_series_defaults_to_symbolic(capsys):
    code, out, _ = run_cli(
        capsys, "dump-series", "--kind", "stirling2", "--k", "1", "--order", "3"
    )
    assert code == 0
    payload = json.loads(out)
    # EGF of (e^{lam t}-1)/lam: coefficients 0, 1, lam, lam^2
    assert payload["egf_coeffs"] == ["0", "1", ["0", "1"], ["0", "0", "1"]]


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    for argv, header in (
        (("triangle", "--family", "s2lambda", "--n-max", "2", "--lambda", "1/2"),
         "n,k,value"),
        (("bernoulli", "--n-max", "4", "--m", "2", "--x", "1/3"), "n,value"),
    ):
        code, out, _ = run_cli(capsys, *argv, "--output", str(target))
        assert code == 0
        assert out == ""
        content = target.read_bytes()
        assert content.startswith(header.encode())
        # the file holds exactly the bytes the command prints to stdout
        assert content == run_cli(capsys, *argv)[1].encode("utf-8")


def test_cli_output_is_deterministic(capsys):
    args = (
        "triangle", "--family", "whitney-r", "--n-max", "4",
        "--r", "2", "--m", "3", "--lambda", "symbolic", "--format", "json",
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_negative_sizes_exit_2(capsys):
    for argv in (
        ("triangle", "--family", "s2lambda", "--n-max", "-1", "--lambda", "1/2"),
        ("bernoulli", "--n-max", "-2", "--m", "1", "--x", "0"),
        ("dump-series", "--kind", "stirling2", "--k", "2", "--order", "-1"),
        ("dump-series", "--kind", "whitney-r", "--k", "1", "--m", "2",
         "--r", "1", "--order", "-1", "--lambda", "1/2"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and "nonnegative" in err


# one cheap call of every command that takes --output
OUTPUT_COMMANDS = [
    ["triangle", "--family", "s2lambda", "--n-max", "3", "--lambda", "1/2"],
    ["eval", "--poly", "bell", "--n", "3", "--x", "1/2", "--lambda", "1/2"],
    ["dobinski", "--n", "3", "--x", "1/2", "--lambda", "1/2"],
    ["bernoulli", "--n-max", "3", "--m", "1", "--x", "1/2"],
    ["verify", "--theorem", "T9", "--n-max", "3"],
    ["dump-series", "--kind", "stirling2", "--k", "1", "--order", "3"],
]


@pytest.mark.parametrize("argv", OUTPUT_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("target", ["missing-dir/out.txt", "."], ids=["missing", "dir"])
def test_unwritable_output_exits_2(capsys, tmp_path, argv, target):
    # an --output path that cannot be opened is an input error, not a
    # failed check (verify's exit 1) and not a traceback
    code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path / target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_out_of_memory_exits_2_without_a_traceback(capsys, monkeypatch):
    # a command that runs out of memory (as eval --poly dowling --n 100000
    # does) prints one line, like any other refused input
    def out_of_memory(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_eval", out_of_memory)
    code, out, err = run_cli(capsys, *OUTPUT_COMMANDS[1])
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"
    assert "Traceback" not in err


def run_cli_process(*argv, timeout=60):
    """Run the CLI in a fresh interpreter against this checkout's sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True,
        timeout=timeout,
    )


CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (80 << 20, 80 << 20))
from lambda_stirling.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_symbolic_csv_is_written_row_by_row(tmp_path):
    # The cells of this triangle need about 48 MB of address space and its
    # CSV is 21 MB.  Written row by row it fits under the child's 80 MB
    # cap; holding the whole text at once (the cell strings, a buffer and
    # its copy) needed over 112 MB and ran out of memory.
    target = tmp_path / "table.csv"
    proc = run_cli_process(
        "-c", CAPPED_CLI, "triangle", "--family", "rstirling2", "--r", "2",
        "--n-max", "120", "--lambda", "symbolic", "--format", "csv",
        "--output", str(target), timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "f6b5f50df025ec05fa8848cc1298d7baa991f3978c9035302a924287a1282f73")


def test_symbolic_json_is_written_as_encoded(tmp_path):
    # The same triangle as JSON is 25 MB.  Written as the encoder makes it,
    # with each row's dict built only when it is written, it fits under the
    # child's 80 MB cap; the whole payload and its text at once peaked at
    # 148 MB and ran out of memory.
    target = tmp_path / "table.json"
    proc = run_cli_process(
        "-c", CAPPED_CLI, "triangle", "--family", "rstirling2", "--r", "2",
        "--n-max", "120", "--lambda", "symbolic", "--format", "json",
        "--output", str(target), timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "6ef23bcdec9d605cd8668aa4013559233c73d12c0e88dae4fb43e7c21c4f1446")


def test_cli_import_leaves_mpmath_unloaded():
    # the suite stub is registered, but the suite itself is not loaded
    proc = run_cli_process(
        "-c",
        "import sys, lambda_stirling.cli; "
        "suite = sys.modules['lambda_stirling.identities']; "
        "print('mpmath' in sys.modules, 'dataclasses' in sys.modules, "
        "'lambda_stirling._suite' in sys.modules, 'CHECKS' in suite.__dict__)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False False False\n"


RUN_COMMAND = """
import contextlib, io, sys
from lambda_stirling.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *(name in sys.modules for name in
              ("lambda_stirling._suite", "dataclasses", "mpmath")))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["triangle", "--family", "whitney-r", "--m", "2", "--r", "1",
         "--n-max", "4", "--lambda", "1/2"],
        ["eval", "--poly", "dowling", "--n", "5", "--x", "2", "--m", "2",
         "--lambda", "1/3"],
        ["bernoulli", "--n-max", "4", "--m", "2", "--x", "1/2"],
        ["dump-series", "--kind", "whitney", "--k", "2", "--m", "2",
         "--order", "5"],
        ["dobinski", "--n", "3", "--x", "1/2", "--m", "2", "--lambda", "1/2"],
    ],
    ids=lambda argv: argv[0],
)
def test_command_leaves_suite_unloaded(argv):
    # only verify needs the suite, and only dobinski needs mpmath
    proc = run_cli_process("-c", RUN_COMMAND, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"0 False False {argv[0] == 'dobinski'}\n"


def test_verify_help_lists_every_check_id(capsys):
    from lambda_stirling.identities import CHECKS

    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"known: {', '.join(CHECKS)}" in help_text


FIRST_LOOKUP_RACE = """
import sys, threading
import lambda_stirling

sys.setswitchinterval(1e-6)
suite = sys.modules["lambda_stirling.identities"]
assert "CHECKS" not in suite.__dict__
start = threading.Barrier(8)
seen, errors = [], []

def lookup(i):
    source = lambda_stirling if i % 2 else sys.modules["lambda_stirling.identities"]
    start.wait(timeout=30)
    try:
        checks = source.CHECKS
        assert callable(source.run_suite) and callable(source.SuiteConfig)
        seen.append(len(checks))
    except BaseException as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=lookup, args=(i,)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
print(sum(t.is_alive() for t in threads), sorted(seen), errors)
"""


def test_first_suite_lookup_is_thread_safe():
    proc = run_cli_process("-c", FIRST_LOOKUP_RACE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"0 {[17] * 8} []\n"


FAILING_BODY = """
import sys
from importlib.machinery import SourceFileLoader
import lambda_stirling

suite = sys.modules["lambda_stirling.identities"]
exec_module = SourceFileLoader.exec_module

def half_built(loader, module):
    if module.__name__ != "lambda_stirling._suite":
        return exec_module(loader, module)
    module.CHECKS = {}
    raise RuntimeError("body failed")

SourceFileLoader.exec_module = half_built
for attempt in range(2):
    try:
        lambda_stirling.CHECKS
    except RuntimeError as exc:
        print(exc, "CHECKS" in suite.__dict__, "lambda_stirling._suite" in sys.modules)
SourceFileLoader.exec_module = exec_module
print(len(suite.CHECKS), lambda_stirling.CHECKS is suite.CHECKS)
"""


def test_failed_suite_body_is_rerun_on_next_lookup():
    proc = run_cli_process("-c", FAILING_BODY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "body failed False False\nbody failed False False\n17 True\n"
    )


HUGE = 10**9


@pytest.mark.parametrize(
    "kind, extra",
    [
        ("stirling2", ["--lambda", "1/2"]),
        ("rstirling2", ["--r", "2", "--lambda", "symbolic"]),
        ("whitney-r", ["--m", "3", "--r", "1", "--lambda", "-2/3"]),
    ],
)
def test_dump_series_huge_k_is_zero_column(kind, extra):
    # column k vanishes below t^k; the walk through k earlier columns took
    # time linear in k
    proc = run_cli_process(
        "-m", "lambda_stirling", "dump-series", "--kind", kind,
        "--k", str(HUGE), "--order", "8", *extra, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    expected = {"kind": kind, "order": 8, "egf_coeffs": ["0"] * 9}
    assert proc.stdout == json.dumps(expected, indent=2) + "\n"


def test_dump_series_huge_bernoulli_order():
    proc = run_cli_process(
        "-m", "lambda_stirling", "dump-series", "--kind", "bernoulli-base",
        "--m", str(HUGE), "--order", "8", timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    coeffs = [Fraction(c) for c in json.loads(proc.stdout)["egf_coeffs"]]
    m = HUGE
    # closed forms of B_n^(m) as polynomials in the order m
    assert coeffs[:5] == [
        1,
        Fraction(-m, 2),
        Fraction(m * (3 * m - 1), 12),
        Fraction(-m * m * (m - 1), 8),
        Fraction(m * (15 * m**3 - 30 * m**2 + 5 * m + 2), 240),
    ]
