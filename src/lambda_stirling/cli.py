"""Command-line interface.

Thin argparse wrapper over the library: every number the commands print is
produced by the package modules, never computed here.  All rational inputs
accept ``p/q`` strings, negative ones too (``--lambda -2/3``, ``--x -1e-1``);
``--lambda`` additionally accepts the word ``symbolic`` to keep the
deformation parameter as a polynomial variable.
Domain errors (zero lambda, unsupported parameter ranges, unknown check ids)
and an ``--output`` path that cannot be written exit with status 2; the
``verify`` command exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import islice, starmap

from .bernoulli import bernoulli_base_series, bernoulli_higher
from .poly import LambdaScalar, SYMBOLIC, _check_index, csv_element, format_element
from .stirling import (
    rstirling1_lambda,
    rstirling2_lambda,
    second_kind_series,
    stirling1_lambda,
    stirling2_lambda,
    unsigned_rstirling1_lambda,
)
from .whitney import (
    DOBINSKI_DIGITS,
    DOBINSKI_TOL,
    bell_poly_lambda,
    dobinski_eval,
    dowling_poly,
    dowling_series,
    whitney,
    whitney_r,
    whitney_series,
)

TRIANGLE_FAMILIES = {
    # name -> (value function, its parameters between k and lambda, in order)
    "s2lambda": (stirling2_lambda, ()),
    "rstirling2": (rstirling2_lambda, ("r",)),
    "s1lambda": (stirling1_lambda, ()),
    "rstirling1": (rstirling1_lambda, ("r",)),
    "rstirling1-unsigned": (unsigned_rstirling1_lambda, ("r",)),
    "whitney": (whitney, ("m",)),
    "whitney-r": (whitney_r, ("m", "r")),
}

EVAL_POLYS = {
    # name -> (value function, its parameters between x and lambda)
    "dowling": (dowling_poly, ("m",)),
    "bell": (bell_poly_lambda, ()),
}

DUMP_KINDS = {
    # kind -> (series function, options it takes besides --order, fixed arguments)
    "stirling2": (second_kind_series, ("k", "lam"), {"r": 0}),
    "rstirling2": (second_kind_series, ("k", "r", "lam"), {}),
    "whitney": (whitney_series, ("k", "m", "lam"), {"r": 1}),
    "whitney-r": (whitney_series, ("k", "m", "r", "lam"), {}),
    "bernoulli-base": (bernoulli_base_series, ("m",), {}),
    "dowling": (dowling_series, ("m", "x", "lam"), {}),
}
# the value of an option that eval or dump-series takes and is not given
OPTION_DEFAULTS = {"k": 0, "r": 0, "m": 1, "x": "1", "lam": "symbolic"}
# every JSON payload is written as json.dumps(payload, indent=2) writes it
_JSON = json.JSONEncoder(indent=2)
# Fraction expands a decimal exponent in full: one past the interpreter's default int/str
# digit limit is refused, whatever limit the process has set (main lifts it for the call)
_MAX_EXPONENT = getattr(sys.int_info, "default_max_str_digits", 0)


def _parse_rational(option: str, text: str) -> Fraction:
    try:
        exponent = int(text.lower().partition("e")[2] or 0)  # no int: no rational
        if not _MAX_EXPONENT or abs(exponent) <= _MAX_EXPONENT:
            return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{option}: zero denominator in {text!r}") from None
    except ValueError:
        raise ValueError(f"{option}: not a rational number: {text!r}") from None
    raise ValueError(f"{option}: decimal exponent beyond {_MAX_EXPONENT} in {text!r}")


def _parse_lambda(text: str) -> LambdaScalar:
    if text.strip().lower() == "symbolic":
        return SYMBOLIC
    return LambdaScalar(_parse_rational("--lambda", text))


def _open_output(output: str | None):
    return nullcontext(sys.stdout) if output is None else open(output, "w", encoding="utf-8")


def _emit(chunks, output: str | None, end: str = "\n") -> None:
    """Write the strings ``chunks`` as they come, joined 8,192 at a time
    (``_JSON.iterencode`` yields many small ones), then ``end``."""
    chunks = iter(chunks)
    with _open_output(output) as handle:
        while piece := "".join(islice(chunks, 8192)):
            handle.write(piece)
        handle.write(end)


class _JsonRows(list):
    """A JSON array of ``row(*item)`` for each item, each built only as the
    encoder reaches it (the indenting encoder, pure Python, walks a list
    subclass with ``iter``)."""

    def __init__(self, items, row):
        super().__init__(items)
        self.row = row

    def __iter__(self):
        return starmap(self.row, super().__iter__())


def _emit_csv(header: list, rows, output: str | None) -> None:
    """Write the header, then each row as ``rows`` yields it; the callers
    compute every value first, so an error exits before any write."""
    with _open_output(output) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _add_lambda_argument(parser: argparse.ArgumentParser, required: bool = True):
    parser.add_argument(
        "--lambda",
        dest="lam",
        required=required,
        default=None,
        help="deformation parameter: a rational like 1/2, or 'symbolic'",
    )


def _add_output_argument(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write to PATH instead of stdout",
    )


def _take_options(args, owner: str, takes, options) -> dict:
    """The options ``takes`` names, each at its given value or else at its
    ``OPTION_DEFAULTS`` value.  Exit 2 on the first other of ``options``
    given on the command line; every such option defaults to ``None``."""
    for name in options:
        if getattr(args, name) is not None and name not in takes:
            flag = "lambda" if name == "lam" else name
            raise ValueError(f"{owner} does not take --{flag}")
    return {name: OPTION_DEFAULTS[name] if getattr(args, name) is None
            else getattr(args, name) for name in takes}


def _cmd_triangle(args) -> int:
    value_fn, params = TRIANGLE_FAMILIES[args.family]
    extra = _take_options(args, f"family {args.family!r}", params, ("r", "m"))
    for name in ("r", "m"):
        if getattr(args, name) is None and name in params:
            raise ValueError(f"family {args.family!r} needs --{name}")
    _check_index(args.n_max, "--n-max", 0)
    lam = _parse_lambda(args.lam)
    cells = [
        (n, k, value_fn(n, k, *extra.values(), lam))
        for n in range(args.n_max + 1)
        for k in range(n + 1)
    ]
    if args.format == "csv":
        _emit_csv(["n", "k", "value"], ((n, k, csv_element(v)) for n, k, v in cells), args.output)
    else:
        payload = {
            "family": args.family,
            "n_max": args.n_max,
            "lambda": str(lam),
            "rows": _JsonRows(cells, lambda n, k, value: {
                "n": n, "k": k, "value": format_element(value)}),
        }
        payload.update(
            (name, getattr(args, name)) for name in ("r", "m") if name in params
        )
        _emit(_JSON.iterencode(payload), args.output)
    return 0


def _cmd_eval(args) -> int:
    value_fn, takes = EVAL_POLYS[args.poly]
    extra = _take_options(args, f"poly {args.poly!r}", takes, ("m",))
    lam = _parse_lambda(args.lam)
    x = _parse_rational("--x", args.x)
    value = value_fn(args.n, x, **extra, lam=lam)
    if args.format == "json":
        payload = {
            "poly": args.poly,
            "n": args.n,
            "x": str(x),
            "lambda": str(lam),
            "value": format_element(value),
            **extra,
        }
        _emit(_JSON.iterencode(payload), args.output)
    else:
        _emit([csv_element(value)], args.output)
    return 0


def _cmd_dobinski(args) -> int:
    if args.digits < 1:
        raise ValueError("--digits must be positive")
    if args.digits > DOBINSKI_DIGITS:  # the sum is carried to at least this many
        raise ValueError(f"--digits must be at most {DOBINSKI_DIGITS}")
    import mpmath  # deferred: the other commands never load it

    lam = _parse_lambda(args.lam)
    x = _parse_rational("--x", args.x)
    result = dobinski_eval(args.n, x, args.m, lam, args.tol)
    payload = {
        "n": result.n,
        "x": str(result.x),
        "m": result.m,
        "lambda": str(result.lam),
        "exact": format_element(result.exact),
        "numeric": mpmath.nstr(result.numeric, args.digits),
        "tail_bound": result.tail_bound,
        "truncation_terms": result.truncation_terms,
    }
    _emit(_JSON.iterencode(payload), args.output)
    return 0


def _cmd_bernoulli(args) -> int:
    _check_index(args.n_max, "--n-max", 0)
    x = _parse_rational("--x", args.x)
    rows = [(n, bernoulli_higher(n, args.m, x)) for n in range(args.n_max + 1)]
    if args.format == "csv":
        _emit_csv(["n", "value"], ((n, csv_element(v)) for n, v in rows), args.output)
    else:
        payload = {
            "order": args.m,
            "x": str(x),
            "n_max": args.n_max,
            "rows": _JsonRows(rows, lambda n, v: {"n": n, "value": format_element(v)}),
        }
        _emit(_JSON.iterencode(payload), args.output)
    return 0


def _cmd_verify(args) -> int:
    from .identities import SuiteConfig, run_suite  # deferred: no other command needs it

    overrides = {}
    if args.theorem:
        overrides["theorems"] = tuple(args.theorem)
    if args.n_max is not None:
        overrides["n_max"] = args.n_max
    if args.bernoulli_n_max is not None:
        overrides["bernoulli_n_max"] = args.bernoulli_n_max
    config = SuiteConfig(**overrides)  # unknown ids exit 2 before any check runs
    result = run_suite(config)
    _emit([result.to_json_lines()], args.output, end="")  # its lines end in newlines
    return result.exit_status


def _cmd_dump_series(args) -> int:
    series_fn, takes, fixed = DUMP_KINDS[args.kind]
    values = _take_options(args, f"kind {args.kind!r}", takes, OPTION_DEFAULTS)
    if "lam" in values:
        values["lam"] = _parse_lambda(values["lam"])
    if "x" in values:
        values["x"] = _parse_rational("--x", values["x"])
    series = series_fn(**values, **fixed, order=args.order)
    payload = {"kind": args.kind, **series.to_json()}
    _emit(_JSON.iterencode(payload), args.output)
    return 0


class _KnownChecks:
    """The check ids, read from the suite only when help text is printed."""

    def __str__(self) -> str:
        from .identities import CHECKS

        return ", ".join(CHECKS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambda-stirling",
        description=(
            "Exact tables, polynomial evaluations, generating-function "
            "coefficients and identity verification for the deformed "
            "(lambda-analogue) Stirling and Whitney number families."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_triangle = sub.add_parser(
        "triangle", help="tabulate a number-triangle family as CSV or JSON"
    )
    p_triangle.add_argument(
        "--family", required=True, choices=sorted(TRIANGLE_FAMILIES)
    )
    p_triangle.add_argument("--n-max", type=int, required=True)
    p_triangle.add_argument("--r", type=int, default=None, help="shift parameter")
    p_triangle.add_argument("--m", type=int, default=None, help="block-size parameter")
    _add_lambda_argument(p_triangle)
    p_triangle.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_output_argument(p_triangle)
    p_triangle.set_defaults(fn=_cmd_triangle)

    p_eval = sub.add_parser(
        "eval", help="evaluate a Dowling or deformed Bell polynomial exactly"
    )
    p_eval.add_argument("--poly", required=True, choices=tuple(EVAL_POLYS))
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--x", required=True, help="evaluation point, rational")
    p_eval.add_argument("--m", type=int, default=None)
    _add_lambda_argument(p_eval)
    p_eval.add_argument("--format", choices=("text", "json"), default="text")
    _add_output_argument(p_eval)
    p_eval.set_defaults(fn=_cmd_eval)

    p_dob = sub.add_parser(
        "dobinski",
        help="evaluate a Dowling polynomial through its convergent series, "
        "with exact reference and tail bound",
    )
    p_dob.add_argument("--n", type=int, required=True)
    p_dob.add_argument("--x", required=True)
    p_dob.add_argument("--m", type=int, default=1)
    _add_lambda_argument(p_dob)
    p_dob.add_argument("--tol", type=float, default=DOBINSKI_TOL)
    p_dob.add_argument(
        "--digits", type=int, default=20, help="significant digits printed"
    )
    _add_output_argument(p_dob)
    p_dob.set_defaults(fn=_cmd_dobinski)

    p_bern = sub.add_parser(
        "bernoulli", help="tabulate higher-order Bernoulli polynomial values"
    )
    p_bern.add_argument("--n-max", type=int, required=True)
    p_bern.add_argument("--m", type=int, required=True, help="order of the family")
    p_bern.add_argument("--x", required=True, help="argument, rational")
    p_bern.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_output_argument(p_bern)
    p_bern.set_defaults(fn=_cmd_bernoulli)

    p_verify = sub.add_parser(
        "verify",
        help="run the identity-verification suite; JSON-lines report, "
        "exit 0 iff every check passes",
    )
    theorem = p_verify.add_argument(
        "--theorem",
        action="append",
        default=None,
        metavar="ID",
        help="restrict to a check id (repeatable); known: %(known)s",
    )
    theorem.known = _KnownChecks()
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--bernoulli-n-max", type=int, default=None)
    _add_output_argument(p_verify)
    p_verify.set_defaults(fn=_cmd_verify)

    p_dump = sub.add_parser(
        "dump-series",
        help="dump truncated exponential-generating-function coefficients",
    )
    p_dump.add_argument("--kind", required=True, choices=tuple(DUMP_KINDS))
    p_dump.add_argument("--order", type=int, required=True)
    p_dump.add_argument("--k", type=int, default=None, help="column index")
    p_dump.add_argument("--r", type=int, default=None)
    p_dump.add_argument("--m", type=int, default=None)
    p_dump.add_argument("--x", default=None, help="Dowling evaluation point")
    _add_lambda_argument(p_dump, required=False)
    _add_output_argument(p_dump)
    p_dump.set_defaults(fn=_cmd_dump_series)

    return parser


def _attach_negative_fractions(argv: list) -> list:
    """argparse takes a dash token like ``-2/3`` or ``-1e-1`` for an option,
    so a dash token after an option that takes a value (every ``--option``
    but ``--help`` and its abbreviations, and no bare ``--``) is rewritten
    as ``--option=-2/3``, and the option's own reader reports a value it
    refuses.  A token that is itself an option string (``-h`` or ``--...``)
    is left alone."""
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and not "--help".startswith(out[-1])
                and token.startswith("-") and token != "-h" and not token.startswith("--")):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_attach_negative_fractions(argv))
    # an exact value may have more digits than the interpreter's limit on
    # int/str conversion (4,300 from Python 3.10.7 on): lifted for the call
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError) as exc:  # UnsupportedDomainError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # its message is empty
        print("error: out of memory", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
