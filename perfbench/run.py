"""lambda-stirling benchmark: run one workload for a fixed time and print
its metrics, with every output checked.

    python3 perfbench/run.py --workload tabulate --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one report
    python3 perfbench/run.py --check             # untimed correctness check

Run it from the root of a checkout.  Each repetition of a workload is a
fresh interpreter (``worker.py``), because the library has no public cache
reset and every real run starts cold.  The number of repetitions depends on
the workload and ``--seconds`` only, never on how fast the code runs, so two
commits are compared on best-ofs over equally many samples.  With
``--trace 0`` the last line is a JSON object with the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` the run alternates untraced
and traced repetitions and that line holds the per-layer metrics.  The
lines before it are a readable report with every metric, the known defects
and the run metadata.  NOTES.md says what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import child_env, now  # noqa: E402

SETUP_PROBES = 2  # extra set-ups after each repetition, spread over the run
PROBE_CALLS = 5  # bare spawns and imports timed by a traced run
MIN_REPS = 3  # a best-of needs several repetitions
# Seconds one repetition and its set-up probes took at the commit that
# defined the benchmark, on a 2-core x86-64 host.  A run of --seconds S
# makes S / cost repetitions, whatever the speed of the code it measures.
REP_COST_S = {"suite": 5.0, "tabulate": 4.5, "series": 4.0, "cli": 4.0}
# A run whose next repetition would end after OVERRUN x --seconds stops
# early (after at least MIN_REPS), so that a far slower commit or host cannot
# stretch a run without limit.  The report states the repetitions made.
OVERRUN = 1.5
WORKER_TIMEOUT = 150

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "error_rate": "ratio", "peak_rss_mb": "MB",
}
# the metrics BENCHMARK.json bounds: every workload reports each of them
# and none of them is ever 0 (op_p90_ms and error_rate are report-only)
GATED = ("setup_s", "wall_s", "op_p50_ms", "peak_rss_mb")
LAYER_UNITS = {
    "poly.mul_calls": "count", "poly.mul_s": "s",
    "stirling.lookups": "count", "stirling.lookup_s": "s",
    "stirling.new_rows": "count", "stirling.hit_ratio": "ratio",
    "stirling.oracle_s": "s",
    "whitney.lookups": "count", "whitney.lookup_s": "s",
    "whitney.new_rows": "count", "whitney.rowsum_s": "s",
    "whitney.dobinski_calls": "count", "whitney.dobinski_s": "s",
    "whitney.dobinski_terms": "count",
    "series.mul_calls": "count", "series.mul_s": "s",
    "series.coeff_products": "count", "series.pow_s": "s", "series.exp_s": "s",
    "series.inverse_s": "s", "series.column_s": "s",
    "bernoulli.calls": "count", "bernoulli.s": "s", "bernoulli.base_series_s": "s",
    **{f"identities.{c}_s": "s" for c in workloads.CHECK_IDS},
    "identities.self_s": "s", "identities.instances": "count",
    "cli.spawn_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, a worker crashed)."""


def spawn_worker(job: dict) -> dict:
    job = dict(job, t_spawn=now())
    done = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(job)], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=WORKER_TIMEOUT,
    )
    if done.returncode != 0:
        raise BenchmarkError(f"worker failed ({done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout)


def run_python(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout


def metadata() -> dict:
    """Facts that explain disagreement between two sets of runs.  The
    calibration loop time never rescales a metric."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    start = time.perf_counter()
    for _ in range(10):
        total = Fraction(0)
        for k in range(1, 2001):
            total += Fraction(1, k)
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s": time.perf_counter() - start,
    }


def repetitions(workload: str, seconds: float, trace: bool) -> int:
    """Untraced repetitions in a run.  A traced run pairs each untraced
    repetition with a traced one, and makes half as many pairs."""
    reps = round(seconds / REP_COST_S[workload])
    return max(MIN_REPS, reps // 2 if trace else reps)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repetitions, each followed by set-up probes."""
    base = {"workload": workload, "seed": seed}
    trace_path = HERE / "traces" / f"{workload}.jsonl"
    if trace:
        trace_path.parent.mkdir(exist_ok=True)
    trace_path = str(trace_path)
    planned = repetitions(workload, seconds, trace)
    started, took = now(), 0.0
    setups, plain, traced = [], [], []
    while len(plain) < planned:
        begin = now()
        if len(plain) >= MIN_REPS and begin - started + took > OVERRUN * seconds:
            break
        rep = spawn_worker(dict(base, mode="rep", trace=False, trace_path=trace_path))
        plain.append(rep)
        setups.append(rep["setup_s"])
        setups.extend(spawn_worker(dict(base, mode="setup"))["setup_s"]
                      for _ in range(SETUP_PROBES))
        if trace:
            traced.append(spawn_worker(dict(base, mode="rep", trace=True,
                                            trace_path=trace_path)))
        took = now() - begin
    return dict(summarize(workload, setups, plain, traced), planned_reps=planned)


def best_latencies(reps) -> list:
    """Each request's best latency over the run's cold repetitions, which
    all make the same requests in the same order.  Load from other tenants
    of a shared host only ever adds time, so the best estimates the
    program's own cost; NOTES.md gives the measurements behind this."""
    return [min(column) for column in zip(*(rep["latencies_ms"] for rep in reps))]


def summarize(workload, setups, plain, traced) -> dict:
    latencies = best_latencies(plain)
    pooled = [ms for rep in plain for ms in rep["latencies_ms"]]
    attempted = sum(rep["attempted"] for rep in plain + traced)
    failures = [tuple(f) for rep in plain + traced for f in rep["failures"]]
    unexpected = [f for f in failures if not workloads.is_known(*f)]
    mismatched = [i for i, rep in enumerate(traced)
                  if rep["digests"] != plain[0]["digests"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(latencies) / 1000,
        "op_p50_ms": statistics.median(latencies),
        "error_rate": len(failures) / attempted,
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
    }
    ops_per_rep = plain[0]["attempted"]
    if len(pooled) >= 100:  # at least ten samples beyond the 90th percentile
        metrics["op_p90_ms"] = statistics.quantiles(pooled, n=10)[8]
    summary = {
        "workload": workload, "reps": len(plain), "traced_reps": len(traced),
        "ops_per_rep": ops_per_rep, "setup_samples": len(setups),
        "latency_samples": len(pooled), "metrics": metrics,
        "attempted": attempted, "failures": sorted(set(failures)),
        "failed": len(unexpected) + len(mismatched),
        "known_defect_failures": len(failures) - len(unexpected),
        "trace_mismatch": mismatched,
    }
    if traced:
        summary["layers"] = layer_metrics(plain, traced)
    return summary


def layer_metrics(plain, traced) -> dict:
    """Medians over the traced repetitions, plus the probes of the CLI's
    fixed costs, which every workload's set-up pays as well."""
    names = sorted({name for rep in traced for name in rep["layers"]})
    layers = {name: statistics.median(rep["layers"].get(name, 0) for rep in traced)
              for name in names}
    out = {name: layers.get(name, 0) for name in LAYER_UNITS}
    lookups = layers.get("stirling.lookups", 0)
    out["stirling.hit_ratio"] = layers.get("stirling.hits", 0) / lookups if lookups else 0.0
    spawn, imports = [], []
    for _ in range(PROBE_CALLS):
        begin = now()
        run_python("pass")
        spawn.append(1000 * (now() - begin))
        imports.append(1000 * float(run_python(
            "import time; t = time.perf_counter(); import lambda_stirling.cli; "
            "print(time.perf_counter() - t)")))
    out["cli.spawn_ms"] = statistics.median(spawn)
    out["cli.import_ms"] = statistics.median(imports)
    out["trace.overhead_s"] = (sum(best_latencies(traced))
                               - sum(best_latencies(plain))) / 1000
    return out


def print_failures(failures) -> None:
    for key, reason in failures:
        print(f"  {'known defect' if workloads.is_known(key, reason) else 'FAILED'}: "
              f"{key}: {reason}")


def report(summary: dict) -> None:
    m = summary["metrics"]
    print(f"workload {summary['workload']}: {summary['reps']} cold repetitions "
          f"({summary['planned_reps']} planned) of {summary['ops_per_rep']} requests "
          "(closed loop, one client)")
    notes = {
        "setup_s": f"median of {summary['setup_samples']} set-ups",
        "wall_s": f"sum over requests of the best of {summary['reps']}",
        "op_p50_ms": f"of {summary['ops_per_rep']} best-of-{summary['reps']} latencies",
        "op_p90_ms": f"of all {summary['latency_samples']} latencies",
        "error_rate": (f"{len(summary['failures'])} distinct failing requests, "
                       f"{summary['known_defect_failures']} known-defect failures"),
        "peak_rss_mb": "median over repetitions",
    }
    for name, unit in END_TO_END_UNITS.items():
        if name in m:
            print(f"  {name:<14} {m[name]:>14.6g} {unit:<6} {notes[name]}")
    print_failures(summary["failures"])
    if summary["trace_mismatch"]:
        print("  FAILED: traced outputs differ from untraced outputs")
    for name, value in summary.get("layers", {}).items():
        print(f"  {name:<28} {value:>14.6g} {LAYER_UNITS[name]}")


def result_line(summaries, trace: bool) -> dict:
    metrics = {}
    for summary in summaries:
        prefix = "" if len(summaries) == 1 else summary["workload"] + "."
        if trace:
            chosen = {n: (v, LAYER_UNITS[n]) for n, v in summary["layers"].items()}
        else:
            chosen = {n: (summary["metrics"][n], END_TO_END_UNITS[n]) for n in GATED}
        for name, (value, unit) in chosen.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(s["failed"] for s in summaries)
    return {"correct": failed == 0, "attempted": sum(s["attempted"] for s in summaries),
            "failed": failed, "metrics": metrics}


def check(names) -> int:
    """One untimed repetition per workload; prints every failing request."""
    status = 0
    for name in names:
        rep = spawn_worker({"workload": name, "seed": 0, "mode": "rep", "trace": False,
                            "trace_path": None})
        unexpected = [f for f in rep["failures"] if not workloads.is_known(*f)]
        print(f"{name}: {rep['attempted']} requests, {len(unexpected)} failed, "
              f"{len(rep['failures']) - len(unexpected)} known-defect failures")
        print_failures(rep["failures"])
        status |= bool(unexpected)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="run each workload once, untimed, and check its outputs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lambda_stirling" / "__init__.py").is_file():
        print(f"error: no lambda_stirling sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    # compile the library's bytecode once, so no timed set-up pays for it
    run_python("import lambda_stirling.cli")
    if args.check:
        return check(names)
    meta = metadata()
    summaries = []
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(summary)
        summaries.append(summary)
    print("meta " + json.dumps(dict(meta, seed=args.seed, seconds=args.seconds,
                                    trace=args.trace)))
    print(json.dumps(result_line(summaries, bool(args.trace))))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchmarkError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
