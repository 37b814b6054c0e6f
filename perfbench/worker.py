"""One cold repetition of a workload, in a fresh interpreter.

Started by run.py as ``python3 perfbench/worker.py JOB`` where JOB is a JSON
object; prints one JSON object on stdout and nothing else.  Modes:

* ``setup``: import lambda_stirling and build the requests, then stop;
* ``rep``: the same set-up, then every request of the workload in order,
  each waiting for the previous one (a closed loop with one client);
* ``cli-call``: one traced in-process ``cli.main(argv)``, used by a traced
  ``cli`` repetition in place of ``python -m lambda_stirling``.

The set-up time runs from the parent's spawn (``t_spawn``, on the
system-wide monotonic clock) to the moment the requests are ready.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (sits next to this file)
from tracer import Tracer  # noqa: E402


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any process it waited for
    (the CLI calls); Linux reports kilobytes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


class Rep:
    """Latencies, digests and failures of one repetition."""

    def __init__(self, references):
        self.references = references
        self.latencies_ms: list = []
        self.digests: list = []
        self.failures: list = []  # [op key, reason]

    def record(self, spec, elapsed, digest, failure=None):
        """``failure`` is None for a correct output, else why it failed."""
        self.latencies_ms.append(elapsed * 1000)
        self.digests.append(digest)
        if failure is not None:
            self.failures.append([workloads.op_key(spec), failure])

    def expected(self, spec):
        return self.references.get(workloads.op_key(spec))


def run_suite_rep(rep, ops, tracer):
    identities = sys.modules["lambda_stirling.identities"]
    if tracer is not None:
        tracer.install()
        config = identities.SuiteConfig(providers=tracer.providers())
    else:
        config = None  # run_suite() with the default SuiteConfig
    timings = {}

    def timed(check_id, check):
        def run(cfg):
            start = now()
            try:
                return check(cfg)
            finally:
                timings[check_id] = now() - start
        return run

    for check_id, check in list(identities.CHECKS.items()):
        identities.CHECKS[check_id] = timed(check_id, check)
    try:
        text = identities.run_suite(config).to_json_lines()
    except Exception:  # every check without a report line counts as failed
        text = ""
    lines = text.splitlines()
    for i, spec in enumerate(ops):
        digest = workloads.sha256(lines[i]) if i < len(lines) else "no report"
        failure = None if digest == rep.expected(spec) else "wrong output"
        rep.record(spec, timings.get(spec["id"], 0.0), digest, failure)
    whole = workloads.sha256(text)
    if whole != workloads.SUITE_SHA256 or len(lines) != len(ops) + 1:
        rep.failures.append(["suite:to_json_lines", "wrong output"])
    rep.digests.append(whole)


def run_inprocess_rep(rep, ops, tracer, workload):
    if tracer is not None:
        tracer.install()
    for spec in ops:
        start = now()
        try:
            if tracer is not None:
                value = tracer.run_op(f"op.{workload}", workloads.run, spec)
            else:
                value = workloads.run(spec)
        except Exception as exc:  # a failed request counts, the loop goes on
            failure = f"raised {type(exc).__name__}: {exc}"
            rep.record(spec, now() - start, failure, failure)
            continue
        elapsed = now() - start
        digest = workloads.digest(spec, value)
        failure = None if digest == rep.expected(spec) else "wrong output"
        if (failure is None and spec["kind"] == "dobinski"
                and workloads.dobinski_error(value) > workloads.TOL):
            failure = workloads.TOLERANCE_MISSED
        rep.record(spec, elapsed, digest, failure)


def run_cli_rep(rep, ops, traced, trace_path):
    """Each request is a fresh process.  Untraced: ``python -m
    lambda_stirling ARGV``.  Traced: this file in ``cli-call`` mode, which
    reports the layers of its in-process ``cli.main(argv)``."""
    env, layers, main_s, output_bytes = child_env(), {}, 0.0, 0
    if traced:
        Path(trace_path).write_text("")
    for spec in ops:
        if traced:
            job = json.dumps({"mode": "cli-call", "argv": spec["argv"],
                              "trace_path": trace_path})
            command = [sys.executable, __file__, job]
        else:
            command = [sys.executable, "-m", "lambda_stirling", *spec["argv"]]
        start = now()
        try:
            done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                                  timeout=60)
        except subprocess.TimeoutExpired:  # the call was killed; it counts as failed
            rep.record(spec, now() - start, "timed out", "timed out")
            continue
        elapsed = now() - start
        if traced:
            call = json.loads(done.stdout)
            exit_code, digest, size = call["exit"], call["stdout_sha256"], call["stdout_bytes"]
            main_s += call["main_s"]
            output_bytes += size
            for name, value in call["layers"].items():
                layers[name] = layers.get(name, 0) + value
        else:
            exit_code, size = done.returncode, len(done.stdout)
            digest = workloads.sha256(done.stdout)
        if exit_code == 2 and size == 0:
            failure = workloads.ARGV_REJECTED
        elif exit_code != 0:
            failure = f"exit {exit_code}"
        else:
            failure = None if digest == rep.expected(spec) else "wrong output"
        rep.record(spec, elapsed, digest, failure)
    if traced:
        layers["cli.main_ms"] = 1000 * main_s / len(ops)
        layers["cli.output_bytes"] = output_bytes
    return layers


def cli_call(job) -> dict:
    tracer = Tracer()
    tracer.install()
    from lambda_stirling import cli

    out = io.StringIO()
    start = now()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            exit_code = tracer.run_op("op.cli", cli.main, job["argv"])
        except SystemExit as exc:  # argparse rejects the arguments
            exit_code = exc.code
        except Exception:  # the interpreter would print it and exit 1
            exit_code = 1
    main_s = now() - start
    data = out.getvalue().encode()
    with open(job["trace_path"], "a", encoding="utf-8") as handle:
        tracer.dump_spans(handle)
    return {"exit": exit_code, "stdout_sha256": workloads.sha256(data),
            "stdout_bytes": len(data), "main_s": main_s, "layers": tracer.raw()}


def main(job) -> dict:
    if job["mode"] == "cli-call":
        return cli_call(job)
    import lambda_stirling  # noqa: F401  (the import is part of set-up)

    workload = job["workload"]
    ops = workloads.operations(workload, job["seed"])
    ready = now()
    result = {"setup_s": ready - job["t_spawn"]}
    if job["mode"] == "setup":
        return result
    with open(Path(__file__).with_name("references.json"), encoding="utf-8") as handle:
        rep = Rep(json.load(handle)["digests"])
    traced = job["trace"]
    tracer = Tracer() if traced and workload != "cli" else None
    layers = {}
    if workload == "suite":
        run_suite_rep(rep, ops, tracer)
    elif workload == "cli":
        layers = run_cli_rep(rep, ops, traced, job["trace_path"])
    else:
        run_inprocess_rep(rep, ops, tracer, workload)
    if tracer is not None:
        layers = tracer.raw()
        with open(job["trace_path"], "w", encoding="utf-8") as handle:
            tracer.dump_spans(handle)
    result.update(
        latencies_ms=rep.latencies_ms, digests=rep.digests,
        attempted=len(ops), failures=rep.failures, peak_rss_mb=peak_rss_mb(),
        layers=layers,
    )
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
