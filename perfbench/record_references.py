"""Record the reference digests that every workload's output is checked
against, into perfbench/references.json.

    python3 perfbench/record_references.py

Run it only on the commit whose outputs define "correct" (the commit that
added the benchmark), never to make a failing run pass.  It computes every
request that any seed can produce, in-process.  A CLI request's reference is
the output of its ``--lambda=VALUE`` spelling (see
``workloads.reference_argv``), and the recorder refuses a reference whose
command exits nonzero.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> None:
    from lambda_stirling import cli, run_suite

    digests = {}
    text = run_suite().to_json_lines()
    if workloads.sha256(text) != workloads.SUITE_SHA256:
        sys.exit("run_suite() output differs from the recorded suite sha256")
    for spec, line in zip(workloads.candidates("suite"), text.splitlines()):
        digests[workloads.op_key(spec)] = workloads.sha256(line)
    for workload in ("tabulate", "series"):
        for spec in workloads.candidates(workload):
            value = workloads.run(spec)
            digests[workloads.op_key(spec)] = workloads.digest(spec, value)
    for spec in workloads.candidates("cli"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(workloads.reference_argv(spec["argv"]))
        if code != 0:
            sys.exit(f"reference command exits {code}: {spec['argv']}")
        digests[workloads.op_key(spec)] = workloads.sha256(out.getvalue())
    path = Path(__file__).with_name("references.json")
    path.write_text(json.dumps(
        {"digests": digests},
        indent=0, sort_keys=True) + "\n")
    print(f"{len(digests)} references written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
