"""Run tier-1 and the default suite under each interpreter given.

    python3 tests/tools/interpreters.py [--site DIR] PYTHON...

For each interpreter, one at a time, this runs tier-1
(``python -m pytest -q --continue-on-collection-errors``) from the
repository root and prints the sha256 of the default ``run_suite()``'s
JSON lines, beside the pin that ``tests/golden/suite.jsonl`` hashes to.
This checkout's ``src/`` is put first on ``PYTHONPATH``, then the
``--site`` directory, for an interpreter with no packages of its own: a
``site-packages`` holding pytest, hypothesis and mpmath.  Bytecode is not
written, so that directory is only read.

An interpreter whose pytest cannot start (``python -m pytest --version``
fails, for instance for a missing dependency of pytest itself) is reported
as "could not start", and its tier-1 is not run.  The exit status is 0 only
when every interpreter passed tier-1 and matched the pin.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SUITE_HASH = ("import hashlib; from lambda_stirling import run_suite; "
              "print(hashlib.sha256(run_suite().to_json_lines().encode()).hexdigest())")


def run(python: str, args: list, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([python, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=1800)


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def check(python: str, site: list, pin: str) -> tuple:
    """(ok, one report line) for one interpreter."""
    paths = [str(ROOT / "src"), *site]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), PYTHONDONTWRITEBYTECODE="1")
    try:
        version = run(python, ["-c", "import platform; print(platform.python_version())"], env)
    except OSError as exc:
        return False, f"{python}: could not start: {exc}"
    if version.returncode:
        return False, f"{python}: could not start: {last_line(version.stderr)}"
    name = f"{python} ({version.stdout.strip()})"
    pytest = run(python, ["-m", "pytest", "--version"], env)
    if pytest.returncode:
        return False, f"{name}: could not start: {last_line(pytest.stderr)}"
    tier1 = run(python, ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                         "--continue-on-collection-errors"], env)
    suite = run(python, ["-c", SUITE_HASH], env)
    digest = suite.stdout.strip() if suite.returncode == 0 else "none"
    verdict = "passed" if tier1.returncode == 0 else f"failed (exit {tier1.returncode})"
    same = "the pin" if digest == pin else "NOT the pin"
    return (tier1.returncode == 0 and digest == pin,
            f"{name}: tier-1 {verdict}: {last_line(tier1.stdout)}; suite sha256 {digest} ({same})")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--site", action="append", default=[],
                        help="a directory to put on PYTHONPATH after src/ (repeatable)")
    parser.add_argument("pythons", nargs="+", metavar="PYTHON")
    args = parser.parse_args(argv)
    pin = hashlib.sha256((ROOT / "tests" / "golden" / "suite.jsonl").read_bytes()).hexdigest()
    ok = True
    for python in args.pythons:
        passed, line = check(python, args.site, pin)
        ok &= passed
        print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
