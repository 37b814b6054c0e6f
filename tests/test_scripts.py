"""The scripts shipped beside the package run against this checkout: each
demo, and the benchmark tracer's wrapping of the library's seams."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout; the demos are deterministic
DEMO_STDOUT = {
    "01_triangles": "70abb58c9927168736343403310fe77d9e6cfb7273dbe76f551498e21a02fd2f",
    "02_generating_functions":
        "ef1e74ec33f977fa45dee034dd924dbaf78ed189845cc231c4127d722635fa0f",
    "03_numeric_evaluation":
        "1029cca4fa3dbc8b256fcfff4793bcf1afa1889ca825d09fed2dce4d61bbc246",
    "04_verification_suite":
        "88ba0ad8bf96d3586ff7fbab902669e59d41ef6201c0147fa8653fff002d71bc",
}


def run_python(*argv, extra_path=()):
    """Run Python in a fresh interpreter with this checkout's sources first
    on the path."""
    paths = [str(ROOT / "src"), *map(str, extra_path)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == DEMO_STDOUT[demo.stem]


INSTALL_TRACER = """
from tracer import Tracer

tracer = Tracer()
tracer.install()
tracer.providers()
"""


def test_tracer_installs():
    # the tracer looks up each seam it wraps by name: a seam renamed or
    # deleted in the library fails here
    proc = run_python("-c", INSTALL_TRACER, extra_path=[ROOT / "perfbench"])
    assert proc.returncode == 0, proc.stderr
