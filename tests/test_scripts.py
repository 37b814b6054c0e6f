"""The scripts shipped beside the package run against this checkout: each
demo, and the benchmark tracer's wrapping of the library's seams."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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
    assert proc.stdout


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
