"""The scripts shipped beside the package run against this checkout: each
demo, and the benchmark tracer's wrapping of the library's seams."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden_texts import assert_golden, committed, sha256

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
    assert_golden(proc.stdout, f"demo_{demo.stem}.txt", DEMO_STDOUT[demo.stem])


@pytest.mark.parametrize("stem, digest", DEMO_STDOUT.items())
def test_demo_texts_hash_to_their_pins(stem, digest):
    # each demo's stdout is committed as tests/golden/demo_<stem>.txt
    assert sha256(committed(f"demo_{stem}.txt")) == digest


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


TRACED_GF_RUN = INSTALL_TRACER + """
import dataclasses, json
from lambda_stirling import identities

providers = tracer.providers()
depths = {}
for field in dataclasses.fields(providers):
    fn, depth = getattr(providers, field.name), 0
    while hasattr(fn, "__wrapped__"):
        fn, depth = fn.__wrapped__, depth + 1
    depths[field.name] = depth
cfg = identities.SuiteConfig(n_max=3, theorems=("GF_T1", "GF_T8", "GF_T12"),
                             providers=providers)
status = identities.run_suite(cfg).exit_status
print(json.dumps({"depths": depths, "status": status, "calls": tracer.calls}))
"""


@pytest.fixture(scope="module")
def traced_gf_run():
    """Depth of each traced provider and the seam calls of a traced GF_T1 +
    GF_T8 + GF_T12 run at n_max = 3, read in a process that only imports
    the tracer."""
    proc = run_python("-c", TRACED_GF_RUN, extra_path=[ROOT / "perfbench"])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_the_tracer_wraps_each_provider_once(traced_gf_run):
    # the Providers defaults are the functions the facades re-export, so the
    # tracer's provider wrapper is the one it put on the facade attribute
    assert traced_gf_run["depths"] == dict.fromkeys(
        ("stirling2", "rstirling2", "stirling1", "unsigned_rstirling1",
         "whitney", "whitney_r", "bernoulli"), 1)


def test_the_tracer_counts_the_gf_checks_column_calls(traced_gf_run):
    # the suite reads whitney_series as a facade attribute, so the column
    # seam sees every column: (4 lambda modes x 4 r) + (3 lambdas x 3 m)
    # + (3 lambdas x 3 m x 4 r) columns of 4 k each, and GF_T1's
    # 4 x 4 x 16 triangle reads
    assert traced_gf_run["status"] == 0
    assert traced_gf_run["calls"]["series.column"] == 244
    assert traced_gf_run["calls"]["stirling.lookup"] == 256
