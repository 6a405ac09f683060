"""The benchmark's tracer still finds every library name it patches, and
every benchmark workload still sets up."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


def test_perfbench_selftest_passes():
    # the pinned smoke sweep, untraced and traced: a renamed or removed
    # function that perfbench/spans.py patches fails here first
    out = subprocess.run([sys.executable, "perfbench/run.py", "--selftest"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    assert "selftest passed" in out.stdout


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_perfbench_workload_sets_up(workload, seed):
    # each workload's prepare (config parse, family build) with the library
    # API it uses: a changed name, option or field fails here, not in a
    # benchmark run
    out = subprocess.run([sys.executable, "perfbench/run.py", "--setup-probe",
                          "--workload", workload, "--seed", str(seed)],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    assert out.stdout.strip() == "perfbench-ready"


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS)
def test_perfbench_workload_output_is_correct(workload):
    # the shortest benchmark run (two entry-point calls) checks each output's
    # sha256 and verdicts against perfbench/pins.json; check-dynamic's
    # carried-Jacobian integrations are pinned nowhere else
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", "0", "--seconds", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
