"""The benchmark's tracer still finds every library name it patches."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    # the pinned smoke sweep, untraced and traced: a renamed or removed
    # function that perfbench/spans.py patches fails here first
    out = subprocess.run([sys.executable, "perfbench/run.py", "--selftest"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    assert "selftest passed" in out.stdout
