"""tools/ab_pairs.py cleans up after itself when it is stopped."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _processes_under(path: Path) -> list[int]:
    """Pids whose working directory or command line lies under ``path``."""
    found = []
    for proc in Path("/proc").iterdir():
        if not proc.name.isdigit() or int(proc.name) == os.getpid():
            continue
        try:
            cwd = os.readlink(proc / "cwd")
            cmdline = (proc / "cmdline").read_bytes().decode(errors="replace")
        except OSError:
            continue
        if cwd.startswith(str(path)) or str(path) in cmdline:
            found.append(int(proc.name))
    return found


def _wait_for(cond, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(0.05)
    return cond()


@pytest.mark.skipif(not Path("/proc/self/cwd").exists(), reason="needs Linux /proc")
def test_sigterm_removes_the_export_and_stops_the_benchmark(tmp_path):
    head = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                          capture_output=True)
    if head.returncode != 0:
        pytest.skip("needs a git checkout with a HEAD commit")
    env = dict(os.environ, TMPDIR=str(tmp_path))
    tool = subprocess.Popen(
        [sys.executable, "tools/ab_pairs.py", "--base", "HEAD", "--workload", "smoke",
         "--pairs", "1"], cwd=ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        # the export exists and the base run of the first pair has started in it
        assert _wait_for(lambda: (any(tmp_path.glob("ab_pairs-*/base/perfbench/run.py"))
                                  and _processes_under(tmp_path)), 60.0)
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=10) == 128 + signal.SIGTERM
    finally:
        if tool.poll() is None:
            tool.kill()
            tool.wait()
    assert not list(tmp_path.glob("ab_pairs-*"))
    assert _wait_for(lambda: not _processes_under(tmp_path), 10.0), \
        _processes_under(tmp_path)
