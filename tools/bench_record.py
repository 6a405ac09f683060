"""Record one end-to-end benchmark run of every workload as ``BENCH_<n>.json``.

    python3 tools/bench_record.py --number N

Run from anywhere inside the repository.  For each workload that
``BENCHMARK.json`` lists, ``perfbench/run.py --trace 0`` runs once in this
checkout, for BENCHMARK.json's ``run_seconds`` at pins.json's
``default_seed``.  The record holds:

* ``sources``: the git object id of each of ``src``, ``perfbench`` and
  ``BENCHMARK.json`` as the run saw them (tracked files, working-tree
  contents).  A commit ran the same code when ``git rev-parse <commit>:src``
  (and so on) gives the same ids.  ``git_sha`` is HEAD when its sources are
  these, else null: a run on uncommitted changes names no commit;
* the machine provenance ``perfbench/run.py`` prints (CPU count, Python,
  numpy, platform, thread settings), the seed and the run length;
* per workload: the end-to-end medians with their units, ``correct``,
  ``attempted`` and ``failed``, and ``pinned_sha256``, the output digest
  ``perfbench/pins.json`` fixes for the workload, which every call of a
  correct run matched (null when the run was not correct).

The file goes to ``BENCH_<n>.json`` at the repository root.  Nothing under
``perfbench/`` is touched.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROVENANCE = "# provenance "
SOURCES = ("src", "perfbench", "BENCHMARK.json")


def git(*args: str, env=None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True, env=env).stdout.strip()


def source_ids() -> dict:
    """Git object id of each of SOURCES in the working tree: the tracked
    files' current contents, written through a scratch index read from the
    index's tree.  Its entries carry no stat data, so every tracked source
    is hashed afresh: a copy of the index would keep the stat cache, which
    can vouch for an edit it never read (git's racy-clean case)."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("read-tree", git("write-tree"), env=env)
        git("add", "--update", "--", *SOURCES, env=env)
        tree = git("write-tree", env=env)
    return {p: git("rev-parse", f"{tree}:{p}") for p in SOURCES}


@contextmanager
def _one_cpu():
    """This process, and what it starts, pinned to its lowest usable CPU."""
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(usable)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, usable)


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float,
                  trace: int = 0) -> tuple[dict, dict]:
    """(provenance, JSON result) of one ``perfbench/run.py`` run in
    ``checkout``.  A run that prints no result line reads as an incorrect
    one whose ``error`` is the last line of its stderr.  A traced run is
    pinned to one CPU: homoflow then maps its sweep cells and check samples
    in one process, whose spans the tracer sees, where forked workers' spans
    would be lost."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    with _one_cpu() if trace else nullcontext():
        proc = subprocess.run(cmd, cwd=checkout, text=True, capture_output=True)
    lines = proc.stdout.strip().splitlines()
    prov = next((json.loads(line[len(PROVENANCE):]) for line in lines
                 if line.startswith(PROVENANCE)), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "error": tail[0]}
    return prov, result


def record(number: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text(encoding="utf-8"))
    seed, seconds = pins["default_seed"], spec["run_seconds"]
    sources = source_ids()
    head = git("rev-parse", "HEAD")
    at_head = all(git("rev-parse", f"HEAD:{p}") == oid for p, oid in sources.items())
    out = {"bench": number, "git_sha": head if at_head else None,
           "sources": sources, "seed": seed, "seconds": seconds,
           "provenance": {}, "workloads": {}}
    for wl in spec["workloads"]:
        name = wl["name"]
        prov, result = run_perfbench(ROOT, name, seed, seconds)
        out["provenance"] = out["provenance"] or prov
        out["workloads"][name] = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "medians": {m: v["value"] for m, v in result["metrics"].items()},
            "units": {m: v["unit"] for m, v in result["metrics"].items()},
            "pinned_sha256": (pins["workloads"][name]["sha256"]
                              if result["correct"] else None),
        }
        if "error" in result:
            out["workloads"][name]["error"] = result["error"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, required=True,
                        help="the n of BENCH_<n>.json")
    args = parser.parse_args(argv)
    rec = record(args.number)
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    bad = [n for n, w in rec["workloads"].items() if not w["correct"]]
    print(f"wrote {path}" + (f"; not correct: {', '.join(bad)}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
