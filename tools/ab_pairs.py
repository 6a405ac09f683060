"""Paired A/B runs of the benchmark: a base revision against the working tree.

    python3 tools/ab_pairs.py --base REV --workload NAME [--workload NAME ...]
        [--pairs 10] [--seed 0] [--seconds 30] [--trace 0]

Run from anywhere inside the repository.  The base revision's committed
files are exported with ``git archive`` into a temporary directory (under
``$TMPDIR``, removed at the end, also when the tool is stopped with SIGTERM
or Ctrl-C; nothing is registered in ``.git``).  Each pair runs
``perfbench/run.py`` once in that export and once in the working tree, and
the side that goes first alternates from pair to pair, so slow drift of the
machine's speed hits both sides alike.  ``--workload`` may be
repeated; each workload gets its own pairs and its own summary.

For every metric the runner reports, the summary gives both sides' median
and quartiles, the base/change ratio of the medians, the number of pairs
the change won (strictly better in the direction BENCHMARK.json declares),
and two verdicts:

* no regression, for metrics with a ``bound`` in BENCHMARK.json (the
  end-to-end ones): "ok" when the change's median is worse than the base's
  by at most the bound (relative to the base median), "worse" when by more,
  and "unresolved (spread wider than bound)" when either side's
  interquartile range, relative to the base median, exceeds the bound, in
  which case the medians cannot show a change that small; every run of the
  change reading better than every run of the base is "ok" whatever the
  spread;
* the gain rule: the change wins at least 9 of 10 pairs (90% of them) and
  beats the base median by more than the base's interquartile range.

With ``--trace 1`` a line per work counter (a metric whose BENCHMARK.json
unit is ``count``) follows the table: ``equal`` when base and change read
the same in every pair, else both medians.  Traced runs of both sides are
pinned to one CPU, so that each counter covers the whole work: homoflow
maps a sweep's cells and a check's samples over forked workers on every
usable CPU, and the spans recorded in a worker are lost.

perfbench's ``cpu_s`` is ``time.process_time`` of the benchmark process
alone: it leaves out the CPU time of those workers, so it falls when a
side forks more, and is not the whole CPU cost of a call.

Only the runner's JSON result line is read; nothing under ``perfbench/`` is
touched.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_record import ROOT, git, run_perfbench


def export(sha: str, dest: Path) -> None:
    """The committed files of ``sha``, written into the new directory ``dest``."""
    dest.mkdir()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def metric_specs(trace: int) -> dict[str, dict]:
    """BENCHMARK.json's entry (``better``, and ``bound`` if any) per metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def no_regression(base: list[float], change: list[float], sign: float,
                  bound: float | None) -> str:
    """The no-regression verdict of one metric; ``sign`` is -1 where lower
    is better, +1 where higher is."""
    if bound is None:
        return "-"
    if min(sign * c for c in change) > max(sign * b for b in base):
        return "ok"
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    if max(bq3 - bq1, cq3 - cq1) > bound * abs(bmed):
        return "unresolved (spread wider than bound)"
    return "worse" if sign * (bmed - cmed) > bound * abs(bmed) else "ok"


def summarize(pairs: list[dict], specs: dict[str, dict]) -> list[str]:
    """Report lines: one per metric, one per work counter, then the per-run
    correctness."""
    names = sorted({n for p in pairs for side in ("base", "change")
                    for n in p[side]["metrics"]})
    n_pairs = len(pairs)
    need = math.ceil(0.9 * n_pairs)
    out = [f"{'metric':<42} {'base median (q1-q3)':>30} {'change median (q1-q3)':>30}"
           f" {'ratio':>7} {'wins':>6}  {'no regression':<37} gain rule"]
    counters = []
    for name in names:
        both = [(p["base"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                for p in pairs
                if name in p["base"]["metrics"] and name in p["change"]["metrics"]]
        if not both:
            continue
        base = [b for b, _ in both]
        change = [c for _, c in both]
        spec = specs.get(name, {})
        sign = -1.0 if spec.get("better", "lower") == "lower" else 1.0
        wins = sum(1 for b, c in both if sign * (c - b) > 0.0)
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        gap = sign * (cmed - bmed)
        holds = len(both) == n_pairs and wins >= need and gap > bq3 - bq1
        ratio = bmed / cmed if cmed else float("nan")
        base_col = f"{bmed:.6g} ({bq1:.4g}-{bq3:.4g})"
        change_col = f"{cmed:.6g} ({cq1:.4g}-{cq3:.4g})"
        verdict = no_regression(base, change, sign, spec.get("bound"))
        out.append(f"{name:<42} {base_col:>30} {change_col:>30} {ratio:>7.3f}"
                   f" {wins:>3}/{len(both):<2}  {verdict:<37} {'holds' if holds else 'no'}"
                   f" (gap {gap:.4g} vs base IQR {bq3 - bq1:.4g})")
        if spec.get("unit") == "count":
            equal = len(both) == n_pairs and all(b == c for b, c in both)
            counters.append(f"counter {name}: " + ("equal" if equal else
                            f"base median {bmed:.10g}, change median {cmed:.10g}"))
    out += counters
    for side in ("base", "change"):
        bad = [i for i, p in enumerate(pairs) if not p[side].get("correct")]
        failed = sum(p[side].get("failed", 0) for p in pairs)
        attempted = sum(p[side].get("attempted", 0) for p in pairs)
        out.append(f"{side}: {n_pairs - len(bad)}/{n_pairs} runs correct,"
                   f" {failed}/{attempted} calls failed"
                   + (f", incorrect runs in pairs {bad}" if bad else ""))
    if n_pairs < 10:
        out.append(f"note: {n_pairs} pairs; the gain rule is stated for 10")
    return out


def _terminate(signum, frame):
    # SystemExit unwinds like KeyboardInterrupt: subprocess.run kills the
    # running benchmark child and TemporaryDirectory removes the export
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="base revision (e.g. HEAD~1)")
    parser.add_argument("--workload", required=True, action="append",
                        help="repeat to run several workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    specs = metric_specs(args.trace)
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        base_dir = Path(tmp) / "base"
        export(sha, base_dir)
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {}
                for side in order:
                    _, pair[side] = run_perfbench(base_dir if side == "base" else ROOT,
                                                  workload, args.seed, args.seconds,
                                                  args.trace)
                    wall = pair[side]["metrics"].get("wall_s", {}).get("value")
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}:"
                          f" correct={pair[side]['correct']}"
                          + (f" wall_s={wall:.4g}" if wall is not None else ""),
                          file=sys.stderr, flush=True)
                pairs.append(pair)
            print(f"# {workload} seed {args.seed} seconds {args.seconds} trace {args.trace}:"
                  f" base {sha[:12]} vs working tree, {args.pairs} alternating pairs")
            for line in summarize(pairs, specs):
                print(line)
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
