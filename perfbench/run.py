"""homoflow benchmark: end-to-end and per-layer metrics of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The library is imported from ``src/``.  Each
run makes as many of the workload's entry-point calls as fit in ``--seconds``
(at least two) on one numeric thread, checks every output, and prints one
line per metric followed by a JSON result as the last line of stdout:

* ``--trace 0``: setup_s (median of several fresh processes, from process
  start to the entry-point call), wall_s and cpu_s (medians over the calls)
  and peak_rss_mb;
* ``--trace 1``: the per-layer metrics of BENCHMARK.json from spans recorded
  around the library's layer boundaries (see spans.py), plus the tracing
  overhead against untraced calls in the same run.

Provenance and per-call samples are written with the result to
``.perfbench_out/`` (and the raw spans, in traced runs).
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in children
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
MIN_CALLS = 2
# set-up probes per run, half before the calls and half after, so that the
# median spans the run's window of machine load
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60.0
READY = "perfbench-ready"


def _import_library():
    """Import homoflow from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import homoflow
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import homoflow from {src}: {exc}")
    if Path(homoflow.__file__).resolve().parent != src / "homoflow":
        raise SystemExit(f"perfbench: homoflow imported from {homoflow.__file__},"
                         f" not from {src}")
    return homoflow


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import numpy as np
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int, probes: int) -> list[float]:
    """Seconds from launching a fresh interpreter until it is ready to make
    the entry-point call (library import, config parse, family build)."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != READY or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return times


class Run:
    """The calls of one benchmark run and their checks."""

    def __init__(self, workload: str, seed: int):
        import workloads
        self.wl = workloads.WORKLOADS[workload]
        self.check_output = workloads.check_output
        self.seed = seed
        self.samples: list[dict] = []
        self.previous: str | None = None

    def call(self, tracer=None) -> dict:
        """One prepared entry-point call; traced when ``tracer`` is given."""
        sample = {"traced": tracer is not None, "problems": []}
        run_id = len(self.samples)
        begin = time.perf_counter()
        try:
            if tracer is None:
                prepared = self.wl.prepare(self.seed)
                c0, t0 = time.process_time(), time.perf_counter()
                text = self.wl.call(prepared)
                t1, c1 = time.perf_counter(), time.process_time()
            else:
                with tracer.installed(run_id):
                    prepared = self.wl.prepare(self.seed)
                    c0, t0 = time.process_time(), time.perf_counter()
                    text = self.wl.call(prepared)
                    t1, c1 = time.perf_counter(), time.process_time()
        except Exception:  # a failed call is counted, and the run goes on
            sample["problems"].append(traceback.format_exc())
        else:
            sample.update(wall_s=t1 - t0, cpu_s=c1 - c0, run_id=run_id)
            sample["problems"] = self.check_output(self.wl.name, self.seed, text,
                                                   self.previous)
            self.previous = text
        sample["elapsed_s"] = time.perf_counter() - begin
        self.samples.append(sample)
        return sample

    def another_fits(self, start: float, seconds: float) -> bool:
        """True while fewer than MIN_CALLS were made, then while one more call
        of the median length so far would end within ``seconds`` of start."""
        if len(self.samples) < MIN_CALLS:
            return True
        typical = statistics.median(s["elapsed_s"] for s in self.samples)
        return time.perf_counter() - start + typical <= seconds

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s["problems"])


def run_untraced(run: Run, seconds: float) -> dict[str, float]:
    setup = measure_setup(run.wl.name, run.seed, SETUP_PROBES // 2)
    start = time.perf_counter()
    while run.another_fits(start, seconds):
        run.call()
    setup += measure_setup(run.wl.name, run.seed, SETUP_PROBES - SETUP_PROBES // 2)
    ok = [s for s in run.samples if "wall_s" in s]
    if not ok:
        return {}
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(s["wall_s"] for s in ok),
        "cpu_s": statistics.median(s["cpu_s"] for s in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(run: Run, seconds: float) -> tuple[dict[str, float], object]:
    """One untraced and two traced calls, then alternating while time lasts."""
    import spans
    tracer = spans.Tracer()
    start = time.perf_counter()
    for traced in (False, True, True):
        run.call(tracer if traced else None)
    while run.another_fits(start, seconds):
        run.call(None if run.samples[-1]["traced"] else tracer)
    per_call = [spans.layer_metrics(tracer, s["run_id"], s["wall_s"])
                for s in run.samples if s["traced"] and "run_id" in s]
    plain = [s["wall_s"] for s in run.samples if not s["traced"] and "wall_s" in s]
    traced_wall = [s["wall_s"] for s in run.samples if s["traced"] and "wall_s" in s]
    if not per_call or not plain:
        return {}, tracer
    metrics = {name: statistics.median(c[name] for c in per_call)
               for name in per_call[0]}
    for name in per_call[0]:
        if spans.is_counter(name) and len({c[name] for c in per_call}) > 1:
            run.samples[-1]["problems"].append(
                f"work counter {name} changed between traced calls:"
                f" {[c[name] for c in per_call]}")
    base = statistics.median(plain)
    metrics["trace.overhead_share"] = (statistics.median(traced_wall) - base) / base
    return metrics, tracer


def _write_record(args, record: dict, tracer) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "run_id", "work"), s))) + "\n")


def benchmark(args) -> int:
    spec = _load_spec()
    listed = spec["per_layer" if args.trace else "end_to_end"]
    run = Run(args.workload, args.seed)
    tracer = None
    if args.trace:
        values, tracer = run_traced(run, args.seconds)
    else:
        values = run_untraced(run, args.seconds)
    attempted, failed = len(run.samples), run.failed
    if values and set(values) != {m["name"] for m in listed}:
        raise SystemExit("perfbench: computed metrics do not match BENCHMARK.json:"
                         f" {sorted(set(values) ^ {m['name'] for m in listed})}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed if values}
    for s in run.samples:
        for p in s["problems"]:
            print(f"perfbench: failed call: {p}", file=sys.stderr)
    prov = provenance()
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    print(f"# calls {attempted} failed {failed} failed_share {failed / attempted:.4g}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    _write_record(args, {"provenance": prov, "samples": run.samples,
                         "result": result}, tracer)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def setup_probe(args) -> int:
    import workloads
    workloads.WORKLOADS[args.workload].prepare(args.seed)
    print(READY, flush=True)
    return 0


def selftest() -> int:
    """The smoke workload untraced and traced, in child processes."""
    codes = []
    for trace in ("0", "1"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", "smoke",
               "--seed", "0", "--seconds", "0", "--trace", trace]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=300)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        codes.append(out.returncode)
    ok = codes == [0, 0]
    print(f"selftest {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--selftest", action="store_true",
                        help="run the smoke workload untraced and traced")
    args = parser.parse_args(argv)
    _import_library()
    if args.selftest:
        return selftest()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.setup_probe:
        return setup_probe(args)
    return benchmark(args)


if __name__ == "__main__":
    raise SystemExit(main())
