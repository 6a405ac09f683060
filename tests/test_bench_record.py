"""tools/bench_record.py writes one record per benchmark run of every workload,
through the perfbench runner it shares with tools/ab_pairs.py."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import ab_pairs  # noqa: E402
import bench_record  # noqa: E402

PROV = {"cpu_count": 2, "python": "3.11.7", "numpy": "2.4.6"}
_REAL_RUN = subprocess.run


def _fake_run(calls, cwds=None):
    """A subprocess.run that passes git through and answers perfbench/run.py
    without running anything, noting each command (and its working
    directory in ``cwds``); check-dynamic's run fails and sweep-example31's
    crashes.  A traced run adds two work counters, of which flow.point_steps
    reads 390 in a directory named ``base`` and 400 elsewhere."""
    def run(cmd, **kwargs):
        if cmd[0] == "git":
            return _REAL_RUN(cmd, **kwargs)
        calls.append(list(cmd))
        if cwds is not None:
            cwds.append(kwargs["cwd"])
        workload = cmd[cmd.index("--workload") + 1]
        if workload == "sweep-example31":
            return subprocess.CompletedProcess(cmd, 1, "", "Traceback\nKeyError: 'x'\n")
        correct = workload != "check-dynamic"
        result = {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
                  "metrics": {"wall_s": {"value": 4.5, "unit": "s"},
                              "peak_rss_mb": {"value": 41.0, "unit": "MB"}}}
        if cmd[cmd.index("--trace") + 1] == "1":
            steps = 390.0 if Path(kwargs["cwd"]).name == "base" else 400.0
            result["metrics"] = {"fields.b_eval.calls": {"value": 7.0, "unit": "count"},
                                 "fields.b_eval.busy_s": {"value": 0.5, "unit": "s"},
                                 "flow.point_steps": {"value": steps, "unit": "count"}}
        out = "\n".join([f"# workload {workload} seed 0 trace 0",
                         "# provenance " + json.dumps(PROV),
                         "wall_s 4.5 s", json.dumps(result)]) + "\n"
        return subprocess.CompletedProcess(cmd, 0 if correct else 1, out, "")
    return run


def _git(repo, *args):
    return _REAL_RUN(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                      *args], cwd=repo, check=True, text=True,
                     capture_output=True).stdout.strip()


def _scratch_repo(path):
    """A committed repository with this one's benchmark spec and pins."""
    for name in ("BENCHMARK.json", "perfbench/pins.json"):
        (path / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(ROOT / name, path / name)
    (path / "src").mkdir()
    (path / "src" / "mod.py").write_text("x = 1\n")
    _git(path, "init", "-q")
    _git(path, "add", "-A")
    _git(path, "commit", "-q", "-m", "base")
    return path


def test_record_with_stubbed_runs(monkeypatch, tmp_path):
    repo = _scratch_repo(tmp_path)
    calls, cwds = [], []
    monkeypatch.setattr(bench_record, "ROOT", repo)
    monkeypatch.setattr(bench_record.subprocess, "run", _fake_run(calls, cwds))
    rec = bench_record.record(3)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert list(rec["workloads"]) == names
    assert rec["bench"] == 3 and rec["provenance"] == PROV
    assert rec["seed"] == pins["default_seed"] and rec["seconds"] == spec["run_seconds"]
    # a clean tree names its commit, and its sources are that commit's
    assert rec["git_sha"] == _git(repo, "rev-parse", "HEAD")
    assert rec["sources"] == {p: _git(repo, "rev-parse", f"HEAD:{p}")
                              for p in bench_record.SOURCES}
    # one untraced run per workload in the checkout, at the benchmark's seed
    # and length
    assert [c[c.index("--workload") + 1] for c in calls] == names
    assert cwds == [repo] * len(names)
    assert all(c[1] == "perfbench/run.py" and c[c.index("--trace") + 1] == "0"
               and c[c.index("--seed") + 1] == str(pins["default_seed"])
               and float(c[c.index("--seconds") + 1]) == spec["run_seconds"]
               for c in calls)
    good = rec["workloads"]["sweep-deltagamma"]
    assert good == {"correct": True, "attempted": 3, "failed": 0,
                    "medians": {"wall_s": 4.5, "peak_rss_mb": 41.0},
                    "units": {"wall_s": "s", "peak_rss_mb": "MB"},
                    "pinned_sha256": pins["workloads"]["sweep-deltagamma"]["sha256"]}
    # a failed run carries no digest; a crashed one names its error
    assert rec["workloads"]["check-dynamic"]["pinned_sha256"] is None
    assert rec["workloads"]["check-dynamic"]["failed"] == 1
    crashed = rec["workloads"]["sweep-example31"]
    assert not crashed["correct"] and crashed["medians"] == {}
    assert crashed["error"] == "KeyError: 'x'"


def test_uncommitted_sources_name_no_commit(monkeypatch, tmp_path):
    repo = _scratch_repo(tmp_path)
    monkeypatch.setattr(bench_record, "ROOT", repo)
    monkeypatch.setattr(bench_record.subprocess, "run", _fake_run([]))
    (repo / "src" / "mod.py").write_text("x = 2\n")
    (repo / "src" / "untracked.py").write_text("y = 3\n")
    (repo / "notes.txt").write_text("outside the sources\n")
    rec = bench_record.record(4)
    assert rec["git_sha"] is None
    # the ids are those of the commit that holds the edit; untracked files
    # and files outside the sources do not count
    _git(repo, "commit", "-q", "-a", "-m", "edit")
    assert rec["sources"] == {p: _git(repo, "rev-parse", f"HEAD:{p}")
                              for p in bench_record.SOURCES}
    assert bench_record.record(5)["git_sha"] == _git(repo, "rev-parse", "HEAD")


def test_sources_are_hashed_afresh(monkeypatch, tmp_path):
    # an index entry that vouches for src/mod.py unread (here by
    # --assume-unchanged, as a racy-clean stat cache can) must not hide an edit
    repo = _scratch_repo(tmp_path)
    monkeypatch.setattr(bench_record, "ROOT", repo)
    monkeypatch.setattr(bench_record.subprocess, "run", _fake_run([]))
    _git(repo, "update-index", "--assume-unchanged", "src/mod.py")
    (repo / "src" / "mod.py").write_text("x = 2\n")
    rec = bench_record.record(6)
    assert rec["git_sha"] is None
    assert _git(repo, "rev-parse", f"{rec['sources']['src']}:mod.py") == \
        _git(repo, "hash-object", "src/mod.py")


def test_ab_pairs_runs_perfbench_through_the_same_helper(monkeypatch, tmp_path):
    assert ab_pairs.run_perfbench is bench_record.run_perfbench
    assert ab_pairs.git is bench_record.git
    calls, cwds = [], []
    monkeypatch.setattr(bench_record.subprocess, "run", _fake_run(calls, cwds))
    prov, result = bench_record.run_perfbench(tmp_path, "check-dynamic", 7, 1.5, trace=1)
    assert cwds == [tmp_path] and prov == PROV and result["failed"] == 1
    cmd = calls[0]
    assert [cmd[cmd.index(f) + 1] for f in ("--seed", "--seconds", "--trace")] == \
        ["7", "1.5", "1"]
    # a run that prints no result line is incorrect and names its error
    prov, result = bench_record.run_perfbench(tmp_path, "sweep-example31", 7, 1.5)
    assert prov == {} and result == {"correct": False, "attempted": 0, "failed": 0,
                                     "metrics": {}, "error": "KeyError: 'x'"}


def test_ab_pairs_reads_the_work_counters_in_one_line_each(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_record.subprocess, "run", _fake_run([]))
    dirs = {"base": tmp_path / "base", "change": tmp_path / "change"}

    def pairs(trace):
        return [{side: bench_record.run_perfbench(d, "sweep-deltagamma", 0, 1.0, trace)[1]
                 for side, d in dirs.items()} for _ in range(3)]

    lines = ab_pairs.summarize(pairs(1), ab_pairs.metric_specs(1))
    counters = [line for line in lines if line.startswith("counter ")]
    # only metrics whose unit in BENCHMARK.json is a count, in metric order
    assert counters == ["counter fields.b_eval.calls: equal",
                        "counter flow.point_steps: base median 390, change median 400"]
    # after the table, before the runs' correctness
    assert lines[lines.index(counters[-1]) + 1].startswith("base: 3/3 runs correct")
    untraced = ab_pairs.summarize(pairs(0), ab_pairs.metric_specs(0))
    assert not [line for line in untraced if line.startswith("counter ")]


def test_traced_runs_are_pinned_to_one_cpu(monkeypatch, tmp_path):
    # homoflow forks a sweep's cells and a check's samples onto every usable
    # CPU, and a worker's spans are lost: traced runs of both sides see one
    # CPU, so their work counters cover the whole work
    usable = os.sched_getaffinity(0)
    seen = []
    fake = _fake_run([])

    def run(cmd, **kwargs):
        seen.append(os.sched_getaffinity(0))
        if kwargs["cwd"] == tmp_path / "crash":
            raise KeyboardInterrupt
        return fake(cmd, **kwargs)

    monkeypatch.setattr(bench_record.subprocess, "run", run)
    for trace in (1, 0):
        bench_record.run_perfbench(tmp_path, "sweep-deltagamma", 0, 1.0, trace)
    assert seen == [{min(usable)}, usable]
    with pytest.raises(KeyboardInterrupt):
        bench_record.run_perfbench(tmp_path / "crash", "sweep-deltagamma", 0, 1.0, 1)
    assert os.sched_getaffinity(0) == usable
    # and the tool says that perfbench's cpu_s leaves the workers out
    doc = " ".join(ab_pairs.__doc__.split())
    assert "pinned to one CPU" in doc
    assert "``cpu_s`` is ``time.process_time`` of the benchmark process alone" in doc
