"""The CI workflow runs the documented tier-1 command and the benchmark
selftest, and nothing else after installing the package."""

import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]


def test_workflow_runs_the_documented_commands():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    tier1 = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap, re.M).group(1)
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text(encoding="utf-8"))
    (job,) = workflow["jobs"].values()
    install, *runs = [step["run"] for step in job["steps"] if "run" in step]
    assert install.startswith("python -m pip install ") and '".[test]"' in install
    assert runs == [tier1, "python3 perfbench/run.py --selftest"]
