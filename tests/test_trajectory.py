"""The benchmark trajectory kept at the repository root: each record of
every ``BENCH_<workload>.json`` that ``tools/trajectory.py`` appended."""

import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = [metric["name"] for metric in SPEC["end_to_end"]]
FIELDS = ["commit", "pr", "harness", "workload", "seed", "seconds", "python", "cpus", "metrics",
          "correct"]
_spec = importlib.util.spec_from_file_location("trajectory", ROOT / "tools" / "trajectory.py")
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)


def test_every_checked_in_record_is_whole_and_correct():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert "BENCH_certify-exhaustive.json" in [path.name for path in paths]
    for path in paths:
        records = json.loads(path.read_text(encoding="utf-8"))
        assert records, path.name
        for record in records:
            assert list(record) == FIELDS and record["correct"] is True
            assert path.name == f"BENCH_{record['workload']}.json"
            assert all(re.fullmatch("[0-9a-f]{40}", record[k]) for k in ("commit", "harness"))
            assert record["pr"] is None or isinstance(record["pr"], int)
            assert list(record["metrics"]) == METRICS
            assert all(isinstance(v, float) and v >= 0.0 for v in record["metrics"].values())


def test_rounds_rotate_the_commits_and_subjects_name_their_pr():
    commits = ["a", "b", "c"]
    assert [trajectory.rotated(commits, k) for k in range(4)] == [
        ["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"], ["a", "b", "c"]]
    assert trajectory.pr_number("re-anchor @ PR 45: ROADMAP") == 45
    assert trajectory.pr_number("certify-exhaustive: one table") is None
