"""The benchmark trajectory kept at the repository root, each record of
every ``BENCH_<workload>.json`` that ``tools/trajectory.py`` appended, and
the tool's schedule of runs and its comparison of two entries."""

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
    assert [path.name for path in paths] == sorted(
        f"BENCH_{workload['name']}.json" for workload in SPEC["workloads"])
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


def test_round_k_runs_each_entry_in_turn_at_each_seed_plus_k():
    assert list(trajectory.schedule(2, ["w"], [1, 5], 2)) == [
        (0, 0, "w", 1), (0, 0, "w", 5), (0, 1, "w", 1), (0, 1, "w", 5),
        (1, 1, "w", 2), (1, 1, "w", 6), (1, 0, "w", 2), (1, 0, "w", 6)]
    # A directory is recorded by its absolute path, with no PR.
    assert trajectory.identify(ROOT, str(ROOT / "tools" / "..")) == (str(ROOT), None)


def test_verdicts_and_quartile_distance():
    assert trajectory.quartile_distance([5.0]) == 0.0
    assert trajectory.quartile_distance([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0
    # (wins, pairs, better, spread, limit): the first verdict that holds.
    assert trajectory.verdict(9, 10, 0.5, 0.4, 1.0) == "gain"
    assert trajectory.verdict(8, 10, 0.5, 0.4, 1.0) == "flat"  # too few wins
    assert trajectory.verdict(10, 10, 0.4, 0.4, 1.0) == "flat"  # not past the spread
    assert trajectory.verdict(10, 10, -1.5, 2.0, 1.0) == "worse"
    assert trajectory.verdict(5, 10, -0.5, 1.5, 1.0) == "unresolved"


def test_two_entries_compare_by_pairs_of_runs():
    # parent, then change values of each metric over ten pairs of runs.
    columns = {
        "setup_s": ([1.0] * 3 + [2.0] * 4 + [3.0] * 3,) * 2,  # quartiles 1.25 and 2.75
        "runs_per_s": ([100.0 + k for k in range(10)], [110.0 + k for k in range(10)]),
        "run_s_p50": ([10.0] * 10, [13.0] * 10),
        "run_s_p90": ([10.0] * 10, [10.0] * 10),
        "peak_rss_mb": ([30.0] * 10, [29.0] * 8 + [30.0] * 2),  # a tie is not a win
        "ok_frac": ([1.0] * 10, [1.0] * 10),
    }
    pairs = [tuple({name: values[side][k] for name, values in columns.items()} for side in (0, 1))
             for k in range(10)]
    header, *lines = trajectory.table(SPEC["end_to_end"], pairs)
    assert header.split() == ["metric", "parent", "p50", "parent", "IQR", "change", "p50",
                              "ratio", "wins,", "ties,", "verdict"]
    assert [line.split()[:5] for line in lines] == [
        ["setup_s", "2", "1.5", "2", "1.000"], ["runs_per_s", "104.5", "4.5", "114.5", "1.096"],
        ["run_s_p50", "10", "0", "13", "1.300"], ["run_s_p90", "10", "0", "10", "1.000"],
        ["peak_rss_mb", "30", "0", "29", "0.967"], ["ok_frac", "1", "0", "1", "1.000"]]
    assert [line.split(None, 5)[5] for line in lines] == [
        "0 of 10, 10 tied (lower is better) unresolved",
        "10 of 10, 0 tied (higher is better) gain",
        "0 of 10, 0 tied (lower is better) worse",
        "0 of 10, 10 tied (lower is better) flat",
        "8 of 10, 2 tied (lower is better) flat",
        "0 of 10, 10 tied (higher is better) flat"]
