"""Run the benchmark on a series of commits or directories, keep one record
per run, and compare two of them.

Standard library only. Run from anywhere inside the repository:

    python tools/trajectory.py --workloads certify-exhaustive --seeds 1 --seconds 5
    python tools/trajectory.py --commits HEAD~1 . --workloads orbit-trace --rounds 10 \
        --seconds 22 --out /tmp/pairs

An entry of ``--commits`` is a revision, whose ``src/`` is taken with ``git
archive``, or a directory, whose ``src/`` is copied, so that a working tree
can be measured before it is committed. Each entry's ``src/`` goes into a
temporary directory next to the ``bench/`` and ``BENCHMARK.json`` of HEAD
(the harness), and the command ``BENCHMARK.json`` declares runs there with
``--trace 0`` for each workload and seed. So every entry, a directory
included, is measured by HEAD's harness, not by its own copy, and only the
program differs. By default the entries are every first-parent commit whose
subject starts ``re-anchor @ PR``, oldest first, then HEAD. Round k (from
0) runs the entries in their order rotated by k, so that a drift in the
machine's speed does not fall on the same entry every round, and runs each
``--seeds`` value s at seed s + k.

Each run appends one record to ``BENCH_<workload>.json`` in ``--out``
(the repository root by default), a JSON list: the commit (a directory's
absolute path), the PR number in its subject (null if it names none, and
for a directory), the harness commit, the seed, ``--seconds``, the Python
version, the CPU count, the end-to-end metrics of ``BENCHMARK.json`` and
``correct``. A run that exits non-zero keeps its record, with ``correct``
false, no metrics and its ``exit_code``. Nothing under ``bench/`` is
written.

With exactly two entries, the first is the parent and the second the
change, and after the runs the tool prints a table for each workload over
the pairs of runs of one round and seed: for each end-to-end metric the
parent's median and the distance between its quartiles, the change's
median, their ratio (change over parent), the pairs the change won, a win
being a better value in the direction the metric's ``better`` names, the
pairs tied, a tie being the same value on both sides, and a verdict
(``verdict``) against the metric's ``bound``. The tool exits 1 if any run
is not correct, once every record is appended.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ANCHOR = "re-anchor @ PR"


def git(*args: str, cwd: Path) -> bytes:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, check=True).stdout


def anchors(root: Path) -> list[str]:
    """The first-parent commits whose subject starts ``re-anchor @ PR``,
    oldest first, then HEAD."""
    log = git("log", "--first-parent", "--reverse", "--format=%H %s", cwd=root).decode()
    found = [line.split(" ", 1)[0] for line in log.splitlines()
             if line.split(" ", 1)[1].startswith(ANCHOR)]
    head = git("rev-parse", "HEAD", cwd=root).decode().strip()
    return [c for c in found if c != head] + [head]


def pr_number(subject: str) -> int | None:
    match = re.search(r"\bPR (\d+)", subject)
    return int(match.group(1)) if match else None


def rotated(entries: list, k: int) -> list:
    k %= len(entries)
    return entries[k:] + entries[:k]


def schedule(entries: int, workloads: list[str], seeds: list[int], rounds: int):
    """(round, entry index, workload, seed) of every run, in order."""
    for k in range(rounds):
        for i in rotated(list(range(entries)), k):
            for workload in workloads:
                for seed in seeds:
                    yield k, i, workload, seed + k


def identify(root: Path, entry: str) -> tuple[str, int | None]:
    """An entry's ``commit`` and ``pr``: a directory's absolute path and
    None, or a revision's commit and the PR number in its subject."""
    if Path(entry).is_dir():
        return str(Path(entry).resolve()), None
    commit = git("rev-parse", entry, cwd=root).decode().strip()
    return commit, pr_number(git("log", "-1", "--format=%s", commit, cwd=root).decode())


def extract(root: Path, commit: str, paths: list[str], into: Path) -> None:
    """``paths`` of ``commit``, by ``git archive``, written under ``into``."""
    data = git("archive", "--format=tar", commit, *paths, cwd=root)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)


def run(checkout: Path, command: list[str], workload: str, seed: int,
        seconds: int) -> tuple[int, dict | None]:
    """The exit code of one benchmark run, and the JSON object of its last
    line if it exited 0."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    done = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return done.returncode or 1, None
    return 0, json.loads(lines[-1])


def quartile_distance(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def verdict(wins: int, pairs: int, better: float, spread: float, limit: float) -> str:
    """One metric's verdict, the first that holds, from the pairs the change
    won of those run, how much better its median is than the parent's (less
    than zero where it is worse), the distance between the parent's
    quartiles and the metric's bound times the parent's median:

    - ``gain``: the change won at least nine tenths of the pairs, a tie
      counting for neither side, and its median is better by more than the
      parent's quartile distance;
    - ``worse``: its median is worse by more than the limit;
    - ``unresolved``: the parent's quartile distance is wider than the
      limit, so its runs spread too widely to tell;
    - ``flat``: otherwise.
    """
    if 10 * wins >= 9 * pairs and better > spread:
        return "gain"
    if -better > limit:
        return "worse"
    return "unresolved" if spread > limit else "flat"


def table(end_to_end: list[dict], pairs: list[tuple[dict, dict]]) -> list[str]:
    """The comparison's lines over (parent, change) pairs of metrics dicts,
    one line for each metric of ``end_to_end`` after the header."""
    lines = [f"{'metric':<12} {'parent p50':>12} {'parent IQR':>12} {'change p50':>12} "
             f"{'ratio':>7}  wins, ties, verdict"]
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        parent, change = [p[name] for p, _ in pairs], [c[name] for _, c in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        ties = sum(p == c for p, c in zip(parent, change))
        mid_p, mid_c = statistics.median(parent), statistics.median(change)
        ratio = mid_c / mid_p if mid_p else float("nan")
        spread = quartile_distance(parent)
        better = mid_c - mid_p if higher else mid_p - mid_c
        found = verdict(wins, len(parent), better, spread, metric["bound"] * mid_p)
        lines.append(f"{name:<12} {mid_p:>12.6g} {spread:>12.3g} {mid_c:>12.6g} {ratio:>7.3f}  "
                     f"{wins} of {len(parent)}, {ties} tied ({metric['better']} is better) "
                     f"{found}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commits", nargs="+", help="revisions or directories to run (default: "
                        "the re-anchors and HEAD); with two, the first is compared to the second")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--out", type=Path, help="where BENCH_<workload>.json is appended to "
                        "(default: the repository root)")
    args = parser.parse_args(argv)
    root = Path(git("rev-parse", "--show-toplevel", cwd=Path(__file__).parent).decode().strip())
    out = args.out or root
    harness = git("rev-parse", "HEAD", cwd=root).decode().strip()
    entries = [identify(root, e) for e in args.commits or anchors(root)]
    machine = {"python": platform.python_version(), "cpus": os.cpu_count()}

    spec = json.loads(git("show", f"{harness}:BENCHMARK.json", cwd=root))
    names = [m["name"] for m in spec["end_to_end"]]
    records = {}  # (round, entry index, workload, seed) -> record
    with tempfile.TemporaryDirectory() as tmp:
        for i, (commit, _) in enumerate(entries):
            # A copy, not a link: the harness finds src/ next to itself.
            if Path(commit).is_dir():
                shutil.copytree(Path(commit) / "src", Path(tmp, str(i), "src"))
            else:
                extract(root, commit, ["src"], Path(tmp, str(i)))
            extract(root, harness, ["bench", "BENCHMARK.json"], Path(tmp, str(i)))
        for key in schedule(len(entries), args.workloads, args.seeds, args.rounds):
            _, i, workload, seed = key
            (commit, pr), checkout = entries[i], Path(tmp, str(i))
            code, result = run(checkout, spec["command"], workload, seed, args.seconds)
            records[key] = record = {
                "commit": commit, "pr": pr, "harness": harness, "workload": workload,
                "seed": seed, "seconds": args.seconds, **machine,
                "metrics": {n: result["metrics"][n]["value"] for n in names} if result else None,
                "correct": bool(result and result["correct"] is True),
            }
            if code:
                record["exit_code"] = code
            path = out / f"BENCH_{workload}.json"
            kept = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
            path.write_text(json.dumps([*kept, record], indent=1) + "\n", encoding="utf-8")
            shown = commit if Path(commit).is_dir() else commit[:10]
            print(f"{shown} pr={pr} {workload} seed={seed} correct={record['correct']}",
                  flush=True)

    if len(entries) == 2:
        for workload in args.workloads:
            pairs = [(records[k, 0, workload, s + k]["metrics"],
                      records[k, 1, workload, s + k]["metrics"])
                     for k in range(args.rounds) for s in args.seeds]
            pairs = [pair for pair in pairs if all(pair)]  # both runs exited 0
            print(workload, *table(spec["end_to_end"], pairs) if pairs else ["no pair"], sep="\n")
    correct = all(r["correct"] for r in records.values())
    print(f"every run correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
