"""Run the benchmark on a series of commits and keep one record per run.

Standard library only. Run from anywhere inside the repository:

    python tools/trajectory.py --workloads certify-exhaustive --seeds 1 --seconds 5

Each commit's ``src/`` is taken with ``git archive`` into a temporary
directory, next to the ``bench/`` and ``BENCHMARK.json`` of HEAD (the
harness), and the command ``BENCHMARK.json`` declares runs there with
``--trace 0`` for each workload and seed. So every commit is measured by
one harness, and only the program differs. By default the commits are
every first-parent commit whose subject starts ``re-anchor @ PR``, oldest
first, then HEAD; ``--commits`` names others. Round k (from 0) runs the
commits in their order rotated by k, so that a drift in the machine's
speed does not fall on the same commit every round.

Each run appends one record to ``BENCH_<workload>.json`` in ``--out``
(the repository root by default), a JSON list: the commit, the PR number
in its subject (null if it names none), the harness commit, the seed,
``--seconds``, the Python version, the CPU count, the end-to-end metrics
of ``BENCHMARK.json`` and ``correct``. A run that exits non-zero keeps its
record, with ``correct`` false, no metrics and its ``exit_code``. Nothing
under ``bench/`` is written.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
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


def rotated(commits: list[str], k: int) -> list[str]:
    k %= len(commits)
    return commits[k:] + commits[:k]


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commits", nargs="+", help="revisions to run (default: the re-anchors "
                        "and HEAD)")
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
    commits = [git("rev-parse", c, cwd=root).decode().strip() for c in args.commits] \
        if args.commits else anchors(root)
    subjects = {c: git("log", "-1", "--format=%s", c, cwd=root).decode().strip() for c in commits}
    machine = {"python": platform.python_version(), "cpus": os.cpu_count()}

    spec = json.loads(git("show", f"{harness}:BENCHMARK.json", cwd=root))
    names = [m["name"] for m in spec["end_to_end"]]
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(args.rounds):
            for commit in rotated(commits, k):
                # A copy, not a link: the harness finds src/ next to itself.
                checkout = Path(tmp) / commit
                if not checkout.exists():
                    extract(root, commit, ["src"], checkout)
                    extract(root, harness, ["bench", "BENCHMARK.json"], checkout)
                for workload in args.workloads:
                    for seed in args.seeds:
                        code, result = run(checkout, spec["command"], workload, seed,
                                           args.seconds)
                        record = {
                            "commit": commit, "pr": pr_number(subjects[commit]),
                            "harness": harness, "workload": workload, "seed": seed,
                            "seconds": args.seconds, **machine,
                            "metrics": {n: result["metrics"][n]["value"] for n in names}
                            if result else None,
                            "correct": bool(result and result["correct"] is True),
                        }
                        if code:
                            record["exit_code"] = code
                        path = out / f"BENCH_{workload}.json"
                        records = json.loads(path.read_text(encoding="utf-8")) \
                            if path.exists() else []
                        records.append(record)
                        path.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
                        print(f"{commit[:10]} pr={record['pr']} {workload} seed={seed} "
                              f"correct={record['correct']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
