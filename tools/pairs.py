"""Compare two checkouts on one benchmark workload in alternating pairs.

Standard library only. Run from anywhere:

    python tools/pairs.py --parent ../parent --workload orbit-trace --pairs 10 --seconds 22

Pair k runs the benchmark command that ``BENCHMARK.json`` declares, with
``--trace 0`` at seed ``--seed`` + k - 1, once in each checkout (``--change``
defaults to the checkout this file sits in), the parent first on odd pairs
and the change first on even ones, so that a drift in the machine's speed
falls on both sides alike. For each end-to-end metric of ``BENCHMARK.json``
it prints the parent's median and the distance between its quartiles, the
change's median, their ratio (change over parent), the pairs the change
won, a win being a better value in the direction the metric's ``better``
names, the pairs tied, a tie being the same value on both sides, and a
verdict (``verdict``) against the metric's ``bound``. It prints every run's
``correct`` and exits 1 if any run is not correct. It reads ``bench/`` and
``BENCHMARK.json`` and writes neither.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def run(checkout: Path, command: list[str], workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in ``checkout``: the JSON object of its last line."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    done = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(args)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="the checkout to compare against")
    parser.add_argument("--change", default=HERE, type=Path, help="the checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=22)
    parser.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(1, args.pairs + 1):
        seed = args.seed + k - 1
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for side in order:
            result = run(sides[side], spec["command"], args.workload, seed, args.seconds)
            results[side].append(result)
            values = " ".join(f"{name}={m['value']:.6g}" for name, m in result["metrics"].items())
            print(f"pair {k} seed {seed} {side:<6} correct={result['correct']} {values}", flush=True)

    print(f"{'metric':<12} {'parent p50':>12} {'parent IQR':>12} {'change p50':>12} "
          f"{'ratio':>7}  wins, ties, verdict")
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        ties = sum(p == c for p, c in zip(parent, change))
        mid_p, mid_c = statistics.median(parent), statistics.median(change)
        ratio = mid_c / mid_p if mid_p else float("nan")
        spread = quartile_distance(parent)
        better = mid_c - mid_p if higher else mid_p - mid_c
        found = verdict(wins, len(parent), better, spread, metric["bound"] * mid_p)
        print(f"{name:<12} {mid_p:>12.6g} {spread:>12.3g} {mid_c:>12.6g} "
              f"{ratio:>7.3f}  {wins} of {len(parent)}, {ties} tied ({metric['better']} is better) "
              f"{found}")
    correct = all(r["correct"] for side in results.values() for r in side)
    print(f"every run correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
