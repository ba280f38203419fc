"""proxcycle run benchmark.

    python3 bench/run.py --workload certify-exhaustive --seed 1 --seconds 22 --trace 0

Runs one workload closed-loop (one process, one caller, runs back to back)
through the public ``proxcycle.cli.run_experiment``, checks every run's
output, prints each metric with its unit and sample count, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` times the runs untraced and reports the end-to-end metrics.
Timings are scaled to the reference machine's speed with a yardstick kernel
timed around every measured interval (see ``Yardstick``).
``--trace 1`` reports per-layer metrics from a separate traced run instead;
see bench/README.md. The program is imported from ``src/`` of the checkout
this file sits in, and nothing else: without it the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from checks import Checker
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
CLOCK = time.perf_counter
SETUP_ROUNDS = 7
TAIL_BEYOND = 10
# Passes of each workload's config list at REFERENCE_SECONDS; other
# --seconds values scale the count. Chosen on the reference machine (see
# README.md) so that a run measures for about --seconds and the median and
# the tail percentile fall inside a group of equal-cost runs. The count
# depends only on --seconds, so every commit measures the same runs and the
# tail percentile means the same thing on both sides of a comparison.
REFERENCE_SECONDS = 22
PASSES = {
    "certify-exhaustive": 6,
    "certify-sampled": 9,
    "orbit-trace": 5,
    "solve-slow": 4,
}
MIN_PASSES = 2
KERNEL_STEPS = 6000
# Median time of kernel_s() on the reference machine (see README.md).
KERNEL_REF_S = 0.012
# Stop starting passes after this many times --seconds, so that a run on a
# slow machine or a badly regressed commit still ends in time; the report
# says when this cut in.
DEADLINE_FACTOR = 2


def kernel_s() -> float:
    """Time a fixed piece of pure-Python work like the program's own: float
    arithmetic, tuple building, generator expressions and calls."""
    t0 = CLOCK()
    acc = 0.0
    points = []
    for i in range(KERNEL_STEPS):
        x = (i * 0.5, i * 0.25, 1.0)
        points.append(tuple(float(c) for c in x))
        acc += sum(abs(a - b) for a, b in zip(x, points[i // 2]))
    return CLOCK() - t0


class Yardstick:
    """Scales wall times to the reference machine's speed.

    The machine this benchmark was built on is shared, and its speed for
    Python code swung by up to 2x within seconds, which no run length or
    median removes. The kernel is timed just before and just after each
    measured interval; the interval's wall time times KERNEL_REF_S over the
    mean of those two kernel times is what the reference machine would have
    taken. The program cannot change the kernel, so a slower program still
    reads slower.
    """

    def __init__(self):
        self._last = kernel_s()

    def scale(self) -> float:
        """Factor for the interval that ended since the previous call."""
        before, self._last = self._last, kernel_s()
        return 2.0 * KERNEL_REF_S / (before + self._last)


class Workload:
    """Generated cases plus their parsed configs, output dirs and checker."""

    def __init__(self, name: str, seed: int, out_root: Path):
        from proxcycle import cli, gallery

        self.name = name
        self.cli = cli
        self.gallery = gallery
        self.cases = workloads.generate(name, seed)
        self.warmups = workloads.warmup_configs(self.cases)
        self.out_root = out_root
        self.checker = Checker(Path(cli.__file__).parent)
        self.parsed = []
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: dict[int, tuple[int, str]] = {}

    def set_up(self) -> float:
        """Parse and validate every config, build every system, warm up.
        Returns the wall time."""
        t0 = CLOCK()
        self.parsed = [self.cli.parse_config(case.config) for case in self.cases]
        for config in self.parsed:
            self.gallery.build(config.system_id, config.parameters)
        for data in self.warmups:
            self.cli.run_experiment(self.cli.parse_config(data), self.out_root / "warmup")
        return CLOCK() - t0

    def run_dir(self, i: int) -> Path:
        return self.out_root / f"run{i}"

    def run_pass(self, after_each=None) -> tuple[list[float], list[float], dict[int, str]]:
        """Run every config once, back to back. Returns the scaled and the raw
        latencies of the runs that completed, and the exceptions raised, by
        run index."""
        for i in range(len(self.cases)):
            shutil.rmtree(self.run_dir(i), ignore_errors=True)
        errors = {}
        scaled, raw = [], []
        gc.collect()
        yardstick = Yardstick()
        for i, config in enumerate(self.parsed):
            t0 = CLOCK()
            try:
                self.cli.run_experiment(config, self.run_dir(i))
            except Exception as exc:  # a raising run is a failed operation
                errors[i] = f"{type(exc).__name__}: {exc}"
            else:
                raw.append(CLOCK() - t0)
            factor = yardstick.scale()
            if i not in errors:
                scaled.append(raw[-1] * factor)
            if after_each is not None:
                after_each()
        return scaled, raw, errors

    def check(self, errors: dict[int, str]) -> None:
        """Check the outputs of the last pass; a raised exception fails its run."""
        for i, case in enumerate(self.cases):
            self.attempted += 1
            if i in errors:
                problems, expected = [errors[i]], False
            else:
                problems = self.checker.check_run(case, self.parsed[i], self.run_dir(i))
                expected = case.known_defect is not None
            if not problems:
                continue
            self.failed += 1
            if not expected:
                self.unexpected += 1
            count, _ = self.failures.get(i, (0, ""))
            self.failures[i] = (count + 1, "; ".join(problems))

    def outputs(self, i: int) -> dict:
        """Work counts read back from run i's files."""
        out = self.run_dir(i)
        summary = json.loads((out / "summary.json").read_text())
        trace = (out / "trace.csv").read_bytes()
        cert = summary["certificate"] or {}
        return {
            "trace_rows": trace.count(b"\n") - 1,
            "trace_bytes": len(trace),
            "pairs_evaluated": cert.get("evaluated", 0),
            "pairs_attempted": cert.get("evaluated", 0) + cert.get("artifact_skips", 0),
            "solve_iterations": summary["result"]["iterations"] or 0,
        }

    def report_failures(self) -> None:
        for i, (count, text) in sorted(self.failures.items()):
            case = self.cases[i]
            system = case.config["system"]
            tag = f"known defect: {case.known_defect}" if case.known_defect else "UNEXPECTED"
            print(
                f"failed   run{i} {case.config['run']} {system['id']} {json.dumps(system['parameters'])} "
                f"p={case.config['p']}: {count}x [{tag}] {text}"
            )


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile, at most p90, with TAIL_BEYOND samples beyond it.

    Returns (value, percentile). With n samples that is the k-th smallest for
    k = min(n - 10, ceil(0.9 n)); fewer than 11 samples fall back to the
    maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = min(n - TAIL_BEYOND, (9 * n + 9) // 10) if n > TAIL_BEYOND else n
    return ordered[k - 1], 100.0 * k / n


def machine_record() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def line(name: str, value: float, unit: str, note: str) -> None:
    print(f"metric   {name:<34} {value!r:<24} {unit:<6} {note}")


def import_program() -> None:
    """Import proxcycle from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "proxcycle" / "__init__.py").is_file():
        print(f"error: no proxcycle package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import proxcycle.cli  # noqa: F401

    if Path(proxcycle.__file__).resolve().parent != (src / "proxcycle").resolve():
        print(f"error: imported proxcycle from {proxcycle.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


IMPORT_TIMER = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import proxcycle.cli
print(time.perf_counter() - t0)
"""


def import_seconds() -> float:
    """Time ``import proxcycle.cli`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout)


def set_up(work: Workload) -> float:
    """Median import time plus median set-up round, SETUP_ROUNDS of each,
    both scaled by the yardstick."""
    yardstick = Yardstick()
    imports, rounds = [], []
    for _ in range(SETUP_ROUNDS):
        raw = import_seconds()
        imports.append(raw * yardstick.scale())
    for _ in range(SETUP_ROUNDS):
        raw = work.set_up()
        rounds.append(raw * yardstick.scale())
    setup_s = statistics.median(imports) + statistics.median(rounds)
    line("setup_s", setup_s, "s", f"median import {statistics.median(imports):.4f} s + median set-up "
         f"{statistics.median(rounds):.4f} s, n={SETUP_ROUNDS} each")
    return setup_s


def run_e2e(work: Workload, seconds: int) -> dict:
    passes = max(MIN_PASSES, round(PASSES[work.name] * seconds / REFERENCE_SECONDS))
    deadline = DEADLINE_FACTOR * seconds
    latencies, raw_latencies, rates, raw_rates = [], [], [], []
    t0 = CLOCK()
    for _ in range(passes):
        t_pass = CLOCK()
        scaled, raw, errors = work.run_pass()
        work.check(errors)
        if not scaled:
            sys.exit(f"error: every run of a pass raised: {errors}")
        latencies += scaled
        raw_latencies += raw
        rates.append(len(scaled) / sum(scaled))
        raw_rates.append(len(raw) / sum(raw))
        now = CLOCK()
        if (now - t0) + (now - t_pass) > deadline:
            break
    if len(rates) < passes:
        print(f"warning: deadline of {deadline}s cut the run to {len(rates)} of {passes} passes")
    p50 = statistics.median(latencies)
    p_tail, pct = tail(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok_frac = 1.0 - work.failed / work.attempted
    n = len(latencies)
    print("passes   runs_per_s per pass, scaled: " + " ".join(f"{r:.4f}" for r in rates)
          + "; raw wall: " + " ".join(f"{r:.4f}" for r in raw_rates))
    print(f"raw      run_s_p50 unscaled wall time {statistics.median(raw_latencies)!r} s, n={n}")
    line("runs_per_s", statistics.median(rates), "1/s", f"median of n={len(rates)} passes of {len(work.cases)} runs")
    line("run_s_p50", p50, "s", f"n={n}")
    line("run_s_p90", p_tail, "s", f"p{pct:.1f}: highest percentile <= p90 with {TAIL_BEYOND} beyond, n={n}")
    line("peak_rss_mb", rss_mb, "MiB", "n=1 process")
    line("fail_frac", work.failed / work.attempted, "ratio", f"{work.failed} failed of {work.attempted} attempted")
    line("ok_frac", ok_frac, "ratio", f"{work.attempted - work.failed} ok of {work.attempted} attempted")
    return {
        "runs_per_s": (statistics.median(rates), "1/s"),
        "run_s_p50": (p50, "s"),
        "run_s_p90": (p_tail, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "ok_frac": (ok_frac, "ratio"),
    }


def _traced_pass(work: Workload, tracer) -> tuple[dict, float]:
    """Set-up replay plus one pass under the tracer; returns the work counts
    and the traced runs per second."""
    tracer.reset()
    tracer.install()
    try:
        for case in work.cases:
            config = work.cli.parse_config(case.config)
            work.gallery.build(config.system_id, config.parameters)
        tracer.fold()
        latencies, _, errors = work.run_pass(after_each=tracer.fold)
    finally:
        tracer.uninstall()
    work.check(errors)
    counts = {f"{name}.calls": k for name, k in tracer.calls.items()}
    counts.update({f"{ctx}:{name}": k for (ctx, name), k in tracer.in_context.items()})
    for i in range(len(work.cases)):
        if i in errors:
            continue
        for key, value in work.outputs(i).items():
            counts[key] = counts.get(key, 0) + value
    return counts, len(latencies) / sum(latencies)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_traced(work: Workload) -> tuple[dict, bool]:
    untraced_lat, _, errors = work.run_pass()
    work.check(errors)
    untraced_rps = len(untraced_lat) / sum(untraced_lat)
    tracer = Tracer()
    counts, traced_rps = _traced_pass(work, tracer)
    self_s = dict(tracer.self_s)
    repeat, _ = _traced_pass(work, tracer)
    differing = sorted(k for k in counts.keys() | repeat.keys() if counts.get(k) != repeat.get(k))
    for key in differing:
        print(f"selftest counter {key} differs between two traced passes: {counts.get(key)} vs {repeat.get(key)}")
    if differing:
        print(f"selftest FAILED: {len(differing)} of {len(counts)} work counters differ")
    else:
        print(f"selftest ok: all {len(counts)} work counters repeat exactly")
    for name in tracer.absent:
        print(f"absent   {name}: public name not found, reported as 0")

    def calls(name):
        return counts.get(f"{name}.calls", 0)

    def ctx(context, name):
        return counts.get(f"{context}:{name}", 0)

    metrics = {}

    def put(name, value, unit, note=""):
        metrics[name] = (value, unit)
        line(name, value, unit, note)

    for name in (
        "spaces.check_point",
        "spaces.distance",
        "spaces.p_combine",
        "chains.chain_point_distance",
        "chains.chain_self_distance",
        "system.apply",
        "system.sample",
        "system.contains",
        "system.region_distance",
        "gallery.build",
    ):
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.self_s", self_s.get(name, 0.0), "s")
    for name in ("chains.chain_set_distance", "system.map", "system.contraction_margin"):
        put(f"{name}.calls", calls(name), "count")
    for name in (
        "system.verify_contraction",
        "system.verify_cyclicity",
        "orbit.picard_orbit",
        "orbit.chain_trace",
        "orbit.edge_trace",
        "orbit.block_drift_trace",
        "orbit.banach_solve",
        "orbit.periodic_point_solve",
        "orbit.proximity_chain_extract",
        "cli.parse_config",
        "cli.run_experiment",
    ):
        put(f"{name}.self_s", self_s.get(name, 0.0), "s")

    map_calls = calls("system.map")
    pairs, attempted = counts["pairs_evaluated"], counts["pairs_attempted"]
    rows, iterations = counts["trace_rows"], counts["solve_iterations"]
    put("spaces.check_point.calls_per_map_call", _ratio(calls("spaces.check_point"), map_calls), "ratio",
        f"base system.map.calls={map_calls}")
    put("system.certify.pairs_evaluated", pairs, "count")
    put("system.certify.pairs_attempted", attempted, "count", "evaluated + artifact skips")
    put("system.certify.useful_frac", _ratio(pairs, attempted), "ratio", f"base pairs_attempted={attempted}")
    put("system.certify.map_calls_per_pair", _ratio(ctx("certify", "system.map"), pairs), "ratio",
        f"base pairs_evaluated={pairs}")
    put("system.certify.distance_calls_per_pair", _ratio(ctx("certify", "spaces.distance"), pairs), "ratio",
        f"base pairs_evaluated={pairs}")
    put("orbit.picard_orbit.steps", ctx("picard", "system.map"), "count", "map calls inside picard_orbit")
    put("orbit.trace.distance_calls_per_row", _ratio(ctx("tracefn", "spaces.distance"), rows), "ratio",
        f"base cli.trace_rows={rows}")
    put("orbit.solve.iterations", iterations, "count", "reported by the solvers")
    put("orbit.solve.map_calls_per_iteration", _ratio(ctx("solve", "system.map"), iterations), "ratio",
        f"base orbit.solve.iterations={iterations}")
    put("cli.trace_rows", rows, "count")
    put("cli.trace_bytes", counts["trace_bytes"], "bytes")
    put("bench.runs", len(work.cases), "count", "runs in one traced pass; every count above is per pass")
    put("bench.untraced_runs_per_s", untraced_rps, "1/s")
    put("bench.traced_runs_per_s", traced_rps, "1/s")
    put("bench.trace_overhead", traced_rps / untraced_rps, "ratio", "traced over untraced runs_per_s")
    put("bench.absent_names", len(tracer.absent), "count")
    return metrics, not differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    import_program()
    out_root = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        work = Workload(args.workload, args.seed, out_root)
        print(f"bench    workload={args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} machine={json.dumps(machine_record())}")
        setup_s = set_up(work)
        if args.trace:
            metrics, selftest_ok = run_traced(work)
        else:
            metrics = {"setup_s": (setup_s, "s"), **run_e2e(work, args.seconds)}
            selftest_ok = True
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            out_root.parent.rmdir()
        except OSError:
            pass
    work.report_failures()
    result = {
        "correct": work.unexpected == 0 and selftest_ok,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
