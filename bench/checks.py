"""Output checker: every run's files against the schema and the gallery's answers.

``check_run`` returns a list of problems; an empty list means the run is
correct. The checks are:

- ``summary.json`` is strict JSON (no NaN or infinity) and validates against
  the program's own ``schemas/summary.schema.json``; it echoes the config.
- ``d_p_sets`` matches the gallery's stored edge distances.
- certify: ``passed`` is the analytic verdict, the certificate enumerated
  exactly when the regions are finite, cyclicity and phi hold, and the
  witness reproduces ``min_margin`` through ``contraction_margin``.
- banach / periodic: the run converged and its point is within the a
  posteriori bound tol / (1 - f) of the expected solution, where f is the
  contraction factor across the solver's stopping test.
- proximity: the same bound for every point of the extracted chain against
  the expected proximity chain (the orbit of the expected solution).
- trace: ``trace.csv`` has the SHA-256 digest recorded in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import jsonschema

import workloads

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


class Checker:
    def __init__(self, proxcycle_dir: Path):
        from proxcycle import gallery, system

        self._gallery = gallery
        self._system = system
        schema = json.loads((proxcycle_dir / "schemas" / "summary.schema.json").read_text())
        self._validator = jsonschema.Draft202012Validator(schema)
        self._digests = json.loads(DIGESTS_PATH.read_text())

    def check_run(self, case: workloads.Case, parsed_config, out_dir: Path) -> list[str]:
        try:
            text = (out_dir / "summary.json").read_text(encoding="utf-8")
            summary = json.loads(text, parse_constant=_reject_constant)
        except (OSError, ValueError) as exc:
            return [f"summary.json unreadable: {exc}"]
        problems = [f"schema: {err.message}" for err in self._validator.iter_errors(summary)]
        if problems:
            return problems

        config = case.config
        if summary["run"] != config["run"] or summary["seed"] != config["seed"]:
            problems.append("summary does not echo the config's run and seed")
        gs = self._gallery.build(config["system"]["id"], config["system"]["parameters"])
        if summary["system"]["id"] != gs.spec.id:
            problems.append("summary names another system")
        expected_dp = gs.expected_chain_distance(config["p"])
        if not _close(summary["d_p_sets"], expected_dp, 1e-12):
            problems.append(f"d_p_sets {summary['d_p_sets']!r} != gallery {expected_dp!r}")

        run = config["run"]
        if run == "certify":
            problems += self._check_certify(case, parsed_config, gs, summary)
        elif run in ("banach", "periodic"):
            problems += self._check_solution(case, gs, summary)
        elif run == "proximity":
            problems += self._check_proximity(case, gs, summary)
        elif run == "trace":
            problems += self._check_trace(case, out_dir)
        return problems

    def _check_certify(self, case, parsed_config, gs, summary) -> list[str]:
        cert = summary["certificate"]
        if cert is None:
            return ["certify run without a certificate"]
        problems = []
        if cert["passed"] != case.verdict:
            problems.append(
                f"passed={cert['passed']} but the analytic verdict is {case.verdict} "
                f"(min_margin {cert['min_margin']!r})"
            )
        if cert["exhaustive"] != case.exhaustive:
            problems.append(f"exhaustive={cert['exhaustive']}, expected {case.exhaustive}")
        if not cert["cyclicity_ok"]:
            problems.append("cyclicity refuted on a cyclic gallery system")
        if not cert["phi_ok"]:
            problems.append("phi refuted although it is strictly increasing")
        if cert["evaluated"] < 1 or not cert["witness_x"] or not cert["witness_y"]:
            problems.append("certificate evaluated no pair or has no witness")
            return problems
        xs = tuple(tuple(pt) for pt in cert["witness_x"])
        ys = tuple(tuple(pt) for pt in cert["witness_y"])
        replay = self._system.contraction_margin(gs.system, parsed_config.phi, parsed_config.p, xs, ys)
        # A few ulps of the witness pair's own scale: the margin is a
        # difference of two sides of that size.
        scale = max(1.0, *(math.dist(x, y) for x, y in zip(xs, ys[1:] + ys[:1])))
        if abs(replay - cert["min_margin"]) > 16 * math.ulp(scale):
            problems.append(f"witness replays to {replay!r}, certificate says {cert['min_margin']!r}")
        return problems

    def _bound(self, case) -> float:
        tol = case.config["tolerance"]
        return tol / (1.0 - case.solve_factor)

    def _check_solution(self, case, gs, summary) -> list[str]:
        result = summary["result"]
        if not result["converged"]:
            return [f"did not converge: {result['warnings']}"]
        err = math.dist(result["point"], gs.expected_solution)
        if err > self._bound(case):
            return [f"point is {err:.3g} from the expected solution, bound {self._bound(case):.3g}"]
        return []

    def _check_proximity(self, case, gs, summary) -> list[str]:
        result = summary["result"]
        if not result["converged"]:
            return [f"proximity chain did not converge: {result['note']}"]
        expected = [gs.expected_solution]
        for _ in range(gs.system.m - 1):
            expected.append(gs.system.map(expected[-1]))
        if len(result["chain"]) != len(expected):
            return [f"chain has {len(result['chain'])} points, expected {len(expected)}"]
        problems = []
        for i, (got, want) in enumerate(zip(result["chain"], expected)):
            err = math.dist(got, want)
            if err > self._bound(case):
                problems.append(f"chain point {i} is {err:.3g} from {want}, bound {self._bound(case):.3g}")
        return problems

    def _check_trace(self, case, out_dir: Path) -> list[str]:
        key = workloads.trace_key(case.config)
        want = self._digests.get(key)
        if want is None:
            return [f"no recorded digest for {key}"]
        got = hashlib.sha256((out_dir / "trace.csv").read_bytes()).hexdigest()
        if got != want:
            return [f"trace.csv digest {got[:12]} != recorded {want[:12]}"]
        return []


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))
