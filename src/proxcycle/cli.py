"""Batch experiment runner.

Reads a strict JSON config, builds a gallery system, runs one certification,
solver, or trace experiment, and writes ``trace.csv`` plus ``summary.json``
into the output directory. Same config and seed give byte-identical outputs,
except for the timestamp and phase times kept in the summary's separate
metadata field.

Exit codes: 0 success (including expected non-convergence), 2 validation
error, 3 map error, 4 I/O error.
"""

from __future__ import annotations

import json
import math
import sys
import time
from functools import partial
from operator import is_
from pathlib import Path
from typing import TYPE_CHECKING

from . import gallery, orbit
from .spaces import COUNT, EXPONENT, POSITIVE, Domain, Exponent, _Record, _value_repr, as_exponent
from .system import LinearPhi, MapError, Phi, TabulatedPhi, validate_phi, verify_contraction, verify_cyclicity

if TYPE_CHECKING:
    import argparse

CONFIG_KEYS = {"system", "p", "phi", "run", "iterations", "tolerance", "seed", "output_dir"}
REQUIRED_KEYS = CONFIG_KEYS - {"output_dir"}
# Rows of trace.csv per write: enough that the per-block work is small beside
# the per-value repr, few enough that a block's text stays small beside the
# file's, which is never built whole.
TRACE_BLOCK = 1024
# The numeric fields, each read through its domain. JSON reads a literal past
# the float range, such as 1e999, as inf.
NUMBERS = {
    "p": EXPONENT,
    "iterations": COUNT,
    "tolerance": POSITIVE,
    "seed": Domain(-math.inf, math.inf, integer=True, strings=False),
}


class ConfigError(ValueError):
    """The experiment config fails validation."""


class ExperimentConfig(_Record):
    __slots__ = _fields = (
        "system_id", "parameters", "p", "phi", "run", "iterations", "tolerance", "seed",
        "output_dir",
    )
    _defaults = {"output_dir": None}


def _timestamp() -> str:
    """The current UTC time as ``datetime.now(timezone.utc).isoformat()``
    writes it: microseconds (floored, shown when nonzero) and ``+00:00``."""
    seconds, micro = divmod(time.time_ns() // 1000, 1_000_000)
    text = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{text}.{micro:06d}+00:00" if micro else f"{text}+00:00"


def _phi_field(data: dict, key: str) -> object:
    """The one field of a phi of its kind, once every other key is refused."""
    extra = set(data) - {"kind", key}
    if extra:
        raise ConfigError(f"unknown phi keys: {sorted(extra)}")
    if key not in data:
        raise ConfigError(f"missing key {key!r}")
    return data[key]


def _parse_phi(data: object) -> Phi:
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError("phi must be an object with a 'kind' field")
    kind = data["kind"]
    try:
        if kind == "linear":
            return LinearPhi(_phi_field(data, "alpha"))
        if kind == "tabulated":
            knots = _phi_field(data, "knots")
            if not isinstance(knots, list):
                raise ConfigError(f"knots must be a list of pairs, got {_value_repr(knots)}")
            return TabulatedPhi(knots)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid phi: {exc}") from exc
    raise ConfigError(f"unknown phi kind {_value_repr(kind)}")


def parse_config(data: object) -> ExperimentConfig:
    """Validate a config dict strictly: unknown keys are errors."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = REQUIRED_KEYS - set(data)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")

    system = data["system"]
    if not isinstance(system, dict) or set(system) - {"id", "parameters"} or "id" not in system:
        raise ConfigError("system must be an object with 'id' and optional 'parameters'")
    if not isinstance(system["id"], str):
        raise ConfigError("system.id must be a string")
    parameters = system.get("parameters", {})
    if not isinstance(parameters, dict):
        raise ConfigError("system.parameters must be an object")

    _run_kind(data["run"])
    try:
        numbers = {key: domain.check(key, data[key]) for key, domain in NUMBERS.items()}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    output_dir = data.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string path")

    return ExperimentConfig(
        system_id=system["id"],
        parameters=parameters,
        p=as_exponent(numbers["p"]),
        phi=_parse_phi(data["phi"]),
        run=data["run"],
        iterations=numbers["iterations"],
        tolerance=numbers["tolerance"],
        seed=numbers["seed"],
        output_dir=output_dir,
    )


def _reject_constant(name: str) -> None:
    raise ConfigError(f"{name} is not a JSON value")


def _reject_repeats(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a key given twice, where
    ``json.load`` would keep the last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"key {key!r} is given twice")
        data[key] = value
    return data


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=_reject_constant, object_pairs_hook=_reject_repeats)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


def _write_trace_csv(path: Path, trace: orbit.OrbitTrace, p: Exponent) -> None:
    """One row per block n, ``orbit.trace_rows``'s; floats use shortest
    round-trip formatting.

    The distinct rows are written from ``orbit._trace_columns``,
    ``TRACE_BLOCK`` rows at a time, with no row tuple: each column's slice
    is formatted by one ``map(repr, ...)``, the lines are joined from the
    text columns and the row numbers, and the block is one write; the
    file's whole text is never built. Where every chain entry of a block is
    its edge_1 entry, the very object (with m = 2 at p = inf where
    ``_gap_bound`` holds), edge_1's text is the chain's too; the test is
    identity, as 0.0 == -0.0 print differently. The rows past them repeat
    the last one, that of a settled orbit: its text is formatted once and
    joined with their row numbers in one pass.
    """
    m = trace.m
    header = (
        ["n", "chain_dp"]
        + [f"edge_{i}" for i in range(1, m + 1)]
        + [f"block_drift_{i}" for i in range(1, m + 1)]
    )
    columns, count = orbit._trace_columns(trace, p)
    distinct = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, distinct, TRACE_BLOCK):
            stop = min(start + TRACE_BLOCK, distinct)
            block = [column[start:stop] for column in columns]
            texts = [map(repr, column) for column in block]
            if all(map(is_, block[0], block[1])):
                texts[0] = texts[1] = list(texts[1])
            lines = map(",".join, zip(map(str, range(start, stop)), *texts))
            fh.write("\n".join(lines) + "\n")
        if distinct < count:
            text = ",".join(["", *map(repr, [column[-1] for column in columns])]) + "\n"
            fh.write(text.join(map(str, range(distinct, count))) + text)


def _finite_or_null(value):
    """Replace NaN and infinities, anywhere in nested lists and dicts, by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _run_kind(run: object):
    """The function of run kind ``run``, or ``ConfigError``. The test is a
    tuple's, so an unhashable value such as ``[]`` is refused, not raised
    on as a dict key."""
    if run not in RUNS:
        raise ConfigError(f"run must be one of {RUNS}")
    return RUN_KINDS[run]


def _solve(name: str, config: ExperimentConfig, gs: gallery.GallerySystem, walk: orbit.OrbitTrace):
    """A banach or periodic run: the solver ``orbit.<name>``, from the walk."""
    solved = getattr(orbit, name)(
        gs.system, walk, tol=config.tolerance, max_iter=config.iterations, p=config.p
    )
    return {field: getattr(solved, field) for field in SOLVE_FIELDS}, None


def _proximity(config: ExperimentConfig, gs: gallery.GallerySystem, walk: orbit.OrbitTrace):
    """A proximity run: the chain extracted from the walk's subsequences."""
    extracted = orbit.proximity_chain_extract(
        gs.system, walk, tol=config.tolerance, max_iter=config.iterations, p=config.p
    )
    note = extracted.note
    if not gs.attainable and not extracted.converged:
        note = (note or "") + "; set chain distance is not attained"
    return {
        "chain": extracted.chain,
        "proximity_residual": extracted.total_residual,
        "edge_residuals": extracted.edge_residuals,
        "converged": extracted.converged,
        "iterations": extracted.iterations,
        "note": note,
    }, None


def _certify(config: ExperimentConfig, gs: gallery.GallerySystem, walk: orbit.OrbitTrace):
    """A certify run: the system's cyclicity, phi's monotonicity and the
    contraction certificate. The walk only gives ``trace.csv``."""
    system, phi, p = gs.system, config.phi, config.p
    cyclicity = verify_cyclicity(system, samples_per_region=200, seed=config.seed)
    phi_ok = phi._strictly_increasing()
    if phi_ok is None:  # a Phi subclass of the caller's, tested on a grid
        dp_sets = system.set_chain_distance(p)
        grid = [0.0, 0.25, 0.5, 1.0, dp_sets + 1.0, dp_sets + 2.0]
        phi_ok = validate_phi(phi, sorted(set(grid))).ok
    cert = verify_contraction(system, phi, p, tuple_samples=config.iterations, seed=config.seed)
    return {"converged": cert.ok}, {
        "passed": cert.ok,
        "min_margin": cert.min_margin,
        "witness_x": cert.witness_xs,
        "witness_y": cert.witness_ys,
        "evaluated": cert.evaluated,
        "exhaustive": cert.exhaustive,
        "artifact_skips": cert.artifact_skips,
        "cyclicity_ok": cyclicity.ok,
        "phi_ok": phi_ok,
    }


# Each run kind's function: called with the parsed config, the built system
# and the run's walk, it returns the ``result`` fields it fills and its
# certificate, or None. A row names its solver rather than holding it, so
# the function found on ``orbit`` when the run calls it is the one that
# runs, as a wrapper put there by a test or a tracer expects.
RUN_KINDS = {
    "certify": _certify,
    "banach": partial(_solve, "banach_solve"),
    "periodic": partial(_solve, "periodic_point_solve"),
    "proximity": _proximity,
    "trace": lambda config, gs, walk: ({}, None),  # trace.csv alone, which every run writes
}
RUNS = tuple(RUN_KINDS)
# The result fields a banach or periodic run fills, each its solve's field.
SOLVE_FIELDS = ("point", "residual", "proximity_residual", "converged", "iterations", "warnings")
# Every result field, with the value a run writes where its kind leaves it
# unset: null, or no warnings.
RESULT_FIELDS = dict.fromkeys(SOLVE_FIELDS + ("chain", "edge_residuals", "note")) | {"warnings": ()}


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None) -> dict:
    """Run one experiment; returns the summary dict after writing the files.

    The steps that can raise or write come in this order: the output
    directory check, the run kind, ``gallery.build``, the walk, the run
    kind's function (``RUN_KINDS``), ``trace.csv`` and ``summary.json``.
    ``metadata.phase_seconds`` gives the wall time of building the system,
    walking, the run kind's function and writing ``trace.csv``.
    """
    destination = out_dir or config.output_dir
    if destination is None:
        raise ConfigError("no output directory: set output_dir or pass --out")
    kind = _run_kind(config.run)
    started = time.perf_counter()
    gs = gallery.build(config.system_id, config.parameters)
    built = time.perf_counter()
    system, p = gs.system, config.p

    # One walk per run: x_0..x_n_orbit are walked first, for every run kind,
    # so a MapError on them surfaces before any solver or certificate runs.
    # The solver reads the walk from x_0, and ``trace.csv`` reads the prefix.
    n_orbit = max(3 * system.m, min(config.iterations, 10_000))
    walk = orbit._record(system, gs.default_start, n_orbit)
    walked = time.perf_counter()
    fields, certificate = kind(config, gs, walk)
    ran = time.perf_counter()

    summary = _finite_or_null({
        "system": {"id": gs.spec.id, "parameters": gs.spec.parameter_dict()},
        "run": config.run,
        "p": "inf" if p.is_inf else p.value,
        "seed": config.seed,
        "tolerance": config.tolerance,
        "iterations_requested": config.iterations,
        "d_p_sets": system.set_chain_distance(p),
        "result": {**RESULT_FIELDS, **fields},
        "certificate": certificate,
        "metadata": {"timestamp": _timestamp()},
    })

    out_path = Path(destination)
    writing = time.perf_counter()
    out_path.mkdir(parents=True, exist_ok=True)
    _write_trace_csv(out_path / "trace.csv", walk, p)
    summary["metadata"]["phase_seconds"] = {
        "build": built - started, "walk": walked - built, "run": ran - walked,
        "write": time.perf_counter() - writing}
    # One dumps and one write: with indent set, json.dump writes each chunk.
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    with open(out_path / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    return summary


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    run_experiment(config, out_dir=args.out)
    return 0


def _cmd_gallery_list(args: argparse.Namespace) -> int:
    entries = gallery.list_gallery()
    if args.json:
        print(json.dumps(entries, indent=2))
        return 0
    for entry in entries:
        print(f"{entry['id']}: {entry['description']}")
        for param in entry["parameters"]:
            print(f"    {param['name']}: {param['domain']} (default {param['default']})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Imported here, not with the module: argparse and the gettext it loads
    # cost a cold ``import proxcycle.cli`` several milliseconds, and only
    # the console script parses arguments.
    import argparse

    parser = argparse.ArgumentParser(
        prog="proxcycle",
        description="run cyclic-contraction experiments on gallery systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one experiment from a JSON config")
    run_parser.add_argument("--config", required=True, help="path to the config JSON")
    run_parser.add_argument("--out", default=None, help="output directory (overrides config)")
    run_parser.set_defaults(handler=_cmd_run)

    gallery_parser = sub.add_parser("gallery", help="gallery inspection")
    gallery_sub = gallery_parser.add_subparsers(dest="gallery_command", required=True)
    list_parser = gallery_sub.add_parser("list", help="list gallery systems")
    list_parser.add_argument("--json", action="store_true", help="emit a JSON array")
    list_parser.set_defaults(handler=_cmd_gallery_list)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MapError as exc:
        print(f"map error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
