import contextlib
import csv
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timedelta, timezone
from functools import partial
from pathlib import Path

import jsonschema
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import proxcycle.cli as cli
import proxcycle.system as system_module
from proxcycle.orbit import picard_orbit
from proxcycle.spaces import INFINITY, as_exponent
from proxcycle.system import LinearPhi, MapError, Phi, TabulatedPhi
from reference import broken_map, counting, mapped_build, no_image

SCHEMA = json.loads(
    (Path(cli.__file__).parent / "schemas" / "summary.schema.json").read_text()
)


def base_config(**overrides):
    data = {
        "system": {"id": "kirk_interval", "parameters": {"alpha": 0.5}},
        "p": 2,
        "phi": {"kind": "linear", "alpha": 0.5},
        "run": "banach",
        "iterations": 1000,
        "tolerance": 1e-10,
        "seed": 42,
    }
    data.update(overrides)
    return data


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# --- config validation --------------------------------------------------------


def test_parse_config_happy_path():
    config = cli.parse_config(base_config(p="inf"))
    assert config.system_id == "kirk_interval"
    assert config.p == INFINITY
    assert config.seed == 42


def test_the_schema_lists_the_run_kinds_in_the_table_order():
    assert SCHEMA["properties"]["run"]["enum"] == list(cli.RUNS)


@pytest.mark.parametrize("run", ["certfy", [], None])
def test_an_unknown_run_kind_is_refused_before_anything_is_built_or_written(
    tmp_path, monkeypatch, run
):
    with pytest.raises(cli.ConfigError) as parsed:
        cli.parse_config(base_config(run=run))
    config = cli.parse_config(base_config())
    fields = {name: getattr(config, name) for name in config._fields}
    built = []
    monkeypatch.setattr(cli.gallery, "build", lambda *args: built.append(args))
    out = tmp_path / "o"
    with pytest.raises(cli.ConfigError) as err:
        cli.run_experiment(cli.ExperimentConfig(**{**fields, "run": run}), out)
    assert str(err.value) == str(parsed.value) == f"run must be one of {cli.RUNS}"
    assert built == []
    assert not (out / "trace.csv").exists() and not (out / "summary.json").exists()


@pytest.mark.parametrize("key", ["p", "iterations", "tolerance", "seed"])
@pytest.mark.parametrize("flag", [True, False])
def test_cli_rejects_boolean_numbers(tmp_path, key, flag):
    config = write_config(tmp_path, base_config(**{key: flag}))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "field, value, parsed",
    [
        ("p", "Infinity", INFINITY),
        ("p", "inf", INFINITY),
        ("p", 1.5, as_exponent(1.5)),
        ("iterations", 10**400, 10**400),
        ("seed", 10**400, 10**400),
        ("seed", -3, -3),
        ("tolerance", 1, 1.0),
    ],
)
def test_parse_config_accepts_each_field_inside_its_domain(field, value, parsed):
    config = cli.parse_config(base_config(**{field: value}))
    assert getattr(config, field) == parsed
    assert type(getattr(config, field)) is type(parsed)


# --- end-to-end runs ------------------------------------------------------------


def read_summary(out_dir):
    summary = json.loads((Path(out_dir) / "summary.json").read_text())
    jsonschema.validate(summary, SCHEMA)
    return summary


def test_run_banach_kirk(tmp_path):
    config = write_config(tmp_path, base_config())
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 0
    summary = read_summary(tmp_path / "out")
    assert summary["run"] == "banach"
    assert summary["result"]["converged"] is True
    assert abs(summary["result"]["point"][0]) < 1e-8
    assert summary["d_p_sets"] == 0.0


def test_run_periodic_affine_strip(tmp_path):
    data = base_config(
        system={"id": "affine_strip", "parameters": {"alpha": 0.5, "h": 1.0}},
        run="periodic",
    )
    config = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["result"]["converged"] is True
    assert summary["result"]["proximity_residual"] < 1e-6

    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"n", "chain_dp", "edge_1", "edge_2", "block_drift_1", "block_drift_2"}
    assert abs(float(rows[-1]["edge_1"]) - 1.0) < 1e-6  # edge settles at h
    # round-trip float formatting parses back exactly
    assert repr(float(rows[3]["chain_dp"])) == rows[3]["chain_dp"]


def test_run_proximity_family_flags_non_attainment(tmp_path):
    data = base_config(system={"id": "paper_lq_family"}, run="proximity", iterations=500)
    config = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["result"]["converged"] is False
    assert "not attained" in summary["result"]["note"]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_summary_is_strict_json_when_a_residual_is_nan(tmp_path):
    # One iteration leaves the m = 3 proximity residual undefined (NaN).
    data = base_config(
        system={"id": "paper_lq_family", "parameters": {"m": 3, "N": 2}},
        run="proximity",
        iterations=1,
    )
    config = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    text = (out / "summary.json").read_text()
    summary = json.loads(text, parse_constant=_reject_constant)
    jsonschema.validate(summary, SCHEMA)
    assert summary["result"]["proximity_residual"] is None


def test_summary_writes_an_overflowing_set_chain_distance_as_null(tmp_path):
    # d_1 of the strip's two edges at distance h is 2h, past the float range.
    data = base_config(system={"id": "affine_strip", "parameters": {"h": 1.2e308}}, p=1, run="trace")
    config = write_config(tmp_path, data)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert read_summary(tmp_path / "out")["d_p_sets"] is None


def test_metadata_timestamp_is_iso_8601_utc(tmp_path):
    config = write_config(tmp_path, base_config())
    before = datetime.now(timezone.utc)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    after = datetime.now(timezone.utc)
    stamp = datetime.fromisoformat(read_summary(tmp_path / "out")["metadata"]["timestamp"])
    assert stamp.utcoffset() == timedelta(0)
    assert before - timedelta(seconds=1) <= stamp <= after + timedelta(seconds=1)


@pytest.mark.parametrize("run", cli.RUNS)
def test_metadata_times_the_four_phases_of_every_run(tmp_path, run):
    config = cli.parse_config(base_config(run=run, iterations=50))
    started = time.perf_counter()
    summary = cli.run_experiment(config, tmp_path)
    wall = time.perf_counter() - started
    phases = summary["metadata"]["phase_seconds"]
    assert list(phases) == ["build", "walk", "run", "write"]
    assert all(math.isfinite(seconds) and seconds >= 0 for seconds in phases.values())
    assert sum(phases.values()) <= wall
    assert read_summary(tmp_path)["metadata"]["phase_seconds"] == phases


@pytest.mark.parametrize("ns", [0, 1_700_000_000_000_000_000, 1_700_000_000_123_456_789, 999])
def test_metadata_timestamp_is_written_as_datetime_writes_it(monkeypatch, ns):
    seconds, micro = divmod(ns // 1000, 1_000_000)
    want = datetime.fromtimestamp(seconds, timezone.utc).replace(microsecond=micro).isoformat()
    monkeypatch.setattr(cli.time, "time_ns", lambda: ns)
    assert cli._timestamp() == want


IMPORT_GRAPH = """
import json, sys
sys.path.insert(0, sys.argv[1])
import proxcycle.cli
# Recorded before the scan below: asking a class for __dataclass_fields__
# builds the fields of the five contract records, importing dataclasses.
loaded = {name: name in sys.modules for name in ("dataclasses", "inspect")}
found = {
    f"{cls.__module__}.{cls.__qualname__}"
    for name, module in list(sys.modules.items())
    if name == "proxcycle" or name.startswith("proxcycle.")
    for cls in vars(module).values()
    if isinstance(cls, type) and cls.__module__.startswith("proxcycle")
    and hasattr(cls, "__dataclass_fields__")
}
print(json.dumps({
    "datetime": "datetime" in sys.modules,
    "argparse": "argparse" in sys.modules,
    "gettext": "gettext" in sys.modules,
    "loaded": loaded,
    "dataclasses": sorted(found),
}))
"""


def _import_graph():
    """What a fresh interpreter has loaded once it has imported the CLI."""
    package_root = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GRAPH, package_root],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(done.stdout)


def test_importing_the_cli_generates_only_the_contract_dataclasses():
    # Every record is a plain slotted class, and the timestamp needs no
    # datetime: a fresh interpreter importing the CLI loads neither
    # dataclasses nor inspect nor datetime. The five records that callers
    # pass to dataclasses.replace still show as dataclasses when asked.
    graph = _import_graph()
    assert graph["datetime"] is False
    assert graph["loaded"] == {"dataclasses": False, "inspect": False}
    assert graph["dataclasses"] == [
        "proxcycle.gallery.GalleryEntry",
        "proxcycle.gallery.GallerySystem",
        "proxcycle.spaces.Exponent",
        "proxcycle.spaces.LqSpace",
        "proxcycle.system.CyclicSystem",
    ]


def test_importing_the_cli_loads_no_argument_parser():
    # Only the console script parses arguments; importing the CLI for
    # run_experiment loads neither argparse nor the gettext it imports.
    graph = _import_graph()
    assert graph["argparse"] is False and graph["gettext"] is False


def test_run_certify(tmp_path):
    data = base_config(run="certify", iterations=300)
    config = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    summary = read_summary(out)
    cert = summary["certificate"]
    assert cert["passed"] is True
    assert cert["cyclicity_ok"] is True and cert["phi_ok"] is True
    assert cert["min_margin"] >= -1e-10


class _Capped(Phi):
    """A phi of the caller's own: t / 2 up to t = 1, then flat."""

    def __call__(self, t):
        return min(t, 1.0) / 2


@pytest.mark.parametrize(
    "phi, ok",
    [
        # Flat on [0.3, 0.45], between the grid points 0.25 and 0.5.
        (TabulatedPhi(((0, 0), (0.3, 0.1), (0.45, 0.1), (10, 1))), False),
        (TabulatedPhi(((0, 0), (0.3, 0.1), (0.45, 0.2), (10, 1))), True),
        (LinearPhi(0.5), True),
        # No exact fact for it: tested on the grid, flat from 1.0 to d + 1.
        (_Capped(), False),
    ],
)
def test_certify_phi_ok_is_exact_for_the_library_phis(tmp_path, phi, ok):
    config = cli.parse_config(base_config(run="certify", iterations=50))
    fields = {name: getattr(config, name) for name in config._fields}
    summary = cli.run_experiment(cli.ExperimentConfig(**{**fields, "phi": phi}), tmp_path)
    assert summary["certificate"]["phi_ok"] is ok


def test_a_nan_margin_fails_the_certificate_and_is_written_as_null(tmp_path):
    # Balls 1e308 apart on the line: d_1 of two such edges is inf, and
    # d - phi(d) is inf - inf, so the first pair already has a NaN margin.
    parameters = {"alpha": 0.4, "separation": 1e308, "dimension": 1}
    data = base_config(
        system={"id": "scaled_pair", "parameters": parameters}, p=1, run="certify", iterations=50
    )
    config = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    cert = read_summary(out)["certificate"]
    assert cert["passed"] is False and cert["min_margin"] is None
    assert cert["evaluated"] == 50 and cert["witness_x"] and cert["witness_y"]


def test_output_dir_from_config(tmp_path):
    out = tmp_path / "configured"
    config = write_config(tmp_path, base_config(output_dir=str(out)))
    assert cli.main(["run", "--config", str(config)]) == 0
    assert (out / "summary.json").exists()


# --- one walk per run ----------------------------------------------------------------


def _trace_steps(m, iterations):
    return max(3 * m, min(iterations, 10_000))


def _solver_steps(run, m, iterations):
    """Points a solver walks: its iterations plus the residual image, or the
    m-point tail of the periodic solver."""
    return iterations + {"banach": 1, "periodic": m, "proximity": 0}[run]


SLOW_KIRK = {"id": "kirk_interval", "parameters": {"alpha": 0.001}}
RUN_SHAPES = {
    # 2.8e4 solver steps against a 1e4-step trace
    "solver-past-trace": dict(system=SLOW_KIRK, iterations=100_000, tolerance=1e-12),
    # budget exhausted; banach's residual is one step past the trace
    "budget": dict(system=SLOW_KIRK, iterations=500, tolerance=1e-12),
    "one-iteration": dict(iterations=1),
    "early-convergence": dict(iterations=1000, tolerance=1e-3),
}


@pytest.mark.parametrize("shape", sorted(RUN_SHAPES))
@pytest.mark.parametrize(
    "run, system",
    [
        ("banach", None),
        ("periodic", None),
        ("proximity", None),
        ("periodic", {"id": "affine_strip", "parameters": {"alpha": 0.5, "h": 1.0}}),
        ("proximity", {"id": "paper_lq_family", "parameters": {"m": 3, "N": 3}}),
    ],
)
def test_solver_runs_map_each_orbit_point_once(tmp_path, monkeypatch, shape, run, system):
    calls = []
    monkeypatch.setattr(cli.gallery, "build", mapped_build(partial(counting, calls)))
    data = base_config(run=run, **RUN_SHAPES[shape])
    if system is not None:
        data["system"] = system
    summary = cli.run_experiment(cli.parse_config(data), tmp_path / "o")
    m = 3 if system and system["id"] == "paper_lq_family" else 2
    solver = _solver_steps(run, m, summary["result"]["iterations"])
    assert len(calls) == max(solver, _trace_steps(m, data["iterations"]))


@pytest.mark.parametrize("iterations", [1, 50, 20_000])
def test_trace_runs_map_each_orbit_point_once(tmp_path, monkeypatch, iterations):
    calls = []
    monkeypatch.setattr(cli.gallery, "build", mapped_build(partial(counting, calls)))
    cli.run_experiment(cli.parse_config(base_config(run="trace", iterations=iterations)), tmp_path)
    assert len(calls) == _trace_steps(2, iterations)


@pytest.mark.parametrize("run", ["banach", "periodic", "proximity"])
@pytest.mark.parametrize(
    "shape, k, past_solver",
    [
        ("early-convergence", 5, False),
        ("early-convergence", 500, True),  # the trace extends the solver's walk
        ("solver-past-trace", 12_000, False),  # the solver walks past the trace
    ],
)
def test_map_error_on_the_one_walk_matches_picard_orbit(
    tmp_path, monkeypatch, capsys, run, shape, k, past_solver
):
    data = base_config(run=run, **RUN_SHAPES[shape])
    good = cli.gallery.build(data["system"]["id"], data["system"]["parameters"])
    broken_at = picard_orbit(good.system, good.default_start, k - 1).points[-1]

    # The case sits where it says: before or after the solver's stopping point.
    summary = cli.run_experiment(cli.parse_config(data), tmp_path / "good")
    solver = _solver_steps(run, 2, summary["result"]["iterations"])
    assert (k > solver) == past_solver and k <= max(solver, _trace_steps(2, data["iterations"]))

    # The orbit is strictly monotone in |x|, so only step k maps x_{k-1}.
    failing = mapped_build(lambda inner: broken_map(inner, broken_at, no_image))
    monkeypatch.setattr(cli.gallery, "build", failing)
    broken = cli.gallery.build(data["system"]["id"], data["system"]["parameters"])
    with pytest.raises(MapError) as reference:
        picard_orbit(broken.system, broken.default_start, k)
    assert reference.value.step == k and reference.value.point == broken_at

    with pytest.raises(MapError) as err:
        cli.run_experiment(cli.parse_config(data), tmp_path / "direct")
    assert err.value.step == k and err.value.point == broken_at
    assert str(err.value) == str(reference.value)

    config = write_config(tmp_path, data)
    out = tmp_path / "o"
    capsys.readouterr()
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"map error: {reference.value}\n"
    assert not (out / "summary.json").exists() and not (out / "trace.csv").exists()
    assert not (tmp_path / "direct").exists()


def test_prefix_map_error_in_a_banach_run_exits_3_before_the_solver(
    tmp_path, monkeypatch, capsys
):
    # The run walks x_0..x_1000 first; the map fails at step 700, long after
    # the solver would have stopped (step 35 at tol 1e-10).
    data = base_config(run="banach", iterations=1000)
    good = cli.gallery.build(data["system"]["id"], data["system"]["parameters"])
    broken_at = picard_orbit(good.system, good.default_start, 699).points[-1]

    solved = []
    banach_solve = cli.orbit.banach_solve
    failing = mapped_build(lambda inner: broken_map(inner, broken_at, no_image))
    monkeypatch.setattr(cli.gallery, "build", failing)
    monkeypatch.setattr(
        cli.orbit, "banach_solve", lambda *a, **k: solved.append(a) or banach_solve(*a, **k)
    )
    config = write_config(tmp_path, data)
    out = tmp_path / "o"
    capsys.readouterr()
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"map error: map failed at {broken_at!r}: no image")
    assert not out.exists() and solved == []


@pytest.mark.parametrize("run", cli.RUNS)
def test_runs_compute_each_edge_distance_once(tmp_path, monkeypatch, run):
    lq = {"id": "paper_lq_family", "parameters": {"m": 3, "N": 2}}
    regions = cli.gallery.build(lq["id"], lq["parameters"]).system.regions
    measured = []
    region_distance = system_module.region_distance

    def counting(space, a, b):
        measured.append((a, b))
        return region_distance(space, a, b)

    monkeypatch.setattr(system_module, "region_distance", counting)
    cli.run_experiment(cli.parse_config(base_config(run=run, system=lq, iterations=50)), tmp_path)
    assert measured == [(regions[i], regions[(i + 1) % 3]) for i in range(3)]


# The library functions each run kind calls, in order.
LIBRARY_CALLS = {
    "certify": ["verify_cyclicity", "verify_contraction"],
    "banach": ["banach_solve"],
    "periodic": ["periodic_point_solve"],
    "proximity": ["proximity_chain_extract"],
    "trace": [],
}


@pytest.mark.parametrize("run", cli.RUNS)
def test_runs_look_up_the_library_functions_when_they_run(tmp_path, monkeypatch, run):
    # A wrapper set on the module after import sees the run's call, as the
    # benchmark's tracer needs: a table holding the functions themselves
    # would call around it.
    called = []

    def recording(name, function):
        def wrapper(*args, **kwargs):
            called.append(name)
            return function(*args, **kwargs)
        return wrapper

    for module, name in [
        (cli.orbit, "banach_solve"),
        (cli.orbit, "periodic_point_solve"),
        (cli.orbit, "proximity_chain_extract"),
        (cli, "verify_cyclicity"),
        (cli, "verify_contraction"),
    ]:
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    cli.run_experiment(cli.parse_config(base_config(run=run, iterations=50)), tmp_path)
    assert called == LIBRARY_CALLS[run]


MALFORMED_IMAGES = {
    "not a sequence": lambda x: -0.5 * x[0],
    "not a number": lambda x: (None,),
    "past the float range": lambda x: (10**400,),
}


@pytest.mark.parametrize("image", sorted(MALFORMED_IMAGES))
@pytest.mark.parametrize("run", cli.RUNS)
def test_malformed_map_image_is_a_map_error_with_its_step(
    tmp_path, monkeypatch, capsys, run, image
):
    data = base_config(run=run, iterations=50)
    _assert_map_error_at_step(tmp_path, monkeypatch, capsys, data, MALFORMED_IMAGES[image])


# float() reads each of these, so in the plane they read as (1.0, 2.0) or (1.5, 2.0).
NON_NUMERIC_IMAGES = {
    "str": lambda x: "12",
    "bytes": lambda x: b"12",
    "bool coordinate": lambda x: [True, 2.0],
    "str coordinate": lambda x: ["1.5", 2.0],
}


@pytest.mark.parametrize("image", sorted(NON_NUMERIC_IMAGES))
@pytest.mark.parametrize("run", cli.RUNS)
def test_string_bytes_and_boolean_images_are_map_errors_with_their_step(
    tmp_path, monkeypatch, capsys, run, image
):
    data = base_config(run=run, iterations=50, system={"id": "affine_strip", "parameters": {}})
    _assert_map_error_at_step(tmp_path, monkeypatch, capsys, data, NON_NUMERIC_IMAGES[image])


def _assert_map_error_at_step(tmp_path, monkeypatch, capsys, data, bad_image):
    """With the map giving ``bad_image(x)`` at x_{k-1}, ``apply``,
    ``picard_orbit`` and the run raise ``MapError`` at step k, and
    ``proxcycle run`` exits 3 with its message."""
    k = 5
    good = cli.gallery.build(data["system"]["id"], data["system"]["parameters"])
    broken_at = picard_orbit(good.system, good.default_start, k - 1).points[-1]

    # The orbit's first coordinate is strictly monotone in |x|, so only step
    # k maps x_{k-1}.
    malformed = mapped_build(lambda inner: broken_map(inner, broken_at, bad_image))
    monkeypatch.setattr(cli.gallery, "build", malformed)
    broken = cli.gallery.build(data["system"]["id"], data["system"]["parameters"])
    with pytest.raises(MapError) as err:
        broken.system.apply(broken_at, step=k)
    assert err.value.step == k and err.value.point == broken_at
    with pytest.raises(MapError) as err:
        picard_orbit(broken.system, broken.default_start, k)
    assert err.value.step == k and err.value.point == broken_at
    with pytest.raises(MapError) as err:
        cli.run_experiment(cli.parse_config(data), tmp_path / "direct")
    assert err.value.step == k and err.value.point == broken_at

    config = write_config(tmp_path, data)
    capsys.readouterr()
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"map error: {err.value}\n"


# --- exit codes ------------------------------------------------------------------


def test_exit_2_on_bad_config(tmp_path):
    config = write_config(tmp_path, base_config(run="explore"))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
def test_exit_2_on_non_standard_json_constant(tmp_path, constant):
    text = json.dumps(base_config(tolerance=0.125)).replace("0.125", constant)
    config = tmp_path / "config.json"
    config.write_text(text)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "key, bad",
    [("p", '"nope"'), ("id", '"nope"'), ("alpha", "2.0"), ("kind", '"cubic"')],
    ids=["top", "system", "parameters", "phi"],
)
def test_exit_2_on_a_key_given_twice(tmp_path, capsys, key, bad):
    # json.load alone keeps a repeated key's last value, so the bad first
    # value would go unseen.
    text = json.dumps(base_config()).replace(f'"{key}": ', f'"{key}": {bad}, "{key}": ', 1)
    config = tmp_path / "config.json"
    config.write_text(text)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert f"key '{key}' is given twice" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_exit_2_on_missing_config(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json"), "--out", "o"]) == 2


def test_exit_2_on_unknown_subcommand():
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


def test_exit_3_on_map_error(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.gallery, "build", mapped_build(lambda inner: lambda x: (math.nan,)))
    config = write_config(tmp_path, base_config())
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("run", cli.RUNS)
def test_exit_2_on_map_image_of_wrong_dimension(tmp_path, monkeypatch, run):
    widening = mapped_build(lambda inner: lambda x: (-0.5 * x[0], 0.0))
    monkeypatch.setattr(cli.gallery, "build", widening)
    config = write_config(tmp_path, base_config(run=run, iterations=50))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "system",
    [
        {"id": "paper_lq_family", "parameters": {"m": 2.0}},
        {"id": "paper_lq_family", "parameters": {"N": 2.5}},
        {"id": "paper_lq_family", "parameters": {"m": True}},
        {"id": "scaled_pair", "parameters": {"dimension": 2.0}},
        {"id": "scaled_pair", "parameters": {"dimension": True}},
    ],
)
def test_exit_2_on_non_integer_gallery_size(tmp_path, capsys, system):
    ((name, value),) = system["parameters"].items()
    pattern = rf"error: {name} must be .*, got {re.escape(repr(value))}\n"
    assert re.fullmatch(pattern, _refused_trace_run(tmp_path, capsys, system))


@pytest.mark.parametrize(
    "system",
    [
        {"id": ["x"]},
        {"id": "kirk_interval", "parameters": {"alpha": None}},
        {"id": "affine_strip", "parameters": {"h": None}},
        {"id": "paper_lq_family", "parameters": {"q": [2]}},
    ],
)
def test_exit_2_on_gallery_id_or_parameter_of_the_wrong_type(tmp_path, capsys, system):
    if "parameters" in system:
        ((name, value),) = system["parameters"].items()
        want = f"error: {name} must be a number or a string, got {value!r}\n"
    else:
        want = "error: system.id must be a string\n"
    assert _refused_trace_run(tmp_path, capsys, system) == want


def _refused_trace_run(tmp_path, capsys, system):
    """The error line of a trace run on ``system``, which exits 2 and
    makes no output directory."""
    config = write_config(tmp_path, base_config(system=system, run="trace", iterations=10))
    capsys.readouterr()
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    return capsys.readouterr().err


BIG = "1" + "0" * 400  # an integer past the float range


@pytest.mark.parametrize(
    "old, new",
    [
        ('"tolerance": 1e-10', '"tolerance": 1e999'),
        ('"tolerance": 1e-10', f'"tolerance": {BIG}'),
        ('"p": 2', f'"p": {BIG}'),
        ('"kind": "linear", "alpha": 0.5', f'"kind": "linear", "alpha": {BIG}'),
        ('"parameters": {"alpha": 0.5}', f'"parameters": {{"alpha": {BIG}}}'),
    ],
    ids=["tolerance-inf", "tolerance-int", "p-int", "phi-alpha-int", "gallery-alpha-int"],
)
def test_exit_2_on_numbers_past_the_float_range(tmp_path, old, new):
    # JSON reads 1e999 as inf; a 400-digit integer stays an int until float().
    text = json.dumps(base_config())
    assert old in text
    config = tmp_path / "config.json"
    config.write_text(text.replace(old, new))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def _run_raw(tmp_path, text):
    """Run a config given as raw JSON text; returns (exit code, stderr)."""
    config = tmp_path / "config.json"
    config.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    return code, err.getvalue()


@pytest.mark.parametrize(
    "system_id, name, raw",
    [
        ("affine_strip", "h", "1e999"),
        ("affine_strip", "h", '"nan"'),
        ("scaled_pair", "separation", "1e999"),
        ("scaled_pair", "separation", '"nan"'),
        ("kirk_interval", "alpha", '"inf"'),
        ("paper_lq_family", "q", "-1e999"),
        ("paper_lq_family", "m", "17"),
        ("paper_lq_family", "N", "51"),
        ("paper_lq_family", "N", "1000000"),
        ("scaled_pair", "dimension", "1001"),
    ],
)
def test_exit_2_names_a_parameter_outside_its_domain(tmp_path, system_id, name, raw):
    # Raw JSON text: json reads a literal past the float range, such as
    # 1e999, as inf. Size caps reject before any point is built.
    data = base_config(system={"id": system_id, "parameters": {name: "RAW"}}, run="trace")
    code, err = _run_raw(tmp_path, json.dumps(data).replace('"RAW"', raw))
    assert code == 2
    assert err.startswith(f"error: {name} must be "), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("run", cli.RUNS)
def test_iterations_past_sys_maxsize_run_like_a_large_budget(tmp_path, run):
    # certify reads iterations as its sample count too, so it runs on a
    # system it enumerates exhaustively, where the count is not used.
    system = {"id": "paper_lq_family", "parameters": {}} if run == "certify" else None
    outputs = []
    for iterations in (10**6, 10**20):
        data = base_config(run=run, iterations=iterations)
        data["system"] = system or data["system"]
        out = tmp_path / str(iterations)
        config = write_config(tmp_path, data)
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary.pop("iterations_requested") == iterations
        del summary["metadata"]
        outputs.append((summary, (out / "trace.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_exit_2_on_non_finite_tabulated_phi_knot(tmp_path):
    text = json.dumps(base_config(run="certify", iterations=50))
    text = text.replace(
        '{"kind": "linear", "alpha": 0.5}', '{"kind": "tabulated", "knots": [[0, 0], [1e999, 1]]}'
    )
    config = tmp_path / "config.json"
    config.write_text(text)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("knot", ["[true, 1]", "[1, false]"])
def test_exit_2_on_boolean_tabulated_phi_knot(tmp_path, knot):
    text = json.dumps(base_config(run="certify", iterations=50)).replace(
        '{"kind": "linear", "alpha": 0.5}', f'{{"kind": "tabulated", "knots": [[0, 0], {knot}]}}'
    )
    code, err = _run_raw(tmp_path, text)
    assert code == 2
    assert err.startswith("error: invalid phi: knots must be a number or a string, got "), err
    assert not (tmp_path / "o").exists()


def test_exit_2_on_string_tabulated_phi_knot(tmp_path):
    text = json.dumps(base_config(run="certify", iterations=50)).replace(
        '{"kind": "linear", "alpha": 0.5}', '{"kind": "tabulated", "knots": [[0, 0], "12"]}'
    )
    code, err = _run_raw(tmp_path, text)
    assert code == 2
    assert err.startswith("error: invalid phi: knots must be pairs of numbers, got '12'"), err
    assert not (tmp_path / "o").exists()


def test_exit_4_on_unwritable_output(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("occupied")
    config = write_config(tmp_path, base_config())
    out = blocker / "nested"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 4


# --- generated configs --------------------------------------------------------------

RAW = "@raw@"  # a string RAW + "1e999" is written to the config as the bare literal 1e999
NON_FINITE = [RAW + "1e999", RAW + "-1e999", "inf", "-inf", "nan"]
WRONG_TYPE = [None, True, False, [1], {"a": 1}, "abc"]
BIG_INT = 10**400


def _floats(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


def _numbers(strategy):
    """Numbers and their numeric strings, which parameters read as today."""
    return strategy | strategy.map(repr)


# Per parameter: (values inside the domain, finite values outside it). Sizes
# are drawn small or past their cap, never just under it, so runs stay fast.
EXPONENT_VALUES = (
    _floats(min_value=1) | st.integers(1, 8) | st.sampled_from(["inf", "Infinity", RAW + "1e999"]),
    _floats(max_value=1, exclude_max=True) | st.sampled_from(["2", "1.5", "-inf", RAW + "-1e999"]),
)
ALPHA_VALUES = (_numbers(_floats(min_value=0, max_value=1, exclude_min=True, exclude_max=True)),
                _floats(max_value=0) | _floats(min_value=1))
DOMAINS = {
    "kirk_interval": {"alpha": ALPHA_VALUES},
    "affine_strip": {
        "alpha": ALPHA_VALUES,
        "h": (_numbers(_floats(min_value=0, exclude_min=True)), _floats(max_value=0)),
    },
    "paper_lq_family": {
        "m": (st.integers(2, 3), st.integers(max_value=1) | st.integers(min_value=17) | st.just(2.0)),
        "alpha": ALPHA_VALUES,
        "q": EXPONENT_VALUES,
        "N": (st.integers(2, 4), st.integers(max_value=1) | st.integers(min_value=51) | st.just(4.0)),
    },
    "scaled_pair": {
        "alpha": ALPHA_VALUES,
        "separation": (_numbers(_floats(min_value=0)), _floats(max_value=0, exclude_max=True)),
        "dimension": (st.integers(1, 4), st.integers(max_value=0) | st.integers(min_value=1001)),
    },
}


# The top-level numbers, the same way; the base config's value when omitted.
# Iterations are drawn small, except BIG_INT, which is inside [1, inf).
FIELDS = {
    "p": EXPONENT_VALUES,
    "iterations": (st.integers(1, 50), st.integers(max_value=0) | st.sampled_from([2.0, "5"])),
    "tolerance": (_floats(min_value=0, exclude_min=True), _floats(max_value=0) | st.just("1e-3")),
    "seed": (st.integers(), st.sampled_from([1.5, "1"])),
}
# Where a non-finite value or BIG_INT is inside the domain.
INSIDE = {"q": ("inf", RAW + "1e999"), "p": ("inf", RAW + "1e999"), "iterations": (BIG_INT,),
          "seed": (BIG_INT,)}


def _draw_values(draw, domains, kinds):
    """{name: (value, inside its domain)} for the names whose kind is not "omit"."""
    values = {}
    for name, (inside, outside) in domains.items():
        kind = draw(st.sampled_from(kinds))
        if kind == "inside":
            values[name] = (draw(inside), True)
        elif kind != "omit":
            pool = {"outside": outside, "type": st.sampled_from(WRONG_TYPE), "big": st.just(BIG_INT)}
            value = draw(pool.get(kind, st.sampled_from(NON_FINITE)))
            values[name] = (value, value in INSIDE.get(name, ()))
    return values


@st.composite
def generated_configs(draw):
    """(system id, {name: (value, inside its domain)}, run, {field: (value,
    inside its domain)})."""
    system_id = draw(st.sampled_from(sorted(DOMAINS)))
    # Half the configs keep every value inside its domain, so they run.
    kinds = ["omit", "inside"] + draw(st.sampled_from([[], ["outside", "non-finite", "type", "big"]]))
    params = _draw_values(draw, DOMAINS[system_id], kinds)
    fields = _draw_values(draw, FIELDS, kinds)
    fields.setdefault("iterations", (draw(st.integers(1, 50)), True))
    return system_id, params, draw(st.sampled_from(cli.RUNS)), fields


@given(case=generated_configs())
@example(case=("affine_strip", {"h": (RAW + "1e999", False)}, "periodic", {"iterations": (10, True)}))
@example(case=("scaled_pair", {"separation": ("nan", False)}, "certify", {"iterations": (10, True)}))
@example(case=("paper_lq_family", {"N": (10**6, False)}, "trace", {"iterations": (10, True)}))
@example(case=("kirk_interval", {}, "trace", {"tolerance": (RAW + "1e999", False)}))
@example(case=("kirk_interval", {}, "trace", {"tolerance": (BIG_INT, False)}))
@example(case=("kirk_interval", {}, "certify", {"iterations": (BIG_INT, True), "p": (True, False)}))
@example(case=("kirk_interval", {}, "trace", {"iterations": (BIG_INT, True), "seed": (BIG_INT, True)}))
@settings(max_examples=150, deadline=None)
def test_generated_configs_run_or_exit_2_naming_the_parameter(case):
    system_id, params, run, fields = case
    data = base_config(
        system={"id": system_id, "parameters": {name: v for name, (v, _) in params.items()}},
        run=run,
        **{name: v for name, (v, _) in fields.items()},
    )
    text = re.sub(f'"{RAW}([^"]*)"', r"\1", json.dumps(data))
    outside = [name for name, (_, inside) in (params | fields).items() if not inside]
    if data["iterations"] == BIG_INT and not outside:
        # A run with that budget need not end; the parser takes it as it is.
        assert cli.parse_config(json.loads(text)).iterations == BIG_INT
        return
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _run_raw(Path(tmp), text)
        event(f"exit {code}")
        assert code in (0, 2, 3, 4), err
        if outside:
            assert code == 2, (code, err)
        if code == 2:
            # With every parameter inside its domain, only the rule across
            # parameters, alpha^m < 1/2, may reject the config.
            named = outside or ["alpha^m"]
            assert any(err.startswith(f"error: {name} ") for name in named), (named, err)
        if code == 0:
            summary = json.loads((Path(tmp) / "o" / "summary.json").read_text())
            jsonschema.validate(summary, SCHEMA)


# --- gallery listing ----------------------------------------------------------------


GALLERY_LIST_TEXT = """\
affine_strip: parallel segments at distance h; periodic pair ((0,0), (0,h))
    alpha: (0, 1) (default 0.5)
    h: (0, inf) (default 1.0)
kirk_interval: touching intervals on the line; zero set chain distance, fixed point 0
    alpha: (0, 1) (default 0.5)
paper_lq_family: truncated scaled-basis families in l^q; \
set chain distance not attained away from the truncation boundary
    m: integer in [2, 16] (default 2)
    alpha: (0, 1) with alpha^m < 1/2 (default 0.5)
    q: [1, inf] (default 2)
    N: integer in [2, 50] (default 6)
scaled_pair: two unit balls at a given separation; proximity chain at the nearest surface points
    alpha: (0, 1) (default 0.5)
    separation: [0, inf) (default 2.0)
    dimension: integer in [1, 1000] (default 3)
"""


def test_gallery_list_text(capsys):
    assert cli.main(["gallery", "list"]) == 0
    assert capsys.readouterr().out == GALLERY_LIST_TEXT


def test_gallery_list_json_bytes_are_pinned(capsys):
    # The SHA-256 of the whole listing: its key order, number types and
    # spacing, which the parsed comparisons below do not see.
    assert cli.main(["gallery", "list", "--json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "75b3073b81343120fd948d3c07084ffd01d8218eea545b03b2948c8cb315fdd8"


def test_gallery_list_json(capsys):
    assert cli.main(["gallery", "list", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert len(entries) == 4
