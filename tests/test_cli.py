import _pyio
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timedelta, timezone
from functools import partial
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import proxcycle.cli as cli
import proxcycle.system as system_module
from proxcycle.spaces import INFINITY
from proxcycle.system import LinearPhi, Phi, TabulatedPhi
from reference import (
    CONTRACT, LISTING, SCHEMA, counting, mapped_build, read_summary, vouched_counting,
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


# --- end-to-end runs ------------------------------------------------------------


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


def test_output_dir_from_config(tmp_path):
    out = tmp_path / "configured"
    config = write_config(tmp_path, base_config(output_dir=str(out)))
    assert cli.main(["run", "--config", str(config)]) == 0
    assert (out / "summary.json").exists()


def test_outputs_end_their_lines_in_newline_where_the_platform_ends_them_in_crlf(
    tmp_path, monkeypatch
):
    # _pyio's text files read os.linesep when they open, as the C ones do
    # where it is "\r\n": a file opened with the default newline would write
    # "\r\n" at every "\n", and the outputs would differ by platform.
    monkeypatch.setattr(cli, "open", _pyio.open, raising=False)
    monkeypatch.setattr(os, "linesep", "\r\n")
    config = cli.parse_config(base_config(run="trace", iterations=40))
    cli.run_experiment(config, tmp_path)
    for name in ("trace.csv", "summary.json"):
        text = (tmp_path / name).read_bytes()
        assert text.count(b"\n") > 10 and b"\r" not in text


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


# paper_lq_family at m = 3, N = 2: each region holds N + 1 = 3 points, and
# the top point x_8, in A_3, is the one artifact point. A certify run makes
# these kernel calls:
# - the point pairs of the three edge tables, sum |A_i||A_{i+1}| = 3 * 9 = 27;
#   every usable point's image is a family point, == a point of the next
#   region, so the certificate reads its image pairs from these tables;
# - one artifact flag per cloud point against the one artifact point, less
#   the artifact point itself, which is found by ==: 9 - 1 = 8;
# - no membership test: every usable point's image is a family point, == a
#   point of the next region;
# - the trace: the walk from x_0 reaches the stub at step 8 and stays, so the
#   first point equal to the one m before it is J = 8 + 3 = 11. The trace
#   measures the stride-1 and stride-m columns up to J, 2 * 11, and a wrap
#   term for each of its ceil(11 / 3) = 4 distinct rows: 26.
CERTIFY_KERNEL_CALLS = 27 + 8 + 0 + 26


@pytest.mark.parametrize("run", cli.RUNS)
def test_runs_compute_each_edge_distance_once(tmp_path, monkeypatch, run):
    # A cloud system that the exhaustive scan enumerates keeps one point-pair
    # table per edge, which gives both its edge distances and the
    # certificate's d terms. So every run kind measures each pair (x, y), x
    # in A_i and y in A_{i+1}, once, while the tables are built, and calls
    # region_distance for no edge.
    lq = {"id": "paper_lq_family", "parameters": {"m": 3, "N": 2}}
    build, tables = cli.gallery.build, system_module._edge_tables
    calls, spans, measured = [], [], []

    def counted_build(system_id, parameters):
        gs = build(system_id, parameters)
        space = vouched_counting(monkeypatch, gs.system.space, calls)
        return gs.__replace__(system=gs.system.__replace__(space=space))

    def building(system):
        start = len(calls)
        try:
            return tables(system)
        finally:
            spans.append((start, len(calls)))

    monkeypatch.setattr(cli.gallery, "build", counted_build)
    monkeypatch.setattr(system_module, "_edge_tables", building)
    monkeypatch.setattr(system_module, "region_distance",
                        counting(measured, system_module.region_distance))
    cli.run_experiment(cli.parse_config(base_config(run=run, system=lq, iterations=50)), tmp_path)
    regions = build(lq["id"], lq["parameters"]).system.regions
    pairs = [(x, y) for a, b in zip(regions, regions[1:] + regions[:1])
             for x in a.points for y in b.points]
    assert [pair for start, end in spans for pair in calls[start:end]] == pairs
    assert measured == []
    if run == "certify":
        assert len(calls) == CERTIFY_KERNEL_CALLS


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


def _run_raw(tmp_path, text):
    """Run a config given as raw JSON text; returns (exit code, stderr)."""
    config = tmp_path / "config.json"
    config.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    return code, err.getvalue()


def _config_text(row, value):
    """The JSON text of the config ``row`` reads for ``value``, or None
    where JSON writes no such value (nan, inf, an int past 4 300 digits,
    bytes, a Fraction, a set)."""
    try:
        return json.dumps(row.call.config(value), allow_nan=False)
    except (TypeError, ValueError):
        return None


# Each refusal of a ``parse_config`` row whose config JSON can write.
CONFIG_REFUSALS = [
    (row, label) for row in CONTRACT if hasattr(row.call, "config")
    for label, (value, outcome) in row.outcomes().items()
    if outcome is not None and _config_text(row, value) is not None
]


@pytest.mark.parametrize("row, label", CONFIG_REFUSALS,
                         ids=[f"{row}-{label}" for row, label in CONFIG_REFUSALS])
def test_the_cli_refuses_each_config_the_contract_refuses(tmp_path, row, label):
    # Exit 2, the row's message as the one line on stderr, and no output
    # directory: the refusal comes before anything is built or written.
    value, (error, template) = row.outcomes()[label]
    code, err = _run_raw(tmp_path, _config_text(row, value))
    assert (code, err) == (2, f"error: {row.message(template, label)}\n")
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
        summary = read_summary(out)
        assert summary.pop("iterations_requested") == iterations
        del summary["metadata"]
        outputs.append((summary, (out / "trace.csv").read_bytes()))
    assert outputs[0] == outputs[1]


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
@example(case=("paper_lq_family", {"m": (2.0, False)}, "trace", {"iterations": (10, True)}))
@example(case=("scaled_pair", {"dimension": (1001, False)}, "trace", {"iterations": (10, True)}))
@example(case=("kirk_interval", {}, "trace", {"tolerance": (RAW + "1e999", False)}))
@example(case=("kirk_interval", {}, "trace", {"tolerance": (BIG_INT, False)}))
@example(case=("kirk_interval", {}, "trace", {"tolerance": (True, False)}))
@example(case=("kirk_interval", {}, "trace", {"p": (BIG_INT, False)}))
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
            # parameters, alpha^m < 1/2, may reject the config. A refusal is
            # one line, and comes before the output directory is made.
            named = outside or ["alpha^m"]
            assert any(err.startswith(f"error: {name} ") for name in named), (named, err)
            assert re.fullmatch("error: .*\n", err) and not (Path(tmp) / "o").exists(), err
        if code == 0:
            read_summary(Path(tmp) / "o")


# --- gallery listing ----------------------------------------------------------------


def test_gallery_list_text(capsys):
    # README's line format: "id: description", then one line
    # "    name: domain (default value)" per parameter.
    want = "".join(
        f"{entry['id']}: {entry['description']}\n"
        + "".join(f"    {p['name']}: {p['domain']} (default {p['default']})\n"
                  for p in entry["parameters"])
        for entry in LISTING
    )
    assert cli.main(["gallery", "list"]) == 0
    assert capsys.readouterr().out == want


def test_gallery_list_json_bytes_are_pinned(capsys):
    # The whole text: key order, number types (2 against 2.0) and spacing,
    # which a parsed comparison does not see.
    assert cli.main(["gallery", "list", "--json"]) == 0
    assert capsys.readouterr().out == json.dumps(LISTING, indent=2) + "\n"
