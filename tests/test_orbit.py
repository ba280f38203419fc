import collections
import itertools
import math
import tracemalloc
from fractions import Fraction
from operator import is_

import pytest

from proxcycle.chains import chain_point_distance
from proxcycle.gallery import (
    GALLERY,
    make_affine_strip,
    make_kirk_interval,
    make_paper_lq_family,
    make_scaled_pair,
)
from proxcycle.orbit import (
    _CHUNK,
    OrbitTrace,
    _record,
    _Walk,
    apriori_error_bound,
    banach_solve,
    block_drift_trace,
    boundedness_probe,
    chain_trace,
    cross_block_chain_distance,
    edge_trace,
    periodic_point_solve,
    picard_orbit,
    proximity_chain_extract,
    _trace_columns,
    trace_rows,
)
import proxcycle.orbit as orbit_module
import proxcycle.system as system_module
from proxcycle.cli import TRACE_BLOCK, _write_trace_csv
from proxcycle.spaces import INFINITY, LqSpace, OracleSpace, as_exponent, check_point
from proxcycle.system import Box, CyclicSystem, MapError
from reference import (
    SYSTEMS,
    CountingLq,
    built,
    counted_kirk,
    counting,
    fields_hex,
    hexed,
    line_gap,
    line_system,
    per_row_csv,
    per_step_fields,
    public_boundedness,
    public_chain_trace,
    public_gaps,
    public_trace_rows,
    reference_columns,
    reference_rows,
    swing,
)


def test_apriori_error_bound_formula():
    assert apriori_error_bound(0.5, 2, 3, 1.0) == pytest.approx(0.03125)
    assert apriori_error_bound(0.5, 2, 0, 1.0) == pytest.approx(2.0)
    # An infinite gap stays infinite, also where alpha^(mk) underflows to 0.
    assert apriori_error_bound(0.5, 2, 10, math.inf) == math.inf
    assert apriori_error_bound(0.5, 2, 10**6, math.inf) == math.inf
    with pytest.raises(ValueError):
        apriori_error_bound(1.5, 2, 1, 1.0)


def test_apriori_error_bound_takes_an_infinite_gap_and_int_arguments():
    assert apriori_error_bound(0.5, 2, 1, math.inf) == math.inf
    assert apriori_error_bound(0.5, 3, 2, 4) == 0.5 ** 6 * 4 / 0.5


def test_apriori_error_bound_takes_exponents_past_the_float_range():
    # m and k are ints as their domains take them; alpha^(mk) is 0.0 there,
    # and an infinite gap stays infinite.
    for alpha in (0.5, 1 - 2 ** -53):
        for m, k in ((2, 10 ** 400), (10 ** 400, 1), (2, 2 ** 63)):
            assert apriori_error_bound(alpha, m, k, 1.0) == 0.0
            assert apriori_error_bound(alpha, m, k, math.inf) == math.inf
    assert apriori_error_bound(0.5, 2, 2 ** 63 - 1, 1.0) == 0.0


def test_zero_step_budgets_keep_their_results():
    system = make_kirk_interval(0.5).system
    # picard_orbit keeps its n >= m rule after the integer read.
    with pytest.raises(ValueError, match="^need at least m = 2 steps$"):
        picard_orbit(system, (-1.0,), 1)
    assert len(picard_orbit(system, (-1.0,), 2).points) == 3
    solved = banach_solve(system, (-1.0,), max_iter=0)
    assert (solved.converged, solved.iterations) == (False, 0)
    assert "max_iter exhausted before the step criterion fired" in solved.warnings
    extracted = proximity_chain_extract(system, (-1.0,), max_iter=0)
    assert (extracted.converged, extracted.iterations) == (False, 0)
    # The periodic solver runs at least one block of m steps.
    assert periodic_point_solve(system, (-1.0,), max_iter=0) == periodic_point_solve(
        system, (-1.0,), max_iter=1
    )


# --- the trace table: each reader gives its references' bits ------------------
#
# A row of ``TRACES`` is (system, steps, p, pins): the orbit of a system of
# ``SYSTEMS`` from its start, ``steps`` long. Its rows, both columns, the
# written trace.csv and every public per-column reader give the bits of
# their references; the row pins what it names of J (the settle index), the
# row count, how many chain entries are edge_1's own object and the strides
# of 1 and m whose column is read from first coordinates (``_flat`` said
# yes). Past J no new float or row object is made, wherever J falls.

Pins = collections.namedtuple("Pins", "settle rows same flat", defaults=(None,) * 4)
P3, P4, KIRK = (1, 2, INFINITY), (1, 2, 3.5, INFINITY), "kirk_interval(alpha=0.5)"
LQ = "paper_lq_family(m={}, N={}, q={})"
PAIR = "scaled_pair(alpha=0.4, separation=2.0, dimension=3)"
TRACES = [
    # The kernels chosen per (q, dimension): l^3, l^1 and l^inf in 6 to 29
    # coordinates, and the line; orbit lengths cover every residue mod m, so
    # the last block is complete or cut anywhere.
    *((name, steps * built(name)[0].m + r, p, Pins())
      for name in (*(LQ.format(m, 6, q) for m in (2, 3, 4) for q in (3, 1, "inf")), KIRK)
      for steps in (3, 10, 43) for r in range(built(name)[0].m) for p in P4),
    # The orbit reaches the truncation stub after m(N + 1) - 1 = 8 steps and
    # stays, so almost every trace distance is between equal points.
    *((LQ.format(3, 2, q), 200, p, Pins(11)) for q in (1, 3, "inf") for p in P4),
    # An asymmetric oracle: every distance keeps its argument order.
    *(("turn from (1.0, 0.5)", 40, p, Pins()) for p in P4),
    # Settled orbits: on the points (-1, 0, 0) and (1, -0.0, -0.0), every
    # pair on the first axis; on -0.0 and 0.0 once the orbit underflows; on
    # the stub, the very object the stub map returns; on a fixed point.
    *((PAIR, 2500, p, Pins(73, flat=(1, 2))) for p in P3),
    (KIRK, 2500, 2, Pins(1077, flat=(1, 2))),
    (LQ.format(2, 2, 2), 80, 2, Pins(7)),
    *((LQ.format(3, 6, 2), steps, 2, Pins(23)) for steps in (120, 10_000)),
    ("fixed point", 60, 2, Pins(10)),
    # Period 2 but not 1. Rows from ceil(J / m) = 4 on repeat row 3: with 10
    # or 11 points there is none, only column entries past J; with 12 or 13
    # points the orbit settles only in its last row.
    *(("swing", n, 2, Pins(8, rows)) for n, rows in zip(range(8, 14), (3, 4, 4, 5, 5, 6))),
    ("period 2m", 41, 2, Pins(42)),
    # Each chain combines [e, e] for its edge_1 entry e = 1.2e308: it
    # overflows to inf at p = 1 and 1.5 and stays finite at p = 2 and 3.
    *(("flip from 6e307", 41, p, Pins(2, 20, int(p is INFINITY)))
      for p in (1, 1.5, 2, 3, INFINITY)),
    *((f"scripted m={m}", 8, 2, Pins(8)) for m in (2, 3)),
    # The writer, past two blocks: at p = inf the chain of a two-region row
    # is the max of the step and the wrap, the same float object, and takes
    # edge_1's text; elsewhere the chain is a new float. A metric oracle has
    # no gap bound: every wrap term is measured, and the orbit never settles.
    # The strip's second coordinate comes back every m = 2 steps, so only
    # the stride-2 column is read from first coordinates.
    *(("affine_strip(alpha=0.999, h=2.0)", 10_000, p,
       Pins(10_001, 4999, 4999 * (p is INFINITY), flat=(2,))) for p in P3),
    ("kirk_interval(alpha=0.001)", 10_000, INFINITY, Pins(10_001, 4999, 4999)),
    *(("swing oracle", 2 * TRACE_BLOCK + 301, p,
       Pins(2 * TRACE_BLOCK + 302, TRACE_BLOCK + 150, (TRACE_BLOCK + 150) * (p is INFINITY)))
      for p in (2, INFINITY)),
    *(("turn from (1.5, 0.5)", 3 * TRACE_BLOCK + 302, p, Pins(rows=TRACE_BLOCK + 100))
      for p in (2, INFINITY)),
    # Row counts at the writer's block bounds, every row distinct; then a
    # settled stretch that starts inside a block or on a block bound.
    *(("shrink", 2 * rows + 1, p, Pins(2 * rows + 2, rows, rows * (p is INFINITY)))
      for rows in (1, 1023, 1024, 1025, 2049) for p in (2, INFINITY)),
    *((f"stairs {d}", 2 * d + 700, p, Pins(2 * d, d + 349))
      for d in (750, 1023, 1024, 1025, 1500) for p in (2, INFINITY)),
    # Each gallery kernel, 22 coordinates included, and an oracle in the plane.
    *((name, 60, p, Pins()) for name in (
        "kirk_interval(alpha=0.3)", "affine_strip(alpha=0.4, h=1.5)", LQ.format(3, 6, 3))
      for p in P3),
    *(("scaled_pair(alpha=0.4, separation=2.0, dimension=22)", 60, p, Pins(flat=(1, 2)))
      for p in P3),
    *(("oracle turn", 61, p, Pins(flat=())) for p in P3),
    # Orbits on the first axis: both columns read from first coordinates,
    # over every pair of an unsettled 10 000-step orbit too, in l^2 in the
    # plane and 3-space and in l^1 and l^inf in five. An orbit whose last
    # point leaves the axis is measured by its kernel.
    *((f"scaled_pair(alpha=0.002, separation=0.0, dimension={d})", 10_000, 2,
       Pins(10_001, 4999, flat=(1, 2))) for d in (2, 3)),
    *((f"axis l^{q} in 5", 200, p, Pins(201, flat=(1, 3))) for q in (1, "inf") for p in P3),
    *((f"late kick in {d}", 41, p, Pins(42, flat=())) for d in (2, 3) for p in P3),
]


@pytest.mark.parametrize("name, steps, p, pins", TRACES,
                         ids=[f"{name}-{steps}-{p}" for name, steps, p, _ in TRACES])
def test_each_trace_reader_gives_its_references_bits(name, steps, p, pins, tmp_path, monkeypatch):
    system, x0 = built(name)
    trace = picard_orbit(system, x0, steps)
    m, settle, rows = trace.m, trace._settled(), trace_rows(trace, p)
    _write_trace_csv(tmp_path / "trace.csv", trace, as_exponent(p))
    assert (tmp_path / "trace.csv").read_bytes() == per_row_csv(m, rows)
    columns, count = _trace_columns(trace, p)
    distinct = -(-settle // m)
    assert count == len(rows) and len(columns[0]) == min(distinct, count)
    assert all(row is rows[distinct - 1] for row in rows[distinct:])
    assert len(set(map(id, rows[:distinct]))) == min(distinct, count)
    got = (settle, count, sum(map(is_, columns[0], columns[1])), _flat_strides(trace, monkeypatch))
    assert Pins(*(g if pin is not None else None for g, pin in zip(got, pins))) == pins
    if len(trace.points) < 3 * m:
        return  # too short for a drift trace, which the references read
    for s, column in reference_columns(trace).items():
        # A fresh trace measures the column itself, not the one trace_rows kept.
        gaps = OrbitTrace(system, trace.points)._gaps(s)
        assert hexed(gaps) == hexed(column)
        assert all(gaps[j] is gaps[j - m] for j in range(settle, len(gaps)))
    # The rows are those of the public per-column readers and of the per-pair
    # reads; each reader gives the bits of its reference, which reads the
    # points one pair or one chain at a time.
    assert hexed(rows) == hexed(reference_rows(trace, p)) == hexed(public_trace_rows(trace, p))
    assert hexed(chain_trace(trace, p)) == hexed(public_chain_trace(trace, p))
    for i in range(1, m + 1):
        assert hexed(edge_trace(trace, i)) == hexed(public_gaps(trace, i, 1))
        assert hexed(block_drift_trace(trace, i)) == hexed(public_gaps(trace, i, m))
    for n, k in ((1, 0), (0, 1), (3, 7), (5, 5)):
        if max(n, k) < len(trace.points) // m:
            want = chain_point_distance(system.space, trace.block(n), trace.block(k), p)
            assert float.hex(cross_block_chain_distance(trace, n, k, p)) == float.hex(want)
    report = boundedness_probe(trace)
    assert hexed((report.sups, report.stabilized)) == hexed(public_boundedness(trace))


def _flat_strides(trace, monkeypatch):
    """The strides s of 1 and m whose column ``_gaps(s)``, measured on a
    fresh trace of the same points, ``_flat`` let through."""
    said, flat, strides = [], orbit_module._flat, []
    with monkeypatch.context() as patch:
        patch.setattr(orbit_module, "_flat", lambda xs, ys: said.append(flat(xs, ys)) or said[-1])
        for s in (1, trace.m):
            said.clear()
            OrbitTrace._of(trace.system, trace.points)._gaps(s)
            strides += [s] * any(said)
    return tuple(strides)


def _halving_kirk_system(floor, calls):
    """Kirk's boxes under x -> -x/2, so x_k = -(-1/2)^k from x_0 = -1; the
    map refuses points with |x| < floor and records each call in ``calls``."""

    def halve(x):
        if abs(x[0]) < floor:
            raise RuntimeError("no image")
        return (-x[0] / 2.0,)

    return make_kirk_interval(0.5).system.__replace__(map=counting(calls, halve))


@pytest.mark.parametrize("solve", [banach_solve, periodic_point_solve])
def test_residual_image_is_a_walked_step(solve):
    # Both solvers stop at x_12 (the step and the 2-step drift first fall
    # under 1e-3 there); the residual maps x_12 = 2^-12 < 2^-11, step 13.
    with pytest.raises(MapError) as err:
        solve(_halving_kirk_system(2.0 ** -11, []), (-1.0,), tol=1e-3, max_iter=100)
    assert err.value.step == 13 and err.value.point == (-(2.0 ** -12),)


def test_periodic_residual_and_proximity_chain_share_their_map_calls():
    # 12 walked steps to the stopping point, then m = 2 more serve both the
    # residual image x_14 and the proximity chain (x_12, x_13).
    calls = []
    solved = periodic_point_solve(
        _halving_kirk_system(0.0, calls), (-1.0,), tol=1e-3, max_iter=12
    )
    assert solved.converged and solved.iterations == 12
    assert calls == [(-((-0.5) ** k),) for k in range(14)]
    assert solved.point == (-(2.0 ** -12),)
    assert solved.residual == 2.0 ** -12 - 2.0 ** -14


def test_membership_violations_match_direct_checks():
    # paper_lq_family's orbit leaves A_1 for the truncation stub and stays
    # there; the cycle 0 -> 1 -> 2 -> 3 -> 0 alternates in and out of A_1.
    cycle = CyclicSystem(
        space=LqSpace(as_exponent(2), 1),
        regions=(Box((0.0,), (1.0,)), Box((1.0,), (3.0,))),
        map=lambda x: ((x[0] + 1.0) % 4.0,),
    )
    starts = [(cycle, (0.0,))]
    for m in (2, 3):
        gs = make_paper_lq_family(m=m, alpha=0.5, q=2, N=3)
        starts.append((gs.system, gs.default_start))
    for system, x0 in starts:
        trace = picard_orbit(system, x0, 41)
        first = system.regions[0]
        want = tuple(
            (k, x)
            for k, x in enumerate(trace.points)
            if k and k % system.m == 0 and not first.contains(x, system.space)
        )
        assert want and trace.membership_violations == want


def test_orbit_results_are_immutable_value_records():
    system = make_affine_strip(0.5, 1.0).system
    trace = picard_orbit(system, (1.0, 0.0), 8)
    results = [
        trace,
        banach_solve(system, (1.0, 0.0), max_iter=20),
        periodic_point_solve(system, (1.0, 0.0), max_iter=20),
        proximity_chain_extract(system, (1.0, 0.0), max_iter=20),
        boundedness_probe(trace),
    ]
    for result in results:
        with pytest.raises(AttributeError):
            setattr(result, type(result)._fields[0], None)
        fields = [getattr(result, name) for name in type(result)._fields]
        assert type(result)(*fields) == result
    assert picard_orbit(system, (1.0, 0.0), 8) == trace
    assert hash(picard_orbit(system, (1.0, 0.0), 8)) == hash(trace)


def test_a_gallery_walk_never_reads_an_image_by_check_point(monkeypatch):
    # Every gallery image is a tuple of exact floats, read by the chunk pass.
    walks = [built(n) for n in SYSTEMS if n.partition("(")[0] in GALLERY and n[-1] == ")"]
    read = []
    monkeypatch.setattr(system_module, "check_point", lambda v: read.append(v) or check_point(v))
    for (system, x0), walker in itertools.product(walks, (_record, picard_orbit)):
        assert len(walker(system, x0, 2 * _CHUNK + 1).points) == 2 * _CHUNK + 2
    assert read == []


# --- the solver tail, walked in chunks with the stop rule inline ---------------

# Kirk's interval at alpha 0.001: x_k = (-0.999)^k * x_0, so |x_k| names step
# k, and each solver stops near step 5 300 at its tolerance, far past the
# recorded prefix.
TAIL_SOLVERS = {
    "banach": (banach_solve, 1e-2),
    "periodic": (periodic_point_solve, 1e-5),
    "proximity": (proximity_chain_extract, 1e-5),
}
TAIL_KEEP = 2_000
TAIL_BUDGET = 20_000


# --- each prefix distance measured once -----------------------------------------


@pytest.mark.parametrize("keep", [10_000, TAIL_KEEP])
@pytest.mark.parametrize("solver", sorted(TAIL_SOLVERS))
def test_each_prefix_distance_is_measured_once(solver, keep):
    # A walk recording 10 000 steps holds each solver's stop; one recording
    # TAIL_KEEP does not. The solver reads its stride-s column of the
    # prefix (s = 1 for banach, m = 2 otherwise) and measures only the
    # checked drifts past it and its own result; trace_rows then measures
    # the other column and the wrap terms, and nothing twice.
    solve, tol = TAIL_SOLVERS[solver]
    system, calls = counted_kirk()
    x0, m = (-1.0,), system.m
    walk = _record(system, x0, keep)
    assert calls == []
    result = solve(system, walk, tol=tol, max_iter=TAIL_BUDGET)
    k, s = result.iterations, 1 if solver == "banach" else m
    assert (k <= keep) == (keep == 10_000)
    column = keep + 1 - s
    # The checked steps past the prefix: every step, or the multiples of m.
    tail = max(0, k // m - keep // m if solver == "periodic" else k - keep)
    measures = {"banach": 1, "periodic": 1 + m, "proximity": 2 * m}[solver]
    assert len(calls) == column + tail + measures
    want = per_step_fields(solver, system, x0, tol)
    assert {name: fields_hex(result)[name] for name in want} == want

    calls.clear()
    rows = trace_rows(walk, 2)
    other = keep + 1 - (m if s == 1 else 1)
    wraps = (keep + 1) // m - 1
    assert len(calls) == other + wraps
    assert rows == reference_rows(walk, 2)


# --- the tail's drift test behind the first-coordinate gap ---------------------


@pytest.mark.parametrize("solver", sorted(TAIL_SOLVERS))
def test_a_space_without_the_gap_bound_measures_every_checked_tail_drift(solver):
    # The oracle count is pinned, call by call, by
    # test_each_prefix_distance_is_measured_once: one oracle call per
    # checked step past the prefix. An LqSpace subclass with a kernel of its
    # own makes the same calls, and both give the bound space's result.
    solve, tol = TAIL_SOLVERS[solver]
    oracle_system, oracle_calls = counted_kirk()
    kirk = make_kirk_interval(0.001).system
    space = CountingLq(as_exponent(2), 1)
    assert kirk.space._gap_bound and not space._gap_bound
    counted = kirk.__replace__(space=space)
    x0 = (-1.0,)
    results = [
        solve(system, _record(system, x0, TAIL_KEEP), tol=tol, max_iter=TAIL_BUDGET)
        for system in (kirk, oracle_system, counted)
    ]
    assert results[0].iterations > TAIL_KEEP
    assert len(space.calls) == len(oracle_calls)
    assert fields_hex(results[1]) == fields_hex(results[0])
    assert fields_hex(results[2]) == fields_hex(results[0])


# --- settled orbits: rows and columns past the settle index -----------------


def test_spaces_without_the_gap_bound_measure_every_entry(tmp_path):
    # The swing settles at J = 8, but neither a metric oracle nor an l^2
    # space with a kernel of its own vouches for equal bits on equal
    # points: each measures every step, every drift and every wrap term.
    calls = []
    bound = picard_orbit(line_system(swing), (-2.0,), 60)
    counted = CountingLq(as_exponent(2), 1)
    oracle = OracleSpace(counting(calls, line_gap), 1)
    for space, made in ((oracle, calls), (counted, counted.calls)):
        trace = OrbitTrace(line_system(swing, space=space), bound.points)
        assert trace._settled() == len(trace.points) == 61
        rows = trace_rows(trace, 2)
        assert len(made) == 60 + 59 + 29
        assert [hexed(row) for row in rows] == [hexed(row) for row in trace_rows(bound, 2)]
        assert len(set(map(id, rows))) == len(rows)


# --- the trace.csv writer ------------------------------------------------------


def _assert_written_per_row(tmp_path, trace, p):
    path = tmp_path / "trace.csv"
    _write_trace_csv(path, trace, as_exponent(p))
    assert path.read_bytes() == per_row_csv(trace.m, trace_rows(trace, p))


def _chain_is_edge_1(trace, p):
    """How many chain entries of the distinct rows are their edge_1 entry,
    the very object, and how many rows there are."""
    columns, _ = _trace_columns(trace, p)
    return sum(map(is_, columns[0], columns[1])), len(columns[0])


def _edge_1_or_edge_2(n):
    # Block n of a line orbit (x_0, x_1, x_2), c = n / 1024: x_2 between x_0
    # and x_1 makes d(x_0, x_1) the largest of the three terms, x_0 between
    # x_1 and x_2 makes d(x_1, x_2) the largest.
    c = n / 1024
    return [(c,), (c + 0.5,), (c - 1.0,)] if n % 3 == 2 else [(c,), (c + 1.0,), (c + 0.5,)]


def test_three_region_writer_formats_a_chain_of_other_edges(tmp_path):
    # At p = inf a three-region chain is the first of its terms to reach
    # their max: here edge_1's object in some rows and edge_2's in others,
    # in every block, so no block takes edge_1's text for its chain.
    points = [pt for n in range(TRACE_BLOCK + 300) for pt in _edge_1_or_edge_2(n)]
    trace = OrbitTrace(line_system(swing, 3), tuple(points))
    columns, count = _trace_columns(trace, INFINITY)
    chains, edge_1, edge_2 = columns[:3]
    assert count == len(chains) == TRACE_BLOCK + 299
    for start in (0, TRACE_BLOCK):
        block = range(start, min(start + TRACE_BLOCK, count))
        assert chains[start] is edge_1[start]
        assert all(chains[n] is (edge_2 if n % 3 == 2 else edge_1)[n] for n in block)
    _assert_written_per_row(tmp_path, trace, INFINITY)


def _signed_zero_system():
    """A fixed point under a metric oracle that gives -0.0 for equal points."""

    def oracle(a, b):
        return -0.0 if a == b else abs(a[0] - b[0])

    return line_system(lambda x: x, space=OracleSpace(oracle, 1))


@pytest.mark.parametrize("p", [1, 2, INFINITY])
def test_writer_tests_the_chain_for_identity_not_equality(tmp_path, p):
    # Every step is -0.0. At p = 1 and 2 the chain is +0.0: equal to edge_1
    # but another float, which prints otherwise, so it keeps its own text.
    # At p = inf it is edge_1's -0.0 itself.
    trace = picard_orbit(_signed_zero_system(), (0.0,), 2 * TRACE_BLOCK + 41)
    rows = trace_rows(trace, p)
    assert len(rows) == TRACE_BLOCK + 20
    assert all(math.copysign(1.0, row[1]) < 0 for row in rows)
    if p is INFINITY:
        assert _chain_is_edge_1(trace, p) == (len(rows), len(rows))
    else:
        assert all(row[0] == row[1] and repr(row[0]) != repr(row[1]) for row in rows)
    _assert_written_per_row(tmp_path, trace, p)


@pytest.mark.parametrize("p", [2, INFINITY])
def test_writer_holds_one_block_of_text_at_a_time(tmp_path, p):
    # A 10 000-step trace, 4 999 rows, every one distinct, 0.5 MB of text:
    # its lines built at once take 1.7-2 MiB, one block's 0.6 MiB with the
    # columns, as much as a per-row writer's rows.
    gs = make_affine_strip(alpha=0.999, h=2.0)
    trace = picard_orbit(gs.system, gs.default_start, 10_000)
    path = tmp_path / "trace.csv"
    _write_trace_csv(path, trace, as_exponent(p))  # measures the columns, kept on the trace
    tracemalloc.start()
    try:
        _write_trace_csv(path, trace, as_exponent(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == per_row_csv(trace.m, trace_rows(trace, p))
    assert path.read_bytes().count(b"\n") == 5000
    assert peak < 2**20


# --- one reader of trace points: the constructor ---------------------------


def test_a_trace_of_lists_and_ints_equals_its_float_tuple_twin():
    kirk = make_kirk_interval(0.5).system
    twin = OrbitTrace(kirk, ((-1.0,), (0.5,), (-0.25,), (0.0,)))
    readings = (
        [[-1], [0.5], [-0.25], [0]],
        ([-1.0], (0.5,), [Fraction(-1, 4)], (0,)),
        iter([(-1,), [0.5], (-0.25,), [0]]),
    )
    for points in readings:
        trace = OrbitTrace(kirk, points)
        assert trace == twin and hash(trace) == hash(twin)
        assert type(trace.points) is tuple
        assert all(type(pt) is tuple and set(map(type, pt)) == {float} for pt in trace.points)
        assert trace_rows(trace, 2) == trace_rows(twin, 2)
    walked = picard_orbit(kirk, (-1.0,), 50)
    assert OrbitTrace(kirk, walked.points).points is walked.points  # read as it is, no copy
    # The membership violations are read once too, into (index, point) pairs.
    for violations, twin_violations in (([], ()), ([[2, [-0.25]]], ((2, (-0.25,)),))):
        trace = OrbitTrace(kirk, twin.points, violations)
        twinned = OrbitTrace(kirk, twin.points, twin_violations)
        assert trace == twinned and hash(trace) == hash(twinned)
        assert trace.membership_violations == twin_violations


def test_picard_orbit_is_a_plain_trace_and_only_a_walk_is_a_solver_start():
    gs = make_affine_strip(0.5, 1.0)
    trace = picard_orbit(gs.system, gs.default_start, 40)
    assert type(trace) is OrbitTrace and trace.membership_violations == ()
    assert trace == OrbitTrace(gs.system, trace.points)
    assert trace == OrbitTrace(gs.system, [list(pt) for pt in trace.points])
    walk = _record(gs.system, gs.default_start, 40)
    assert type(walk) is _Walk and walk.points == trace.points
    assert fields_hex(banach_solve(gs.system, walk)) == fields_hex(
        banach_solve(gs.system, gs.default_start)
    )
    with pytest.raises(TypeError, match="not iterable"):
        banach_solve(gs.system, trace)  # a public trace is read as a start point


# (system, steps): the point calls, _as_read calls and coordinates read by a
# walk of that many steps: x0 once, each chunk's images once (an image that
# is its predecessor's very object skipped), and nothing again for the
# trace. paper_lq_family's second point call is its artifact point, read
# when its system is built.
WALK_READS = {
    "kirk_interval": (lambda: make_kirk_interval(), 3000, (1, 3, 3001)),
    "affine_strip": (lambda: make_affine_strip(alpha=0.001), 2500, (1, 3, 5002)),
    "paper_lq_family": (lambda: make_paper_lq_family(m=3, N=6), 2100, (2, 3, 484)),
    "scaled_pair": (lambda: make_scaled_pair(), 1500, (1, 2, 4503)),
}


@pytest.mark.parametrize("walker", ["record", "picard_orbit"])
@pytest.mark.parametrize("name", sorted(WALK_READS))
def test_a_walk_reads_its_points_once(name, walker):
    make, steps, expected = WALK_READS[name]
    gs = make()
    space = CountingLq(gs.system.space.q, gs.system.space.dimension)
    system = gs.system.__replace__(space=space)
    if walker == "record":
        trace = _record(system, gs.default_start, steps)
    else:
        trace = picard_orbit(system, gs.default_start, steps)
    kinds = [kind for kind, _ in space.reads]
    assert (kinds.count("point"), kinds.count("_as_read")) == expected[:2]
    assert sum(coordinates for _, coordinates in space.reads) == expected[2]
    assert len(trace.points) == steps + 1


def test_the_trace_systems_are_what_their_rows_need():
    # The row counts of the writer's rows sit at its block bounds.
    assert TRACE_BLOCK == 1024
    system, x0 = built("turn from (1.0, 0.5)")
    x1 = system.apply(x0)
    assert system.space.distance(x0, x1) != system.space.distance(x1, x0)
    # The orbit reaches the stub at step 8 and stays, on the very object the
    # stub map returns.
    for q in (1, 3, "inf"):
        system, x0 = built(LQ.format(3, 2, q))
        points = picard_orbit(system, x0, 200).points
        assert system.is_artifact(points[8]) and set(points[8:]) == {points[8]}
    for name, steps, settle in ((LQ.format(2, 2, 2), 80, 7), (LQ.format(3, 6, 2), 120, 23)):
        points = picard_orbit(*built(name), steps).points
        assert points[-1] is points[settle - 1]
    # Settled on signed zeros: (1, -0.0, -0.0), and -0.0 and 0.0 in turn.
    points = picard_orbit(*built(PAIR), 2500).points
    assert any(c == 0.0 and math.copysign(1.0, c) < 0 for x in points[73:] for c in x)
    points = picard_orbit(*built(KIRK), 2500).points
    assert {float.hex(x[0]) for x in points[1077:]} == {"0x0.0p+0", "-0x0.0p+0"}
    # Off the first axis at the last point only.
    for d in (2, 3):
        points = picard_orbit(*built(f"late kick in {d}"), 41).points
        assert [x[1:] != points[0][1:] for x in points] == [False] * 41 + [True]
    points = picard_orbit(*built("period 2m"), 41).points
    assert points[-1] == points[-5] != points[-3]
    # Steps of 1.2e308, whose chain of two overflows at p = 1 and 1.5 only.
    trace = picard_orbit(*built("flip from 6e307"), 41)
    assert trace_rows(trace, 2)[0][1:3] == (1.2e308, 1.2e308)
    chains = [trace_rows(trace, p)[0][0] for p in (1, 1.5, 2, 3)]
    assert chains[:2] == [math.inf] * 2 and all(map(math.isfinite, chains[2:]))
