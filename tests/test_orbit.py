import csv
import math
import tracemalloc
from fractions import Fraction
from operator import is_

import pytest

from proxcycle.chains import chain_point_distance, chain_self_distance
from proxcycle.gallery import (
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
import proxcycle.system as system_module
from proxcycle.cli import TRACE_BLOCK, _write_trace_csv
from proxcycle.spaces import INFINITY, LqSpace, OracleSpace, as_exponent, check_point
from proxcycle.system import Box, CyclicSystem, MapError
from reference import (
    CountingLq,
    counted_kirk,
    counting,
    fields_hex,
    hexed,
    line_gap,
    per_row_csv,
    per_step,
    per_step_fields,
    public_boundedness,
    public_chain_trace,
    public_gaps,
    public_trace_rows,
    reference_columns,
    reference_rows,
    typed_hex,
)


def test_picard_orbit_kirk_closed_form():
    system = make_kirk_interval(0.5).system
    trace = picard_orbit(system, (-1.0,), 3)
    assert trace.points == ((-1.0,), (0.5,), (-0.25,), (0.125,))


def test_picard_orbit_affine_strip_closed_form():
    system = make_affine_strip(0.5, 1.0).system
    trace = picard_orbit(system, (1.0, 0.0), 2)
    assert trace.points == ((1.0, 0.0), (0.5, 1.0), (0.25, 0.0))


def test_picard_orbit_length_contract():
    system = make_kirk_interval(0.5).system
    assert len(picard_orbit(system, (-1.0,), 10).points) == 11


def test_chain_trace_kirk_geometric():
    system = make_kirk_interval(0.5).system
    trace = picard_orbit(system, (-1.0,), 30)
    values = chain_trace(trace, 1)
    for n in range(10):
        assert values[n] == pytest.approx(3.0 * 0.5 ** n, abs=1e-12)


def test_chain_trace_converges_to_set_distance():
    gs = make_affine_strip(0.5, 1.0)
    trace = picard_orbit(gs.system, (1.0, 0.0), 80)
    values = chain_trace(trace, 2)
    assert values[-1] == pytest.approx(math.sqrt(2), abs=1e-9)
    floor = gs.system.set_chain_distance(2)
    assert all(v >= floor - 1e-12 for v in values)


def test_chain_trace_fixed_start_is_constant():
    system = make_kirk_interval(0.5).system
    trace = picard_orbit(system, (0.0,), 6)
    assert all(v == 0.0 for v in chain_trace(trace, 2))


def test_edge_trace_affine_strip():
    gs = make_affine_strip(0.5, 1.0)
    trace = picard_orbit(gs.system, (1.0, 0.0), 100)
    for i in (1, 2):
        entries = edge_trace(trace, i)
        assert entries[-1] == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        edge_trace(trace, 3)


def test_block_drift_decays():
    gs = make_affine_strip(0.5, 1.0)
    trace = picard_orbit(gs.system, (1.0, 0.0), 60)
    for i in (1, 2):
        entries = block_drift_trace(trace, i)
        assert entries[-1] < 1e-6
        assert entries[0] > entries[-1]


def test_block_drift_fixed_point_start_is_zero():
    system = make_kirk_interval(0.5).system
    trace = picard_orbit(system, (0.0,), 12)
    assert all(v == 0.0 for v in block_drift_trace(trace, 1))


def test_cross_block_chain_distance():
    gs = make_affine_strip(0.5, 1.0)
    trace = picard_orbit(gs.system, (1.0, 0.0), 90)
    assert cross_block_chain_distance(trace, 20, 20, 2) == pytest.approx(
        math.sqrt(2), abs=1e-6
    )
    assert cross_block_chain_distance(trace, 20, 20, 2) == chain_self_distance(
        gs.system.space, trace.block(20), 2
    )

    kirk = make_kirk_interval(0.5).system
    ktrace = picard_orbit(kirk, (-1.0,), 90)
    assert cross_block_chain_distance(ktrace, 30, 40, 1) < 1e-6
    floor = gs.system.set_chain_distance(2)
    assert cross_block_chain_distance(trace, 5, 9, 2) >= floor - 1e-12


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


def test_banach_solve_kirk():
    gs = make_kirk_interval(0.5)
    first = banach_solve(gs.system, (-1.0,), tol=1e-12)
    second = banach_solve(gs.system, (-0.25,), tol=1e-12)
    assert first.converged and second.converged
    assert abs(first.point[0]) < 1e-9
    assert first.residual < 1e-9
    assert abs(first.point[0] - second.point[0]) < 1e-8
    head = picard_orbit(gs.system, (-1.0,), 2 * gs.system.m - 1)
    gap = cross_block_chain_distance(head, 1, 0, 2)
    assert apriori_error_bound(gs.step_factor, gs.system.m, 0, gap) > 0


def test_banach_solve_warns_on_disjoint_sets():
    gs = make_affine_strip(0.5, 1.0)
    result = banach_solve(gs.system, (1.0, 0.0), tol=1e-9, max_iter=200)
    assert not result.converged
    assert any("set chain distance" in w for w in result.warnings)


def test_periodic_point_solve_affine_strip():
    gs = make_affine_strip(0.5, 1.0)
    first = periodic_point_solve(gs.system, (1.0, 0.0), tol=1e-12)
    second = periodic_point_solve(gs.system, (0.25, 0.0), tol=1e-12)
    assert first.converged and second.converged
    assert first.residual < 1e-9
    assert max(abs(a - b) for a, b in zip(first.point, (0.0, 0.0))) < 1e-6
    assert max(abs(a - b) for a, b in zip(first.point, second.point)) < 1e-6
    assert first.proximity_residual < 1e-6


def test_periodic_point_solve_kirk_hits_fixed_point():
    gs = make_kirk_interval(0.5)
    result = periodic_point_solve(gs.system, (-1.0,), tol=1e-12)
    assert result.converged
    assert abs(result.point[0]) < 1e-9


def test_proximity_chain_extract_affine_strip():
    gs = make_affine_strip(0.5, 1.0)
    result = proximity_chain_extract(gs.system, (1.0, 0.0), tol=1e-12)
    assert result.converged
    assert len(result.chain) == 2
    assert result.total_residual < 1e-6
    assert all(r < 1e-6 for r in result.edge_residuals)
    # map consistency: T applied to each extracted point lands on the next
    space = gs.system.space
    for i, pt in enumerate(result.chain):
        nxt = result.chain[(i + 1) % 2]
        assert space.distance(gs.system.apply(pt), nxt) < 1e-6


def test_proximity_chain_extract_kirk():
    gs = make_kirk_interval(0.5)
    result = proximity_chain_extract(gs.system, (-1.0,), tol=1e-12)
    assert result.converged
    assert result.total_residual < 1e-9


def test_proximity_chain_extract_flags_a_point_outside_its_region():
    # Every point past x_0 maps to 0.5, in A_2 but not in A_1: the
    # subsequences settle, and the chain's first point is outside A_1.
    kirk = make_kirk_interval(0.5).system
    system = CyclicSystem(kirk.space, kirk.regions, lambda x: (0.5,))
    result = proximity_chain_extract(system, (-1.0,), tol=1e-12)
    assert (result.converged, result.note) == (False, "extracted point left region 1")
    assert result.chain == ((0.5,), (0.5,)) and result.iterations == 4


def test_proximity_chain_extract_flags_truncation():
    gs = make_paper_lq_family(m=2, alpha=0.5, q=2, N=6)
    result = proximity_chain_extract(gs.system, gs.default_start, tol=1e-10, max_iter=500)
    assert not result.converged
    assert result.note is not None


def test_boundedness_probe():
    gs = make_kirk_interval(0.5)
    trace = picard_orbit(gs.system, (-1.0,), 1000)
    report = boundedness_probe(trace)
    assert report.ok
    assert all(s <= 2.0 for s in report.sups)

    strip = make_affine_strip(0.5, 1.0)
    strace = picard_orbit(strip.system, (1.0, 0.0), 1000)
    assert boundedness_probe(strace).ok


def test_chain_trace_p_inf_monotone():
    gs = make_scaled_pair()
    trace = picard_orbit(gs.system, gs.default_start, 60)
    values = chain_trace(trace, INFINITY)
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12 * (1 + a)


# --- one-pass trace rows against the public traces ---------------------------


def _asymmetric_system():
    """Three boxes under a metric oracle with d(a, b) != d(b, a): the rows
    match the traces only if every distance keeps its argument order."""

    def oracle(a, b):
        dx, dy = a[0] - b[0], a[1] - b[1]
        return abs(dx) + abs(dy) + 0.25 * max(0.0, dx)

    c, s = -0.5 * 0.9, math.sqrt(3.0) / 2.0 * 0.9

    def turn(x):
        return (c * x[0] - s * x[1], s * x[0] + c * x[1])

    box = Box((-2.0, -2.0), (2.0, 2.0))
    return CyclicSystem(space=OracleSpace(oracle, 2), regions=(box, box, box), map=turn)


def _assert_rows_match_traces(tmp_path, trace, p):
    expected = reference_rows(trace, p)
    assert len(expected) == len(trace.points) // trace.m - 1
    assert trace_rows(trace, p) == expected

    path = tmp_path / "trace.csv"
    _write_trace_csv(path, trace, as_exponent(p))
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    assert [int(cells[0]) for cells in table[1:]] == list(range(len(expected)))
    assert [tuple(map(float, cells[1:])) for cells in table[1:]] == expected


def _assert_rows_match_traces_at_every_cut(tmp_path, gs, steps, p):
    # Orbit lengths cover every residue mod m, so the last block is complete
    # or cut anywhere.
    m = gs.system.m
    for n in range(steps * m, steps * m + m):
        trace = picard_orbit(gs.system, gs.default_start, n)
        _assert_rows_match_traces(tmp_path, trace, p)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("p", [1, 2, 3.5, INFINITY])
@pytest.mark.parametrize("steps", [3, 10, 43])
def test_trace_rows_match_reference_traces(tmp_path, m, p, steps):
    gs = make_paper_lq_family(m=m, q=3)
    _assert_rows_match_traces_at_every_cut(tmp_path, gs, steps, p)


KERNEL_SYSTEMS = {
    **{
        f"paper_lq_family-m{m}-q{q}": lambda m=m, q=q: make_paper_lq_family(m=m, q=q)
        for m in (2, 3, 4)
        for q in (1, "inf")
    },
    "kirk_interval": lambda: make_kirk_interval(0.5),
}


@pytest.mark.parametrize("system", KERNEL_SYSTEMS)
@pytest.mark.parametrize("p", [1, 2, 3.5, INFINITY])
@pytest.mark.parametrize("steps", [3, 10, 43])
def test_trace_rows_match_reference_traces_per_kernel(tmp_path, system, p, steps):
    # The kernels chosen per (q, dimension) that the l^3 test above does not
    # reach: l^1 and l^inf in 15 to 29 dimensions, and the line.
    _assert_rows_match_traces_at_every_cut(tmp_path, KERNEL_SYSTEMS[system](), steps, p)


@pytest.mark.parametrize("q", [1, 3, "inf"])
@pytest.mark.parametrize("p", [1, 2, 3.5, INFINITY])
def test_trace_rows_match_reference_traces_on_the_truncation_stub(tmp_path, q, p):
    # The orbit reaches the stub after m(N + 1) - 1 = 8 steps and stays, so
    # almost every trace distance is between equal points.
    gs = make_paper_lq_family(m=3, N=2, q=q)
    trace = picard_orbit(gs.system, gs.default_start, 200)
    stub = trace.points[8]
    assert gs.system.is_artifact(stub) and set(trace.points[8:]) == {stub}
    _assert_rows_match_traces(tmp_path, trace, p)


@pytest.mark.parametrize("p", [1, 2, 3.5, INFINITY])
def test_trace_rows_keep_argument_order_for_asymmetric_oracles(tmp_path, p):
    trace = picard_orbit(_asymmetric_system(), (1.0, 0.5), 40)
    space = trace.system.space
    x, y = trace.points[0], trace.points[1]
    assert space.distance(x, y) != space.distance(y, x)
    _assert_rows_match_traces(tmp_path, trace, p)


def test_trace_rows_need_two_blocks():
    trace = picard_orbit(make_kirk_interval(0.5).system, (-1.0,), 3)
    assert len(trace_rows(trace, 2)) == 1
    short = picard_orbit(make_kirk_interval(0.5).system, (-1.0,), 2)
    with pytest.raises(ValueError):
        trace_rows(short, 2)


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


# --- the trace prefix, walked in chunks -----------------------------------------


PREFIX_SYSTEMS = {
    "kirk_interval": lambda: make_kirk_interval(0.001),
    "affine_strip": lambda: make_affine_strip(0.999, 2.0),
    "scaled_pair": lambda: make_scaled_pair(alpha=0.002, separation=1.0, dimension=2),
    "paper_lq_family 7-d": lambda: make_paper_lq_family(m=2, N=2, q=INFINITY, alpha=0.5),
    "paper_lq_family 22-d": lambda: make_paper_lq_family(m=3, N=6, q=2, alpha=0.4),
}
PREFIX_LENGTHS = (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 10_000)


@pytest.mark.parametrize("n", PREFIX_LENGTHS)
@pytest.mark.parametrize("name", sorted(PREFIX_SYSTEMS))
def test_chunked_prefix_equals_the_per_step_walk(monkeypatch, name, n):
    gs = PREFIX_SYSTEMS[name]()
    want = typed_hex(per_step(gs.system, gs.default_start, n))
    read = []
    monkeypatch.setattr(system_module, "check_point", lambda v: read.append(v) or check_point(v))
    assert typed_hex(_record(gs.system, gs.default_start, n).points) == want
    assert typed_hex(picard_orbit(gs.system, gs.default_start, n).points) == want
    # Every gallery image is a tuple of exact floats, read by the chunk pass.
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


def _tail_start(system, x0, start):
    """The solver's x0: the start point itself, or a walk recording
    TAIL_KEEP steps, as ``proxcycle run`` hands it."""
    return x0 if start == "plain" else _record(system, x0, TAIL_KEEP)


# The CLI hands the solver a walk recording max(3m, min(max_iter, 10 000))
# steps; a start point gets the few steps the stop rule starts from.
WALK_SYSTEMS = {
    "kirk_interval": lambda: make_kirk_interval(0.001),
    "affine_strip": lambda: make_affine_strip(0.999, 1.5),
    "scaled_pair 3-d": lambda: make_scaled_pair(alpha=0.001, separation=2.0, dimension=3),
    "affine_strip h2": lambda: make_affine_strip(0.999, 2.0),
    "scaled_pair 3-d slow": lambda: make_scaled_pair(alpha=5e-4, separation=2.0, dimension=3),
    "scaled_pair 2-d slow": lambda: make_scaled_pair(alpha=5e-4, separation=2.0, dimension=2),
}
# Budget-bound solves whose recorded prefix ends on each side of a chunk
# boundary, and a stop or budget past the 10 000-step prefix, on the first
# three systems; then three slow solves that stop between steps 2 x 10^4
# and 5 x 10^4: the proximity rule's r = m consecutive checks on the strip
# and in the plane kernel, and the periodic rule in the three-coordinate one.
CLI_WALKS = [
    *(
        (name, solver, max_iter)
        for name in ("affine_strip", "kirk_interval", "scaled_pair 3-d")
        for solver in sorted(TAIL_SOLVERS)
        for max_iter in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 100_000, 10_001, 11_025)
    ),
    ("affine_strip h2", "proximity", 100_000),
    ("scaled_pair 3-d slow", "periodic", 1_000_000),
    ("scaled_pair 2-d slow", "proximity", 100_000),
]


@pytest.mark.parametrize(
    "name, solver, max_iter", CLI_WALKS, ids=["-".join(map(str, walk)) for walk in CLI_WALKS]
)
def test_a_plain_start_gives_the_result_of_the_cli_walk(name, solver, max_iter):
    solve = TAIL_SOLVERS[solver][0]
    gs = WALK_SYSTEMS[name]()
    m = gs.system.m
    walk = _record(gs.system, gs.default_start, max(3 * m, min(max_iter, 10_000)))
    plain = fields_hex(solve(gs.system, gs.default_start, tol=1e-12, max_iter=max_iter))
    assert plain == fields_hex(solve(gs.system, walk, tol=1e-12, max_iter=max_iter))
    # A converged solve stops where the per-step walk does, with its fields.
    if plain["converged"]:
        want = per_step_fields(solver, gs.system, gs.default_start, 1e-12)
        assert {field: plain[field] for field in want} == want


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


# (system, solver) pairs whose drift at a checked step equals its first
# coordinate gap, in the line, plane and three-coordinate l^2 kernels: the other
# coordinates of affine_strip's stride-2 drift, and of scaled_pair's orbit
# from its default start, do not move.
EQUAL_GAP_SOLVES = [
    ("kirk_interval", "banach"),
    ("kirk_interval", "periodic"),
    ("kirk_interval", "proximity"),
    ("affine_strip", "periodic"),
    ("affine_strip", "proximity"),
    ("scaled_pair 3-d", "periodic"),
    ("scaled_pair 3-d", "proximity"),
]


@pytest.mark.parametrize("start", ["plain", "walk"])
@pytest.mark.parametrize("name, solver", EQUAL_GAP_SOLVES)
def test_a_tol_equal_to_the_first_coordinate_gap_stops_where_the_per_step_walk_does(
    name, solver, start
):
    # tol is the drift d(x_{k-s}, x_k) at step k = 3 000, past the recorded
    # prefix; it equals that step's first-coordinate gap, so the gap test
    # must not decide the check (a gap equal to tol is within it) and the
    # drift must be measured. Every field read off the orbit is the per-step
    # reference's.
    solve = TAIL_SOLVERS[solver][0]
    gs = WALK_SYSTEMS[name]()
    system, x0 = gs.system, gs.default_start
    k, s = 3_000, 1 if solver == "banach" else gs.system.m
    points = per_step(system, x0, k)
    tol = system.space.distance(points[k - s], points[k])
    assert tol == abs(points[k - s][0] - points[k][0]) and tol > 0.0
    result = solve(system, _tail_start(system, x0, start), tol=tol, max_iter=TAIL_BUDGET)
    want = per_step_fields(solver, system, x0, tol)
    assert want["iterations"] in (k, k + 1)
    assert {field: fields_hex(result)[field] for field in want} == want


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


def _line_system(step, m=2, space=None):
    """Boxes [-4, 4] on the line under ``step``, in ``space`` (l^2 by
    default); membership is only recorded, so any orbit can be traced."""
    box = Box((-4.0,), (4.0,))
    space = space or LqSpace(as_exponent(2), 1)
    return CyclicSystem(space=space, regions=(box,) * m, map=step)


def _swing(x):
    # |x| falls by 0.25 a step to 0.5, the sign flipping: from -2.0 the orbit
    # is 1.75, -1.5, 1.25, -1.0, 0.75, -0.5, 0.5, -0.5, ..., period 2 from
    # x_5 on, and x_8 is the first point equal to the one 2 before it.
    return (-math.copysign(max(abs(x[0]) - 0.25, 0.5), x[0]),)


def _assert_settled_trace(tmp_path, trace, p, settle):
    """``trace_rows``, both columns and the written ``trace.csv`` against
    the per-column references by ``float.hex``, the settle index pinned,
    and past it no new float or row object."""
    m = trace.m
    assert trace._settled() == settle
    for s, column in reference_columns(trace).items():
        fresh = OrbitTrace(trace.system, trace.points)
        gaps = fresh._gaps(s)
        assert hexed(gaps) == hexed(column)
        assert all(gaps[j] is gaps[j - m] for j in range(settle, len(gaps)))
    expected = reference_rows(trace, p)
    rows = trace_rows(trace, p)
    assert [hexed(row) for row in rows] == [hexed(row) for row in expected]
    distinct = -(-settle // m)
    assert all(row is rows[distinct - 1] for row in rows[distinct:])
    assert len(set(map(id, rows[:distinct]))) == min(distinct, len(rows))
    _assert_written_per_row(tmp_path, trace, p)


def _has_negative_zero(points):
    return any(c == 0.0 and math.copysign(1.0, c) < 0 for x in points for c in x)


@pytest.mark.parametrize("p", [1, 2, INFINITY])
def test_settled_scaled_pair_rows_match_the_references(tmp_path, p):
    # The orbit settles on the points (-1, 0, 0) and (1, -0.0, -0.0).
    gs = make_scaled_pair(alpha=0.4, separation=2.0, dimension=3)
    trace = picard_orbit(gs.system, gs.default_start, 2500)
    assert _has_negative_zero(trace.points[73:])
    _assert_settled_trace(tmp_path, trace, p, 73)


def test_settled_kirk_interval_rows_match_the_references(tmp_path):
    # After the orbit underflows, the map alternates -0.0 and 0.0.
    gs = make_kirk_interval(0.5)
    trace = picard_orbit(gs.system, gs.default_start, 2500)
    assert {float.hex(x[0]) for x in trace.points[1077:]} == {"0x0.0p+0", "-0x0.0p+0"}
    _assert_settled_trace(tmp_path, trace, 2, 1077)


@pytest.mark.parametrize(
    "m, N, settle, steps",
    [(2, 2, 7, 80), (3, 6, 23, 120), (3, 6, 23, 10_000)],
    ids=["2-2-7", "3-6-23", "3-6-23-10000"],
)
def test_settled_truncation_stub_rows_match_the_references(tmp_path, m, N, settle, steps):
    # The stub map returns the stub itself, the very object.
    gs = make_paper_lq_family(m=m, N=N, q=2)
    trace = picard_orbit(gs.system, gs.default_start, steps)
    assert trace.points[-1] is trace.points[settle - 1]
    _assert_settled_trace(tmp_path, trace, 2, settle)


def test_settled_fixed_point_rows_match_the_references(tmp_path):
    # x_k = 1 - k/8 reaches the fixed point 0 at step 8, so x_10 is the
    # first point equal to the one m = 2 before it.
    trace = picard_orbit(_line_system(lambda x: (max(x[0] - 0.125, 0.0),)), (1.0,), 60)
    _assert_settled_trace(tmp_path, trace, 2, 10)


@pytest.mark.parametrize("n", range(8, 14))
def test_settled_period_m_rows_match_the_references_at_every_cut(tmp_path, n):
    # Period 2 but not 1. Rows from ceil(J / m) = 4 on repeat row 3: with
    # 10 or 11 points there is none, only column entries past J; with 12 or
    # 13 points the orbit settles only in its last row.
    trace = picard_orbit(_line_system(_swing), (-2.0,), n)
    _assert_settled_trace(tmp_path, trace, 2, 8)
    assert len(trace_rows(trace, 2)) == {8: 3, 9: 4, 10: 4, 11: 5, 12: 5, 13: 6}[n]


def test_an_orbit_of_period_2m_is_not_settled(tmp_path):
    after = {1.0: -1.0, -1.0: 2.0, 2.0: -2.0, -2.0: 1.0}
    trace = picard_orbit(_line_system(lambda x: (after[x[0]],)), (1.0,), 41)
    assert trace.points[-1] == trace.points[-5] != trace.points[-3]
    _assert_settled_trace(tmp_path, trace, 2, len(trace.points))


@pytest.mark.parametrize("m", [2, 3])
def test_a_last_point_equal_to_the_one_m_before_only_by_chance(tmp_path, m):
    # Scripted points, not an orbit of any map: only the last point equals
    # the one m before it, so J = len(points) - 1.
    script = [(0.5,), (-0.5,), (0.25,), (-0.75,), (0.125,), (-0.375,), (0.0625,), (1.5,)]
    points = (*script, script[-m])
    trace = OrbitTrace(_line_system(_swing, m), points)
    _assert_settled_trace(tmp_path, trace, 2, len(points) - 1)


def test_spaces_without_the_gap_bound_measure_every_entry(tmp_path):
    # The swing settles at J = 8, but neither a metric oracle nor an l^2
    # space with a kernel of its own vouches for equal bits on equal
    # points: each measures every step, every drift and every wrap term.
    calls = []
    bound = picard_orbit(_line_system(_swing), (-2.0,), 60)
    counted = CountingLq(as_exponent(2), 1)
    oracle = OracleSpace(counting(calls, line_gap), 1)
    for space, made in ((oracle, calls), (counted, counted.calls)):
        trace = OrbitTrace(_line_system(_swing, space=space), bound.points)
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


# Two-region orbits of 10 000 steps in which no point repeats.
TWO_REGION_TRACES = {
    "affine_strip": lambda: make_affine_strip(alpha=0.999, h=2.0),
    "kirk_interval": lambda: make_kirk_interval(0.001),
}


@pytest.mark.parametrize(
    "name, p",
    [
        ("affine_strip", 1),
        ("affine_strip", 2),
        ("affine_strip", INFINITY),
        ("kirk_interval", INFINITY),
    ],
    ids=["1", "2", "p2", "kirk_interval-inf"],
)
def test_two_region_writer_matches_the_per_row_writer(tmp_path, name, p):
    # At p = inf the chain of a two-region row is the max of the step and
    # the wrap, the same float object: the chain takes edge_1's text.
    # Elsewhere the chain is a new float and is formatted itself. The rows
    # are the public traces', bit for bit.
    gs = TWO_REGION_TRACES[name]()
    trace = picard_orbit(gs.system, gs.default_start, 10_000)
    same, rows = _chain_is_edge_1(trace, p)
    assert rows > 2 * TRACE_BLOCK
    assert same == (rows if p is INFINITY else 0)
    expected = reference_rows(trace, p)
    assert [hexed(row) for row in trace_rows(trace, p)] == [hexed(row) for row in expected]
    _assert_written_per_row(tmp_path, trace, p)


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
    trace = OrbitTrace(_line_system(_swing, 3), tuple(points))
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

    return _line_system(lambda x: x, space=OracleSpace(oracle, 1))


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
def test_oracle_writer_matches_the_per_row_writer(tmp_path, p):
    # A metric oracle has no _gap_bound: every wrap term is measured and
    # the orbit is never taken as settled. A symmetric one gives a wrap equal
    # to the step, so at p = inf the chain is the step, edge_1's object. The
    # asymmetric oracle of a three-region turn keeps every argument order.
    bound = picard_orbit(_line_system(_swing), (-2.0,), 2 * TRACE_BLOCK + 301)
    trace = OrbitTrace(
        _line_system(_swing, space=OracleSpace(line_gap, 1)), bound.points
    )
    rows = TRACE_BLOCK + 150
    assert _chain_is_edge_1(trace, p) == (rows if p is INFINITY else 0, rows)
    _assert_written_per_row(tmp_path, trace, p)
    turning = picard_orbit(_asymmetric_system(), (1.5, 0.5), 3 * TRACE_BLOCK + 302)
    assert len(trace_rows(turning, p)) == TRACE_BLOCK + 100
    _assert_written_per_row(tmp_path, turning, p)


def _unsettled_line_trace(rows):
    # |x| shrinks by a factor 0.999 a step, the sign flipping: no point
    # repeats within these lengths, so every row is distinct.
    trace = picard_orbit(_line_system(lambda x: (-0.999 * x[0],)), (1.0,), 2 * rows + 1)
    assert trace._settled() == len(trace.points)
    return trace


@pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 2049])
@pytest.mark.parametrize("p", [2, INFINITY])
def test_writer_blocks_match_the_per_row_writer(tmp_path, rows, p):
    assert TRACE_BLOCK == 1024  # the row counts sit at its bounds
    trace = _unsettled_line_trace(rows)
    assert _chain_is_edge_1(trace, p) == (rows if p is INFINITY else 0, rows)
    _assert_written_per_row(tmp_path, trace, p)


@pytest.mark.parametrize("distinct", [750, 1023, 1024, 1025, 1500])
@pytest.mark.parametrize("p", [2, INFINITY])
def test_writer_settled_stretch_starts_inside_or_on_a_block_bound(tmp_path, distinct, p):
    # x_k = (2 distinct - 2 - k) / 2048 reaches the fixed point 0 at step
    # K = 2 distinct - 2, so J = K + 2 and the rows from distinct on repeat
    # the one before: inside a block, or on the bound of the second.
    k = 2 * distinct - 2
    trace = picard_orbit(
        _line_system(lambda x: (max(x[0] - 2.0 ** -11, 0.0),)), (k / 2048,), 2 * distinct + 700
    )
    assert trace._settled() == k + 2
    assert len(_trace_columns(trace, p)[0][0]) == distinct
    assert len(trace_rows(trace, p)) == distinct + 349
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


# Every reader below the constructor against the public_* references, which
# read the points as each reader did when it read them itself: through the
# public ``space.distance`` and ``chain_self_distance``, one pair or one
# chain at a time.


def _oracle_trace():
    # A metric oracle with no gap bound, on a three-region turn of the
    # plane whose orbit never repeats.
    space = OracleSpace(lambda a, b: abs(a[0] - b[0]) + 0.5 * abs(a[1] - b[1]), 2)
    box = Box((-4.0, -4.0), (4.0, 4.0))
    system = CyclicSystem(space, (box,) * 3, lambda x: (0.9 * x[1], -0.8 * x[0] + 0.1))
    return picard_orbit(system, (1.5, -0.5), 61)


def _walked(gs):
    return picard_orbit(gs.system, gs.default_start, 60)


SAME_BITS_TRACES = {
    "kirk_interval": lambda: _walked(make_kirk_interval(0.3)),
    "affine_strip": lambda: _walked(make_affine_strip(0.4, 1.5)),
    "paper_lq_family": lambda: _walked(make_paper_lq_family(m=3, q=3, N=6)),
    "scaled_pair": lambda: _walked(make_scaled_pair(0.4, 2.0, 22)),
    "oracle": _oracle_trace,
}


@pytest.mark.parametrize("p", [1, 2, INFINITY])
@pytest.mark.parametrize("name", sorted(SAME_BITS_TRACES))
def test_trace_readers_give_the_bits_of_their_per_point_reads(name, p):
    walked = SAME_BITS_TRACES[name]()
    public = OrbitTrace(walked.system, [list(pt) for pt in walked.points])
    m = walked.m
    for trace in (walked, public):
        assert hexed(tuple(chain_trace(trace, p))) == hexed(tuple(public_chain_trace(trace, p)))
        for i in range(1, m + 1):
            assert hexed(tuple(edge_trace(trace, i))) == hexed(tuple(public_gaps(trace, i, 1)))
            assert hexed(tuple(block_drift_trace(trace, i))) == hexed(
                tuple(public_gaps(trace, i, m))
            )
        assert [hexed(row) for row in trace_rows(trace, p)] == [
            hexed(row) for row in public_trace_rows(trace, p)
        ]
        for n, k in ((1, 0), (0, 1), (3, 7), (5, 5)):
            got = cross_block_chain_distance(trace, n, k, p)
            want = chain_point_distance(trace.system.space, trace.block(n), trace.block(k), p)
            assert float.hex(got) == float.hex(want)
        report = boundedness_probe(trace)
        assert hexed((report.sups, report.stabilized)) == hexed(public_boundedness(trace))


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
