"""One slow, plainly correct reference for each fast path of proxcycle.

Each reference is the textbook loop over public per-point calls: ``apply``
once per step, ``space.distance`` once per pair, ``contraction_margin`` and
``chain_point_distance`` once per tuple pair, ``Region.sample`` once per
sample. The tests hold each fast path to its reference bit for bit, through
``hexed``. A new fast path adds its reference here, next to the one it
speeds up, and the tests import it as ``from reference import ...``.

Two references that read different public calls check different contracts
and both stay: the trace rows from the per-column traces, and the same rows
from per-pair ``space.distance``.

The module also holds the one counting harness (maps, metric oracles,
spaces and generators that record their calls), ``SYSTEMS``, the one
registry of the systems that the rows of the agreement, fault and trace
tables run, ``read_summary``, the one reader of a written
``summary.json``, ``LISTING``, the one pin of the gallery listing, and an
exact oracle for the certificate's floor. At p, q in
{1, inf} every distance is sums and maxima of |a - b|, so
``fractions.Fraction`` gives the exact margin of float points and float
images under a ``LinearPhi``; the floor MARGIN_ULPS * m * ulp(S) is held
against it. Higham (Accuracy and Stability of Numerical
Algorithms, 2002) bounds the rounding of such sums a priori. Other
exponents go through ``pow``, whose rounding the standard library does not
bound, so the oracle refuses them rather than guess.
"""

import collections
import dataclasses
import functools
import itertools
import json
import math
import random
import tempfile
from fractions import Fraction
from importlib import resources
from itertools import count, islice
from pathlib import Path

import jsonschema

import proxcycle.spaces as spaces_module
from proxcycle import gallery
from proxcycle.chains import chain_point_distance, chain_self_distance, chain_set_distance
from proxcycle.cli import NUMBERS, RUNS, ConfigError, load_config, parse_config, run_experiment
from proxcycle.orbit import (
    _GAP, OrbitTrace, apriori_error_bound, banach_solve, block_drift_trace, boundedness_probe,
    chain_trace, cross_block_chain_distance, edge_trace, periodic_point_solve, picard_orbit,
    proximity_chain_extract, trace_rows,
)
from proxcycle.spaces import (
    ALPHA, COUNT, CYCLE_LENGTH, EXPONENT, INFINITY, POSITIVE, STEPS, CapabilityError, Domain,
    Exponent, LqSpace, OracleSpace, as_exponent, check_point, p_combine, validate_metric,
)
from proxcycle.system import (
    _KNOT, Ball, Box, CyclicityReport, CyclicSystem, FiniteCloud, LinearPhi, Region, TabulatedPhi,
    alpha_bound_check, contraction_margin, region_distance, validate_phi, verify_contraction,
    verify_cyclicity,
)

# --- bits -----------------------------------------------------------------------


class Float(float):
    """A float subclass, which readers take as the float it holds."""


def hexed(v):
    """``v`` with each float, also inside tuples and lists, as its hex
    digits: equal results are equal bit for bit."""
    if isinstance(v, float):
        return float.hex(v)
    if isinstance(v, (tuple, list)):
        return type(v)(map(hexed, v))
    return v


def fields_hex(result):
    """Every field of a record, with each float as its hex digits."""
    return {name: hexed(getattr(result, name)) for name in type(result)._fields}


def typed_hex(points):
    """Each point's type, its coordinates' types, then their hex digits:
    equal results are bit-identical points of the same types."""
    return [(type(x), *map(type, x), *map(float.hex, x)) for x in points]


# --- the p-combination ----------------------------------------------------------


def textbook_combine(vals, q):
    """(sum v_i^q)^(1/q) of nonnegative floats with the largest value
    factored out, integer q raised by an int power; the max for q = inf and
    the correctly rounded exact sum for q = 1. The overflow rules the
    library documents: an infinite peak gives inf, and a q = 1 sum past the
    float range gives inf."""
    peak = max(vals, default=0.0)
    if q == math.inf or peak == math.inf:
        return peak
    if q == 1.0:
        try:
            return float(sum(map(Fraction, vals)))
        except OverflowError:
            return math.inf
    if peak == 0.0:
        return 0.0
    power = int(q) if q == int(q) else q
    return peak * math.fsum((v / peak) ** power for v in vals) ** (1.0 / q)


# --- the orbit walk and the solvers' stop ---------------------------------------


def walk(system, x0):
    """x_0, x_1, ... without end: x_0 read by ``space.point``, then
    ``apply`` once per step, each step mapped only when asked for."""
    x = system.space.point(x0)
    for k in count(1):
        yield x
        x = system.apply(x, step=k)


def per_step(system, x0, n):
    """x_0..x_n by the per-step walk."""
    return list(islice(walk(system, x0), n + 1))


def per_step_stop(solver, system, x0, tol):
    """The step at which a solver stops, by its own rule over the per-step
    walk: banach at the first small step d(x_{k-1}, x_k); periodic at the
    first small block drift d(x_{(n-1)m}, x_{nm}), k = nm; proximity at the
    first k at which the last drift d(x_{j-m}, x_j) of every interleaved
    subsequence, j = k-m+1..k, is small, j >= m."""
    return _stopped(solver, system, x0, tol)[0]


def _stopped(solver, system, x0, tol):
    """``per_step_stop``'s k, with x_0..x_k and the walk on from x_k."""
    m, dist = system.m, system.space.distance
    steps = walk(system, x0)
    points = [next(steps)]
    for k, x in enumerate(steps, start=1):
        points.append(x)
        if solver == "banach" and dist(points[k - 1], x) <= tol:
            return k, points, steps
        if solver == "periodic" and k % m == 0 and dist(points[k - m], x) <= tol:
            return k, points, steps
        if solver == "proximity" and k >= 2 * m - 1:
            if all(dist(points[j - m], points[j]) <= tol for j in range(k - m + 1, k + 1)):
                return k, points, steps


def per_step_fields(solver, system, x0, tol):
    """The fields a solver reads off the orbit, from the per-step walk: the
    stop of ``per_step_stop``, the points of ``apply`` and each distance
    measured by the public ``distance``, chain distances included; each
    float as its hex digits."""
    k, points, steps = _stopped(solver, system, x0, tol)
    m, space = system.m, system.space
    # The steps past the stop that the solver maps: banach's residual image,
    # the periodic solver's m-point tail, and none for the proximity chain.
    points += islice(steps, {"banach": 1, "periodic": m}.get(solver, 0))
    x = points[k]
    fields = {"iterations": k, "converged": True}
    set_distance = system.set_chain_distance(2)
    if solver == "banach":
        fields.update(point=x, residual=space.distance(x, points[k + 1]))
    elif solver == "periodic":
        block = tuple(points[k : k + m])
        gap = abs(chain_self_distance(space, block, 2) - set_distance)
        fields.update(point=x, residual=space.distance(x, points[k + m]), proximity_residual=gap)
    else:
        # chain[i] is the last point x_j of subsequence i + 1, j = i mod m.
        chain = tuple(points[j] for i in range(m) for j in range(k - m + 1, k + 1) if j % m == i)
        edges = system.edge_distances
        fields.update(
            chain=chain,
            edge_residuals=tuple(
                abs(space.distance(chain[i], chain[(i + 1) % m]) - edges[i]) for i in range(m)
            ),
            total_residual=abs(chain_self_distance(space, chain, 2) - set_distance),
        )
    return {name: hexed(value) for name, value in fields.items()}


# --- trace rows and columns -----------------------------------------------------


def _rows(trace, chain, edges, drifts):
    """Trace rows n = 0..len(points) // m - 2: ``chain[mn]``, then entry n
    of each step column and of each drift column."""
    m = trace.m
    return [
        (chain[m * n], *(e[n] for e in edges), *(d[n] for d in drifts))
        for n in range(len(trace.points) // m - 1)
    ]


def _traced_columns(trace):
    """The m step columns ``edge_trace(trace, i)`` and the m drift columns
    ``block_drift_trace(trace, i)``, i = 1..m."""
    sides = range(1, trace.m + 1)
    return [edge_trace(trace, i) for i in sides], [block_drift_trace(trace, i) for i in sides]


def reference_rows(trace, p):
    """The trace rows from the public per-column traces."""
    return _rows(trace, chain_trace(trace, p), *_traced_columns(trace))


def reference_columns(trace):
    """The stride-1 and stride-m columns from the public per-column traces:
    step j = mn + i - 1 is ``edge_trace(trace, i)[n]`` and drift j is
    ``block_drift_trace(trace, i)[n]``."""
    m, n = trace.m, len(trace.points)
    edges, drifts = _traced_columns(trace)
    return {
        1: [edges[j % m][j // m] for j in range(n - 1)],
        m: [drifts[j % m][j // m] for j in range(n - m)],
    }


def public_chain_trace(trace, p):
    """Each window of m points, by the public ``chain_self_distance``."""
    m, space = trace.m, trace.system.space
    return [
        chain_self_distance(space, trace.points[n : n + m], p)
        for n in range(len(trace.points) - m + 1)
    ]


def public_gaps(trace, i, s):
    """d(x_j, x_{j+s}) by the public ``space.distance``, for j = i - 1,
    i - 1 + m, ... while x_{j+s} exists: ``edge_trace(trace, i)`` with
    s = 1, ``block_drift_trace(trace, i)`` with s = m."""
    points, dist = trace.points, trace.system.space.distance
    return [dist(points[j], points[j + s]) for j in range(i - 1, len(points) - s, trace.m)]


def public_trace_rows(trace, p):
    """The trace rows from per-pair ``space.distance`` and per-window
    ``chain_self_distance``."""
    sides = range(1, trace.m + 1)
    return _rows(
        trace,
        public_chain_trace(trace, p),
        [public_gaps(trace, i, 1) for i in sides],
        [public_gaps(trace, i, trace.m) for i in sides],
    )


def public_boundedness(trace):
    """``boundedness_probe``'s sups and stabilized flags, each subsequence
    x_r, x_{r+m}, ... measured from its first point by ``space.distance``."""
    space, m = trace.system.space, trace.m
    sups, stabilized = [], []
    for r in range(min(m, len(trace.points))):
        seq = trace.points[r::m]
        dists = [space.distance(pt, seq[0]) for pt in seq]
        running_max, last_new_max = -math.inf, 0
        for idx, d in enumerate(dists):
            if d > running_max:
                running_max, last_new_max = d, idx
        sups.append(running_max)
        stabilized.append(last_new_max <= len(dists) // 2)
    return tuple(sups), tuple(stabilized)


def per_row_csv(m, rows):
    """``trace.csv``'s bytes as a per-row writer makes them: the header, then
    one line per row, its number and each float's repr."""
    names = [f"edge_{i}" for i in range(1, m + 1)] + [f"block_drift_{i}" for i in range(1, m + 1)]
    lines = [",".join(["n", "chain_dp", *names])]
    lines += [",".join([str(n), *map(repr, row)]) for n, row in enumerate(rows)]
    return ("\n".join(lines) + "\n").encode()


# --- certification --------------------------------------------------------------


def margin_floor(m, sides):
    """The certificate's floor, -MARGIN_ULPS * m * ulp(max(1, S)), with
    MARGIN_ULPS = 8 and S the largest finite one of ``sides``."""
    scale = max([s for s in sides if math.isfinite(s)], default=0.0)
    return -8 * m * math.ulp(max(1.0, scale))


def pair_margins(system, phi, p, pairs, set_distance):
    """Per tuple pair (xs, ys, sides): sides None for a pair touching an
    artifact point, else (lhs, d, phi(d), margin) from the public
    ``apply`` and ``chain_point_distance``."""
    phi_set = phi(set_distance)
    for xs, ys in pairs:
        if any(system.is_artifact(pt) for pt in xs + ys):
            yield xs, ys, None
            continue
        txs = [system.apply(x) for x in xs]
        tys = [system.apply(y) for y in ys]
        lhs = chain_point_distance(system.space, txs, tys, p)
        d = chain_point_distance(system.space, xs, ys, p)
        yield xs, ys, (lhs, d, phi(d), (d - phi(d) + phi_set) - lhs)


def certify_reference(system, phi, p, pairs):
    """The given tuple pairs, in order, each margin worked out by
    ``pair_margins``, and the verdict from the largest finite side:
    (least margin, witness, evaluated, skips, ok)."""
    set_distance = system.set_chain_distance(p)
    best, witness, evaluated, skips = math.inf, ((), ()), 0, 0
    sides = [phi(set_distance)]
    for xs, ys, pair in pair_margins(system, phi, p, pairs, set_distance):
        if pair is None:
            skips += 1
            continue
        margin = pair[-1]
        same = contraction_margin(system, phi, p, xs, ys, set_distance)
        assert margin.hex() == same.hex()
        sides += pair[:3]
        evaluated += 1
        # A NaN margin cannot be evaluated: the first one refutes and stays.
        if margin < best or (math.isnan(margin) and not math.isnan(best)):
            best, witness = margin, (xs, ys)
    ok = evaluated > 0 and best >= margin_floor(system.m, sides)
    return best, witness, evaluated, skips, ok


def region_tuples(system):
    """Every tuple of region points, in scan order."""
    return list(itertools.product(*(r.points for r in system.regions)))


def usable_tuples(system):
    """The region tuples that touch no artifact point, in scan order."""
    return [t for t in region_tuples(system) if not any(map(system.is_artifact, t))]


def brute_force(system, phi, p):
    """Every tuple pair through ``certify_reference``."""
    tuples = region_tuples(system)
    return certify_reference(system, phi, p, itertools.product(tuples, tuples))


def margins_by_x_tuple(system, phi, p):
    """Each usable x-tuple's margins against every usable y-tuple."""
    tuples = usable_tuples(system)
    return [[contraction_margin(system, phi, p, xs, ys) for ys in tuples] for xs in tuples]


def sampled_pairs(system, samples, seed):
    """The tuple pairs the sampled branch draws: xs, then ys, region by
    region. Each chain is drawn whole and then read by ``space.point``, so a
    chain that fails to read comes before the next chain's draw."""
    rng, read = random.Random(seed), system.space.point
    for _ in range(samples):
        xs = tuple(map(read, [r.sample(rng) for r in system.regions]))
        ys = tuple(map(read, [r.sample(rng) for r in system.regions]))
        yield xs, ys


def cyclicity_reference(system, samples, seed):
    """``verify_cyclicity`` one sample at a time: every point of a cloud, or
    per-sample ``Region.sample`` draws read by ``space.point``, region by
    region, each flagged, mapped and tested by the public ``is_artifact``,
    ``apply`` and ``contains`` before the next is drawn."""
    rng, read = random.Random(seed), system.space.point
    violations, artifacts, checked = [], [], 0
    for i, region in enumerate(system.regions):
        target = system.regions[(i + 1) % system.m]
        if isinstance(region, FiniteCloud):
            xs = region.points
        else:
            xs = (read(region.sample(rng)) for _ in range(samples))
        for x in xs:
            if system.is_artifact(x):
                artifacts.append((i, x))
                continue
            y = system.apply(x)
            checked += 1
            if not target.contains(y, system.space):
                violations.append((i, x, y))
    return CyclicityReport(not violations, tuple(violations), tuple(artifacts), checked)


# --- the exact oracle at p, q in {1, inf} ----------------------------------------


def _exact_combine(exp, terms):
    return max(terms, default=0) if exp.is_inf else sum(terms)


def _exact_chain(q, p, xs, ys):
    """The chain distance of x_i against y_{i+1} as a Fraction; equal
    coordinates add a zero gap, which is left out."""
    return _exact_combine(p, [
        _exact_combine(q, [abs(Fraction(a) - Fraction(b)) for a, b in zip(x, y) if a != b])
        for x, y in zip(xs, ys[1:] + ys[:1])
    ])


def exact_margin(system, phi, p, xs, ys, set_distance):
    """d - phi(d) + phi(D) - d(Tx, Ty) for one tuple pair, exact over the
    float points, their float images (``apply``) and the float set chain
    distance D, for a ``LinearPhi`` at p, q in {1, inf}."""
    p, q = as_exponent(p), system.space.q
    if not all(e.is_inf or e.value == 1.0 for e in (p, q)):
        raise ValueError("the exact oracle takes p and q in {1, inf} only")
    alpha = Fraction(phi.alpha)
    txs = tuple(system.apply(x) for x in xs)
    tys = tuple(system.apply(y) for y in ys)
    d = _exact_chain(q, p, tuple(xs), tuple(ys))
    return d - alpha * d + alpha * Fraction(set_distance) - _exact_chain(q, p, txs, tys)


# --- harness: counting and failing maps, counting spaces and generators ----------


def no_image(x):
    """A map that fails at ``x``."""
    raise RuntimeError("no image")


def broken_map(inner, at, bad_image):
    """The map ``inner``, giving ``bad_image(x)`` at the point ``at`` only."""
    return lambda x: bad_image(x) if x == at else inner(x)


def counting(calls, f):
    """``f``, recording each call's argument, or its tuple of arguments, in
    ``calls`` before the call."""

    def counted(*args):
        calls.append(args[0] if len(args) == 1 else args)
        return f(*args)

    return counted


def mapped_build(wrap):
    """``gallery.build`` as it is now, with each system's map replaced by
    ``wrap(map)``: for ``monkeypatch.setattr(cli.gallery, "build", ...)``."""
    build = gallery.build

    def mapped(system_id, parameters):
        gs = build(system_id, parameters)
        return gs.__replace__(system=gs.system.__replace__(map=wrap(gs.system.map)))

    return mapped


class CountingLq(LqSpace):
    """An l^q space that records each kernel call in ``calls``, and each
    ``point`` and ``_as_read`` call with the number of coordinates it was
    handed in ``reads``. Its kernel is the chosen one, wrapped, which the
    gap bound does not vouch for."""

    def __init__(self, q, dimension):
        super().__init__(q, dimension)
        kernel, calls = self._distance, []
        object.__setattr__(self, "calls", calls)
        object.__setattr__(self, "reads", [])
        object.__setattr__(self, "_distance", counting(calls, kernel))

    def point(self, v, what="point"):
        self.reads.append(("point", len(v)))
        return super().point(v, what)

    def _as_read(self, points):
        self.reads.append(("_as_read", sum(map(len, points))))
        return super()._as_read(points)


def vouched_counting(monkeypatch, space, calls):
    """A copy of the l^q ``space`` whose bound kernel records each call's
    points in ``calls``. ``monkeypatch`` adds the wrapper to the kernels
    the gap bound vouches for, for the test, so every shortcut the bound
    allows stays on, as it does not in ``CountingLq``."""
    copy = space.__replace__()
    kernel = counting(calls, copy._distance)
    object.__setattr__(copy, "_distance", kernel)
    monkeypatch.setattr(spaces_module, "_GAP_KERNELS", (*spaces_module._GAP_KERNELS, kernel))
    return copy


class CountingRandom(random.Random):
    """``random.Random`` that records the value of each ``random()`` call in
    ``calls``; a state set back drops the calls made since it was taken."""

    def __init__(self, seed):
        # One argument: Python 3.10's Random refuses more, also in a subclass.
        super().__init__(seed)
        self.calls = []

    def random(self):
        x = super().random()
        self.calls.append(x)
        return x

    def getstate(self):
        return super().getstate(), len(self.calls)

    def setstate(self, state):
        inner, taken = state
        del self.calls[taken:]
        super().setstate(inner)


def line_gap(a, b):
    """|a_0 - b_0|: a metric oracle on the line."""
    return abs(a[0] - b[0])


class LineBox(Box):
    """A box whose set distances are measured in l^2 on the line whatever the
    space, since a metric oracle has none for boxes."""

    __slots__ = ()

    def distance_to(self, other, space):
        return super().distance_to(other, LqSpace(as_exponent(2), 1))


def counted_kirk():
    """Kirk's interval at alpha 0.001 under a metric oracle that records its
    calls in the returned list: |x_k| = 0.999^k, and each solver stops near
    step 5 300."""
    calls = []
    kirk = gallery.make_kirk_interval(0.001).system
    boxes = tuple(LineBox(box.lower, box.upper) for box in kirk.regions)
    space = OracleSpace(counting(calls, line_gap), 1)
    return CyclicSystem(space, boxes, kirk.map), calls


# --- the test systems -----------------------------------------------------------
#
# Every system that a row of ``AGREES`` or ``FAULTS`` (test_faults) or of
# ``TRACES`` (test_orbit) runs, built here once: a name maps to a builder of
# the system and its start point, None where no row walks it. A gallery
# system is named by the call that makes it. A new system is one entry here
# and its rows there.


def _made(system_id, **parameters):
    """(name, builder) of a gallery system, started at its default start."""

    def build():
        gs = gallery.GALLERY[system_id].factory(**parameters)
        return gs.system, gs.default_start

    return f"{system_id}({', '.join(f'{k}={v}' for k, v in parameters.items())})", build


def _fixed(system, start=None):
    return lambda: (system, start)


def flip(x):
    return (-x[0],)


def line_system(step, m=2, space=None, bound=4.0):
    """Boxes [-bound, bound] on the line under ``step``, in ``space`` (l^2
    by default); membership is only recorded, so any orbit can be traced."""
    return CyclicSystem(space or LqSpace(2, 1), (Box((-bound,), (bound,)),) * m, step)


def swing(x):
    # |x| falls by 0.25 a step to 0.5, the sign flipping: from -2.0 the orbit
    # is 1.75, -1.5, 1.25, -1.0, 0.75, -0.5, 0.5, -0.5, ..., period 2 from
    # x_5 on, and x_8 is the first point equal to the one 2 before it.
    return (-math.copysign(max(abs(x[0]) - 0.25, 0.5), x[0]),)


def _turn(x0):
    """Three boxes under a metric oracle with d(a, b) != d(b, a): the rows
    match the traces only if every distance keeps its argument order."""

    def oracle(a, b):
        dx, dy = a[0] - b[0], a[1] - b[1]
        return abs(dx) + abs(dy) + 0.25 * max(0.0, dx)

    c, s = -0.5 * 0.9, math.sqrt(3.0) / 2.0 * 0.9
    box = Box((-2.0, -2.0), (2.0, 2.0))
    turn = lambda x: (c * x[0] - s * x[1], s * x[0] + c * x[1])
    return _fixed(CyclicSystem(OracleSpace(oracle, 2), (box,) * 3, turn), x0)


def _on_axis(q, dimension, m=2, kick=None):
    """x_k = (-0.5)^k on the first axis of l^q, the other coordinates zeros
    whose signs flip each step, in m boxes that only record membership. With
    ``kick``, the image of the point at |x_0| = ``kick`` has 1.0 as its last
    coordinate: every two points before it agree past coordinate 0, and no
    point before it agrees with it."""

    def step(x):
        last = 1.0 if abs(x[0]) == kick else -x[-1]
        return (-0.5 * x[0], *[-c for c in x[1:-1]], last)

    box = Box((-4.0,) * dimension, (4.0,) * dimension)
    start = (1.0, *[0.0] * (dimension - 1))
    return _fixed(CyclicSystem(LqSpace(q, dimension), (box,) * m, step), start)


def _scripted(m):
    """Scripted points, mapped each to the next: only the last point equals
    the one m before it, so J = len(points) - 1."""
    script = [(0.5,), (-0.5,), (0.25,), (-0.75,), (0.125,), (-0.375,), (0.0625,), (1.5,)]
    after = dict(zip(script, [*script[1:], script[-m]]))
    return _fixed(line_system(lambda x: after[x], m), script[0])


def _stuck(name):
    """The system of ``name`` under the identity map, which violates
    cyclicity at every sample of disjoint regions, so that a report lists
    the drawn points themselves."""
    return lambda: (built(name)[0].__replace__(map=lambda x: x), None)


def _marked(name, seed):
    """The system of ``name`` with every third of 30 samples a region,
    drawn from ``seed`` region by region, made an artifact point."""

    def build():
        system, rng = built(name)[0], random.Random(seed)
        drawn = [r.sample(rng) for r in system.regions for _ in range(30)]
        return system.__replace__(artifact_points=drawn[::3]), None

    return build


def _clouds(space, clouds, step, artifacts=()):
    return _fixed(CyclicSystem(space, tuple(map(FiniteCloud, clouds)), step, artifacts))


# The river (SNCF) metric on the plane, a metric space that is not normed:
# two rays of cloud points {h} and h + (1 - h) 2^-k, k = 1..K, on e_1 and
# e_2, mapped each onto the other by t -> h + beta (t - h), which takes
# point k to point k + 1; point K, whose image leaves the cloud, is each
# ray's artifact point. Every edge distance is 2h, at (h e_1, h e_2), and
# every edge obeys e' = beta e + (1 - beta) 2h, so the certificate is tight
# at phi slope 1 - beta at every p. K = 4 keeps the brute force small; the
# closed forms hold at every K.
RIVER_H, RIVER_BETA, RIVER_K = 0.25, 0.5, 4


def river(a, b):
    """The river metric: |a - b|_2 where a and b lie on one ray from 0,
    |a|_2 + |b|_2 where they do not."""
    if a[0] * b[1] == a[1] * b[0] and a[0] * b[0] + a[1] * b[1] >= 0.0:
        return math.hypot(a[0] - b[0], a[1] - b[1])
    return math.hypot(*a) + math.hypot(*b)


def river_step(x):
    """t e_1 -> (h + beta (t - h)) e_2, and t e_2 -> (h + beta (t - h)) e_1."""
    if x[1] == 0.0:
        return 0.0, RIVER_H + RIVER_BETA * (x[0] - RIVER_H)
    return RIVER_H + RIVER_BETA * (x[1] - RIVER_H), 0.0


def flip2(x):
    return (-x[0], -x[1])


def one_way(a, b):
    """A metric oracle on the plane that charges 0.25 more per unit moved left."""
    dx = a[0] - b[0]
    return abs(dx) + abs(a[1] - b[1]) + 0.25 * max(0.0, dx)


def signed(a, b):
    """An l^1 oracle on the plane that gives -0.0 for equal points and NaN
    between distinct points both at |u| = 2."""
    if a == b:
        return -0.0
    if abs(a[0]) == abs(b[0]) == 2.0:
        return math.nan
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


# Plane clouds with +0.0 coordinates: x -> -x takes each point to one ==
# to a point of the other cloud, with -0.0 in place of its 0.0.
_SIGNED = ((1.0, 0.0), (2.0, 0.5), (0.0, 0.0), (0.0, 1.0))
_MIRRORED = ((-1.0, 0.0), (-2.0, -0.5), (0.0, 0.0), (0.0, -1.0))
_MERGE = {(1.0, 0.0): (0.0, 1.0), (2.0, 0.0): (0.0, 1.0), (3.0, 0.5): (0.5, 2.0),
          (0.0, 1.0): (-1.0, 0.0), (0.5, 2.0): (-2.0, -0.5),
          (-1.0, 0.0): (1.0, 0.0), (-2.0, -0.5): (3.0, 0.5)}
_RAY = (RIVER_H, *(RIVER_H + (1.0 - RIVER_H) * 2.0**-k for k in range(1, RIVER_K + 1)))
L2, PLANE = LqSpace(2, 1), LqSpace(2, 2)
# 40 x 40 tuples, too many pairs to enumerate; 36 of the 40 points of the
# left cloud are truncation stubs.
_LEFT = tuple((-k / 40,) for k in range(1, 41))
# Boxes and balls whose certificates and cyclicity reports are drawn.
SAMPLED = ("kirk_interval(alpha=0.4)", "affine_strip(alpha=0.3, h=1.5)",
           "scaled_pair(alpha=0.4, separation=2.0, dimension=3)",
           "scaled_pair(alpha=0.4, separation=3.0, dimension=7)", "balls", "mixed")
MARKED = tuple(f"{name} marked {seed}" for name in SAMPLED[::2] for seed in (0, 3))
# Families whose cyclicity reports skip the truncation stub.
STUB_FAMILIES = ("paper_lq_family(m=2, N=4, q=2)", "paper_lq_family(m=3, N=3, q=inf)",
                 "paper_lq_family(m=4, N=2, q=1)")
SYSTEMS = dict([
    # scaled_pair at separation 0, in the plane and in 3-d: x_k = (-(-0.998)^k,
    # +-0.0, ...) from (-1, 0, ...), so |x_k[0]| names step k.
    *(_made("scaled_pair", alpha=0.002, separation=0.0, dimension=d) for d in (2, 3)),
    *(_made("kirk_interval", alpha=a) for a in (0.001, 0.3, 0.4, 0.5)),
    *(_made("affine_strip", alpha=a, h=h)
      for a, h in ((0.999, 2.0), (0.999, 1.5), (0.4, 1.5), (0.3, 1.5))),
    *(_made("scaled_pair", alpha=a, separation=s, dimension=d) for a, s, d in (
        (0.002, 1.0, 2), (0.001, 2.0, 3), (5e-4, 2.0, 3), (5e-4, 2.0, 2), (0.4, 2.0, 22),
        (0.4, 2.0, 3), (0.4, 3.0, 7))),
    # The families: the orbit reaches the truncation stub, an artifact point,
    # after m(N + 1) - 1 steps and keeps it.
    *(_made("paper_lq_family", m=m, N=n, q=q) for m, n, q in (
        (2, 2, 2), (2, 2, "inf"), (2, 4, 2), (3, 3, "inf"), (4, 2, 1), (4, 6, 2), (3, 6, 2),
        (3, 2, 3), *((m, n, q) for m, n in ((2, 3), (3, 2)) for q in (1, 2, "inf")),
        *((m, 6, q) for m in (2, 3, 4) for q in (1, 3, "inf")))),
    *(_made("paper_lq_family", m=m, N=n, q=q, alpha=a) for m, n, q, a in (
        (3, 6, 2, 0.4), *((3, 2, q, 0.4) for q in (1, 2, "inf")),
        *((2, 6, q, 0.45) for q in (1, "inf")))),
    # One point per region: one tuple, so one pair in one block of one.
    ("one-tuple", _clouds(L2, [[(1.0,)], [(-1.0,)]], flip)),
    # One usable tuple left once the artifact points are skipped.
    ("one-usable-tuple", _clouds(
        PLANE, [[(1.0, 0.0), (3.0, 0.0)], [(-1.0, 0.0), (-3.0, 0.0)], [(0.0, 2.0), (0.0, 5.0)]],
        lambda x: (-0.5 * x[0], 0.5 * x[1]), ((3.0, 0.0), (-3.0, 0.0), (0.0, 5.0)))),
    # Every tuple touches an artifact point: nothing is evaluated.
    ("all-skipped", _clouds(L2, [[(1.0,), (2.0,)], [(-1.0,)]], flip, ((-1.0,),))),
    # Artifact skips among evaluated pairs, three regions in the plane.
    ("artifacts", _clouds(
        PLANE, [[(1.0, 0.0), (2.0, 0.5), (3.0, 0.0)], [(0.0, 1.0), (0.5, 2.0)],
                [(-1.0, -1.0), (-2.0, -1.5), (-3.0, -1.0)]],
        lambda x: (0.5 * x[1], 0.5 * x[0]), ((3.0, 0.0), (0.5, 2.0)))),
    # Equal points in neighbouring regions: all-zero rows in a block.
    ("zero-rows", _clouds(LqSpace(2, 3), [[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)],
                                          [(0.0, 0.0, 0.0), (0.0, 1.0, 0.0)]],
                          lambda x: (0.0, 0.0, 0.0))),
    # x -> -x swaps the two clouds, and 1e308 - (-1e308) overflows: some
    # pairs have d = inf, where d - phi(d) is inf - inf, a NaN margin, and
    # one of them comes first in its block.
    ("overflow", _clouds(LqSpace(1, 1), [[(1e308,), (-1e308,), (0.0,)],
                                         [(-1e308,), (1e308,), (0.0,)]], flip)),
    # Symmetric under (u, v) -> (u, -v), which maps x-tuple 1 to x-tuple 2: the
    # least margin comes first in x-tuple 1, at y-tuple 5, after larger
    # margins in x-tuple 0, and again in x-tuple 2, a tie on either side of
    # the boundary between them; the witness is the first.
    ("mirror", _clouds(PLANE, [[(1.0, 1.0), (1.0, -1.0), (2.0, 0.0)],
                               [(-2.0, 0.0), (-1.0, -1.0), (-1.0, 1.0)]],
                       lambda x: (-0.5 * x[0], 0.5 * x[1]))),
    # As overflow, but at p = 2 and inf, where two terms of 1e308 do not
    # overflow, the first NaN margin comes in x-tuple 2, after finite
    # margins, and x-tuple 3 holds NaN margins too.
    ("late-overflow", _clouds(LqSpace(1, 1), [[(0.0,), (1e308,), (1.0,)],
                                              [(0.0,), (-1.0,), (-1e308,)]], flip)),
    # So many stubs that about one pair in a hundred is evaluated and the
    # first block of seed 5 is skipped whole.
    ("sparse", _clouds(L2, [_LEFT, [(-x,) for (x,) in _LEFT]], lambda x: (-0.5 * x[0],),
                       _LEFT[4:])),
    ("river", _clouds(OracleSpace(river, 2), [[(t, 0.0) for t in _RAY], [(0.0, t) for t in _RAY]],
                      river_step, ((_RAY[-1], 0.0), (0.0, _RAY[-1])))),
    # The exhaustive scan reads lhs(x, y) as the chain distance of the image
    # tuples, from the places of cloud points an image is == to, and at m = 2
    # folds each unordered pair once; these clouds hold each case. x -> -x
    # maps each plane cloud onto the other, every image == a cloud point but
    # with its zeros flipped (``_SIGNED``).
    ("signed zeros", _clouds(PLANE, [_SIGNED, _MIRRORED], flip2)),
    # Three regions; two points of A_1 map to one point of A_2, so two
    # x-tuples share their image tuple.
    ("merge", _clouds(PLANE, [[(1.0, 0.0), (2.0, 0.0), (3.0, 0.5)], [(0.0, 1.0), (0.5, 2.0)],
                              [(-1.0, 0.0), (-2.0, -0.5)]], _MERGE.__getitem__)),
    # Only some images are cloud points: the rest are measured, once each.
    ("half outside", _clouds(PLANE, [[(1.0, 1.0), (2.0, 1.0), (4.0, 1.0)],
                                     [(-0.5, 1.0), (-1.0, 1.0), (-2.0, 1.0)]],
                             lambda x: (-0.5 * x[0], x[1]))),
    # Metric oracles with no gap bound, on the signed-zero clouds: one with
    # d(a, b) != d(b, a), so margin(y, x) is not margin(x, y); one that
    # returns -0.0 for equal points and NaN between the points at |u| = 2,
    # where max over the terms of a chain depends on their order. Only the
    # whole product in chain order gives their bits.
    ("one-way", _clouds(OracleSpace(one_way, 2), [_SIGNED, _MIRRORED], flip2)),
    ("signed oracle", _clouds(OracleSpace(signed, 2), [_SIGNED, _MIRRORED], flip2)),
    # A degenerate box whose one point is an artifact point: every sampled
    # pair touches it, so the scan has no pair to fold.
    ("stub box", _fixed(CyclicSystem(L2, (Box((1.0,), (2.0,)), Box((-0.5,), (-0.5,))), flip,
                                     ((-0.5,),)))),
    # Three balls on the line: each sample takes one gauss value, so which
    # one waits in gauss_next alternates from round to round.
    ("balls", _fixed(CyclicSystem(L2, (Ball((0.0,), 1.0), Ball((3.0,), 0.5), Ball((-2.0,), 1.5)),
                                  lambda x: (0.5 * x[0] + 1.0,)))),
    # A segment with a degenerate axis, a disc and a square.
    ("mixed", _fixed(CyclicSystem(
        PLANE, (Box((0.0, 0.0), (1.0, 0.0)), Ball((0.5, 3.0), 1.0), Box((2.0, 2.0), (3.0, 3.0))),
        lambda x: (0.5 * x[1], 0.25 * x[0] + 1.0)))),
    *((name, _marked(name[: -len(" marked 0")], int(name[-1]))) for name in MARKED),
    *((f"{name} stuck", _stuck(name)) for name in (*SAMPLED, *MARKED, *STUB_FAMILIES)),
    *((f"turn from {x0}", _turn(x0)) for x0 in ((1.0, 0.5), (1.5, 0.5))),
    # A metric oracle with no gap bound, on a three-region turn of the plane
    # whose orbit never repeats.
    ("oracle turn", _fixed(CyclicSystem(
        OracleSpace(lambda a, b: abs(a[0] - b[0]) + 0.5 * abs(a[1] - b[1]), 2),
        (Box((-4.0, -4.0), (4.0, 4.0)),) * 3, lambda x: (0.9 * x[1], -0.8 * x[0] + 0.1)),
        (1.5, -0.5))),
    # On the first axis in l^1 and l^inf past three dimensions, three
    # regions, so that the wrap terms are measured too; and in the plane and
    # 3-space with one late point off it: x_41, the image of x_40 = (2^-40,
    # ...).
    *((f"axis l^{q} in 5", _on_axis(q, 5, m=3)) for q in (1, "inf")),
    *((f"late kick in {d}", _on_axis(2, d, kick=2.0**-40)) for d in (2, 3)),
    ("swing", _fixed(line_system(swing), (-2.0,))),
    # Steps of 1.2e308: the chain of two, 1.2e308 * 2 ** (1/p), passes the
    # largest float below p = 1 / log2(1.797e308 / 1.2e308), about 1.71.
    ("flip from 6e307", _fixed(line_system(flip, bound=6e307), (6e307,))),
    ("swing oracle", _fixed(line_system(swing, space=OracleSpace(line_gap, 1)), (-2.0,))),
    # x_k = 1 - k/8 reaches the fixed point 0 at step 8, so x_10 is the first
    # point equal to the one m = 2 before it.
    ("fixed point", _fixed(line_system(lambda x: (max(x[0] - 0.125, 0.0),)), (1.0,))),
    # Period 2m = 4: 1, -1, 2, -2, 1, ...
    ("period 2m", _fixed(line_system(lambda x: ({1.0: -1.0, -1.0: 2.0, 2.0: -2.0, -2.0: 1.0}
                                                [x[0]],)), (1.0,))),
    *((f"scripted m={m}", _scripted(m)) for m in (2, 3)),
    # |x| shrinks by a factor 0.999 a step, the sign flipping: no point
    # repeats in 5 000 steps.
    ("shrink", _fixed(line_system(lambda x: (-0.999 * x[0],)), (1.0,))),
    # x_k = (K - k) / 2048 reaches the fixed point 0 at step K = 2 d - 2, so
    # J = K + 2 and the rows from d on repeat the one before.
    *((f"stairs {d}", _fixed(line_system(lambda x: (max(x[0] - 2.0**-11, 0.0),)),
                             ((2 * d - 2) / 2048,))) for d in (750, 1023, 1024, 1025, 1500)),
])


@functools.cache
def built(name):
    """The system and start point of ``SYSTEMS[name]``, built once."""
    return SYSTEMS[name]()


# --- what a run writes and what the gallery lists --------------------------------

# Read through the installed package, as a user of it reads the schema.
SCHEMA = json.loads(
    resources.files("proxcycle").joinpath("schemas/summary.schema.json").read_text(encoding="utf-8")
)


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def read_summary(out_dir):
    """The ``summary.json`` in ``out_dir``, parsed with ``NaN`` and
    ``Infinity`` refused and validated against the packaged schema."""
    text = (Path(out_dir) / "summary.json").read_text(encoding="utf-8")
    summary = json.loads(text, parse_constant=_refuse_constant)
    jsonschema.validate(summary, SCHEMA)
    return summary


def _parameters(*rows):
    return [{"name": name, "domain": domain, "default": default} for name, domain, default in rows]


# ``list_gallery()``: each system's id, description and parameters, in
# signature order, with the domain a config's value is read through and the
# default it takes when left out. The key order and the number types are
# part of it: ``gallery list --json`` prints 2 for an int default, 2.0 for a
# float one.
LISTING = [
    {
        "id": "affine_strip",
        "description": "parallel segments at distance h; periodic pair ((0,0), (0,h))",
        "parameters": _parameters(("alpha", "(0, 1)", 0.5), ("h", "(0, inf)", 1.0)),
    },
    {
        "id": "kirk_interval",
        "description": "touching intervals on the line; zero set chain distance, fixed point 0",
        "parameters": _parameters(("alpha", "(0, 1)", 0.5)),
    },
    {
        "id": "paper_lq_family",
        "description": "truncated scaled-basis families in l^q; set chain distance not "
        "attained away from the truncation boundary",
        "parameters": _parameters(
            ("m", "integer in [2, 16]", 2),
            ("alpha", "(0, 1) with alpha^m < 1/2", 0.5),
            ("q", '[1, inf] with no text but "inf" or "infinity"', 2),
            ("N", "integer in [2, 50]", 6),
        ),
    },
    {
        "id": "scaled_pair",
        "description": "two unit balls at a given separation; proximity chain at the "
        "nearest surface points",
        "parameters": _parameters(
            ("alpha", "(0, 1)", 0.5),
            ("separation", "[0, inf)", 2.0),
            ("dimension", "integer in [1, 1000]", 3),
        ),
    },
]


# --- the public input contract --------------------------------------------------
#
# Every parameter of the public functions, of the input records and of their
# public methods is a row of ``CONTRACT`` or an entry of ``EXEMPT``. A row
# names its entry point, its parameter and the reader the parameter goes
# through, and calls the entry point with one value there. A row of a kind
# meets every value of ``AWKWARD`` and gets the kind's outcome for it, where
# its own ``cases`` do not say otherwise; its ``accepts`` are boundary
# values it reads, a ``Gives`` with the result it returns, of the same type
# (each item's too, in a tuple or list). An outcome is
# None for a value read, else the exception type and its message: the whole
# message, or its start where the template ends in "...". A row's reader is
# the ``Domain`` it reads the parameter through, or the name of its reader.
# README's "Validation boundary" shows ``render_contract()``.


class Opaque:
    """A value the library reads as nothing: no number, point or region."""

    def __repr__(self):
        return "Opaque()"


class Shapeless(Region):
    """A region on the line with no exact distance to any other."""

    __slots__ = ()

    def dimension(self):
        return 1


Gives = collections.namedtuple("Gives", "value result")

AWKWARD = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "0": 0, "-1": -1, "1.0": 1.0,
    "2.5": 2.5, "True": True, "False": False, "'1e-3'": "1e-3", "'nan'": "nan", "b'1'": b"1",
    "None": None,
    "-10**5000": -(10**5000), "10**400": 10**400, "10**5000": 10**5000,
    "Fraction": Fraction(10**5000, 3), "list": [0.5], "Opaque()": Opaque(),
}
# A refusal shows a value by its repr, and one with more than 2 048 bits by
# its bit length: Python makes no decimal text past 4 300 digits.
_LONG = {"-10**5000": "int of 16610 bits", "10**5000": "int of 16610 bits",
         "Fraction": "Fraction of 16610 bits"}
SHOWN = {label: _LONG.get(label) or repr(v) for label, v in AWKWARD.items()}
# Counts this large are read through the row's domain, never run.
HUGE_COUNTS = ("10**400", "10**5000")

_HUGE = ("-10**5000", "10**400", "10**5000", "Fraction")
_IN = "{name} must be {domain}, got {shown}"
_NUMBER = "{name} must be a number, got {shown}"


def _kind(accepts, refused="", message=_IN, error=ValueError, text=False):
    """Each awkward label's outcome: None for the labels in ``accepts``,
    (error, message) for those in ``refused``, and for every other label
    the scalar reader's refusal: past the float range for a huge value,
    else not a number (a number or a string, where ``text`` is read)."""
    out = dict.fromkeys(accepts.split()) | dict.fromkeys(refused.split(), (error, message))
    past = (ValueError, "{name} is past the float range, got {shown}")
    scalar = (ValueError, "{name} must be a number or a string, got {shown}" if text else _NUMBER)
    return out | {label: past if label in _HUGE else scalar for label in AWKWARD if label not in out}


def _refuses(message, error=ConfigError, accepts=""):
    """A kind that reads the labels in ``accepts`` and refuses every other
    awkward value with ``message``."""
    refused = " ".join(label for label in AWKWARD if label not in accepts.split())
    return _kind(accepts, refused, message, error)


# A coordinate is the second of the point (-2.0, value), and a p_combine
# value or a validate_phi grid value the second of its list: each is named
# by its index 1, as ``_AT1`` shows for a coordinate.
_AT1 = "coordinate 1 of (-2.0, {shown})"
_INTEGERS = "-10**5000 10**400 10**5000"
KINDS = {
    "positive": _kind("1.0 2.5", "nan inf -inf 0 -1"),
    "nonnegative": _kind("inf 0 1.0 2.5", "nan -inf -1"),
    "count": _kind("10**400 10**5000", "nan inf -inf 0 -1 1.0 2.5 -10**5000"),
    "steps": _kind("0 10**400 10**5000", "nan inf -inf -1 1.0 2.5 -10**5000"),
    "integer": _kind(f"0 -1 {_INTEGERS}", "nan inf -inf 1.0 2.5"),
    "index": _kind("0", f"nan inf -inf -1 1.0 2.5 {_INTEGERS}"),
    "unit text": _kind("'1e-3'", "nan inf -inf 0 -1 1.0 2.5 'nan'", text=True),
    "positive text": _kind("1.0 2.5 '1e-3'", "nan inf -inf 0 -1 'nan'", text=True),
    "nonnegative text": _kind("0 1.0 2.5 '1e-3'", "nan inf -inf -1 'nan'", text=True),
    "real text": _kind("0 -1 1.0 2.5 '1e-3'", "nan inf -inf 'nan'", text=True),
    "size text": _kind("", f"nan inf -inf 0 -1 1.0 2.5 '1e-3' 'nan' {_INTEGERS}", text=True),
    "exponent text": _kind("inf 1.0 2.5", "nan -inf 0 -1 '1e-3' 'nan'", text=True),
    "exponent": _kind("inf 1.0 2.5", "nan -inf 0 -1", "exponent must be >= 1, got {shown}"),
    "phi argument": _kind("nan inf 0 1.0 2.5", "-inf -1", "phi is defined on [0, inf)"),
    "coordinate": _kind("0 -1 1.0 2.5", "nan inf -inf",
                        "non-finite coordinate {shown} at index 1 in (-2.0, {shown})"),
    "value": _kind("inf 0 1.0 2.5", "nan -inf -1",
                   "p_combine is defined for nonnegative values, got ..."),
    "grid value": _kind("inf 1.0 2.5", "nan -inf 0 -1",
                        "grid must be strictly increasing with at least 2 points"),
    "region": _refuses("{name} must be a Region, got {shown}", TypeError),
    "distance method": _refuses("{name} has no exact distance method, got {shown}",
                                CapabilityError),
    "gallery id": _refuses("unknown gallery system {shown}", ValueError),
    # The config's structure: a field that is not an object, a string or one
    # of its names is refused whole, by the field's own message.
    "config": _refuses("config must be a JSON object"),
    "config system": _refuses("system must be an object with 'id' and optional 'parameters'"),
    "config parameters": _refuses("system.parameters must be an object"),
    "config phi": _refuses("phi must be an object with a 'kind' field"),
    "phi kind": _refuses("unknown phi kind {shown}"),
    "run": _refuses(f"run must be one of {RUNS}"),
    "system id": _refuses("system.id must be a string", accepts="'1e-3' 'nan'"),
    "output_dir": _refuses("output_dir must be a string path", accepts="'1e-3' 'nan' None"),
}
# An Exponent reads None as the infinite exponent, which it is not given as inf.
KINDS["Exponent"] = KINDS["exponent"] | {
    "None": None, "inf": (ValueError, "use INFINITY (or Exponent()) for the infinite exponent")}


@dataclasses.dataclass(frozen=True)
class Row:
    """One parameter of one entry point; see the section comment."""

    entry: str
    param: str
    reader: object  # a Domain, or the name of the reader
    call: object
    kind: str | None = None
    cases: dict = dataclasses.field(default_factory=dict)  # label -> (value, outcome)
    accepts: tuple = ()
    name: str | None = None  # the parameter's name in messages, if not ``param``
    wrap: str = "{}"  # the entry's text around the reader's message
    error: type | None = None  # the one type the entry raises, whatever the reader raises
    text: str | None = None  # the domain's text in messages, if the domain is not in _DOMAINS

    def __str__(self):
        return f"{self.entry}({self.param})"

    @property
    def domain(self):
        return self.reader if isinstance(self.reader, Domain) else None

    def outcomes(self):
        """label -> (value, outcome): the kind's, then the row's own cases."""
        kind = KINDS[self.kind] if self.kind else {}
        return {**{label: (AWKWARD[label], out) for label, out in kind.items()}, **self.cases}

    def message(self, template, label):
        """The text of an outcome's message for the value of ``label``; the
        domain's text is written out here, never read from the library."""
        text = template.replace("{name}", self.name or self.param)
        if "{domain}" in text:
            article = "an" if self.domain.integer else "in"
            text = text.replace("{domain}", f"{article} {self.text or _DOMAINS[self.domain][1]}")
        return self.wrap.format(text.replace("{shown}", SHOWN.get(label, label)))


# Each named domain's name and its text in messages, written out.
_DOMAINS = {
    ALPHA: ("ALPHA", "(0, 1)"), CYCLE_LENGTH: ("CYCLE_LENGTH", "integer in [2, inf)"),
    EXPONENT: ("EXPONENT", '[1, inf] with no text but "inf" or "infinity"'),
    COUNT: ("COUNT", "integer in [1, inf)"), STEPS: ("STEPS", "integer in [0, inf)"),
    POSITIVE: ("POSITIVE", "(0, inf)"), _GAP: ("orbit._GAP", "[0, inf]"),
    _KNOT: ("system._KNOT", "(-inf, inf) with every coordinate finite"),
}


def _cases(error, *cases):
    """label -> (value, (error, message)) for each (label, value, message)."""
    return {label: (value, (error, message)) for label, value, message in cases}


def _alike(param, reader, kind, calls, **common):
    """One row per entry point of ``calls`` (entry -> call), alike but for
    their calls."""
    return [Row(entry, param, reader, call, kind, **common) for entry, call in calls.items()]


def _kirk():
    return gallery.make_kirk_interval(0.5).system


def _trace(n=10):
    return OrbitTrace(_kirk(), per_step(_kirk(), (-1.0,), n))


def _config(**changes):
    return {"system": {"id": "kirk_interval"}, "p": 2, "phi": {"kind": "linear", "alpha": 0.5},
            "run": "trace", "iterations": 6, "tolerance": 1e-10, "seed": 0, **changes}


def _reads(config, field=None):
    """A row's call: ``parse_config`` of ``config(v)``, or the ``field`` it
    reads; the call keeps ``config``, so the CLI test runs the same config."""

    def call(v):
        parsed = parse_config(config(v))
        return getattr(parsed, field) if field else parsed

    call.config = config
    return call


def _load(text):
    """``load_config`` of a file holding ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "c.json").write_text(text)
        return load_config(Path(tmp) / "c.json")


def _run(out_dir):
    """``run_experiment`` of a trace config with no output_dir, into
    ``out_dir``, or a scratch directory for "tmp"."""
    with tempfile.TemporaryDirectory() as tmp:
        return run_experiment(parse_config(_config()), tmp if out_dir == "tmp" else out_dir)


L1, _UNIT, _TOP = LqSpace(2, 1), Box((0.0,), (1.0,)), 1.7976931348623157e308
_SOLVERS = {f.__name__: f for f in (banach_solve, periodic_point_solve, proximity_chain_extract)}


# A whole point, handed to a point reader in place of (-2.0, value).
Whole = collections.namedtuple("Whole", "point")


def _whole(what, *more):
    """The refusals of a whole point read by ``Space.point`` in the plane,
    which labels it ``what``, and the ``more`` cases."""
    return _cases(ValueError, ("3-d point", Whole((1.0, 2.0, 3.0)),
                               f"{what} of dimension 3 in a 2-dimensional space"),
                  ("str point", Whole("12"), "a point is a sequence of numbers, not a str"), *more)


def _point_rows():
    """Every reader of an outside point, handed (-2.0, value), or a
    ``Whole`` point: a point of the plane, in its first ball for the values
    0, -1 and 1.0."""
    plane, phi = gallery.make_scaled_pair(0.4, 2.0, 2).system, LinearPhi(0.5)
    plane_2, two, oracle = plane.space, [(-2.0, 0.0), (2.0, 0.0)], OracleSpace(math.dist, 2)

    def pt(v):
        return v.point if isinstance(v, Whole) else (-2.0, v)

    built = {
        "check_point v": lambda v: check_point(pt(v)),
        "FiniteCloud points": lambda v: FiniteCloud(((0.0, 0.0), pt(v))),
        "Box lower": lambda v: Box(pt(v), (3.0, 3.0)),
        "Box upper": lambda v: Box((-3.0, -3.0), pt(v)),
        "Ball center": lambda v: Ball(pt(v), 1.0),
    }
    bounds = {key: _cases(ValueError, ("1-d bound", Whole((0.0,)), "bound dimensions differ"), (
        "crossed", Whole((end, end)), "lower bound exceeds upper bound"))
        for key, end in (("Box lower", 4.0), ("Box upper", -4.0))}
    read = {
        "Space.point v": lambda v: oracle.point(pt(v)),
        "Space.distance a": lambda v: plane_2.distance(pt(v), two[0]),
        "Space.distance b": lambda v: oracle.distance(two[0], pt(v)),
        "LqSpace.norm v": lambda v: plane_2.norm(pt(v)),
        "Region.contains point": lambda v: Box((0.0, 0.0), (1.0, 1.0)).contains(pt(v), plane_2),
        "CyclicSystem.apply x": lambda v: plane.apply(pt(v)),
        "CyclicSystem.apply_n x": lambda v: plane.apply_n(pt(v), 1),
        "CyclicSystem.is_artifact x": lambda v: plane.is_artifact(pt(v)),
        "CyclicSystem artifact_points": lambda v: CyclicSystem(plane_2, plane.regions, plane.map,
                                                               (pt(v),)).artifact_points,
        "chain_point_distance xs": lambda v: chain_point_distance(plane_2, [two[0], pt(v)], two, 2),
        "chain_point_distance ys": lambda v: chain_point_distance(plane_2, two, [two[0], pt(v)], 2),
        "chain_self_distance xs": lambda v: chain_self_distance(plane_2, [two[0], pt(v)], 2),
        "contraction_margin xs": lambda v: contraction_margin(plane, phi, 2, [pt(v), two[1]], two),
        "contraction_margin ys": lambda v: contraction_margin(plane, phi, 2, two, [pt(v), two[1]]),
        "validate_metric sample_points": lambda v: validate_metric(plane_2, [*two, pt(v)]),
        "OrbitTrace membership_violations": lambda v: OrbitTrace(plane, two, [(1, pt(v))]),
    }
    what = {"LqSpace.norm v": "vector", "CyclicSystem artifact_points": "artifact point",
            "OrbitTrace membership_violations": "violation point"}
    gives = {"Space.point v": (Gives(Whole([1, 2]), (1.0, 2.0)),),
             "Space.distance b": (Gives(Whole((1, -4)), 5.0),),
             "LqSpace.norm v": (Gives(Whole([3, 4]), 5.0),),
             "CyclicSystem artifact_points": (Gives(Whole([-2, 0]), ((-2.0, 0.0),)),)}
    starts = {"picard_orbit": lambda v: picard_orbit(plane, pt(v), 2)}
    starts |= {name: lambda v, f=f: f(plane, pt(v)) for name, f in _SOLVERS.items()}
    return [
        *[Row(*key.split(), "check_point", call, "coordinate", bounds.get(key, {}), name=_AT1)
          for key, call in built.items()],
        Row("check_point", "v", "check_point", check_point, cases=_cases(
            ValueError, ("()", (), "a point must have dimension >= 1"),
            ("'12'", "12", "a point is a sequence of numbers, not a str"),
            ("b'12'", b"12", "a point is a sequence of numbers, not a bytes"),
            ("bool, huge int", [True, 10**5000],
             "coordinate 0 of (True, int of 16610 bits) must be a number, got True"),
            ("str, huge int", [1.0, "1", -(10**5000), 3.0, 2, 5.0], "coordinate 1 of "
             "(1.0, '1', int of 16610 bits, 3.0, ...; dimension 6) must be a number, got '1'"))),
        *[Row(*key.split(), "Space.point", call, "coordinate", _whole(what.get(key, "point")),
              accepts=gives.get(key, ()), name=_AT1) for key, call in read.items()],
        *_alike("x0", "Space.point", "coordinate", starts, name=_AT1, cases=_whole(
            "x0", ("2.5", 2.5, "x0 = (-2.0, 2.5) is not in the first region"))),
        Row("OrbitTrace", "points", "Space.point", lambda v: OrbitTrace(plane, [two[0], pt(v)]),
            "coordinate", _whole("point", ("None point", Whole(None),
                                           "'NoneType' object is not iterable")),
            name=_AT1, wrap="trace point 1: {}", error=ValueError),
    ]


def _exponent_rows():
    """Every reader of an exponent: ``as_exponent`` is behind each."""
    kirk, phi, trace, family = _kirk(), LinearPhi(0.5), _trace(), gallery.make_paper_lq_family(N=2)
    xs, ys = [(0.0,), (1.0,)], [(2.0,), (0.5,)]
    calls = {
        "p_combine": lambda v: p_combine([1.0, 2.0], v),
        "chain_point_distance": lambda v: chain_point_distance(L1, xs, ys, v),
        "chain_self_distance": lambda v: chain_self_distance(L1, xs, v),
        "chain_set_distance": lambda v: chain_set_distance(L1, kirk.regions, v),
        "CyclicSystem.set_chain_distance": kirk.set_chain_distance,
        "alpha_bound_check": lambda v: alpha_bound_check(0.5, 2, v),
        "contraction_margin": lambda v: contraction_margin(kirk, phi, v, xs[::-1], xs),
        "verify_contraction": lambda v: verify_contraction(kirk, phi, v, tuple_samples=2),
        "attainment_gap": lambda v: gallery.attainment_gap(family, v),
        "chain_trace": lambda v: chain_trace(trace, v),
        "trace_rows": lambda v: trace_rows(trace, v),
        "cross_block_chain_distance": lambda v: cross_block_chain_distance(trace, 1, 0, v),
        **{name: lambda v, f=f: f(kirk, (-1.0,), p=v) for name, f in _SOLVERS.items()},
    }
    exact = (Gives(1, Exponent(1.0)), Gives("inf", INFINITY), Gives("Infinity", INFINITY),
             Gives(math.inf, INFINITY), Gives(Exponent(3.0), Exponent(3.0)))
    return [
        Row("as_exponent", "p", "as_exponent", as_exponent, "exponent", name="exponent",
            accepts=(*exact, Gives(Fraction(7, 2), Exponent(3.5)))),
        *_alike("p", "as_exponent", "exponent", calls, name="exponent", accepts=(1, "Infinity")),
        Row("LqSpace", "q", "as_exponent", lambda v: LqSpace(v, 2), "exponent", name="exponent",
            accepts=(1,)),
        Row("Exponent", "value", "Exponent", Exponent, "Exponent", _cases(
            ValueError, ("'inf'", "inf", _NUMBER)), name="exponent", accepts=(1, _TOP)),
    ]


def _domain_rows():
    """Every parameter read through a ``spaces.Domain``, and phi's t and
    the value lists, read by ``float()``."""
    kirk, phi, trace, family = _kirk(), LinearPhi(0.5), _trace(), gallery.make_paper_lq_family(N=2)
    artifact, tiny = family.system.artifact_points[0], 5e-324
    solves = {name: lambda v, f=f: f(kirk, (-1.0,), tol=v) for name, f in _SOLVERS.items()}
    tols = {
        "verify_cyclicity": lambda v: verify_cyclicity(kirk, samples_per_region=2, tol=v),
        "validate_metric": lambda v: validate_metric(L1, [(0.0,), (1.0,), (3.0,)], tol=v),
        "Region.contains": lambda v: _UNIT.contains((0.5,), L1, v),
    }
    too_short = _cases(ValueError, *[(label, AWKWARD[label], "trace too short for block {shown}")
                                     for label in HUGE_COUNTS])
    four = [(0.0,), (1.0,), (3.0,), (4.0,)]
    counts = {
        "verify_contraction tuple_samples": lambda v: verify_contraction(kirk, phi, 2,
                                                                         tuple_samples=v),
        "verify_cyclicity samples_per_region": lambda v: verify_cyclicity(kirk,
                                                                          samples_per_region=v),
        "validate_metric max_triples": lambda v: validate_metric(L1, four, max_triples=v),
    }
    spaces = {"LqSpace": lambda v: LqSpace(2, v).dimension,
              "OracleSpace": lambda v: OracleSpace(line_gap, v).dimension}
    return [
        # A solver reads an int tol as its float.
        *[Row(entry, "tol", POSITIVE, call, "positive", accepts=(tiny, _TOP, Gives(1, call(1.0))))
          for entry, call in solves.items()],
        *_alike("tol", POSITIVE, "positive", tols, accepts=(tiny, _TOP, 1)),
        Row("CyclicSystem.is_artifact", "tol", POSITIVE,
            lambda v: (family.system.is_artifact(family.default_start, v),
                       family.system.is_artifact(artifact, v)),
            "positive", accepts=(Gives(1e-12, (False, True)),)),
        Row("Ball", "radius", POSITIVE, lambda v: Ball((0.0,), v).radius, "positive",
            accepts=(tiny, _TOP, Gives(2, 2.0))),
        *_alike("max_iter", STEPS, "steps",
               {name: lambda v, f=f: f(kirk, (-1.0,), max_iter=v) for name, f in _SOLVERS.items()},
               accepts=(1,)),
        Row("picard_orbit", "n", STEPS, lambda v: picard_orbit(kirk, (-1.0,), v), "steps",
            _cases(ValueError, ("0", 0, "need at least m = 2 steps")), accepts=(2,)),
        Row("CyclicSystem.apply_n", "k", STEPS, lambda v: kirk.apply_n((0.5,), v), "steps",
            accepts=(Gives(0, (0.5,)), Gives(2, (0.125,)))),
        Row("apriori_error_bound", "k", STEPS, lambda v: apriori_error_bound(0.5, 2, v, 1.0),
            "steps", accepts=(1,)),
        Row("OrbitTrace.block", "n", STEPS, trace.block, "steps", too_short,
            accepts=(Gives(0, trace.points[:2]), 4)),
        Row("cross_block_chain_distance", "n", STEPS,
            lambda v: cross_block_chain_distance(trace, v, 0, 2), "steps", too_short, accepts=(4,)),
        Row("cross_block_chain_distance", "k", STEPS,
            lambda v: cross_block_chain_distance(trace, 0, v, 2), "steps", too_short, accepts=(4,)),
        *[Row(entry, "i", COUNT, lambda v, f=f: f(trace, v), "count", _cases(ValueError, *[
            (label, AWKWARD[label], f"{noun} must be in 1..2") for label in HUGE_COUNTS]),
            accepts=(1, 2)) for entry, f, noun in (
                ("edge_trace", edge_trace, "edge index"),
                ("block_drift_trace", block_drift_trace, "subsequence index"))],
        *[Row(*key.split(), COUNT, call, "count", accepts=(1,)) for key, call in counts.items()],
        *[Row(entry, "dimension", COUNT, call, "count", accepts=(Gives(1, 1), Gives(3, 3)))
          for entry, call in spaces.items()],
        *_alike("alpha", ALPHA, "unit text", {
            "LinearPhi": LinearPhi,
            "alpha_bound_check": lambda v: alpha_bound_check(v, 2, 2),
            "apriori_error_bound": lambda v: apriori_error_bound(v, 2, 1, 1.0),
        }, accepts=(tiny, 1 - 2**-53)),
        *_alike("m", CYCLE_LENGTH, "count", {
            "alpha_bound_check": lambda v: alpha_bound_check(0.5, v, 2),
            "apriori_error_bound": lambda v: apriori_error_bound(0.5, v, 1, 1.0),
        }, cases=_cases(ValueError, ("1", 1, _IN)), accepts=(2,)),
        Row("apriori_error_bound", "initial_gap", _GAP,
            lambda v: apriori_error_bound(0.5, 2, 1, v), "nonnegative", accepts=(_TOP,)),
        Row("TabulatedPhi", "knots", _KNOT, lambda v: TabulatedPhi(((0, v), (1, 3))),
            "real text", _cases(ValueError, ("-1", -1, "phi(0) must be >= 0")), accepts=(-0.0, 3)),
        Row("OrbitTrace", "membership_violations", Domain(0, 2, "[)", integer=True),
            lambda v: OrbitTrace(_kirk(), [(-1.0,), (0.5,)], [(v, (-1.0,))]), "index",
            _cases(ValueError, ("2", 2, _IN)), name="violation index", accepts=(1,),
            text="integer in [0, 2)"),
        *[Row(f"{type(f).__name__}.__call__", "t", "_number", f, "phi argument",
              accepts=(tiny, _TOP)) for f in (phi, TabulatedPhi(((0, 0), (1, 1), (2, 4))))],
        Row("p_combine", "values", "_number", lambda v: p_combine([1.0, v], 3.5), "value",
            name="values[1]", accepts=(_TOP,)),
        Row("validate_phi", "grid", "_number", lambda v: validate_phi(phi, [0.0, v]), "grid value",
            name="grid[1]", accepts=(_TOP,)),
    ]


def _gallery_rows():
    """Each gallery parameter through its registered domain, called directly;
    two of them through ``build`` too."""
    rows = []
    unit, exponent = ("unit text", "(0, 1)"), ("exponent text", _DOMAINS[EXPONENT][1])
    for system_id, kinds, accepts, cases in (
        ("kirk_interval", {"alpha": unit}, {}, {}),
        ("affine_strip", {"alpha": unit, "h": ("positive text", "(0, inf)")}, {}, {}),
        ("paper_lq_family",
         {"m": ("size text", "integer in [2, 16]"),
          "alpha": ("unit text", "(0, 1) with alpha^m < 1/2"), "q": exponent,
          "N": ("size text", "integer in [2, 50]")},
         {"m": (2, 16), "alpha": (5e-324, 0.7071067811865475), "q": (1, "inf"), "N": (2, 50)},
         {"m": 17, "N": 51}),
        ("scaled_pair",
         {"alpha": unit, "separation": ("nonnegative text", "[0, inf)"),
          "dimension": ("size text", "integer in [1, 1000]")},
         {"separation": (0, _TOP), "dimension": (1, 1000)}, {"dimension": 1001}),
    ):
        entry = gallery.GALLERY[system_id]
        for name, (kind, text) in kinds.items():
            more = {str(cases[name]): (cases[name], (ValueError, _IN))} if name in cases else {}
            rows.append(Row(f"make_{system_id}", name, entry.domains[name],
                            lambda v, f=entry.factory, name=name: f(**{name: v}), kind, more,
                            accepts=accepts.get(name, ()), text=text))
            if (system_id, name) in (("kirk_interval", "alpha"), ("paper_lq_family", "m")):
                rows.append(dataclasses.replace(
                    rows[-1], entry="build", param=f'parameters["{name}"]', name=name,
                    call=lambda v, id=system_id, name=name: gallery.build(id, {name: v})))
    return rows


def _case_rows():
    """The refusals that are not of one awkward value: config structure,
    knots, clouds, regions, traces too short for what they are asked."""
    kirk, ball, cloud = _kirk(), Ball((3.0,), 1.0), FiniteCloud(((2.0,),))
    short = {k: OrbitTrace(kirk, per_step(kirk, (-1.0,), k - 1)) for k in range(2, 6)}
    return [
        Row("parse_config", "data", "parse_config", _reads(lambda v: v), "config", _cases(
            ConfigError,
            ("[]", [], "config must be a JSON object"),
            ("key x", _config(x=1), "unknown config keys: ['x']"),
            ("no seed", {k: v for k, v in _config().items() if k != "seed"},
             "missing config keys: ['seed']"),
            ("system id 3", _config(system={"id": 3}), "system.id must be a string"),
            ("system key extra", _config(system={"id": "kirk_interval", "extra": 1}),
             "system must be an object with 'id' and optional 'parameters'"),
            ("system parameters []", _config(system={"id": "kirk_interval", "parameters": []}),
             "system.parameters must be an object"),
            ("phi 'linear'", _config(phi="linear"), "phi must be an object with a 'kind' field"),
            *[(f"phi kind {kind!r}", _config(phi={"kind": kind}), f"unknown phi kind {kind!r}")
              for kind in ("cubic", [])],
            *[(f"phi {kind} key beta", _config(phi={"kind": kind, "beta": 1}),
               "invalid phi: unknown phi keys: ['beta']") for kind in ("linear", "tabulated")],
            *[(f"phi {kind} no {key}", _config(phi={"kind": kind}),
               f"invalid phi: missing key '{key}'")
              for kind, key in (("linear", "alpha"), ("tabulated", "knots"))],
            ("phi alpha 2.5", _config(phi={"kind": "linear", "alpha": 2.5}),
             "invalid phi: alpha must be in (0, 1), got 2.5"),
            *[(f"phi knot {label}", _config(phi={"kind": "tabulated", "knots": [[0, 0], knot]}),
               f"invalid phi: knots must be pairs of numbers, got {knot!r}")
              for label, knot in (("dict", {"1": 5, "2": 7}), ("set", {1, 2}))],
            *[(f"phi knots {knots!r}", _config(phi={"kind": "tabulated", "knots": knots}),
               f"invalid phi: knots must be a list of pairs, got {knots!r}")
              for knots in (5, None, "ab", {"a": 1})],
            ("output_dir 3", _config(output_dir=3), "output_dir must be a string path"),
        ), accepts=(_config(), _config(
            output_dir="out", phi={"kind": "tabulated", "knots": [[0, 0], [1, "0.5"]]},
            system={"id": "kirk_interval", "parameters": {"alpha": 0.25}}))),
        Row("parse_config", 'data["run"]', "RUNS", _reads(lambda v: _config(run=v)), "run",
            _cases(ConfigError, *[(repr(run), run, f"run must be one of {RUNS}")
                                  for run in ("explore", [])]),
            accepts=RUNS),
        *[Row("parse_config", f"data{field}", "parse_config", _reads(f), kind)
          for field, f, kind in (
                ('["system"]', lambda v: _config(system=v), "config system"),
                ('["system"]["id"]', lambda v: _config(system={"id": v}), "system id"),
                ('["system"]["parameters"]',
                 lambda v: _config(system={"id": "kirk_interval", "parameters": v}),
                 "config parameters"),
                ('["phi"]', lambda v: _config(phi=v), "config phi"),
                ('["phi"]["kind"]', lambda v: _config(phi={"kind": v}), "phi kind"),
                ('["output_dir"]', lambda v: _config(output_dir=v), "output_dir"))],
        Row("parse_config", 'data["phi"]["alpha"]', ALPHA,
            _reads(lambda v: _config(phi={"kind": "linear", "alpha": v})), "unit text",
            name="alpha", wrap="invalid phi: {}", error=ConfigError, accepts=(5e-324, "0.5")),
        *[Row("parse_config", f'data["{key}"]', NUMBERS[key],
              _reads(lambda v, key=key: _config(**{key: v}), key), kind, name=key,
              accepts=accepts, error=ConfigError, text=text) for key, kind, accepts, text in (
                ("p", "exponent text", (Gives(1, Exponent(1.0)), Gives(1.5, Exponent(1.5)),
                                        *[Gives(t, INFINITY) for t in ("inf", "INFINITY")]), None),
                ("iterations", "count", (Gives(1, 1), Gives(10**400, 10**400)), None),
                ("tolerance", "positive", (5e-324, Gives(1, 1.0)), None),
                ("seed", "integer", (Gives(0, 0), Gives(-3, -3), Gives(10**400, 10**400)),
                 "integer in (-inf, inf)"))],
        Row("load_config", "path", "json.load", _load, cases=_cases(
            ConfigError, ("'{'", "{", "config ..."),
            ("NaN", '{"p": NaN}', "NaN is not a JSON value"),
        ), accepts=(json.dumps(_config()),)),
        Row("run_experiment", "out_dir", "run_experiment", _run, cases=_cases(
            ConfigError, ("None", None, "no output directory: set output_dir or pass --out")),
            accepts=("tmp",)),
        Row("build", "system_id", "GALLERY", gallery.build, "gallery id", _cases(
            ValueError, ("'nope'", "nope", "unknown gallery system 'nope'")),
            accepts=("kirk_interval",)),
        Row("build", "parameters", "gallery domains", lambda v: gallery.build("kirk_interval", v),
            cases=_cases(ValueError, ("{'beta': 1}", {"beta": 1},
                                      "unknown parameters for kirk_interval: ['beta']")),
            accepts=(None, {}, {"alpha": "0.25"})),
        Row("TabulatedPhi", "knots", "TabulatedPhi", lambda v: TabulatedPhi(v).knots, cases=_cases(
            ValueError,
            ("one knot", ((0, 0),), "need at least 2 knots"),
            ("'12'", ((0, 0), "12"), "knots must be pairs of numbers, got '12'"),
            ("b'12'", ((0, 0), b"12"), "knots must be pairs of numbers, got b'12'"),
            ("knot None", ((0, 0), None), "knots must be pairs of numbers, got None"),
            ("knot of 3", ((0, 0), (1, 2, 3)), "knots must be pairs of numbers, got (1, 2, 3)"),
            ("knot dict", ((0, 0), {"1": 5, "2": 7}),
             "knots must be pairs of numbers, got {'1': 5, '2': 7}"),
            ("knot set", ((0, 0), {1, 2}), "knots must be pairs of numbers, got {1, 2}"),
            ("knots 'ab'", "ab", "knots must be pairs of numbers, got 'a'"),
            ("knots {'a': 1}", {"a": 1}, "knots must be pairs of numbers, got 'a'"),
            ("first at 1", ((1, 0), (2, 1)), "first knot must be at t = 0"),
            ("equal t", ((0, 0), (0, 1)), "knot abscissae must be strictly increasing"),
            ("falling", ((0, 1), (1, 0)), "knot values not increasing"),
            ("steep", ((0, 0), (5e-324, 1)),
             "slope past the float range from knot (0.0, 0.0) to (5e-324, 1.0)"),
            ("steep later", ((0, 0), (1, 0.5), (1.5, 1e308)),
             "slope past the float range from knot (1.0, 0.5) to (1.5, 1e+308)"),
        ) | _cases(
            TypeError,
            ("knots 5", 5, "'int' object is not iterable"),
            ("knots None", None, "'NoneType' object is not iterable"),
        ), accepts=(((0.0, 0.0), (1.0, 0.0)), Gives([[0, 0], ["1", "2"]], ((0.0, 0.0), (1.0, 2.0))),
                    Gives((("0", 0), (1, "0.5")), ((0.0, 0.0), (1.0, 0.5))),
                    # A slope of 2e23 is steep, not past the float range.
                    Gives(((0, 0), (5e-324, 1e-300)), ((0.0, 0.0), (5e-324, 1e-300))))),
        Row("FiniteCloud", "points", "FiniteCloud", FiniteCloud, cases=_cases(
            ValueError, ("()", (), "a finite cloud must be nonempty"),
            ("mixed", ((0.0,), (0.0, 1.0)), "cloud points must share one dimension"),
        ), accepts=(((0.0, 1.0),), [[1, 2], [3, 4]])),
        Row("CyclicSystem", "regions", "CyclicSystem", lambda v: CyclicSystem(L1, v, kirk.map),
            cases=_cases(ValueError, ("one", (_UNIT,), "a cyclic system needs m >= 2 regions"),
                         ("2-d box", (_UNIT, Box((0.0, 0.0), (1.0, 1.0))),
                          "region 2 is 2-dimensional in a 1-dimensional space")),
            accepts=([_UNIT, _UNIT], [_UNIT, ball, cloud])),
        Row("CyclicSystem", "regions", "isinstance Region",
            lambda v: CyclicSystem(L1, (_UNIT, v), kirk.map), "region", name="region 2"),
        Row("region_distance", "a", "isinstance Region", lambda v: region_distance(L1, v, _UNIT),
            "region"),
        Row("region_distance", "b", "isinstance Region", lambda v: region_distance(L1, _UNIT, v),
            "region"),
        Row("Region.distance_to", "other", "region_distance", lambda v: _UNIT.distance_to(v, L1),
            "region", name="b"),
        Row("chain_set_distance", "regions", "hasattr distance_to",
            lambda v: chain_set_distance(L1, [_UNIT, v], 1), "distance method", name="region 2"),
        Row("chain_set_distance", "regions", "chain_set_distance",
            lambda v: chain_set_distance(L1, v, 1), cases=_cases(
                ValueError, ("one", (_UNIT,), "need at least 2 regions")), accepts=([_UNIT, ball],)),
        Row("Region.contains", "space", "Region.contains",
            lambda v: Box((0.0, 0.0), (1.0, 1.0)).contains((0.5,) * v.dimension, v), cases=_cases(
                ValueError, ("l^2 line", L1, "2-dimensional region in a 1-dimensional space")),
            accepts=(Gives(LqSpace(1, 2), True),)),
        Row("region_distance", "space", "region_distance",
            lambda v: region_distance(v, ball, ball), cases=_cases(
                CapabilityError, ("l^1", LqSpace(1, 1), "ball distance requires the l^2 space"),
            ) | _cases(ValueError, ("2-d", LqSpace(2, 2), "dimension mismatch: space is "
                                    "2-dimensional, regions have 1 and 1")), accepts=(L1,)),
        Row("region_distance", "b", "region_distance",
            lambda v: region_distance(OracleSpace(line_gap, 1), cloud, v), cases=_cases(
                CapabilityError, ("a box", _UNIT, "box distances need an l^q space"),
                ("Shapeless()", Shapeless(), "no exact distance between FiniteCloud and Shapeless"),
            ), accepts=(cloud,)),
        Row("attainment_gap", "gallery_system", "attainment_gap",
            lambda v: gallery.attainment_gap(v, 2), cases=_cases(
                CapabilityError, ("kirk_interval", gallery.make_kirk_interval(),
                                  "attainment gap needs enumerable regions")),
            accepts=(gallery.make_paper_lq_family(N=2),)),
        *[Row(entry, "trace", "len(trace.points)", f, cases=_cases(
            ValueError, (f"{n} points", short[n], message)), accepts=(short[n + 1],))
          for entry, f, n, message in (
              ("chain_trace", lambda t: chain_trace(t, 2), 2, "trace too short for a chain trace"),
              ("block_drift_trace", lambda t: block_drift_trace(t, 1), 4,
               "trace too short for a drift trace"),
              ("trace_rows", lambda t: trace_rows(t, 2), 3, "trace too short for a trace row"))],
        Row("boundedness_probe", "trace", "len(trace.points)", boundedness_probe, cases=_cases(
            ValueError, ("no points", OrbitTrace(kirk, ()), "trace is empty")),
            accepts=(short[2],)),
    ]


CONTRACT = [*_point_rows(), *_exponent_rows(), *_domain_rows(), *_gallery_rows(), *_case_rows()]


def _exempt(reason, names):
    return dict.fromkeys(names.split(), reason)


# Each public parameter that is not a row, as "entry.param", with the reason.
EXEMPT = {
    **_exempt(
        "trusted: a `CyclicSystem`, `Space` or `OrbitTrace` read its inputs when it was built",
        "banach_solve.system periodic_point_solve.system proximity_chain_extract.system "
        "picard_orbit.system verify_contraction.system verify_cyclicity.system "
        "contraction_margin.system OrbitTrace.system chain_point_distance.space "
        "chain_self_distance.space chain_set_distance.space validate_metric.space "
        "Region.distance_to.space CyclicSystem.space edge_trace.trace "
        "cross_block_chain_distance.trace",
    ),
    **_exempt(
        "called as it is: a `Phi`, or a map or oracle under the termination contract below",
        "verify_contraction.phi contraction_margin.phi validate_phi.phi CyclicSystem.map "
        "OracleSpace.oracle",
    ),
    **_exempt(
        "handed to `random` as it is",
        "validate_metric.seed verify_contraction.seed verify_cyclicity.seed "
        "FiniteCloud.sample.rng Box.sample.rng Ball.sample.rng",
    ),
    **_exempt(
        "used as it is: a label in a refusal, `MapError.step`, a set distance (None: the "
        "system's), a config `parse_config` read",
        "Space.point.what CyclicSystem.apply.step contraction_margin.set_distance "
        "run_experiment.config",
    ),
}




def _show(value):
    """A short text of an accepted value."""
    value = value.value if isinstance(value, Gives) else value
    text = repr(value)
    return text if len(text) <= 24 else type(value).__name__


def _outcome_text(error, template):
    text = template.replace("{name}", "<name>").replace("{domain}", "<domain>")
    return f"{error.__name__} `{text.replace('{shown}', '<value>')}`"


def render_contract():
    """README's contract tables as markdown lines: the kinds, the rows (one
    line for the rows that read alike) and the exemptions."""
    lines = ["| kind | reads | refuses |", "|---|---|---|"]
    for kind, outcomes in sorted(KINDS.items()):
        refusals = {}
        for label, outcome in outcomes.items():
            if outcome is not None:
                refusals.setdefault(_outcome_text(*outcome), []).append(f"`{label}`")
        reads = ", ".join(f"`{label}`" for label, out in outcomes.items() if out is None)
        refused = "; ".join(f"{', '.join(labels)}: {text}" for text, labels in refusals.items())
        lines.append(f"| {kind} | {reads or 'none'} | {refused} |")

    groups = {}
    for row in CONTRACT:
        reader = f"`{row.reader}`" if row.domain is None else (
            f"`{_DOMAINS.get(row.domain, ('Domain',))[0]}` `{row.domain}`")
        named = f" as `{row.name}`" if row.name and row.name not in row.param else ""
        named = named.replace("{shown}", "<value>")
        cases = [f"*{row.kind}*{named}"] if row.kind else []
        cases += [f"`{label}`: " + _outcome_text(*out) for label, (_, out) in row.cases.items()]
        cases += [f"message in `{row.wrap}`"] if row.wrap != "{}" else []
        cases += [f"raised as {row.error.__name__}"] if row.error else []
        rows, accepts = groups.setdefault((reader, "; ".join(cases)), ([], {}))
        rows.append(f"`{row}`")
        accepts.update(dict.fromkeys(f"`{_show(v)}`" for v in row.accepts))
    lines += ["", "| parameters | reader | refusals | also reads |", "|---|---|---|---|"]
    lines += [f"| {', '.join(rows)} | {reader} | {cases} | {', '.join(accepts) or '-'} |"
              for (reader, cases), (rows, accepts) in groups.items()]

    reasons = {}
    for name, reason in EXEMPT.items():
        reasons.setdefault(reason, []).append(f"`{name}`")
    lines += ["", "| not a row | why |", "|---|---|"]
    return lines + [f"| {', '.join(names)} | {reason} |" for reason, names in reasons.items()]


if __name__ == "__main__":
    print("\n".join(render_contract()))
