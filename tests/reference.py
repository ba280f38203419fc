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
spaces and generators that record their calls) and an exact oracle for the
certificate's floor. At p, q in {1, inf} every distance is sums and maxima
of |a - b|, so ``fractions.Fraction`` gives the exact margin of float points
and float images under a ``LinearPhi``; the floor MARGIN_ULPS * m * ulp(S)
is held against it. Higham (Accuracy and Stability of Numerical
Algorithms, 2002) bounds the rounding of such sums a priori. Other
exponents go through ``pow``, whose rounding the standard library does not
bound, so the oracle refuses them rather than guess.
"""

import dataclasses
import itertools
import math
import random
from fractions import Fraction
from itertools import count, islice

from proxcycle import gallery
from proxcycle.chains import chain_point_distance, chain_self_distance
from proxcycle.orbit import block_drift_trace, chain_trace, edge_trace
from proxcycle.spaces import LqSpace, OracleSpace, as_exponent
from proxcycle.system import Box, CyclicityReport, FiniteCloud, contraction_margin

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
    """Each point's type and its coordinates' types and hex digits: equal
    results are bit-identical points of the same types."""
    return [(type(x), [(type(c), float.hex(c)) for c in x]) for x in points]


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
    m, dist = system.m, system.space.distance
    steps = walk(system, x0)
    points = [next(steps)]
    for k, x in enumerate(steps, start=1):
        points.append(x)
        if solver == "banach" and dist(points[k - 1], x) <= tol:
            return k
        if solver == "periodic" and k % m == 0 and dist(points[k - m], x) <= tol:
            return k
        if solver == "proximity" and k >= 2 * m - 1:
            if all(dist(points[j - m], points[j]) <= tol for j in range(k - m + 1, k + 1)):
                return k


def per_step_fields(solver, system, x0, tol):
    """The fields a solver reads off the orbit, from the per-step walk: the
    stop of ``per_step_stop``, the points of ``apply`` and each distance
    measured by the public ``distance``, chain distances included; each
    float as its hex digits."""
    k = per_step_stop(solver, system, x0, tol)
    m, space = system.m, system.space
    points = per_step(system, x0, k + m)
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
    """The tuple pairs the sampled branch draws: xs, then ys, region by region."""
    rng = random.Random(seed)
    for _ in range(samples):
        xs = tuple(r.sample(rng) for r in system.regions)
        ys = tuple(r.sample(rng) for r in system.regions)
        yield xs, ys


def cyclicity_reference(system, samples, seed):
    """``verify_cyclicity`` one sample at a time: every point of a cloud, or
    per-sample ``Region.sample`` draws, region by region, each flagged,
    mapped and tested by the public ``is_artifact``, ``apply`` and
    ``contains`` before the next is drawn."""
    rng = random.Random(seed)
    violations, artifacts, checked = [], [], 0
    for i, region in enumerate(system.regions):
        target = system.regions[(i + 1) % system.m]
        if isinstance(region, FiniteCloud):
            xs = region.points
        else:
            xs = (region.sample(rng) for _ in range(samples))
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
        system = dataclasses.replace(gs.system, map=wrap(gs.system.map))
        return dataclasses.replace(gs, system=system)

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


class CountingRandom(random.Random):
    """``random.Random`` that records the value of each ``random()`` call in
    ``calls``."""

    def __init__(self, seed):
        # One argument: Python 3.10's Random refuses more, also in a subclass.
        super().__init__(seed)
        self.calls = []

    def random(self):
        x = super().random()
        self.calls.append(x)
        return x


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
    return dataclasses.replace(kirk, space=space, regions=boxes), calls
