"""Picard orbits and the diagnostics and solvers built on them.

Orbit generation is inherently sequential; everything derived from a trace is
pure. Non-convergence is data (a flagged result), never an exception.

``_chunks`` is the one loop that walks an orbit toward a budget, with the
solvers' stop rule optionally inline. It calls the raw map a chunk at a time
and validates each chunk in one pass; a chunk it refuses, and the rest of
the orbit, it steps through ``CyclicSystem._image``, the stepper behind
``apply``, so its points are the per-step walk's, bit for bit, and an error
carries its step. Its docstring holds the refusal rule and the termination
contract the map and the space's distance are under. ``_record`` is one walk
of one orbit: it validates the start once (``_start``) and records the trace
prefix x_0..x_keep from ``_chunks`` before any reader comes, as a ``_Walk``,
the ``OrbitTrace`` a solver takes as its start. ``picard_orbit`` is that
prefix plus a membership pass.

The three solvers are one stop rule, ``_settle``, with three settings: the
drift d(x_{k-s}, x_k) within tol at r consecutive checked steps (a small
consecutive step; a small m-step drift at the block ends; every interleaved
subsequence settled). Over the recorded prefix ``_settle`` reads the
drifts from the prefix's stride-s distance column, with no map call and no
distance call; past it, ``_chunks`` walks on with the rule, measuring
only the drifts that a first-coordinate gap does not already put above tol
(``Space._gap_bound``). The points past the stop that a solver reads
(banach's residual image, the periodic solver's m-point tail) come from the
record or from ``_image``, one step at a time. A run of ``proxcycle run``
walks the prefix first, hands its walk to the solver and takes
``trace.csv``'s points from the same recorded prefix, so each orbit point is
mapped once.

``trace_rows`` builds the ``trace.csv`` columns from the same stride-1 and
stride-m columns plus the wrap terms, so over a run's walk each distance of
the prefix is measured once, by the solver or by the trace, whichever reads
it first; ``chain_trace``, ``edge_trace`` and ``block_drift_trace`` are the
public per-column references it matches bit for bit. Past the trace's
settle index, where a converged orbit repeats with period m, the columns
are filled from the last m measured entries and the rows repeat one row
object, so the settled stretch is measured, and written, once.
"""

from __future__ import annotations

import math
from itertools import compress, count, cycle, islice, repeat
from operator import eq, is_not
from typing import Iterator, Sequence

from .chains import _chain_distance
from .spaces import ALPHA, COUNT, CYCLE_LENGTH, POSITIVE, STEPS, Domain, Point, _Record
from .spaces import _point_repr, _value_repr, as_exponent
from .system import MEMBERSHIP_TOL, CyclicSystem

# Orbit steps per chunk of ``_chunks``: enough that the per-chunk validation
# pass is cheap beside the steps, few enough that the steps a chunk maps past
# an image it refuses stay few.
_CHUNK = 1024

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
# ``apriori_error_bound``'s initial gap.
_GAP = Domain(0, math.inf, "[]", strings=False)


class OrbitTrace(_Record):
    """x_0..x_n with x_{k+1} = map(x_k), exactly as evaluated.

    The constructor is the one reader of a trace's points: it reads
    ``points`` once, by ``Space._read_block`` (one ``_as_read`` pass, else
    ``space.point`` one point at a time), a refusal naming the point's index
    in the trace, and keeps them as a tuple of float tuples, which every
    reader of the trace trusts. It reads ``membership_violations`` once too,
    into a tuple of (index, point) pairs, each index read as an integer in
    [0, len(points)), each point by ``space.point``.
    ``_record`` and ``picard_orbit``, whose points ``_chunks`` read as they
    entered the orbit, build theirs with ``_of``, which reads nothing again.

    ``_gaps(s)`` is the distance column d(x_j, x_{j+s}), j = 0..n-s, measured
    the first time it is asked for and kept with the trace, outside its
    fields: the solvers' prefix scan and ``trace_rows`` read the same
    stride-1 and stride-m columns of a walk's trace.

    ``_settled()`` is the settle index J, also kept: the first J with
    x_j == x_{j-m} for every j >= J, where the space's ``_gap_bound`` holds,
    and len(points) elsewhere. Those kernels give points that are ``==`` the
    same distance bits, so past J every distance of the orbit is the one m
    steps before it, and a column is measured only up to J.
    """

    _fields = ("system", "points", "membership_violations")
    __slots__ = (*_fields, "_columns", "_settle_index")

    def __init__(
        self,
        system: CyclicSystem,
        points: Sequence[Sequence[float]],
        membership_violations: Sequence[tuple[int, Sequence[float]]] = (),
    ) -> None:
        points, failure = system.space._read_block(tuple(points))
        if failure is not None:
            raise ValueError(f"trace point {len(points)}: {failure}") from None
        within = Domain(0, len(points), "[)", integer=True, strings=False)
        violations = tuple(
            (within.check("violation index", k), system.space.point(x, "violation point"))
            for k, x in membership_violations
        )
        self._set(system, tuple(points), violations)
        self._derive(_columns={}, _settle_index=None)

    @classmethod
    def _of(cls, system: CyclicSystem, points: tuple[Point, ...], violations=()) -> OrbitTrace:
        """A trace of points already read for the system's space, kept as
        they are."""
        trace = cls.__new__(cls)
        trace._set(system, points, violations)
        trace._derive(_columns={}, _settle_index=None)
        return trace

    def _settled(self) -> int:
        """J: len(points) less the run of trailing points equal to the one m
        before them. An orbit whose last point differs from the one m before
        it costs one comparison; any other, one ``map(eq, ...)`` pass."""
        j = self._settle_index
        if j is None:
            points, m = self.points, self.m
            j = len(points)
            if self.system.space._gap_bound and j > m and points[-1] == points[-1 - m]:
                # The leading False stands for x_{m-1}, so J >= m.
                repeats = [False, *map(eq, points, islice(points, m, None))]
                repeats.reverse()
                j -= repeats.index(False)
            object.__setattr__(self, "_settle_index", j)
        return j

    def _gaps(self, s: int) -> list[float]:
        """The column d(x_j, x_{j+s}), measured for j < J and past J filled
        by cycling d_{J-m}..d_{J-1}, the same float objects: bit for bit
        what the kernel would return there."""
        gaps = self._columns.get(s)
        if gaps is None:
            points, j, n = self.points, self._settled(), len(self.points) - s
            gaps = list(map(self.system.space._distance, points[:j], points[s:]))
            if j < n:
                gaps += islice(cycle(gaps[j - self.m :]), n - j)
            self._columns[s] = gaps
        return gaps

    @property
    def m(self) -> int:
        return self.system.m

    def block(self, n: int) -> tuple[Point, ...]:
        """The n-th block (x_{mn}, ..., x_{mn+m-1}); n is read by ``STEPS``."""
        n = STEPS.check("n", n)
        start = n * self.m
        if start + self.m > len(self.points):
            raise ValueError(f"trace too short for block {_value_repr(n)}")
        return self.points[start : start + self.m]


class SolveResult(_Record):
    __slots__ = _fields = (
        "point", "residual", "iterations", "converged", "set_chain_distance", "warnings",
        "proximity_residual",
    )
    _defaults = {"warnings": (), "proximity_residual": None}


def _start(system: CyclicSystem, x0: Sequence[float]) -> Point:
    """Validate a start point: a point of the space, in A_1."""
    x = system.space.point(x0, "x0")
    if not system.regions[0]._contains(x, system.space, MEMBERSHIP_TOL):
        raise ValueError(f"x0 = {_point_repr(x)} is not in the first region")
    return x


def _chunks(
    system: CyclicSystem,
    window: list[Point],
    k: int,
    budget: int,
    rule: tuple[float, int, int, int] | None = None,
) -> Iterator[tuple[list[Point], int]]:
    """The one chunked walk of an orbit, from x_k = ``window[-1]`` toward
    x_budget, where ``window`` holds the last s = ``len(window)`` points.
    Yields each chunk's new points, validated and the per-step walk's bit for
    bit, with the rule's run count. Only the last s points and one chunk are
    kept.

    A chunk makes up to ``_CHUNK`` raw map calls in a plain loop, then
    validates its images in one ``Space._as_read`` pass that skips an image
    that is the very object of its predecessor, so an orbit settled on a
    point its map returns as it is costs no coordinate pass. With ``rule`` =
    (tol, every, r, run), the loop also measures the drift d(x_{j-s}, x_j)
    at the multiples j of ``every`` and ends at the first step at which it
    has been within tol at r consecutive checks, ``run`` of them carried in.
    Where the space's ``_gap_bound`` holds, a check whose first-coordinate
    gap ``abs(x_{j-s}[0] - x_j[0])`` is above tol is decided by that gap, the
    distance being at least it, and only the other checks measure the
    drift; a NaN gap compares false and is measured too.

    A chunk is refused when the map or the drift raises, or when its images
    are not all read as they are (a list, ints, a float subclass, a
    non-finite or wrong-dimension point). It is walked again from its start,
    and so is the rest of the orbit, with one ``_image`` per step in place
    of the raw map, its step count running on across chunks: an error then
    carries its point and step, a converted image is ``apply``'s, and no
    stop decided on an unvalidated image survives. A successful walk whose
    images are all read as they are calls the map once per step; any other
    calls it at most one chunk more.

    The termination contract: the loop calls the map on an image before
    that image is validated, and measures the drift between such images
    with the space's ``_distance`` (an ``OracleSpace``'s oracle), after the
    gap bound, where it holds, has read and subtracted their coordinates 0.
    So the map, the distance and that subtraction must return or raise on
    anything the map returns, not only on points: a map that loops forever
    on ``inf`` hangs an orbit whose image is ``inf``, where ``_image`` would
    have raised ``MapError`` first.
    """
    raw, space = system.map, system.space
    dist, bound, s = space._distance, space._gap_bound, len(window)
    tol, every, r, run = rule or (0.0, 1, math.inf, 0)
    checked = [j % every == 0 for j in range(every)]
    step = raw
    while k < budget:
        n = min(_CHUNK, budget - k)
        start, start_run = k, run
        chunk = window[:]
        append = chunk.append
        y = chunk[-1]
        try:
            if rule is None:
                for _ in repeat(None, n):
                    y = step(y)
                    append(y)
                k += n
            else:
                # The drift at step k reads x_{k-s} from the chunk as it grows.
                checks = islice(cycle(checked), (k + 1) % every, None)
                for k, old, check in zip(range(k + 1, k + n + 1), iter(chunk), checks):
                    y = step(y)
                    append(y)
                    if check:
                        if bound and abs(old[0] - y[0]) > tol:
                            run = 0
                        elif dist(old, y) <= tol:
                            run += 1
                            if run >= r:
                                break
                        else:
                            run = 0
            new = chunk[s:]
            refused = step is raw and not space._as_read(
                list(compress(new, map(is_not, new, islice(chunk, s - 1, None))))
            )
        except Exception:
            if step is not raw:
                raise
            refused = True
        if refused:
            k, run = start, start_run
            steps = count(k + 1)
            step = lambda y: system._image(y, next(steps))
            continue
        window = chunk[-s:]
        yield new, run
        if run >= r:
            return


class _Walk(OrbitTrace):
    """A trace recorded by ``_record``: the orbit of its system from a start
    point in A_1. It marks a solver's start: a solver handed one walks on
    from its points. A public ``OrbitTrace`` holds points read for the
    space, which need not be an orbit of the system, and is never taken as
    a start."""

    __slots__ = ()


def _record(system: CyclicSystem, x0: Sequence[float], keep: int) -> _Walk:
    """One walk of the orbit of x0: the start validated once (``_start``)
    and x_0..x_keep recorded by ``_chunks`` with no stop rule, before any
    reader comes.

    Its distance columns are measured once for all its readers. Readers past
    the prefix walk on from its last point (``_settle``, ``_after``); those
    points are not kept, so a second reader that goes past the prefix maps
    those steps again, with the same points and step numbers.
    """
    points = [_start(system, x0)]
    for chunk, _ in _chunks(system, points[-1:], 0, keep):
        points += chunk
    return _Walk._of(system, tuple(points))


def _orbit(system: CyclicSystem, x0: Sequence[float], keep: int) -> _Walk:
    # ``proxcycle run`` hands a solver the run's own walk in place of x0, so
    # the solver and the trace prefix read one walk. A start point gets a
    # walk of its own, recording the ``keep`` steps ``_settle`` starts from.
    return x0 if isinstance(x0, _Walk) else _record(system, x0, keep)


def _settle(
    walk: _Walk, tol: float, budget: int, s: int, every: int = 1, r: int = 1
) -> tuple[int, bool, list[Point]]:
    """The solvers' one stop rule over the orbit: the first k <= budget at
    which the drift d(x_{k-s}, x_k) <= tol has held at r consecutive checked
    steps, the checked steps being the k >= s that are multiples of
    ``every``; or k = budget when there is none. Returns k, whether the rule
    fired and x_{k-s+1}..x_k (x_0..x_k when k < s - 1).

    The walk starts at x_{s-1}, or at x_budget when that comes first, which
    must be recorded. Over the recorded prefix it reads the drifts from the
    trace's stride-s column, measured once and shared with ``trace_rows``,
    with no map call and no distance call of its own. Past it, ``_chunks``
    walks on with the rule inline, from the last s points and the run of
    small drifts the prefix ends with, and stops at the stopping step.
    """
    points = walk.points
    k = min(s - 1, budget)
    run = 0
    end = min(budget, len(points) - 1)
    if k < end:
        # The checked steps k + 1 <= j <= end, each drift d(x_{j-s}, x_j)
        # being entry j - s of the column.
        first = k + 1 + -(k + 1) % every
        drifts = islice(walk._gaps(s), first - s, None, every)
        for k, drift in zip(range(first, end + 1, every), drifts):
            if drift <= tol:
                run += 1
                if run >= r:
                    return k, True, list(points[k + 1 - s : k + 1])
            else:
                run = 0
        k = end
    window = list(points[max(0, k + 1 - s) : k + 1])
    for chunk, run in _chunks(walk.system, window, k, budget, (tol, every, r, run)):
        k += len(chunk)
        window = (window + chunk)[-s:]
    return k, run >= r, window


def _after(walk: _Walk, k: int, x: Point, n: int) -> list[Point]:
    """x_{k+1}..x_{k+n} of the orbit whose x_k = x: recorded where the
    prefix reaches, stepped on from there by ``_image`` with their step
    numbers, so a ``MapError`` carries its point and step."""
    out = [x, *walk.points[k + 1 : k + n + 1]]
    image = walk.system._image
    while len(out) <= n:
        out.append(image(out[-1], k + len(out)))
    return out[1:]


def picard_orbit(system: CyclicSystem, x0: Sequence[float], n: int) -> OrbitTrace:
    """Iterate the map n times from x0 in the first region.

    Every m-th point is membership-checked against the first region by its
    trusted ``_contains``; any violation is recorded on the trace, not
    raised. The test is pure, so a point equal to the last one checked
    reuses its verdict: an orbit that settles on a fixed point or a
    truncation stub is not re-scanned.
    """
    m = system.m
    n = STEPS.check("n", n)
    if n < m:
        raise ValueError(f"need at least m = {m} steps")
    points = _record(system, x0, n).points
    first, space = system.regions[0], system.space
    violations = []
    checked, inside = None, True
    for k in range(m, n + 1, m):
        x = points[k]
        if x != checked:
            checked, inside = x, first._contains(x, space, MEMBERSHIP_TOL)
        if not inside:
            violations.append((k, x))
    return OrbitTrace._of(system, points, tuple(violations))


def chain_trace(trace: OrbitTrace, p: object) -> list[float]:
    """Self-chain distance of (x_n, ..., x_{n+m-1}) for each n."""
    m, points = trace.m, trace.points
    if len(points) < 2 * m - 1:
        raise ValueError("trace too short for a chain trace")
    space, combine = trace.system.space, as_exponent(p)._combine
    chains = (points[n : n + m] for n in range(len(points) - m + 1))
    return [_chain_distance(space, chain, chain, combine) for chain in chains]


def edge_trace(trace: OrbitTrace, i: int) -> list[float]:
    """d(x_{mn+i-1}, x_{mn+i}) for each block n; edge i runs A_i -> A_{i+1}.

    For finite p these converge edgewise to d(A_i, A_{i+1}); for p = inf only
    the edge attaining the set chain distance, the largest of
    ``system.edge_distances``, is guaranteed to converge.
    """
    m, points = trace.m, trace.points
    if not 1 <= COUNT.check("i", i) <= m:
        raise ValueError(f"edge index must be in 1..{m}")
    return list(map(trace.system.space._distance, points[i - 1 :: m], points[i::m]))


def trace_rows(trace: OrbitTrace, p: object) -> list[tuple[float, ...]]:
    """One row (chain_dp, edge_1..edge_m, block_drift_1..block_drift_m) per
    block n, for n up to len(points) // m - 2, in one pass over the orbit.

    Row n holds ``chain_trace(trace, p)[m * n]``, ``edge_trace(trace, i)[n]``
    and ``block_drift_trace(trace, i)[n]``, bit for bit: with step distances
    s_k = d(x_k, x_{k+1}), edge_i is s_{mn+i-1}, chain_dp combines
    s_{mn}..s_{mn+m-2} and the wrap term d(x_{mn+m-1}, x_{mn}) in chain
    order, and block_drift_i is d(x_{mn+i-1}, x_{mn+m+i-1}). The steps and
    drifts are the trace's stride-1 and stride-m columns (``_gaps``), so
    each distance is computed once, with every argument order kept, also
    when a solver has read the same columns of the same walk; only the wrap
    terms are measured here. With m = 2 the wrap d(x_{2n+1}, x_{2n}) is
    s_{2n} read backwards, so where the space's ``_gap_bound`` holds, which
    vouches for a symmetric kernel, it is taken from the step column and
    nothing is measured. The points are trusted as validated, as
    ``picard_orbit`` leaves them. The columns are strided slices
    (``_trace_columns``), and the rows are their ``zip``. The chain column
    is the exponent's ``_combine_columns`` over the m - 1 step slices and
    the wrap terms, the same bits as ``_combine`` of each row's terms in
    chain order.

    Row n reads x_{mn}..x_{mn+2m-1} only, so from row ``_distinct_rows`` on,
    where mn is at least the trace's settle index J, each row is the one
    before it bit for bit: the rows up to there are built, and the last of
    them is repeated as the same tuple object.
    """
    columns, count = _trace_columns(trace, p)
    rows = list(zip(*columns))
    rows += repeat(rows[-1], count - len(rows))
    return rows


def _trace_columns(trace: OrbitTrace, p: object) -> tuple[list[list[float]], int]:
    """The 2m + 1 columns of ``trace_rows``'s distinct rows (chain_dp,
    edge_1..edge_m, block_drift_1..block_drift_m) and the number of rows.

    With m = 2 where ``_gap_bound`` holds, the wrap column is the edge_1
    column itself, so at p = inf, whose chain is the ``max`` of the two,
    every chain entry is the edge_1 entry, the very object.
    """
    combine_columns = as_exponent(p)._combine_columns
    m = trace.m
    points = trace.points
    count = len(points) // m - 1
    if count < 1:
        raise ValueError("trace too short for a trace row")
    span = m * min(count, _distinct_rows(trace))
    steps, drifts, space = trace._gaps(1), trace._gaps(m), trace.system.space
    edges = [steps[i:span:m] for i in range(m)]
    if m == 2 and space._gap_bound:
        wraps = edges[0]
    else:
        wraps = list(map(space._distance, points[m - 1 : span : m], points[0:span:m]))
    chains = combine_columns([*edges[: m - 1], wraps])
    return [chains, *edges, *(drifts[i:span:m] for i in range(m))], count


def _distinct_rows(trace: OrbitTrace) -> int:
    """⌈J/m⌉: the first row of ``trace_rows`` that repeats the row before
    it, if the trace has that many rows."""
    return -(-trace._settled() // trace.m)


def block_drift_trace(trace: OrbitTrace, i: int) -> list[float]:
    """d(x_{mn+i-1}, x_{mn+m+i-1}): drift of the i-th interleaved subsequence."""
    m, points = trace.m, trace.points
    if not 1 <= COUNT.check("i", i) <= m:
        raise ValueError(f"subsequence index must be in 1..{m}")
    if len(points) < 2 * m + i:
        raise ValueError("trace too short for a drift trace")
    return list(map(trace.system.space._distance, points[i - 1 :: m], points[m + i - 1 :: m]))


def cross_block_chain_distance(trace: OrbitTrace, n: int, k: int, p: object) -> float:
    """Chain distance between blocks n and k, with the usual shift; n and k
    are each read by ``STEPS``."""
    n, k, space = STEPS.check("n", n), STEPS.check("k", k), trace.system.space
    return _chain_distance(space, trace.block(n), trace.block(k), as_exponent(p)._combine)


def apriori_error_bound(alpha: float, m: int, k: int, initial_gap: float) -> float:
    """alpha^(mk) * initial_gap / (1 - alpha).

    ``alpha`` is the per-step chain contraction factor and ``initial_gap`` the
    measured chain distance between blocks 1 and 0. Each argument is read
    through its ``Domain``: alpha in (0, 1), m an integer >= 2, k an integer
    >= 0 and initial_gap a number in [0, inf]. An infinite gap gives inf,
    also where alpha^(mk) underflows to 0.
    """
    a = ALPHA.check("alpha", alpha)
    m = CYCLE_LENGTH.check("m", m)
    k = STEPS.check("k", k)
    gap = _GAP.check("initial_gap", initial_gap)
    if gap == math.inf:
        return math.inf
    # m and k are ints as they are, past the float range too; a ** n is 0.0
    # for every n >= 2 ** 64, since a <= 1 - 2 ** -53.
    return a ** min(m * k, 2 ** 64) * gap / (1.0 - a)


def _solver_inputs(system: CyclicSystem, tol: object, max_iter: object, p: object) -> tuple:
    """A solver's ``tol`` read by ``POSITIVE``, ``max_iter`` by ``STEPS``,
    its exponent and the system's set chain distance, in this order."""
    tol = POSITIVE.check("tol", tol)
    max_iter = STEPS.check("max_iter", max_iter)
    exp = as_exponent(p)
    return tol, max_iter, exp, system.set_chain_distance(exp)


def banach_solve(
    system: CyclicSystem,
    x0: Sequence[float],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    p: object = 2,
) -> SolveResult:
    """Fixed-point iteration; intended for systems whose set chain distance is 0.

    Stops at the first k with d(x_{k-1}, x_k) <= tol. The geometric a-priori
    bound on cross-block distances is ``apriori_error_bound`` with the
    initial gap ``cross_block_chain_distance(trace, 1, 0, p)``.
    """
    tol, max_iter, exp, set_distance = _solver_inputs(system, tol, max_iter, p)
    space = system.space
    warnings = []
    if set_distance > tol:
        warnings.append(
            f"set chain distance {set_distance:.6g} exceeds tol; no fixed point can exist"
        )
    walk = _orbit(system, x0, 0)
    iterations, fired, (x,) = _settle(walk, tol, max_iter, 1)
    # The residual image is the next point of the orbit, one step past the budget.
    residual = space._distance(x, *_after(walk, iterations, x, 1))
    converged = fired and residual <= tol
    if not fired:
        warnings.append("max_iter exhausted before the step criterion fired")
    for i, region in enumerate(system.regions):
        if converged and not region._contains(x, space, MEMBERSHIP_TOL):
            warnings.append(f"result is not in region {i + 1}")

    return SolveResult(
        point=x,
        residual=residual,
        iterations=iterations,
        converged=converged,
        set_chain_distance=set_distance,
        warnings=tuple(warnings),
    )


def periodic_point_solve(
    system: CyclicSystem,
    x0: Sequence[float],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    p: object = 2,
) -> SolveResult:
    """Iterate the m-fold composition along x_{mn} to an m-periodic point.

    The budget is counted in blocks of m steps, ``max(1, max_iter // m)`` of
    them: at least one block is walked, so a ``max_iter`` below m still walks
    m steps and reports ``iterations = m``.
    """
    tol, max_iter, exp, set_distance = _solver_inputs(system, tol, max_iter, p)
    space, m = system.space, system.m
    walk = _orbit(system, x0, m - 1)

    warnings = []
    budget = max(1, max_iter // m) * m
    iterations, fired, window = _settle(walk, tol, budget, m, every=m)
    x = window[-1]
    # The m points past the stopping point give both the residual image and
    # the proximity chain, so the walk runs m steps past the budget.
    tail = _after(walk, iterations, x, m)
    residual = space._distance(x, tail[-1])
    converged = fired and residual <= tol
    if not fired:
        warnings.append("max_iter exhausted before the step criterion fired")
    if converged and not system.regions[0]._contains(x, space, MEMBERSHIP_TOL):
        warnings.append("result is not in the first region")

    orbit_chain = (x, *tail[:-1])
    proximity_residual = abs(
        _chain_distance(space, orbit_chain, orbit_chain, exp._combine) - set_distance
    )

    return SolveResult(
        point=x,
        residual=residual,
        iterations=iterations,
        converged=converged,
        set_chain_distance=set_distance,
        warnings=tuple(warnings),
        proximity_residual=proximity_residual,
    )


class ProximityChainResult(_Record):
    """Limits of the m interleaved subsequences and their residuals."""

    __slots__ = _fields = (
        "chain", "converged", "iterations", "edge_residuals", "total_residual",
        "set_chain_distance", "note",
    )
    _defaults = {"note": None}


def proximity_chain_extract(
    system: CyclicSystem,
    x0: Sequence[float],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    p: object = 2,
) -> ProximityChainResult:
    """Extract a candidate best proximity chain from the interleaved subsequences.

    Each subsequence x_{mn+i-1} is followed until its consecutive step falls
    below tol; the last iterate is taken, with no averaging. Convergence onto
    a truncation-artifact point, or out of the subsequence's region, is
    reported as non-convergence.
    """
    tol, max_iter, exp, set_distance = _solver_inputs(system, tol, max_iter, p)
    space, m = system.space, system.m
    # Every subsequence has settled at k when its last stride-m drift is
    # within tol: the last m drifts d(x_{j-m}, x_j), j = k-m+1..k, all with
    # j >= m.
    walk = _orbit(system, x0, min(m - 1, max_iter))
    iterations, converged, window = _settle(walk, tol, max_iter, m, r=m)
    note = None
    # The last point of subsequence i, x_j with j = i - 1 mod m, is chain[i - 1].
    shift = -(iterations + 1) % m if len(window) == m else 0
    chain = (*window[shift:], *window[:shift])
    if len(chain) < m:
        converged = False
        note = "orbit too short to populate every subsequence"
    elif converged:
        if any(map(system._is_artifact, chain)):
            converged = False
            note = "subsequence stalled on a truncation-artifact point"
        else:
            for i, pt in enumerate(chain):
                if not system.regions[i]._contains(pt, space, MEMBERSHIP_TOL):
                    converged = False
                    note = f"extracted point left region {i + 1}"
                    break
    else:
        note = "max_iter exhausted before every subsequence settled"

    if len(chain) == m:
        # The chain holds walked points, validated as they entered the orbit.
        edge_residuals = tuple(
            abs(space._distance(chain[i], chain[(i + 1) % m]) - edge)
            for i, edge in enumerate(system.edge_distances)
        )
        total_residual = abs(_chain_distance(space, chain, chain, exp._combine) - set_distance)
    else:
        edge_residuals = ()
        total_residual = math.nan

    return ProximityChainResult(
        chain=chain,
        converged=converged,
        iterations=iterations,
        edge_residuals=edge_residuals,
        total_residual=total_residual,
        set_chain_distance=set_distance,
        note=note,
    )


class BoundednessReport(_Record):
    __slots__ = _fields = ("sups", "stabilized")

    @property
    def ok(self) -> bool:
        return all(self.stabilized)


def boundedness_probe(trace: OrbitTrace) -> BoundednessReport:
    """Sup of d(x_{mn+i}, x_i) per interleaved subsequence, plus whether the
    running maximum stabilized (no new maximum in the last half)."""
    if not trace.points:
        raise ValueError("trace is empty")
    dist = trace.system.space._distance
    m = trace.m
    sups = []
    stabilized = []
    for r in range(min(m, len(trace.points))):
        seq = trace.points[r::m]
        dists = list(map(dist, seq, repeat(seq[0])))
        running_max = -math.inf
        last_new_max = 0
        for idx, d in enumerate(dists):
            if d > running_max:
                running_max = d
                last_new_max = idx
        sups.append(running_max)
        stabilized.append(last_new_max <= len(dists) // 2)
    return BoundednessReport(tuple(sups), tuple(stabilized))
