"""Cyclic systems: regions, the comparison function phi, and certification.

A cyclic system is a tuple of regions plus a deterministic map that is
supposed to send each region into the next (indices wrapping). Nothing is
assumed: cyclicity is checked by sampling or exhaustion, and the contraction
inequality is certified numerically over sampled or exhaustively enumerated
tuples.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Callable, Sequence

from .chains import _chain_distance, _check_chain, _check_chains, _edge_distances
from .spaces import (
    ALPHA,
    CYCLE_LENGTH,
    CapabilityError,
    Domain,
    Exponent,
    LqSpace,
    Point,
    Space,
    _point_repr,
    as_exponent,
    check_point,
    lq_norm,
    p_combine,
)

MEMBERSHIP_TOL = 1e-9
# Each side of the contraction inequality accumulates about m rounding errors
# on values of size S, the largest side seen. A certified margin may
# legitimately dip to -MARGIN_ULPS * m * ulp(max(1, S)) below zero.
MARGIN_ULPS = 8
EXHAUSTIVE_LIMIT = 10 ** 6
# Each coordinate of a tabulated phi knot.
_KNOT = Domain(-math.inf, math.inf, note="every coordinate finite")


def _read_knot(knot: object) -> tuple[float, float]:
    """A tabulated phi knot (t, v), each coordinate read by ``_KNOT``; a str
    or bytes knot is refused, although it unpacks into two characters."""
    if isinstance(knot, (str, bytes)):
        raise ValueError(f"knots must be pairs of numbers, got {knot!r}")
    t, v = knot
    return _KNOT.check("knots", t), _KNOT.check("knots", v)


class MapError(RuntimeError):
    """The system map raised or returned an image that is not a finite point."""

    def __init__(self, message: str, point: Point | None = None, step: int | None = None):
        super().__init__(message)
        self.point = point
        self.step = step


# ---------------------------------------------------------------------------
# Regions


class Region:
    """A set A_i. Variants support membership, seeded sampling, and exact
    distance to a compatible other region."""

    def dimension(self) -> int:
        raise NotImplementedError

    def contains(self, point: Sequence[float], space: Space, tol: float = MEMBERSHIP_TOL) -> bool:
        raise NotImplementedError

    def _query(self, point: Sequence[float], space: Space) -> Point:
        """A ``contains`` query read by ``space.point``, for a region of the
        space's dimension."""
        x = space.point(point)
        if len(x) == self.dimension():
            return x
        raise ValueError(f"{self.dimension()}-dimensional region in a {len(x)}-dimensional space")

    def sample(self, rng: random.Random) -> Point:
        raise NotImplementedError

    def distance_to(self, other: "Region", space: Space) -> float:
        return region_distance(space, self, other)


@dataclass(frozen=True)
class FiniteCloud(Region):
    """A finite point set; a finite family {generator(n)} is the cloud of its
    materialized points."""

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        pts = tuple(check_point(p) for p in self.points)
        if not pts:
            raise ValueError("a finite cloud must be nonempty")
        if len({len(p) for p in pts}) != 1:
            raise ValueError("cloud points must share one dimension")
        object.__setattr__(self, "points", pts)

    def dimension(self) -> int:
        return len(self.points[0])

    def contains(self, point, space, tol=MEMBERSHIP_TOL):
        # The stored points were validated when the cloud was built, so with
        # the query read for the space and the cloud of its dimension both
        # are measured with the trusted ``_distance``.
        x = self._query(point, space)
        return min(space._distance(x, p) for p in self.points) <= tol

    def sample(self, rng):
        return self.points[rng.randrange(len(self.points))]


@dataclass(frozen=True)
class Box(Region):
    """The axis-aligned box lower <= x <= upper; a segment is a box with one
    non-degenerate axis."""

    lower: Point
    upper: Point

    def __post_init__(self) -> None:
        lo, hi = check_point(self.lower), check_point(self.upper)
        if len(lo) != len(hi):
            raise ValueError("bound dimensions differ")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def dimension(self) -> int:
        return len(self.lower)

    def contains(self, point, space, tol=MEMBERSHIP_TOL):
        x = self._query(point, space)
        return all(lo - tol <= c <= hi + tol for c, lo, hi in zip(x, self.lower, self.upper))

    def sample(self, rng):
        return tuple(
            lo if lo == hi else rng.uniform(lo, hi) for lo, hi in zip(self.lower, self.upper)
        )


@dataclass(frozen=True)
class Ball(Region):
    """A closed Euclidean ball; exact distances require the l^2 space."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        c = check_point(self.center)
        r = float(self.radius)
        if r <= 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    def dimension(self) -> int:
        return len(self.center)

    def contains(self, point, space, tol=MEMBERSHIP_TOL):
        x = self._query(point, space)
        return math.dist(x, self.center) <= self.radius + tol

    def sample(self, rng):
        d = len(self.center)
        direction = [rng.gauss(0.0, 1.0) for _ in range(d)]
        norm = math.sqrt(math.fsum(c * c for c in direction))
        if norm == 0.0:
            return self.center
        scale = self.radius * rng.random() ** (1.0 / d) / norm
        return tuple(c + scale * u for c, u in zip(self.center, direction))


def _enumerable(region: Region) -> bool:
    return hasattr(region, "points")


def _require_l2(space: Space, what: str) -> None:
    if not (isinstance(space, LqSpace) and not space.q.is_inf and space.q.value == 2.0):
        raise CapabilityError(f"{what} requires the l^2 space")


def _interval_gap(lo1: float, hi1: float, lo2: float, hi2: float) -> float:
    return max(0.0, lo2 - hi1, lo1 - hi2)


def _point_box_gaps(x: Point, lower: Point, upper: Point) -> tuple[float, ...]:
    return tuple(max(0.0, lo - c, c - hi) for c, lo, hi in zip(x, lower, upper))


def region_distance(space: Space, a: Region, b: Region) -> float:
    """Exact infimum distance between two regions of compatible variants."""
    if _enumerable(a) and _enumerable(b):
        # Cloud points were validated when the cloud was built, so after one
        # dimension check per cloud every pair is measured with the trusted
        # ``_distance``.
        da, db = len(a.points[0]), len(b.points[0])
        if da != space.dimension or db != space.dimension:
            raise ValueError(
                f"dimension mismatch: space is {space.dimension}-dimensional, "
                f"points have {da} and {db}"
            )
        dist = space._distance
        return min(dist(x, y) for x in a.points for y in b.points)

    if isinstance(a, Box) and isinstance(b, Box):
        if not isinstance(space, LqSpace):
            raise CapabilityError("box distances need an l^q space")
        gaps = tuple(map(_interval_gap, a.lower, a.upper, b.lower, b.upper))
        return lq_norm(gaps, space.q)

    if isinstance(a, Box) and _enumerable(b):
        return region_distance(space, b, a)
    if _enumerable(a) and isinstance(b, Box):
        if not isinstance(space, LqSpace):
            raise CapabilityError("box distances need an l^q space")
        return min(lq_norm(_point_box_gaps(x, b.lower, b.upper), space.q) for x in a.points)

    if isinstance(a, Ball) or isinstance(b, Ball):
        _require_l2(space, "ball distance")
        if isinstance(a, Ball) and isinstance(b, Ball):
            return max(0.0, math.dist(a.center, b.center) - a.radius - b.radius)
        ball, other = (a, b) if isinstance(a, Ball) else (b, a)
        if _enumerable(other):
            return min(
                max(0.0, math.dist(x, ball.center) - ball.radius) for x in other.points
            )
        if isinstance(other, Box):
            gap = lq_norm(_point_box_gaps(ball.center, other.lower, other.upper), space.q)
            return max(0.0, gap - ball.radius)

    raise CapabilityError(
        f"no exact distance between {type(a).__name__} and {type(b).__name__}"
    )


# ---------------------------------------------------------------------------
# Comparison functions


class Phi:
    """Strictly increasing map [0, inf) -> [0, inf) controlling contraction."""

    def __call__(self, t: float) -> float:
        raise NotImplementedError

    def _many(self, ts: Sequence[float]) -> list[float]:
        """``[self(t) for t in ts]``; a subclass may do it in fewer steps,
        with the same values and errors."""
        return list(map(self, ts))


@dataclass(frozen=True)
class LinearPhi(Phi):
    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", ALPHA.check("alpha", self.alpha))

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ValueError("phi is defined on [0, inf)")
        return self.alpha * t

    def _many(self, ts: Sequence[float]) -> list[float]:
        # min passes over a NaN unless it comes first; then every t is tested.
        if not min(ts, default=0.0) >= 0 and any(t < 0 for t in ts):
            raise ValueError("phi is defined on [0, inf)")
        alpha = self.alpha
        return [alpha * t for t in ts]


@dataclass(frozen=True)
class TabulatedPhi(Phi):
    """Piecewise-linear phi from knots, extended beyond the last knot with the
    last segment's slope so monotonicity persists on all of [0, inf)."""

    knots: tuple[tuple[float, float], ...]
    _ts: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        knots = tuple(map(_read_knot, self.knots))
        if len(knots) < 2:
            raise ValueError("need at least 2 knots")
        ts = [t for t, _ in knots]
        vs = [v for _, v in knots]
        if ts[0] != 0.0:
            raise ValueError("first knot must be at t = 0")
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("knot abscissae must be strictly increasing")
        if any(v2 < v1 for v1, v2 in zip(vs, vs[1:])):
            raise ValueError("knot values not increasing")
        if vs[0] < 0.0:
            raise ValueError("phi(0) must be >= 0")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "_ts", tuple(ts))

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ValueError("phi is defined on [0, inf)")
        ts = self._ts
        i = bisect_right(ts, t) - 1
        if i >= len(ts) - 1:
            i = len(ts) - 2
        (t1, v1), (t2, v2) = self.knots[i], self.knots[i + 1]
        slope = (v2 - v1) / (t2 - t1)
        return v1 + slope * (t - t1)


@dataclass(frozen=True)
class PhiReport:
    ok: bool
    violations: tuple


def validate_phi(phi: Phi, grid: Sequence[float]) -> PhiReport:
    """Verify strict increase and nonnegativity of phi on a sorted grid."""
    pts = [float(t) for t in grid]
    if len(pts) < 2 or any(t2 < t1 for t1, t2 in zip(pts, pts[1:])):
        raise ValueError("grid must be sorted with at least 2 points")
    violations = []
    values = [phi(t) for t in pts]
    for t, v in zip(pts, values):
        if v < 0:
            violations.append(("negative", t, v))
    for (t1, v1), (t2, v2) in zip(zip(pts, values), zip(pts[1:], values[1:])):
        if not v1 < v2:
            violations.append(("not strictly increasing", t1, t2, v1, v2))
    return PhiReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Cyclic systems


@dataclass(frozen=True)
class CyclicSystem:
    """m regions plus a deterministic map; immutable. The map callable must be
    pure and reentrant; this is a documented contract on the caller.

    ``artifact_points`` marks points whose image is a truncation stub rather
    than the genuine map (finite cuts of infinite families need one).
    """

    space: Space
    regions: tuple[Region, ...]
    map: Callable[[Point], Point]
    artifact_points: tuple[Point, ...] = ()

    def __post_init__(self) -> None:
        if len(self.regions) < 2:
            raise ValueError("a cyclic system needs m >= 2 regions")
        artifacts = tuple(self.space.point(a, "artifact point") for a in self.artifact_points)
        object.__setattr__(self, "artifact_points", artifacts)

    @property
    def m(self) -> int:
        return len(self.regions)

    def apply(self, x: Sequence[float], step: int | None = None) -> Point:
        return self._image(self.space.point(x), step)

    def apply_n(self, x: Sequence[float], k: int) -> Point:
        pt = self.space.point(x)
        for _ in range(k):
            pt = self._image(pt)
        return pt

    def _image(self, pt: Point, step: int | None = None) -> Point:
        """The map at an already validated point; the one place where a map
        image is validated. A failing map, or an image that is not a
        nonempty sequence of finite numbers, raises ``MapError``; an image of
        the wrong dimension raises ``ValueError``."""
        try:
            image = self.map(pt)
        except MapError:
            raise
        except Exception as exc:
            raise MapError(
                f"map failed at {_point_repr(pt)}: {exc}", point=pt, step=step
            ) from exc
        try:
            out = check_point(image)
        except (TypeError, ValueError, OverflowError) as exc:
            raise MapError(
                f"map returned an invalid point at {_point_repr(pt)}: {exc}", point=pt, step=step
            ) from exc
        if len(out) != self.space.dimension:
            raise ValueError(
                f"map returned a {len(out)}-dimensional point at {_point_repr(pt)} "
                f"in a {self.space.dimension}-dimensional space"
            )
        return out

    def is_artifact(self, x: Sequence[float], tol: float = 1e-12) -> bool:
        return self._is_artifact(self.space.point(x), tol)

    def _is_artifact(self, pt: Point, tol: float = 1e-12) -> bool:
        """``is_artifact`` for a point already validated for this space."""
        dist = self.space._distance
        return any(pt == a or dist(pt, a) <= tol for a in self.artifact_points)

    @cached_property
    def edge_distances(self) -> tuple[float, ...]:
        """d(A_i, A_{i+1}) for i = 1..m, wrapping: computed on first use and
        kept, since the system is immutable."""
        return _edge_distances(self.space, self.regions)

    def set_chain_distance(self, p: object) -> float:
        return p_combine(self.edge_distances, p)


@dataclass(frozen=True)
class CyclicityReport:
    ok: bool
    violations: tuple  # (region index, point, image)
    artifacts: tuple  # (region index, point) skipped as truncation stubs
    checked: int


def verify_cyclicity(
    system: CyclicSystem,
    samples_per_region: int = 100,
    seed: int = 0,
    tol: float = MEMBERSHIP_TOL,
) -> CyclicityReport:
    """Check map(A_i) within A_{i+1}; exhaustive on enumerable regions."""
    if samples_per_region < 1:
        raise ValueError("samples_per_region must be >= 1")
    rng = random.Random(seed)
    violations = []
    artifacts = []
    checked = 0
    for i, region in enumerate(system.regions):
        target = system.regions[(i + 1) % system.m]
        if _enumerable(region):
            candidates = region.points
        else:
            candidates = [region.sample(rng) for _ in range(samples_per_region)]
        for x in candidates:
            if system.is_artifact(x):
                artifacts.append((i, x))
                continue
            y = system.apply(x)
            checked += 1
            if not target.contains(y, system.space, tol):
                violations.append((i, x, y))
    return CyclicityReport(not violations, tuple(violations), tuple(artifacts), checked)


@dataclass(frozen=True)
class ContractionCertificate:
    ok: bool
    min_margin: float
    witness_xs: tuple[Point, ...]
    witness_ys: tuple[Point, ...]
    set_chain_distance: float
    p: Exponent
    evaluated: int
    exhaustive: bool
    artifact_skips: int


def _pair_sides(
    system: CyclicSystem,
    phi: Phi,
    combine: Callable[[list[float]], float],
    xs: tuple[Point, ...],
    ys: tuple[Point, ...],
) -> tuple[float, float, float]:
    """lhs = d_p(Txs, Tys), d = d_p(xs, ys) and phi(d) for one tuple pair.

    The per-pair kernel of ``contraction_margin`` and the sampled scan. The
    chains must already be validated for the system's space (finite, of its
    dimension, of equal length): the images come from the stepper
    ``_image`` and both sides from the trusted chain distance that
    ``chain_point_distance`` runs after its own checks.
    """
    space, image = system.space, system._image
    txs = tuple(map(image, xs))
    tys = tuple(map(image, ys))
    lhs = _chain_distance(space, txs, tys, combine)
    d = _chain_distance(space, xs, ys, combine)
    return lhs, d, phi(d)


def contraction_margin(
    system: CyclicSystem,
    phi: Phi,
    p: object,
    xs: Sequence[Point],
    ys: Sequence[Point],
    set_distance: float | None = None,
) -> float:
    """RHS minus LHS of the contraction inequality for one tuple pair."""
    exp = as_exponent(p)
    if set_distance is None:
        set_distance = system.set_chain_distance(exp)
    cx, cy = _check_chains(system.space, xs, ys)
    lhs, d, phi_d = _pair_sides(system, phi, exp._combine, cx, cy)
    rhs = d - phi_d + phi(set_distance)
    return rhs - lhs


@dataclass
class _Scan:
    """Running result of a certification scan over tuple pairs."""

    min_margin: float = math.inf
    witness_xs: tuple[Point, ...] = ()
    witness_ys: tuple[Point, ...] = ()
    evaluated: int = 0
    skips: int = 0
    # S: the largest finite one of lhs, d, phi(d), phi(D) over evaluated pairs
    scale: float = 0.0


def _finite_max(scale: float, values: Sequence[float]) -> float:
    """The larger of ``scale`` (finite) and the largest finite value in
    ``values``.

    S leaves out infinite and NaN sides: an infinite S would make the floor
    -inf and pass every certificate. With ``scale`` first, ``max`` passes
    over every NaN.
    """
    top = max(scale, *values)
    if top == math.inf:
        top = max(scale, max(filter(math.isfinite, values), default=scale))
    return top


def _scan_sampled(
    system: CyclicSystem, phi: Phi, exp: Exponent, phi_set: float, tuple_samples: int, seed: int
) -> _Scan:
    rng = random.Random(seed)
    space, regions, combine = system.space, system.regions, exp._combine
    artifacts = system.artifact_points
    scan = _Scan(scale=_finite_max(0.0, (phi_set,)))
    for _ in range(tuple_samples):
        # Each sampled point is validated once, here; the rest trusts it.
        xs = _check_chain(space, [r.sample(rng) for r in regions])
        ys = _check_chain(space, [r.sample(rng) for r in regions])
        if artifacts and any(map(system._is_artifact, xs + ys)):
            scan.skips += 1
            continue
        lhs, d, phi_d = _pair_sides(system, phi, combine, xs, ys)
        margin = (d - phi_d + phi_set) - lhs
        scan.evaluated += 1
        scan.scale = _finite_max(scan.scale, (lhs, d, phi_d))
        if margin < scan.min_margin:
            scan.min_margin = margin
            scan.witness_xs, scan.witness_ys = xs, ys
    return scan


def _getter(indices: list[int]) -> Callable[[Sequence[float]], tuple[float, ...]]:
    """``itemgetter(*indices)``, always returning a tuple: with one index
    ``itemgetter`` returns the item itself."""
    if len(indices) == 1:
        (i,) = indices
        return lambda row: (row[i],)
    return itemgetter(*indices)


def _scan_exhaustive(system: CyclicSystem, phi: Phi, exp: Exponent, phi_set: float) -> _Scan:
    """Every tuple pair, from per-edge tables, one block of pairs at a time.

    Term i of both chain distances depends only on the edge pair
    (x_i, y_{i+1}), so each point is flagged and mapped once and each edge
    distance is computed once. A block is one x-tuple against every y-tuple,
    at most 1 000 pairs under ``EXHAUSTIVE_LIMIT``. Term i of a block is a
    column read from the x-tuple's row of edge table i by one
    ``itemgetter`` over the shifted y-indices, built once per scan. The
    exponent's ``_combine_columns`` turns the m columns into every d and
    every lhs of the block, ``phi._many`` gives every phi(d), and one pass
    over the block gives every margin ``((d - phi(d)) + phi(D)) - lhs``.

    Each margin gets the operations ``contraction_margin`` gives its pair,
    in the same order, so every margin is bit-identical to it. The block
    minimum is taken with the running minimum in front, so a NaN margin
    (inf - inf, from an overflowing distance) is passed over as a per-pair
    ``<`` would pass it, also when it comes first in its block, and the
    witness is the first pair in ``product(tuples, tuples)`` order that
    reaches the minimum. Region points were validated when their region was
    built and ``verify_contraction`` checked each region's dimension, so
    the tables trust them.
    """
    m = system.m
    regions = system.regions
    dist = system.space._distance
    usable = [[x for x in r.points if not system._is_artifact(x)] for r in regions]
    total = math.prod(len(r.points) for r in regions)
    kept = math.prod(len(pts) for pts in usable)
    scan = _Scan(skips=total * total - kept * kept)
    if not kept:
        return scan

    # Map each point once, in the order the pair enumeration first reaches
    # it: the first tuple, then the later points of the last region, of the
    # one before it, and so on, as product() varies them.
    order = [pts[0] for pts in usable] + [x for pts in reversed(usable) for x in pts[1:]]
    image: dict[Point, Point] = {}
    for x in order:
        if x not in image:
            image[x] = system._image(x)

    # gaps[i][a][b] = d(A_i[a], A_{i+1}[b]); mapped[i][a][b] the same for images.
    gaps, mapped = [], []
    for i in range(m):
        heads, tails = usable[i], usable[(i + 1) % m]
        gaps.append([[dist(x, y) for y in tails] for x in heads])
        mapped.append([[dist(image[x], image[y]) for y in tails] for x in heads])

    index_tuples = list(itertools.product(*(range(len(pts)) for pts in usable)))
    # Term i pairs x_i with y_{i+1}: getters[i] reads, from a row of edge
    # table i, the column of every y-tuple's index i + 1.
    getters = [_getter([t[(i + 1) % m] for t in index_tuples]) for i in range(m)]
    d_edges, e_edges = list(zip(getters, gaps)), list(zip(getters, mapped))
    combine = exp._combine_columns
    witness = None
    min_margin = math.inf
    scale = _finite_max(0.0, (phi_set,))
    for xt in index_tuples:
        ds = combine([get(table[a]) for (get, table), a in zip(d_edges, xt)])
        lhs = combine([get(table[a]) for (get, table), a in zip(e_edges, xt)])
        phi_ds = phi._many(ds)
        margins = [(d - phi_d + phi_set) - e for d, phi_d, e in zip(ds, phi_ds, lhs)]
        scale = _finite_max(scale, lhs + ds + phi_ds)
        best = min(min_margin, *margins)
        if best < min_margin:
            min_margin = best
            witness = (xt, index_tuples[margins.index(best)])

    def points(t: tuple[int, ...]) -> tuple[Point, ...]:
        return tuple(usable[i][a] for i, a in enumerate(t))

    scan.min_margin, scan.scale, scan.evaluated = min_margin, scale, kept * kept
    if witness is not None:
        scan.witness_xs, scan.witness_ys = points(witness[0]), points(witness[1])
    return scan


def verify_contraction(
    system: CyclicSystem,
    phi: Phi,
    p: object,
    tuple_samples: int = 500,
    seed: int = 0,
) -> ContractionCertificate:
    """Certify or refute the contraction inequality over tuple pairs.

    Enumerable systems with at most ``EXHAUSTIVE_LIMIT`` tuple pairs are
    checked exhaustively; others are checked on ``tuple_samples`` seeded
    pairs. Pairs touching a truncation-artifact point are skipped (their
    images are stubs) and counted in ``artifact_skips``; ``evaluated`` counts
    the pairs whose margin was computed, artifact skips excluded.

    ``min_margin`` and the witness are the raw minimum over the evaluated
    pairs (the first one in enumeration order on ties). The certificate
    passes when ``min_margin >= -MARGIN_ULPS * m * ulp(max(1, S))``, where S
    is the largest of d_p(Tx, Ty), d_p(x, y), phi(d_p(x, y)) and phi(d_p(A))
    over the evaluated pairs, so the tolerance scales with the problem.
    """
    exp = as_exponent(p)
    set_distance = system.set_chain_distance(exp)
    phi_set = phi(set_distance)

    regions = system.regions
    # One dimension check per region: both scans measure region points with
    # the trusted metric, which would silently truncate a mismatch.
    for i, region in enumerate(regions, start=1):
        if region.dimension() != system.space.dimension:
            raise ValueError(
                f"region {i} is {region.dimension()}-dimensional in a "
                f"{system.space.dimension}-dimensional space"
            )
    exhaustive = all(_enumerable(r) for r in regions)
    if exhaustive:
        total = math.prod(len(r.points) for r in regions)
        exhaustive = total * total <= EXHAUSTIVE_LIMIT

    if exhaustive:
        scan = _scan_exhaustive(system, phi, exp, phi_set)
    else:
        scan = _scan_sampled(system, phi, exp, phi_set, tuple_samples, seed)

    floor = -MARGIN_ULPS * system.m * math.ulp(max(1.0, scan.scale))
    ok = scan.evaluated > 0 and scan.min_margin >= floor
    return ContractionCertificate(
        ok=ok,
        min_margin=scan.min_margin if scan.evaluated else math.nan,
        witness_xs=scan.witness_xs,
        witness_ys=scan.witness_ys,
        set_chain_distance=set_distance,
        p=exp,
        evaluated=scan.evaluated,
        exhaustive=exhaustive,
        artifact_skips=scan.skips,
    )


@dataclass(frozen=True)
class AlphaBoundResult:
    ok: bool
    threshold: float
    value: float


def alpha_bound_check(alpha: float, m: int, p: object) -> AlphaBoundResult:
    """Check alpha^m < 2^(-1/p); any alpha in (0,1) passes for p = inf."""
    a = ALPHA.check("alpha", alpha)
    m = CYCLE_LENGTH.check("m", m)
    exp = as_exponent(p)
    threshold = 1.0 if exp.is_inf else 2.0 ** (-1.0 / exp.value)
    value = a ** m
    return AlphaBoundResult(value < threshold, threshold, value)
