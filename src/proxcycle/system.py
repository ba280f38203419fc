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
from itertools import compress, repeat, starmap
from operator import add, itemgetter, mul, not_, sub, truediv
from typing import Callable, Sequence

from .chains import _chain_distance, _check_chains, _edge_distances, _shifted_pairs
from .spaces import (
    ALPHA,
    COUNT,
    CYCLE_LENGTH,
    POSITIVE,
    STEPS,
    _DATACLASS_FIELDS,
    CapabilityError,
    Domain,
    Exponent,
    LqSpace,
    Point,
    Space,
    _floats,
    _number,
    _point_repr,
    _Record,
    _value_repr,
    as_exponent,
    check_point,
    p_combine,
)

MEMBERSHIP_TOL = 1e-9
# Each side of the contraction inequality accumulates about m rounding errors
# on values of size S, the largest side seen. A certified margin may
# legitimately dip to -MARGIN_ULPS * m * ulp(max(1, S)) below zero.
MARGIN_ULPS = 8
EXHAUSTIVE_LIMIT = 10 ** 6
# Tuple pairs per block of the sampled scan: enough that the per-block work
# of the column kernels is small beside the per-pair work, few enough that a
# block's points, images and columns stay small.
SAMPLE_BLOCK = 128
# Tuple pairs per block of the exhaustive scan, about: a block is as many
# whole x-tuples against every y-tuple as fit, and at least one.
EXHAUSTIVE_BLOCK = 1024
# Each coordinate of a tabulated phi knot.
_KNOT = Domain(-math.inf, math.inf, note="every coordinate finite")


def _read_knot(knot: object) -> tuple[float, float]:
    """A tabulated phi knot (t, v), each coordinate read by ``_KNOT``; a
    knot that is not a pair is refused, a str or bytes one too, although it
    may unpack into two characters."""
    try:
        t, v = () if isinstance(knot, (str, bytes)) else knot
    except (TypeError, ValueError):
        raise ValueError(f"knots must be pairs of numbers, got {_value_repr(knot)}") from None
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
    distance to a compatible other region.

    A variant states its membership test once, in ``_contains(x, space,
    tol)``, trusted with a point ``x`` already read for ``space`` and of the
    region's dimension, and a ``tol`` in (0, inf). ``contains`` is the public
    reader in front of it."""

    __slots__ = ()

    def dimension(self) -> int:
        raise NotImplementedError

    def contains(self, point: Sequence[float], space: Space, tol: float = MEMBERSHIP_TOL) -> bool:
        """Whether ``point``, read by ``space.point``, lies within ``tol``
        (read by ``POSITIVE``) of the region, which must be of the space's
        dimension."""
        x, dim = space.point(point), self.dimension()
        if len(x) != dim:
            raise ValueError(f"{dim}-dimensional region in a {len(x)}-dimensional space")
        return self._contains(x, space, POSITIVE.check("tol", tol))

    def _contains(self, x: Point, space: Space, tol: float) -> bool:
        raise NotImplementedError

    def sample(self, rng: random.Random) -> Point:
        raise NotImplementedError

    def distance_to(self, other: "Region", space: Space) -> float:
        return region_distance(space, self, other)


class FiniteCloud(_Record, Region):
    """A finite point set; a finite family {generator(n)} is the cloud of its
    materialized points."""

    __slots__ = _fields = ("points",)

    def __init__(self, points: tuple[Point, ...]) -> None:
        pts = tuple(check_point(p) for p in points)
        if not pts:
            raise ValueError("a finite cloud must be nonempty")
        if len({len(p) for p in pts}) != 1:
            raise ValueError("cloud points must share one dimension")
        self._set(pts)

    def dimension(self) -> int:
        return len(self.points[0])

    def _contains(self, x, space, tol):
        # The stored points were validated when the cloud was built, so with
        # the query read for the space and the cloud of its dimension both
        # are measured with the trusted ``_distance``. The verdict is
        # ``min(distances) <= tol``, stopping at the first point within tol:
        # min keeps a NaN first distance, which answers False, and passes
        # over a later one, as ``d <= tol`` does.
        ds = map(space._distance, itertools.repeat(x), self.points)
        first = next(ds)
        return not math.isnan(first) and (first <= tol or any(d <= tol for d in ds))

    def sample(self, rng):
        return self.points[rng.randrange(len(self.points))]


class Box(_Record, Region):
    """The axis-aligned box lower <= x <= upper; a segment is a box with one
    non-degenerate axis."""

    __slots__ = _fields = ("lower", "upper")

    def __init__(self, lower: Point, upper: Point) -> None:
        lo, hi = check_point(lower), check_point(upper)
        if len(lo) != len(hi):
            raise ValueError("bound dimensions differ")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError("lower bound exceeds upper bound")
        self._set(lo, hi)

    def dimension(self) -> int:
        return len(self.lower)

    def _contains(self, x, space, tol):
        return all(lo - tol <= c <= hi + tol for c, lo, hi in zip(x, self.lower, self.upper))

    def sample(self, rng):
        return tuple(
            lo if lo == hi else rng.uniform(lo, hi) for lo, hi in zip(self.lower, self.upper)
        )


class Ball(_Record, Region):
    """A closed Euclidean ball; exact distances require the l^2 space."""

    __slots__ = _fields = ("center", "radius")

    def __init__(self, center: Point, radius: float) -> None:
        self._set(check_point(center), POSITIVE.check("radius", radius))

    def dimension(self) -> int:
        return len(self.center)

    def _contains(self, x, space, tol):
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


_TWOPI = 2.0 * math.pi  # random.TWOPI


def _as_returned(zs: Sequence[float]) -> list[float]:
    """What ``rng.gauss(0.0, 1.0)`` returns for each raw value z it drew or
    kept: ``0.0 + z * 1.0``, which makes -0.0 0.0. ``z * 1.0`` is z bit for
    bit, so one addition does it."""
    return list(map(add, repeat(0.0), zs))


class _Draw:
    """The one drawer of sampled regions: a block of samples of ``regions``,
    read for ``space``, for ``verify_cyclicity`` and the sampled scan.

    ``draw(rng, rounds)`` returns the samples of ``rounds`` (at least 1)
    rounds, each region's ``sample`` in turn, read by ``space.point``, and
    the exception that cut the block short, or None. A round whose draw
    raises is dropped and ends the block; the block is then read by
    ``Space._read_block``, in one ``_as_read`` pass, or, when a point is
    not read as it is, one by one by ``space.point`` up to the first that
    fails, whose error then ends the block there. So the samples before the
    first that fails to draw or to read come back with that failure.

    When every region is exactly a ``Box`` or a ``Ball``, a block of an
    even number of rounds, started with no gauss value waiting in
    ``rng.gauss_next``, is drawn by columns, ``[r.sample(rng) for _ in
    range(rounds) for r in regions]`` bit for bit, leaving ``rng`` in the
    same state, for an ``rng`` whose ``uniform`` and ``gauss`` are
    ``random.Random``'s. Those are the blocks both sampled checks ask for.
    Any other block, and any other region (a ``FiniteCloud``, whose
    ``randrange`` draws bits rather than ``random()``, or a subclass with
    its own ``sample``), is drawn one ``sample`` call at a time, and
    ``Region.sample`` stays the per-sample reference the columns match.

    Every draw of the column stream is a call of ``rng.random``: a Box
    takes one per axis that is not degenerate (``uniform``), a Ball of
    dimension d takes d ``gauss`` values and then one for its radius, and
    ``gauss`` takes a pair (an angle and a radius) for every second value,
    keeping the other, raw, in ``rng.gauss_next``. From a state with none
    waiting, two rounds leave none waiting, so one plan of two rounds fixes
    where each draw goes, and slot j of the plan is the column
    ``u[j::width]`` of the block's draws. The gauss values, norms, scales
    and coordinates are then built column by column with ``map``, and the
    points assembled in draw order.

    A Ball whose direction has norm zero returns its center without drawing
    a radius, which shifts the stream: a block that meets one is drawn
    again, sample by sample, from the state it started in.
    """

    __slots__ = ("space", "regions", "_layout")

    def __init__(self, space: Space, regions: Sequence[Region]) -> None:
        self.space, self.regions = space, tuple(regions)
        columns = all(type(r) in (Box, Ball) for r in self.regions)
        self._layout = self._plan() if columns else None

    def _plan(self) -> tuple:
        """Two rounds of draws from a state with no gauss value waiting:
        the slots they take, the first slot of each gauss pair and each
        round's recipe per region. A recipe gives a Box's axes as (lower,
        upper - lower, slot), slot None for a degenerate axis, and a Ball's
        gauss values with its radius slot. A gauss value is an index into
        the block's gauss columns: 2k and 2k + 1 for the two values of pair
        k."""
        slots, pairs, recipes = 0, [], []
        waiting = None
        for _ in range(2):
            row = []
            for region in self.regions:
                if type(region) is Box:
                    axes = []
                    for lo, hi in zip(region.lower, region.upper):
                        axes.append((lo, None, None) if lo == hi else (lo, hi - lo, slots))
                        slots += lo != hi
                    row.append(axes)
                    continue
                values = []
                for _ in region.center:
                    if waiting is None:
                        values.append(2 * len(pairs))
                        waiting = 2 * len(pairs) + 1
                        pairs.append(slots)
                        slots += 2
                    else:
                        values.append(waiting)
                        waiting = None
                row.append((values, slots))
                slots += 1
            recipes.append(row)
        return slots, pairs, recipes

    def draw(self, rng: random.Random, rounds: int) -> tuple[list[Point], Exception | None]:
        """``rounds`` samples of every region in turn, read, with the
        failure that ended them early, or None."""
        points = None
        if self._layout is not None and rounds % 2 == 0 and rng.gauss_next is None:
            points = self._columns(rng, rounds // 2)
        failure = None
        if points is None:  # drawn one sample call at a time
            points = []
            try:
                for _ in range(rounds):
                    points += [r.sample(rng) for r in self.regions]
            except Exception as exc:  # raised after the rounds drawn before it
                failure = exc
        # A sample that fails to read is raised after the samples read before it.
        read, error = self.space._read_block(points)
        return read, failure if error is None else error

    def _columns(self, rng: random.Random, half: int) -> list[Point] | None:
        """``2 * half`` rounds drawn by columns, or None, with ``rng`` set
        back to the state the block started in, when a Ball direction has
        norm zero."""
        regions = self.regions
        width, pairs, recipes = self._layout
        state = rng.getstate()
        u = list(starmap(rng.random, repeat((), half * width)))
        column = [u[j::width] for j in range(width)]

        # Pair k of gauss: z = cos(x2pi) * g2rad is returned at once and
        # sin(x2pi) * g2rad kept for the next value; values[2k] and
        # values[2k + 1] are the two as gauss returns them.
        values = []
        for j in pairs:
            x2pi = list(map(mul, column[j], repeat(_TWOPI)))
            g2rad = list(
                map(
                    math.sqrt,
                    map(mul, repeat(-2.0), map(math.log, map(sub, repeat(1.0), column[j + 1]))),
                )
            )
            values.append(_as_returned(map(mul, map(math.cos, x2pi), g2rad)))
            values.append(_as_returned(map(mul, map(math.sin, x2pi), g2rad)))

        groups: tuple[list, list] = ([], [])
        for group, row in zip(groups, recipes):
            for region, recipe in zip(regions, row):
                if type(region) is Box:
                    coords = [
                        repeat(lo, half)
                        if j is None
                        else map(add, repeat(lo), map(mul, repeat(span), column[j]))
                        for lo, span, j in recipe
                    ]
                else:
                    sources, j = recipe
                    direction = [values[k] for k in sources]
                    squares = zip(*[map(mul, c, c) for c in direction])
                    norms = list(map(math.sqrt, map(math.fsum, squares)))
                    if 0.0 in norms:
                        rng.setstate(state)
                        return None
                    root = 1.0 / len(direction)
                    radii = map(mul, repeat(region.radius), map(pow, column[j], repeat(root)))
                    scales = list(map(truediv, radii, norms))
                    coords = [
                        map(add, repeat(c), map(mul, scales, us))
                        for c, us in zip(region.center, direction)
                    ]
                group.append(list(zip(*coords)))
        return list(itertools.chain.from_iterable(zip(*groups[0], *groups[1])))


def _box_gaps(lo1: Point, hi1: Point, lo2: Point, hi2: Point) -> list[float]:
    """The gap between two boxes on each axis, ``max(0.0, lo2 - hi1, lo1 -
    hi2)``; a point x is the box from x to x."""
    return list(map(max, repeat(0.0), map(sub, lo2, hi1), map(sub, lo1, hi2)))


def region_distance(space: Space, a: Region, b: Region) -> float:
    """Exact infimum distance between two regions of compatible variants,
    each of the space's dimension."""
    for name, region in (("a", a), ("b", b)):
        if not isinstance(region, Region):
            raise TypeError(f"{name} must be a Region, got {_value_repr(region)}")
    # One dimension check for every pair of variants: each branch pairs
    # coordinates with ``zip`` or the trusted ``_distance``, which would
    # silently truncate a mismatch. Cloud points were validated when the
    # cloud was built, so every pair of two clouds is measured with
    # ``_distance``; box gaps, nonnegative floats, are combined by the
    # exponent's ``_combine``, as a distance's are, so gaps past the float
    # range give inf.
    da, db = a.dimension(), b.dimension()
    if da != space.dimension or db != space.dimension:
        raise ValueError(
            f"dimension mismatch: space is {space.dimension}-dimensional, "
            f"regions have {da} and {db}"
        )
    if _enumerable(a) and _enumerable(b):
        dist = space._distance
        return min(dist(x, y) for x in a.points for y in b.points)

    if isinstance(b, Box) and (isinstance(a, Box) or _enumerable(a)):
        if not isinstance(space, LqSpace):
            raise CapabilityError("box distances need an l^q space")
        if isinstance(a, Box):
            return space.q._combine(_box_gaps(a.lower, a.upper, b.lower, b.upper))
        return min(space.q._combine(_box_gaps(x, x, b.lower, b.upper)) for x in a.points)
    if isinstance(a, Box) and _enumerable(b):
        return region_distance(space, b, a)

    if isinstance(a, Ball) or isinstance(b, Ball):
        if not (isinstance(space, LqSpace) and not space.q.is_inf and space.q.value == 2.0):
            raise CapabilityError("ball distance requires the l^2 space")
        if isinstance(a, Ball) and isinstance(b, Ball):
            return max(0.0, math.dist(a.center, b.center) - a.radius - b.radius)
        ball, other = (a, b) if isinstance(a, Ball) else (b, a)
        if _enumerable(other):
            return min(
                max(0.0, math.dist(x, ball.center) - ball.radius) for x in other.points
            )
        if isinstance(other, Box):
            gap = space.q._combine(_box_gaps(ball.center, ball.center, other.lower, other.upper))
            return max(0.0, gap - ball.radius)

    raise CapabilityError(
        f"no exact distance between {type(a).__name__} and {type(b).__name__}"
    )


# ---------------------------------------------------------------------------
# Comparison functions


class Phi:
    """Strictly increasing map [0, inf) -> [0, inf) controlling contraction."""

    __slots__ = ()

    def __call__(self, t: float) -> float:
        raise NotImplementedError

    def _many(self, ts: Sequence[float]) -> list[float]:
        """``[self(t) for t in ts]``; a subclass may do it in fewer steps,
        with the same values and errors."""
        return list(map(self, ts))

    def _strictly_increasing(self) -> bool | None:
        """Whether phi is strictly increasing and nonnegative on [0, inf),
        where the class can tell exactly; None where only a grid can test
        it (``validate_phi``)."""
        return None


def _check_domain(ts: Sequence[float]) -> None:
    """Raise as ``phi(t)`` does if any of ``ts`` is negative. ``min`` passes
    over a NaN unless it comes first; then every t is tested."""
    if not min(ts, default=0.0) >= 0 and any(t < 0 for t in ts):
        raise ValueError("phi is defined on [0, inf)")


class LinearPhi(_Record, Phi):
    __slots__ = _fields = ("alpha",)

    def __init__(self, alpha: float) -> None:
        self._set(ALPHA.check("alpha", alpha))

    def __call__(self, t: float) -> float:
        t = _number("t", t)
        if t < 0:
            raise ValueError("phi is defined on [0, inf)")
        return self.alpha * t

    def _many(self, ts: Sequence[float]) -> list[float]:
        _check_domain(ts)
        return list(map(mul, repeat(self.alpha), ts))

    def _strictly_increasing(self) -> bool:
        return True  # alpha * t with alpha in (0, 1)


class TabulatedPhi(_Record, Phi):
    """Piecewise-linear phi from knots, extended beyond the last knot with the
    last segment's slope so monotonicity persists on all of [0, inf).

    Segment i runs from knot i to knot i + 1. The tables are built once:
    ``_bounds`` holds the abscissae of the interior knots, so that for
    t >= 0 ``bisect_right(_bounds, t)`` is t's segment (the last one from
    the last interior knot on, so also past the last knot, at inf and for
    NaN), and ``_starts``, ``_levels`` and ``_slopes`` hold each segment's
    t1, v1 and (v2 - v1) / (t2 - t1). phi(t) is ``v1 + slope * (t - t1)``."""

    __slots__ = ("knots", "_bounds", "_starts", "_levels", "_slopes")
    _fields = ("knots",)

    def __init__(self, knots: tuple[tuple[float, float], ...]) -> None:
        knots = tuple(map(_read_knot, knots))
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
        # Abscissae in [0, inf) that increase and finite values that do not
        # decrease make each slope a finite number or inf.
        slopes = tuple((v2 - v1) / (t2 - t1) for (t1, v1), (t2, v2) in zip(knots, knots[1:]))
        if math.inf in slopes:
            i = slopes.index(math.inf)
            raise ValueError(f"slope past the float range from knot {knots[i]} to {knots[i + 1]}")
        self._set(knots)
        self._derive(
            _bounds=tuple(ts[1:-1]),
            _starts=tuple(ts[:-1]),
            _levels=tuple(vs[:-1]),
            _slopes=slopes,
        )

    def __call__(self, t: float) -> float:
        t = _number("t", t)
        if t < 0:
            raise ValueError("phi is defined on [0, inf)")
        i = bisect_right(self._bounds, t)
        return self._levels[i] + self._slopes[i] * (t - self._starts[i])

    def _many(self, ts: Sequence[float]) -> list[float]:
        _check_domain(ts)
        segments = list(map(bisect_right, repeat(self._bounds), ts))
        starts = map(self._starts.__getitem__, segments)
        slopes = map(self._slopes.__getitem__, segments)
        levels = map(self._levels.__getitem__, segments)
        return list(map(add, levels, map(mul, slopes, map(sub, ts, starts))))

    def _strictly_increasing(self) -> bool:
        # The knot values never decrease and phi(0) >= 0, as read when built,
        # so phi is valid iff every segment rises, the last one's extension
        # included: each knot value above the one before, with no slope
        # rounded to zero. A flat segment anywhere fails, also past a grid.
        return min(self._slopes) > 0.0


class PhiReport(_Record):
    __slots__ = _fields = ("ok", "violations")


def validate_phi(phi: Phi, grid: Sequence[float]) -> PhiReport:
    """Verify strict increase and nonnegativity of phi on a sorted grid, each
    grid value read by ``_number``."""
    pts = _floats("grid", grid)
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


class CyclicSystem(_Record):
    """m regions plus a deterministic map; immutable. The map callable must be
    pure and reentrant; this is a documented contract on the caller. It must
    also return or raise on any value it returns, not only on points, since
    an orbit is walked in chunks that map an image before validating it:
    see the termination contract of ``orbit._chunks``.

    ``artifact_points`` marks points whose image is a truncation stub rather
    than the genuine map (finite cuts of infinite families need one).

    The system is the validation boundary: each region's dimension and each
    artifact point are checked against the space once, here, and region
    points were read when their region was built, so every layer below
    trusts them.
    """

    __slots__ = ("space", "regions", "map", "artifact_points", "_edge_distances")
    _fields = ("space", "regions", "map", "artifact_points")
    __dataclass_fields__ = _DATACLASS_FIELDS

    def __init__(
        self,
        space: Space,
        regions: tuple[Region, ...],
        map: Callable[[Point], Point],
        artifact_points: tuple[Point, ...] = (),
    ) -> None:
        regions = tuple(regions)
        if len(regions) < 2:
            raise ValueError("a cyclic system needs m >= 2 regions")
        dim = space.dimension
        for i, region in enumerate(regions, start=1):
            if not isinstance(region, Region):
                raise TypeError(f"region {i} must be a Region, got {_value_repr(region)}")
            if region.dimension() != dim:
                raise ValueError(
                    f"region {i} is {region.dimension()}-dimensional in a {dim}-dimensional space"
                )
        artifacts = tuple(space.point(a, "artifact point") for a in artifact_points)
        self._set(space, regions, map, artifacts)

    @property
    def m(self) -> int:
        return len(self.regions)

    def apply(self, x: Sequence[float], step: int | None = None) -> Point:
        return self._image(self.space.point(x), step)

    def apply_n(self, x: Sequence[float], k: int) -> Point:
        """x after k steps; k is read by ``STEPS``."""
        k = STEPS.check("k", k)
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
        except (TypeError, ValueError) as exc:
            raise MapError(
                f"map returned an invalid point at {_point_repr(pt)}: {exc}", point=pt, step=step
            ) from exc
        if len(out) != self.space.dimension:
            raise ValueError(
                f"map returned a {len(out)}-dimensional point at {_point_repr(pt)} "
                f"in a {self.space.dimension}-dimensional space"
            )
        return out

    def _images(self, pts: list[Point]) -> list[Point]:
        """``[self._image(pt) for pt in pts]`` for points already validated:
        the map called over the block in one C-level pass and the images
        read by ``Space._read_block``.

        The per-point ``_image`` stays the one reader that reports a failure.
        When the map raises, the block is mapped again point by point by
        ``_image``, which raises for the first failing point in order. From
        the first image that fails to read, the points are mapped again by
        ``_image``, which raises that image's error; the map is pure, so a
        successful block calls it once per point.
        """
        try:
            images = list(map(self.map, pts))
        except Exception:
            return [self._image(pt) for pt in pts]
        read, error = self.space._read_block(images)
        if error is None:
            return read
        return [*read, *map(self._image, pts[len(read) :])]

    def is_artifact(self, x: Sequence[float], tol: float = 1e-12) -> bool:
        """Whether x is within ``tol`` of an artifact point; ``tol`` is read
        by ``POSITIVE``."""
        return self._is_artifact(self.space.point(x), POSITIVE.check("tol", tol))

    def _is_artifact(self, pt: Point, tol: float = 1e-12) -> bool:
        """``is_artifact`` for a point already validated for this space."""
        dist = self.space._distance
        for a in self.artifact_points:
            if pt == a or dist(pt, a) <= tol:
                return True
        return False

    @property
    def edge_distances(self) -> tuple[float, ...]:
        """d(A_i, A_{i+1}) for i = 1..m, wrapping: computed on first use and
        kept, since the system is immutable."""
        try:
            return self._edge_distances
        except AttributeError:
            pass
        edges = _edge_distances(self.space, self.regions)
        self._derive(_edge_distances=edges)
        return edges

    def set_chain_distance(self, p: object) -> float:
        return p_combine(self.edge_distances, p)


class CyclicityReport(_Record):
    """``violations`` holds (region index, point, image) triples and
    ``artifacts`` the (region index, point) pairs skipped as truncation
    stubs."""

    __slots__ = _fields = ("ok", "violations", "artifacts", "checked")


def verify_cyclicity(
    system: CyclicSystem,
    samples_per_region: int = 100,
    seed: int = 0,
    tol: float = MEMBERSHIP_TOL,
) -> CyclicityReport:
    """Check map(A_i) within A_{i+1}; exhaustive on enumerable regions.

    ``samples_per_region`` is read by ``COUNT`` and ``tol`` by
    ``POSITIVE``. A region's samples are taken as a block: cloud points,
    validated when their cloud was built, or ``samples_per_region`` samples
    drawn and read by one ``_Draw`` call, the drawer of the sampled scan.
    The block is then flagged by ``_is_artifact`` when the system has
    artifact points, mapped by ``CyclicSystem._images`` and tested by the
    target's ``_contains``. A sample that fails to draw or to read ends the
    check where a per-sample loop ended: the samples before it are flagged,
    mapped and tested first, so an error of theirs (a ``MapError``, say)
    comes first, and then its own error is raised.

    The block flags all its samples before it maps any, and maps all before
    it tests any, so an exception from a caller-supplied oracle in a later
    sample's artifact flag can come before an earlier sample's
    ``MapError``, and a later sample's ``MapError`` before an oracle's
    exception in an earlier sample's ``_contains``.
    """
    samples_per_region = COUNT.check("samples_per_region", samples_per_region)
    tol = POSITIVE.check("tol", tol)
    space, rng = system.space, random.Random(seed)
    violations, artifacts, checked = [], [], 0
    for i, region in enumerate(system.regions):
        contains = system.regions[(i + 1) % system.m]._contains
        if _enumerable(region):
            xs, failure = region.points, None
        else:
            xs, failure = _Draw(space, (region,)).draw(rng, samples_per_region)
        if system.artifact_points:
            flags = list(map(system._is_artifact, xs))
            artifacts += [(i, x) for x in compress(xs, flags)]
            xs = list(compress(xs, map(not_, flags)))
        ys = system._images(xs)
        checked += len(xs)
        violations += [(i, x, y) for x, y in zip(xs, ys) if not contains(y, space, tol)]
        if failure is not None:
            raise failure
    return CyclicityReport(not violations, tuple(violations), tuple(artifacts), checked)


class ContractionCertificate(_Record):
    __slots__ = _fields = (
        "ok", "min_margin", "witness_xs", "witness_ys", "set_chain_distance", "p", "evaluated",
        "exhaustive", "artifact_skips",
    )


def contraction_margin(
    system: CyclicSystem,
    phi: Phi,
    p: object,
    xs: Sequence[Point],
    ys: Sequence[Point],
    set_distance: float | None = None,
) -> float:
    """RHS minus LHS of the contraction inequality for one tuple pair.

    The per-pair kernel: the chains are read by ``_check_chains``, the images
    come from the stepper ``_image``, and both sides from the trusted chain
    distance that ``chain_point_distance`` runs after its own checks. Both
    scans give every margin these operations in this order.
    """
    exp = as_exponent(p)
    if set_distance is None:
        set_distance = system.set_chain_distance(exp)
    space, combine, image = system.space, exp._combine, system._image
    cx, cy = _check_chains(space, xs, ys)
    txs = tuple(map(image, cx))
    tys = tuple(map(image, cy))
    lhs = _chain_distance(space, txs, tys, combine)
    d = _chain_distance(space, cx, cy, combine)
    rhs = d - phi(d) + phi(set_distance)
    return rhs - lhs


def _finite_max(scale: float, values: Sequence[float]) -> float:
    """The larger of ``scale`` (finite) and the largest finite value in
    ``values``, which is nonempty.

    S leaves out infinite and NaN sides: an infinite S would make the floor
    -inf and pass every certificate. With ``scale`` first, ``max`` passes
    over every NaN.
    """
    top = max(scale, *values)
    if top == math.inf:
        top = max(scale, max(filter(math.isfinite, values), default=scale))
    return top


class _Scan:
    """Running result of a certification scan over tuple pairs, folded in
    one block of pairs at a time by ``fold``, which both scans call."""

    __slots__ = ("phi_set", "min_margin", "witness_xs", "witness_ys", "evaluated", "skips", "scale")

    def __init__(self, phi_set: float, skips: int = 0) -> None:
        self.phi_set = phi_set  # phi(d_p(A))
        self.min_margin = math.inf
        self.witness_xs: tuple[Point, ...] = ()
        self.witness_ys: tuple[Point, ...] = ()
        self.evaluated = 0
        self.skips = skips
        # S: the largest finite one of lhs, d, phi(d), phi(D) over evaluated pairs
        self.scale = _finite_max(0.0, (phi_set,))

    def fold(
        self,
        lhs: list[float],
        ds: list[float],
        phi_ds: list[float],
        pair: Callable[[int], tuple[tuple[Point, ...], tuple[Point, ...]]],
    ) -> None:
        """Fold in a nonempty block of pairs, given in scan order by their
        sides lhs = d_p(Tx, Ty), d = d_p(x, y) and phi(d); ``pair(k)`` is the
        (xs, ys) of the block's k-th pair.

        Each margin is ``((d - phi(d)) + phi(D)) - lhs``, the operations
        ``contraction_margin`` gives its pair, in the same order, so every
        margin is bit-identical to it. A NaN margin (inf - inf, from an
        overflowing distance) is a pair whose inequality cannot be
        evaluated, so it refutes: the first one in scan order becomes the
        witness and ``min_margin`` NaN, and no later pair replaces it. The
        margins' sum is NaN only when one of them is, or when both inf and
        -inf are there, so finding a NaN costs one C-level pass per block.
        Otherwise the running minimum is taken with itself in front, and
        the witness is the first pair in scan order that reaches it.
        """
        margins = list(map(sub, map(add, map(sub, ds, phi_ds), repeat(self.phi_set)), lhs))
        self.evaluated += len(margins)
        self.scale = _finite_max(self.scale, lhs + ds + phi_ds)
        if math.isnan(self.min_margin):
            return
        if math.isnan(sum(margins)) and any(map(math.isnan, margins)):
            self.min_margin = math.nan
            k = list(map(math.isnan, margins)).index(True)
        else:
            best = min(self.min_margin, *margins)
            if not best < self.min_margin:
                return
            self.min_margin = best
            k = margins.index(best)
        self.witness_xs, self.witness_ys = pair(k)


def _scan_sampled(
    system: CyclicSystem, phi: Phi, exp: Exponent, phi_set: float, tuple_samples: int, seed: int
) -> _Scan:
    """``tuple_samples`` seeded tuple pairs, ``SAMPLE_BLOCK`` pairs at a time.

    A block's pairs are drawn and read by one ``_Draw`` call, as one pair
    at a time would draw them: xs, then ys, region by region, pair by pair.
    A sample that fails to draw or to read ends the scan where the
    pair-at-a-time scan ended: the block's whole pairs before it are
    evaluated first, so an error of theirs (a map failure, say) comes
    first, and then its own error is raised. Within a pair the first chain
    to fail raises: samples are drawn a chain (one sample of each region)
    at a time, a chain whose draw raises is dropped unread, and the chains
    drawn before it are read. So a read failure in a pair's x-chain comes
    before a draw failure in its y-chain, where drawing the whole pair
    before reading it would raise the draw's error. ``_sampled_block``
    evaluates the pairs.
    """
    rng = random.Random(seed)
    width = 2 * system.m  # points per pair: the x-chain, then the y-chain
    scan = _Scan(phi_set)
    draw = _Draw(system.space, system.regions).draw
    for start in range(0, tuple_samples, SAMPLE_BLOCK):
        points, failure = draw(rng, 2 * min(SAMPLE_BLOCK, tuple_samples - start))
        _sampled_block(system, phi, exp, scan, points[: len(points) - len(points) % width])
        if failure is not None:
            raise failure
    return scan


def _sampled_block(
    system: CyclicSystem, phi: Phi, exp: Exponent, scan: _Scan, points: list[Point]
) -> None:
    """Fold a block of read tuple pairs, 2m points per pair (the x-chain,
    then the y-chain), into ``scan``.

    Pairs that touch an artifact point are skipped. The others' points are
    mapped by the block stepper ``CyclicSystem._images``, in draw order.
    Column j of the block holds point j of every pair, so the x column of
    region i with the y column of region i + 1, paired by
    ``_shifted_pairs``, gives term i of every d by one ``map`` of the
    trusted ``_distance``, and the image columns give the terms of every
    lhs. The exponent's ``_combine_columns`` turns the m term columns into
    every d and every lhs, bit for bit as ``_combine`` does per pair, and
    ``phi._many`` gives every phi(d).

    The samples and the map keep the order in which one pair at a time
    fails. The block maps all its points before it measures any, so an
    exception from a caller-supplied metric or phi can come out before a
    map failure of a later pair in the block.
    """
    m, width = system.m, 2 * system.m
    if system.artifact_points:
        is_artifact = system._is_artifact
        pairs = [points[k : k + width] for k in range(0, len(points), width)]
        kept = [pair for pair in pairs if not any(map(is_artifact, pair))]
        scan.skips += len(pairs) - len(kept)
        points = list(itertools.chain.from_iterable(kept))
    if not points:
        return
    images = system._images(points)
    dist, combine = system.space._distance, exp._combine_columns

    def chain_distances(block: list[Point]) -> list[float]:
        cols = [block[j::width] for j in range(width)]
        return combine([list(map(dist, x, y)) for x, y in _shifted_pairs(cols[:m], cols[m:])])

    lhs, ds = chain_distances(images), chain_distances(points)

    def pair(k: int) -> tuple[tuple[Point, ...], tuple[Point, ...]]:
        at = k * width
        return tuple(points[at : at + m]), tuple(points[at + m : at + width])

    scan.fold(lhs, ds, phi._many(ds), pair)


def _getter(indices: list[int]) -> Callable[[Sequence[float]], tuple[float, ...]]:
    """``itemgetter(*indices)``, always returning a tuple: with one index
    ``itemgetter`` returns the item itself."""
    if len(indices) == 1:
        (i,) = indices
        return lambda row: (row[i],)
    return itemgetter(*indices)


def _scan_exhaustive(system: CyclicSystem, phi: Phi, exp: Exponent, phi_set: float) -> _Scan:
    """Every tuple pair, from per-edge tables, about ``EXHAUSTIVE_BLOCK``
    pairs at a time.

    Term i of both chain distances depends only on the edge pair
    (x_i, y_{i+1}), so each point is flagged once, the usable points are
    mapped once, in the order the enumeration first reaches them, by the
    block stepper ``CyclicSystem._images``, and each edge distance is
    computed once. Term i of one x-tuple against every y-tuple
    is a column read from the x-tuple's row of edge table i by one
    ``itemgetter`` over the shifted y-indices; each row's column is read
    once per scan. A block is ``max(1, EXHAUSTIVE_BLOCK // width)``
    consecutive x-tuples against every one of the ``width`` y-tuples, so
    its term i is its x-tuples' columns joined, and its pair k is x-tuple
    ``k // width`` of the block with y-tuple ``k % width``: the pairs keep
    ``product(tuples, tuples)`` order. The exponent's ``_combine_columns``
    turns the m joined columns into every d and every lhs of the block,
    ``phi._many`` gives every phi(d), and ``_Scan.fold`` the margins.
    Region points were read when their region was built, and the region's
    dimension checked when the system was, so the tables trust them.
    """
    m = system.m
    regions = system.regions
    dist = system.space._distance
    usable = [[x for x in r.points if not system._is_artifact(x)] for r in regions]
    total = math.prod(len(r.points) for r in regions)
    kept = math.prod(len(pts) for pts in usable)
    scan = _Scan(phi_set, skips=total * total - kept * kept)
    if not kept:
        return scan

    # Map each point once, in the order the pair enumeration first reaches
    # it: the first tuple, then the later points of the last region, of the
    # one before it, and so on, as product() varies them.
    order = [pts[0] for pts in usable] + [x for pts in reversed(usable) for x in pts[1:]]
    order = list(dict.fromkeys(order))
    image = dict(zip(order, system._images(order)))

    index_tuples = list(itertools.product(*(range(len(pts)) for pts in usable)))
    width = len(index_tuples)
    # d_rows[i][a] is the column d(A_i[a], y_{i+1}) over every y-tuple y, and
    # e_rows[i][a] the same for images: getter i reads, from a row of edge
    # table i, the entry of every y-tuple's index i + 1.
    d_rows, e_rows = [], []
    for i in range(m):
        heads, tails = usable[i], usable[(i + 1) % m]
        get = _getter([t[(i + 1) % m] for t in index_tuples])
        d_rows.append([get([dist(x, y) for y in tails]) for x in heads])
        e_rows.append([get([dist(image[x], image[y]) for y in tails]) for x in heads])
    combine, join = exp._combine_columns, itertools.chain.from_iterable

    def points(t: tuple[int, ...]) -> tuple[Point, ...]:
        return tuple(usable[i][a] for i, a in enumerate(t))

    step = max(1, EXHAUSTIVE_BLOCK // width)
    for start in range(0, width, step):
        group = index_tuples[start : start + step]
        heads = list(zip(*group))  # heads[i]: each x-tuple's index in region i
        ds = combine([list(join(map(d.__getitem__, a))) for d, a in zip(d_rows, heads)])
        lhs = combine([list(join(map(e.__getitem__, a))) for e, a in zip(e_rows, heads)])
        scan.fold(
            lhs, ds, phi._many(ds),
            lambda k: (points(group[k // width]), points(index_tuples[k % width])),
        )
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
    pairs (the first one in enumeration order on ties), except that a NaN
    margin, whose inequality cannot be evaluated, makes ``min_margin`` NaN
    with the first such pair as the witness, and fails the certificate. The
    certificate passes when ``min_margin >= -MARGIN_ULPS * m * ulp(max(1,
    S))``, where S is the largest finite one of d_p(Tx, Ty), d_p(x, y),
    phi(d_p(x, y)) and phi(d_p(A)) over the evaluated pairs, so the
    tolerance scales with the problem.
    """
    tuple_samples = COUNT.check("tuple_samples", tuple_samples)
    exp = as_exponent(p)
    set_distance = system.set_chain_distance(exp)
    phi_set = phi(set_distance)

    regions = system.regions
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


class AlphaBoundResult(_Record):
    __slots__ = _fields = ("ok", "threshold", "value")


def alpha_bound_check(alpha: float, m: int, p: object) -> AlphaBoundResult:
    """Check alpha^m < 2^(-1/p); any alpha in (0,1) passes for p = inf.

    ``alpha`` is ``paper_lq_family``'s family parameter, the alpha in the
    points (1 + alpha^k) e_k: neither a phi slope (``LinearPhi.alpha``) nor
    a step factor."""
    a = ALPHA.check("alpha", alpha)
    m = CYCLE_LENGTH.check("m", m)
    exp = as_exponent(p)
    threshold = 1.0 if exp.is_inf else 2.0 ** (-1.0 / exp.value)
    # m is an int as it is, past the float range too; a ** m is 0.0 for
    # every m >= 2 ** 64, since a <= 1 - 2 ** -53.
    value = a ** min(m, 2 ** 64)
    return AlphaBoundResult(value < threshold, threshold, value)
