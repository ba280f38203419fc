"""Canonical cyclic systems with analytically known answers.

Each constructor returns a ``GallerySystem``: the system itself plus its
expected edge distances, expected solution (when one is attained), and the
Linear-phi coefficient whose contraction certificate passed the grid oracle
at build time. These stored answers are what the test suite measures against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .chains import chain_self_distance
from .spaces import CapabilityError, Exponent, LqSpace, Point, as_exponent, p_combine
from .system import Ball, Box, CyclicSystem, FiniteCloud, _enumerable


@dataclass(frozen=True)
class GallerySpec:
    id: str
    parameters: tuple[tuple[str, object], ...]

    def parameter_dict(self) -> dict:
        return dict(self.parameters)


@dataclass(frozen=True)
class GallerySystem:
    spec: GallerySpec
    system: CyclicSystem
    edge_distances: tuple[float, ...]
    expected_solution: Point | None
    attainable: bool
    certificate_alpha: float
    step_factor: float | None
    default_start: Point

    def expected_chain_distance(self, p: object) -> float:
        return p_combine(self.edge_distances, p)


def _spec(id: str, **params: object) -> GallerySpec:
    return GallerySpec(id, tuple(sorted(params.items())))


def _require_int(name: str, value: object, minimum: int) -> None:
    # bool is a subclass of int, so True would otherwise read as 1.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def make_kirk_interval(alpha: float = 0.5) -> GallerySystem:
    """A1 = [-1, 0], A2 = [0, 1] on the line, T(x) = -(1 - alpha) x.

    The sets touch at 0, the set chain distance is 0, and 0 is the unique
    fixed point.
    """
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {a}")
    space = LqSpace(Exponent(2.0), 1)
    factor = 1.0 - a

    def step(x: Point) -> Point:
        return (-factor * x[0],)

    system = CyclicSystem(
        space=space,
        regions=(Box((-1.0,), (0.0,)), Box((0.0,), (1.0,))),
        map=step,
    )
    return GallerySystem(
        spec=_spec("kirk_interval", alpha=a),
        system=system,
        edge_distances=(0.0, 0.0),
        expected_solution=(0.0,),
        attainable=True,
        certificate_alpha=a,
        step_factor=factor,
        default_start=(-1.0,),
    )


def make_affine_strip(alpha: float = 0.5, h: float = 1.0) -> GallerySystem:
    """Parallel unit segments at height 0 and h, T(t, s) = (alpha t, h - s).

    Disjoint convex sets at distance h; the orbit converges to the periodic
    pair ((0, 0), (0, h)).
    """
    a = float(alpha)
    hh = float(h)
    if not 0.0 < a < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {a}")
    if hh <= 0.0:
        raise ValueError(f"h must be positive, got {hh}")
    space = LqSpace(Exponent(2.0), 2)

    def step(x: Point) -> Point:
        return (a * x[0], hh - x[1])

    system = CyclicSystem(
        space=space,
        regions=(Box((0.0, 0.0), (1.0, 0.0)), Box((0.0, hh), (1.0, hh))),
        map=step,
    )
    return GallerySystem(
        spec=_spec("affine_strip", alpha=a, h=hh),
        system=system,
        edge_distances=(hh, hh),
        expected_solution=(0.0, 0.0),
        attainable=True,
        certificate_alpha=a,
        step_factor=None,
        default_start=(1.0, 0.0),
    )


def make_paper_lq_family(
    m: int = 2, alpha: float = 0.5, q: object = 2, N: int = 6
) -> GallerySystem:
    """Scaled-basis-vector families in a truncated l^q: A_i holds the points
    (1 + alpha^(mn+i-1)) e_(mn+i-1) for n = 0..N, and the map advances the
    basis index by one.

    The top index has no successor inside the truncation, so its image wraps
    to itself and is flagged as an artifact point. The set chain distance is
    attained only at the truncation boundary; away from it the strict
    non-attainment of the infinite family survives (see ``attainment_gap``).
    """
    _require_int("m", m, 2)
    _require_int("N", N, 2)
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {a}")
    # alpha^m < 2^(-1/p) at the tightest finite exponent p = 1 covers every p.
    if a ** m >= 0.5:
        raise ValueError(f"alpha^m = {a ** m} must be < 1/2")
    qexp = as_exponent(q)
    dim = m * (N + 1) + 1
    space = LqSpace(qexp, dim)
    k_max = m * (N + 1) - 1

    def basis_point(k: int) -> Point:
        coords = [0.0] * dim
        coords[k] = 1.0 + a ** k
        return tuple(coords)

    family = [basis_point(k) for k in range(k_max + 1)]
    top_point = family[-1]
    # The image of each family point, looked up in O(1), with the top point
    # mapped to itself (truncation stub); any other input (a perturbed
    # point, an unhashable sequence) takes the validating path.
    successors = dict(zip(family, family[1:] + family[-1:]))

    def step(x: Point) -> Point:
        try:
            return successors[x]
        except (KeyError, TypeError):
            pass
        k = max(range(dim), key=lambda j: abs(x[j]))
        if abs(x[k] - (1.0 + a ** k)) > 1e-9 or any(
            abs(c) > 1e-9 for j, c in enumerate(x) if j != k
        ):
            raise ValueError("not a point of the indexed family")
        if k == k_max:
            return top_point  # truncation stub
        return family[k + 1]

    regions = tuple(
        FiniteCloud(tuple(family[m * n + i - 1] for n in range(N + 1)))
        for i in range(1, m + 1)
    )

    # d(A_i, A_{i+1}) is minimized at the largest index of each family.
    edges = []
    for i in range(1, m + 1):
        a_top = m * N + i - 1
        b_top = m * N + i if i < m else m * N
        edges.append(p_combine((1.0 + a ** a_top, 1.0 + a ** b_top), qexp))

    system = CyclicSystem(
        space=space,
        regions=regions,
        map=step,
        artifact_points=(top_point,),
    )
    return GallerySystem(
        spec=_spec(
            "paper_lq_family",
            m=m,
            alpha=a,
            q="inf" if qexp.is_inf else qexp.value,
            N=N,
        ),
        system=system,
        edge_distances=tuple(edges),
        expected_solution=None,
        attainable=False,
        certificate_alpha=a,
        step_factor=None,
        default_start=family[0],
    )


def make_scaled_pair(
    alpha: float = 0.5, separation: float = 2.0, dimension: int = 3
) -> GallerySystem:
    """Two unit balls on the first axis at the given surface separation.

    T reflects through the origin with factor 1 - alpha and pins the nearest
    surface points (-sep/2) e1 and (sep/2) e1 onto each other, so the
    proximity chain is attained exactly there. At separation 0 the balls
    touch at the origin, which becomes the unique fixed point.
    """
    a = float(alpha)
    sep = float(separation)
    if not 0.0 < a < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {a}")
    if sep < 0.0:
        raise ValueError(f"separation must be >= 0, got {sep}")
    _require_int("dimension", dimension, 1)
    beta = 1.0 - a
    half = sep / 2.0
    space = LqSpace(Exponent(2.0), dimension)

    def e1(scale: float) -> Point:
        return (scale,) + (0.0,) * (dimension - 1)

    center1 = e1(-(1.0 + half))
    center2 = e1(1.0 + half)

    def step(x: Point) -> Point:
        shift = (1.0 - beta) * half * (1.0 if x[0] < 0 else -1.0 if x[0] > 0 else 0.0)
        return (-beta * x[0] + shift,) + tuple(-beta * c for c in x[1:])

    system = CyclicSystem(
        space=space,
        regions=(Ball(center1, 1.0), Ball(center2, 1.0)),
        map=step,
    )
    return GallerySystem(
        spec=_spec("scaled_pair", alpha=a, separation=sep, dimension=dimension),
        system=system,
        edge_distances=(sep, sep),
        expected_solution=e1(-half),
        attainable=True,
        certificate_alpha=a,
        step_factor=beta if sep == 0.0 else None,
        default_start=center1,
    )


def attainment_gap(gallery_system: GallerySystem, p: object) -> float:
    """min over union points x of d_p(x, Tx, ..., T^(m-1)x) minus the set
    chain distance, over chains that avoid truncation-artifact points.

    Chains touching the truncation boundary exist only because of the finite
    cut (a finite system must attain its set chain distance somewhere, and it
    does so exactly there), so they are excluded; a positive gap then
    witnesses the non-attainment of the underlying infinite family.
    """
    system = gallery_system.system
    if not all(_enumerable(r) for r in system.regions):
        raise CapabilityError("attainment gap needs enumerable regions")
    exp = as_exponent(p)
    m = system.m
    best = math.inf
    for region in system.regions:
        for x in region.points:
            chain = [x]
            for _ in range(m - 1):
                chain.append(system.apply(chain[-1]))
            if any(system.is_artifact(pt) for pt in chain):
                continue
            best = min(best, chain_self_distance(system.space, chain, exp))
    return best - system.set_chain_distance(exp)


@dataclass(frozen=True)
class GalleryEntry:
    factory: Callable[..., GallerySystem]
    parameters: tuple[tuple[str, str, object], ...]  # (name, domain, default)
    description: str


GALLERY: dict[str, GalleryEntry] = {
    "kirk_interval": GalleryEntry(
        make_kirk_interval,
        (("alpha", "(0, 1)", 0.5),),
        "touching intervals on the line; zero set chain distance, fixed point 0",
    ),
    "affine_strip": GalleryEntry(
        make_affine_strip,
        (("alpha", "(0, 1)", 0.5), ("h", "(0, inf)", 1.0)),
        "parallel segments at distance h; periodic pair ((0,0), (0,h))",
    ),
    "paper_lq_family": GalleryEntry(
        make_paper_lq_family,
        (
            ("m", "integer >= 2", 2),
            ("alpha", "(0, 1) with alpha^m < 1/2", 0.5),
            ("q", "[1, inf]", 2),
            ("N", "integer >= 2", 6),
        ),
        "truncated scaled-basis families in l^q; set chain distance not "
        "attained away from the truncation boundary",
    ),
    "scaled_pair": GalleryEntry(
        make_scaled_pair,
        (
            ("alpha", "(0, 1)", 0.5),
            ("separation", "[0, inf)", 2.0),
            ("dimension", "integer >= 1", 3),
        ),
        "two unit balls at a given separation; proximity chain at the "
        "nearest surface points",
    ),
}


def build(system_id: str, parameters: dict | None = None) -> GallerySystem:
    """Instantiate a gallery system by id, applying defaults for omitted
    parameters and rejecting unknown ones."""
    if system_id not in GALLERY:
        raise ValueError(f"unknown gallery system {system_id!r}")
    entry = GALLERY[system_id]
    known = {name for name, _, _ in entry.parameters}
    params = dict(parameters or {})
    unknown = set(params) - known
    if unknown:
        raise ValueError(f"unknown parameters for {system_id}: {sorted(unknown)}")
    for name, value in params.items():
        # Parameters are JSON numbers, or strings such as q = "inf"; null,
        # booleans, lists and objects would fail their coercion otherwise.
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ValueError(f"{name} must be a number or a string, got {value!r}")
        # A factory's float() would raise OverflowError on an integer past
        # the float range.
        if isinstance(value, int):
            try:
                float(value)
            except OverflowError as exc:
                raise ValueError(f"{name} is past the float range: {exc}") from exc
    kwargs = {name: params.get(name, default) for name, _, default in entry.parameters}
    return entry.factory(**kwargs)


def list_gallery() -> list[dict]:
    """Machine-readable gallery listing."""
    return [
        {
            "id": system_id,
            "description": entry.description,
            "parameters": [
                {"name": name, "domain": domain, "default": default}
                for name, domain, default in entry.parameters
            ],
        }
        for system_id, entry in sorted(GALLERY.items())
    ]
