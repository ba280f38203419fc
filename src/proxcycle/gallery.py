"""Canonical cyclic systems with analytically known answers.

Each constructor returns a ``GallerySystem``: the system itself plus its
expected edge distances, expected solution (when one is attained), and a
``LinearPhi`` coefficient under which the system's closed form gives the
contraction inequality. Nothing is checked when a system is built: these
stored answers are what the test suite measures against.

Each constructor is registered in ``GALLERY`` with one ``Domain`` per
parameter; its signature holds the defaults. Every call, through ``build`` or
direct, checks each argument against its domain once and records the checked
values as the ``GallerySpec``. Only alpha^m < 1/2 is checked in a body. The
caps on ``m``, ``N`` and ``dimension`` are measured in the README.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from .chains import _chain_distance
from .spaces import (
    ALPHA, EXPONENT, _DATACLASS_FIELDS, CapabilityError, Domain, Exponent, LqSpace, Point, _Record,
    _bind, _value_repr, as_exponent, p_combine,
)
from .system import Ball, Box, CyclicSystem, FiniteCloud, _enumerable


class GallerySpec(_Record):
    __slots__ = _fields = ("id", "parameters")

    def parameter_dict(self) -> dict:
        return dict(self.parameters)


class GallerySystem(_Record):
    """A gallery system and its known answers. ``spec`` is the first field
    and defaults to None: a constructor leaves it out and the registry sets
    it.

    Each build makes its map afresh, as a closure, and a map compares by
    identity, so two builds of one config give unequal systems and unequal
    gallery systems; their ``spec``s are equal, and are what to compare."""

    __slots__ = _fields = (
        "spec", "system", "edge_distances", "expected_solution", "attainable",
        "certificate_alpha", "step_factor", "default_start",
    )
    _defaults = {"spec": None}
    __dataclass_fields__ = _DATACLASS_FIELDS

    def expected_chain_distance(self, p: object) -> float:
        return p_combine(self.edge_distances, p)


class GalleryEntry(_Record):
    __slots__ = _fields = ("factory", "domains", "description")
    __dataclass_fields__ = _DATACLASS_FIELDS


GALLERY: dict[str, GalleryEntry] = {}


def _defaults(factory: Callable[..., GallerySystem]) -> dict[str, object]:
    """A gallery constructor's parameters, in order, and their defaults,
    read from its code object. Each parameter has a default, so that
    ``build`` can leave any of them out."""
    code = factory.__code__
    names = code.co_varnames[: code.co_argcount]
    defaults = factory.__defaults__ or ()
    if len(defaults) != len(names):
        raise TypeError(f"every parameter of {factory.__name__} needs a default")
    return dict(zip(names, defaults))


def _gallery(system_id: str, description: str, **domains: Domain):
    """Register a constructor as ``system_id``, checking its arguments."""

    def register(factory: Callable[..., GallerySystem]) -> Callable[..., GallerySystem]:
        defaults = _defaults(factory)
        names = tuple(defaults)

        @functools.wraps(factory)
        def checked(*args: object, **kwargs: object) -> GallerySystem:
            given = zip(names, _bind(names, defaults, args, kwargs))
            values = {name: domains[name].check(name, v) for name, v in given}
            # JSON has no infinity, so the spec spells q = inf as a config does.
            spec = sorted((name, "inf" if v == math.inf else v) for name, v in values.items())
            return factory(**values).__replace__(spec=GallerySpec(system_id, tuple(spec)))

        GALLERY[system_id] = GalleryEntry(checked, domains, description)
        return checked

    return register


@_gallery(
    "kirk_interval", "touching intervals on the line; zero set chain distance, fixed point 0",
    alpha=ALPHA,
)
def make_kirk_interval(alpha: float = 0.5) -> GallerySystem:
    """A1 = [-1, 0], A2 = [0, 1] on the line, T(x) = -(1 - alpha) x.

    The sets touch at 0, the set chain distance is 0, and 0 is the unique
    fixed point.
    """
    space = LqSpace(Exponent(2.0), 1)
    factor = 1.0 - alpha

    def step(x: Point) -> Point:
        return (-factor * x[0],)

    system = CyclicSystem(
        space=space,
        regions=(Box((-1.0,), (0.0,)), Box((0.0,), (1.0,))),
        map=step,
    )
    return GallerySystem(
        system=system,
        edge_distances=(0.0, 0.0),
        expected_solution=(0.0,),
        attainable=True,
        certificate_alpha=alpha,
        step_factor=factor,
        default_start=(-1.0,),
    )


@_gallery(
    "affine_strip", "parallel segments at distance h; periodic pair ((0,0), (0,h))",
    alpha=ALPHA, h=Domain(0, math.inf),
)
def make_affine_strip(alpha: float = 0.5, h: float = 1.0) -> GallerySystem:
    """Parallel unit segments at height 0 and h, T(t, s) = (alpha t, h - s).

    Disjoint convex sets at distance h; the orbit converges to the periodic
    pair ((0, 0), (0, h)).
    """
    space = LqSpace(Exponent(2.0), 2)

    def step(x: Point) -> Point:
        return (alpha * x[0], h - x[1])

    system = CyclicSystem(
        space=space,
        regions=(Box((0.0, 0.0), (1.0, 0.0)), Box((0.0, h), (1.0, h))),
        map=step,
    )
    # Each edge obeys e' <= alpha e + (1 - alpha) h, so phi slopes up to
    # 1 - alpha pass. The coefficient is capped at alpha too, which keeps it
    # in (0, 1) where 1.0 - alpha rounds to 1.0 (alpha below 2^-54).
    return GallerySystem(
        system=system,
        edge_distances=(h, h),
        expected_solution=(0.0, 0.0),
        attainable=True,
        certificate_alpha=min(alpha, 1.0 - alpha),
        step_factor=None,
        default_start=(1.0, 0.0),
    )


@_gallery(
    "paper_lq_family",
    "truncated scaled-basis families in l^q; set chain distance not "
    "attained away from the truncation boundary",
    m=Domain(2, 16, "[]", integer=True),
    alpha=Domain(0, 1, note="alpha^m < 1/2"),
    q=EXPONENT,
    N=Domain(2, 50, "[]", integer=True),
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
    # alpha^m < 2^(-1/p) at the tightest finite exponent p = 1 covers every p.
    if alpha ** m >= 0.5:
        raise ValueError(f"alpha^m = {alpha ** m} must be < 1/2")
    dim = m * (N + 1) + 1
    space = LqSpace(as_exponent(q), dim)
    k_max = m * (N + 1) - 1

    def basis_point(k: int) -> Point:
        coords = [0.0] * dim
        coords[k] = 1.0 + alpha ** k
        return tuple(coords)

    family = [basis_point(k) for k in range(k_max + 1)]
    top_point = family[-1]
    # The image of each family point, looked up in O(1), with the top point
    # mapped to itself (truncation stub); any other input (a perturbed
    # point, an unhashable sequence) takes the validating path. An orbit
    # sits on the stub for almost all of its steps, so the stub is returned
    # by identity first, the object the lookup would return, without
    # hashing its coordinates.
    successors = dict(zip(family, family[1:] + family[-1:]))

    def step(x: Point) -> Point:
        if x is top_point:
            return x
        try:
            return successors[x]
        except (KeyError, TypeError):
            pass
        k = max(range(dim), key=lambda j: abs(x[j]))
        if abs(x[k] - (1.0 + alpha ** k)) > 1e-9 or any(
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
        edges.append(p_combine((1.0 + alpha ** a_top, 1.0 + alpha ** b_top), space.q))

    system = CyclicSystem(
        space=space,
        regions=regions,
        map=step,
        artifact_points=(top_point,),
    )
    # phi slopes up to 1 - alpha pass, capped at alpha as for affine_strip.
    return GallerySystem(
        system=system,
        edge_distances=tuple(edges),
        expected_solution=None,
        attainable=False,
        certificate_alpha=min(alpha, 1.0 - alpha),
        step_factor=None,
        default_start=family[0],
    )


@_gallery(
    "scaled_pair",
    "two unit balls at a given separation; proximity chain at the "
    "nearest surface points",
    alpha=ALPHA,
    separation=Domain(0, math.inf, "[)"),
    dimension=Domain(1, 1000, "[]", integer=True),
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
    beta = 1.0 - alpha
    half = separation / 2.0
    space = LqSpace(Exponent(2.0), dimension)

    def e1(scale: float) -> Point:
        return (scale,) + (0.0,) * (dimension - 1)

    center1 = e1(-(1.0 + half))
    center2 = e1(1.0 + half)

    # (1.0 - beta) * half * sign multiplies left to right, so taking the
    # first product once, and its three products with the sign once, changes
    # no bit: pull * -1.0 is still -0.0 at separation 0. Each coordinate is
    # scaled with the * operator, so a raw map call on a coordinate that
    # float does not multiply (a Fraction) falls back to its own __rmul__.
    # The gallery's 2-d and 3-d balls unpack into a fixed tuple display,
    # about three times faster than building the tail by slicing.
    neg = -beta
    pull = (1.0 - beta) * half
    push, still = pull * -1.0, pull * 0.0

    if dimension == 2:

        def step(x: Point) -> Point:
            x0, x1 = x
            shift = pull if x0 < 0 else push if x0 > 0 else still
            return (neg * x0 + shift, neg * x1)

    elif dimension == 3:

        def step(x: Point) -> Point:
            x0, x1, x2 = x
            shift = pull if x0 < 0 else push if x0 > 0 else still
            return (neg * x0 + shift, neg * x1, neg * x2)

    else:

        def step(x: Point) -> Point:
            x0 = x[0]
            shift = pull if x0 < 0 else push if x0 > 0 else still
            return (neg * x0 + shift, *[neg * c for c in x[1:]])

    system = CyclicSystem(
        space=space,
        regions=(Ball(center1, 1.0), Ball(center2, 1.0)),
        map=step,
    )
    return GallerySystem(
        system=system,
        edge_distances=(separation, separation),
        expected_solution=e1(-half),
        attainable=True,
        certificate_alpha=alpha,
        step_factor=beta if separation == 0.0 else None,
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
    best = math.inf
    # Region points were validated when their regions were built and each
    # image by ``_image``, so the chains are measured as they are.
    for region in system.regions:
        for x in region.points:
            chain = (x,)
            for _ in range(system.m - 1):
                chain += (system._image(chain[-1]),)
            if not any(map(system._is_artifact, chain)):
                best = min(best, _chain_distance(system.space, chain, chain, exp._combine))
    return best - system.set_chain_distance(exp)


def build(system_id: str, parameters: dict | None = None) -> GallerySystem:
    """Instantiate a gallery system by id; omitted parameters take their
    defaults and unknown ones are rejected."""
    if not isinstance(system_id, str) or system_id not in GALLERY:
        raise ValueError(f"unknown gallery system {_value_repr(system_id)}")
    entry = GALLERY[system_id]
    unknown = set(parameters or ()) - set(entry.domains)
    if unknown:
        raise ValueError(f"unknown parameters for {system_id}: {sorted(unknown)}")
    return entry.factory(**(parameters or {}))


def list_gallery() -> list[dict]:
    """Machine-readable gallery listing."""
    return [
        {
            "id": system_id,
            "description": entry.description,
            "parameters": [
                {"name": name, "domain": str(entry.domains[name]), "default": default}
                for name, default in _defaults(entry.factory.__wrapped__).items()
            ],
        }
        for system_id, entry in sorted(GALLERY.items())
    ]
