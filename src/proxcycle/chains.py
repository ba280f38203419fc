"""Chain distances over point tuples and region chains.

The cyclic shift convention (term i pairs x_i with y_{i+1}, wrapping the last
index back to the first) lives in exactly one place here, ``_shifted_pairs``,
and every chain quantity routes through it.
"""

from __future__ import annotations

import math
from itertools import starmap
from typing import Callable, Iterator, Sequence

from .spaces import (
    INFINITY,
    POSITIVE,
    CapabilityError,
    Point,
    Space,
    _Record,
    _value_repr,
    as_exponent,
    p_combine,
)


def _shifted_pairs(
    xs: tuple[Point, ...], ys: tuple[Point, ...]
) -> Iterator[tuple[Point, Point]]:
    # The single home of the x_i vs y_{i+1} pairing.
    return zip(xs, ys[1:] + ys[:1])


def _check_chain(space: Space, xs: Sequence[Sequence[float]]) -> tuple[Point, ...]:
    chain = tuple(map(space.point, xs))
    if len(chain) < 2:
        raise ValueError("a chain needs at least 2 points")
    return chain


def _check_chains(
    space: Space, xs: Sequence[Sequence[float]], ys: Sequence[Sequence[float]]
) -> tuple[tuple[Point, ...], tuple[Point, ...]]:
    """Validate two chains of equal length for ``space``."""
    cx, cy = _check_chain(space, xs), _check_chain(space, ys)
    if len(cx) != len(cy):
        raise ValueError(f"chain lengths differ: {len(cx)} vs {len(cy)}")
    return cx, cy


def chain_point_distance(
    space: Space,
    xs: Sequence[Sequence[float]],
    ys: Sequence[Sequence[float]],
    p: object,
) -> float:
    """p-combination of d(x_i, y_{i+1}) around the cyclic chain.

    Not symmetric in (xs, ys); the shift makes the two orders genuinely
    different quantities and no symmetrization is applied.
    """
    cx, cy = _check_chains(space, xs, ys)
    return _chain_distance(space, cx, cy, as_exponent(p)._combine)


def _chain_distance(
    space: Space,
    cx: tuple[Point, ...],
    cy: tuple[Point, ...],
    combine: Callable[[list[float]], float],
) -> float:
    """``chain_point_distance`` on chains already validated for ``space``
    (``_check_chains``), with the exponent's ``_combine``: the trusted
    ``_distance`` of each shifted pair, combined in chain order."""
    return combine(list(starmap(space._distance, _shifted_pairs(cx, cy))))


def chain_self_distance(space: Space, xs: Sequence[Sequence[float]], p: object) -> float:
    """``chain_point_distance`` of a chain against itself, bit-identical to
    it; the chain is read once, so it may be an iterator."""
    chain = _check_chain(space, xs)
    return _chain_distance(space, chain, chain, as_exponent(p)._combine)


def _edge_distances(space: Space, regions: Sequence[object]) -> tuple[float, ...]:
    """The exact set distances d(A_i, A_{i+1}) around the region cycle."""
    regs = list(regions)
    if len(regs) < 2:
        raise ValueError("need at least 2 regions")
    # Every region is checked before any is measured, so a bad one is named
    # whatever its place: region i's distance_to reads region i + 1.
    for i, region in enumerate(regs, start=1):
        if not hasattr(region, "distance_to"):
            raise CapabilityError(
                f"region {i} has no exact distance method, got {_value_repr(region)}"
            )
    return tuple(region.distance_to(nxt, space) for region, nxt in zip(regs, regs[1:] + regs[:1]))


def chain_set_distance(space: Space, regions: Sequence[object], p: object) -> float:
    """p-combination of consecutive exact set distances d(A_i, A_{i+1}), wrapping."""
    return p_combine(_edge_distances(space, regions), p)


class MonotonicityReport(_Record):
    __slots__ = _fields = ("ok", "worst_slack", "failures")


def p_monotonicity_check(
    space: Space,
    xs: Sequence[Sequence[float]],
    ys: Sequence[Sequence[float]],
    ps: Sequence[float] = (1.0, 1.5, 2.0, 3.0, 8.0, 64.0),
    tol: float = 1e-12,
) -> MonotonicityReport:
    """Check d_inf <= d_p <= d_1 and d_p <= m^(1/p) * d_inf for sampled p.

    The chains are read once, so they may be iterators; ``tol`` is read by
    ``POSITIVE``. Sides that overflow to inf are equal, with slack 0; a NaN
    slack is a failure, and then the worst slack."""
    tol = POSITIVE.check("tol", tol)
    cx, cy = _check_chains(space, xs, ys)
    m = len(cx)
    d1 = _chain_distance(space, cx, cy, as_exponent(1.0)._combine)
    dinf = _chain_distance(space, cx, cy, INFINITY._combine)
    worst = 0.0
    failures = []
    for p in ps:
        exp = as_exponent(p)
        dp = _chain_distance(space, cx, cy, exp._combine)
        # m^(1/p) is 1 at p = inf, whose exponent value is None.
        root = 1.0 if exp.value is None else m ** (1.0 / exp.value)
        checks = (
            ("d_inf <= d_p", dinf, dp),
            ("d_p <= d_1", dp, d1),
            ("d_p <= m^(1/p) * d_inf", dp, root * dinf),
        )
        for label, lhs, rhs in checks:
            # Equal sides have slack 0, as inf <= inf holds though inf - inf is NaN.
            slack = 0.0 if lhs == rhs else lhs - rhs
            # A NaN slack becomes the worst; max keeps it, as nothing compares above a NaN.
            worst = slack if math.isnan(slack) else max(worst, slack)
            if not slack <= tol:
                failures.append((label, p, slack))
    return MonotonicityReport(not failures, worst, tuple(failures))
