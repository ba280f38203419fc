"""Chain distances over point tuples and region chains.

The cyclic shift convention (term i pairs x_i with y_{i+1}, wrapping the last
index back to the first) lives in exactly one place, ``_shifted_pairs``, and
every pairing of the package routes through it: the chain and edge distances
here, both certificate scans' terms, ``verify_cyclicity``'s target regions and
the proximity chain's edge residuals. The one reader that takes the shift from
columns instead is ``orbit._trace_columns``, whose wrap column measures the
last point of each block against the first.
"""

from __future__ import annotations

from itertools import starmap
from typing import Callable, Iterator, Sequence

from .spaces import CapabilityError, Point, Space, _value_repr, as_exponent, p_combine


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
    regs = tuple(regions)
    if len(regs) < 2:
        raise ValueError("need at least 2 regions")
    # Every region is checked before any is measured, so a bad one is named
    # whatever its place: region i's distance_to reads region i + 1.
    for i, region in enumerate(regs, start=1):
        if not hasattr(region, "distance_to"):
            raise CapabilityError(
                f"region {i} has no exact distance method, got {_value_repr(region)}"
            )
    return tuple(region.distance_to(nxt, space) for region, nxt in _shifted_pairs(regs, regs))


def chain_set_distance(space: Space, regions: Sequence[object], p: object) -> float:
    """p-combination of consecutive exact set distances d(A_i, A_{i+1}), wrapping."""
    return p_combine(_edge_distances(space, regions), p)

