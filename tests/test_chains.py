import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxcycle.chains import chain_point_distance, chain_self_distance, chain_set_distance
from proxcycle.spaces import INFINITY, Exponent, LqSpace, p_combine
from proxcycle.system import FiniteCloud

LINE = LqSpace(Exponent(2.0), 1)


def chain1(*values):
    return [(float(v),) for v in values]


def test_chain_point_distance_two_terms():
    got = chain_point_distance(LINE, chain1(0, 1), chain1(0, 1), 2)
    assert got == pytest.approx(math.sqrt(2), abs=1e-12)


def test_chain_perimeter_p1():
    assert chain_point_distance(LINE, chain1(0, 1, 3), chain1(0, 1, 3), 1) == 6.0


def test_chain_max_p_inf():
    assert chain_point_distance(LINE, chain1(0, 1, 3), chain1(0, 1, 3), INFINITY) == 3.0


def test_self_distance_bit_identical():
    xs = chain1(0.1, 0.7, 2.3)
    for p in (1, 2, 3.5, INFINITY):
        assert chain_self_distance(LINE, xs, p) == chain_point_distance(LINE, xs, xs, p)


def test_self_distance_reads_its_chain_once():
    # An iterator is read once, into the chain measured against itself.
    xs = chain1(0.1, 0.7, 2.3)
    for p in (1, 2, 3.5, INFINITY):
        got = chain_self_distance(LINE, iter(xs), p)
        assert got.hex() == chain_self_distance(LINE, xs, p).hex()
    line, chain = LqSpace(2, 1), [(0.0,), (1.0,)]
    got = chain_self_distance(line, iter(chain), 2)
    assert got.hex() == chain_self_distance(line, tuple(chain), 2).hex() == math.sqrt(2).hex()
    with pytest.raises(ValueError, match="^a chain needs at least 2 points$"):
        chain_self_distance(LINE, iter([(0.0,)]), 2)


def test_self_distance_examples():
    assert chain_self_distance(LINE, chain1(0, 1), 1) == 2.0
    assert chain_self_distance(LINE, chain1(5, 5, 5), 2) == 0.0
    assert chain_self_distance(LINE, chain1(0, 1, 3), 2) == pytest.approx(
        math.sqrt(14), abs=1e-12
    )


def test_shift_asymmetry_preserved():
    # hand evaluation of the shifted sums: 2+2+3 one way, 1+1+3 the other
    xs, ys = chain1(0, 1, 3), chain1(0, 2, 3)
    assert chain_point_distance(LINE, xs, ys, 1) == 7.0
    assert chain_point_distance(LINE, ys, xs, 1) == 5.0


@given(
    st.integers(2, 6).flatmap(
        lambda m: st.tuples(
            *(
                st.lists(
                    st.tuples(*(st.floats(-1e6, 1e6, allow_nan=False),) * 3),
                    min_size=m,
                    max_size=m,
                )
                for _ in range(2)
            )
        )
    ),
    st.sampled_from([1, 1.5, 2, 3, 3.5, INFINITY]),
)
@settings(max_examples=80, deadline=None)
def test_chain_point_distance_is_the_shifted_sum(chains, p):
    # term i is d(x_i, y_{i+1}), wrapping; written out here, not taken from src
    xs, ys = chains
    space = LqSpace(Exponent(2.0), 3)
    m = len(xs)
    terms = [space.distance(xs[i], ys[(i + 1) % m]) for i in range(m)]
    assert chain_point_distance(space, xs, ys, p) == p_combine(terms, p)


def test_chain_length_and_dimension_errors():
    with pytest.raises(ValueError):
        chain_point_distance(LINE, chain1(0), chain1(0), 1)
    with pytest.raises(ValueError):
        chain_point_distance(LINE, chain1(0, 1), chain1(0, 1, 2), 1)
    with pytest.raises(ValueError):
        chain_point_distance(LINE, [(0.0, 0.0), (1.0, 1.0)], [(0.0, 0.0), (1.0, 1.0)], 1)


def test_chain_set_distance_point_clouds():
    a1 = FiniteCloud(((0.0,),))
    a2 = FiniteCloud(((1.0,),))
    assert chain_set_distance(LINE, [a1, a2], INFINITY) == 1.0

    b1 = FiniteCloud(((0.0,), (0.5,)))
    b2 = FiniteCloud(((2.0,), (3.0,)))
    assert chain_set_distance(LINE, [b1, b2], 1) == 3.0


def test_truncated_family_set_distance_matches_brute_force():
    # scaled basis families in R^11: A1 indices 0,2,..,8 and A2 indices 1,3,..,9
    alpha, n_max, dim = 0.5, 4, 11
    space = LqSpace(Exponent(2.0), dim)

    def basis(k):
        coords = [0.0] * dim
        coords[k] = 1.0 + alpha ** k
        return tuple(coords)

    a1 = FiniteCloud(tuple(basis(2 * n) for n in range(n_max + 1)))
    a2 = FiniteCloud(tuple(basis(2 * n + 1) for n in range(n_max + 1)))

    def oracle_edge(first):
        best = math.inf
        for a in range(n_max + 1):
            for b in range(n_max + 1):
                ka = 2 * a if first == 1 else 2 * a + 1
                kb = 2 * b + 1 if first == 1 else 2 * b
                best = min(
                    best,
                    math.sqrt((1 + alpha ** ka) ** 2 + (1 + alpha ** kb) ** 2),
                )
        return best

    for p in (1, 2, INFINITY):
        expected = p_combine((oracle_edge(1), oracle_edge(2)), p)
        got = chain_set_distance(space, [a1, a2], p)
        assert got == pytest.approx(expected, abs=1e-12)


def test_set_distance_lower_bounds_point_chains():
    rng = random.Random(5)
    a1 = FiniteCloud(tuple((rng.uniform(-1, 0),) for _ in range(8)))
    a2 = FiniteCloud(tuple((rng.uniform(2, 3),) for _ in range(8)))
    for p in (1, 2, INFINITY):
        floor = chain_set_distance(LINE, [a1, a2], p)
        for _ in range(50):
            xs = [a1.points[rng.randrange(8)], a2.points[rng.randrange(8)]]
            assert chain_self_distance(LINE, xs, p) >= floor - 1e-12


def test_p64_close_to_p_inf():
    xs = chain1(0, 1, 3, 7)
    d64 = chain_self_distance(LINE, xs, 64)
    dinf = chain_self_distance(LINE, xs, INFINITY)
    assert d64 == pytest.approx(dinf, rel=1e-6)


@given(
    st.lists(
        st.tuples(
            st.floats(-50, 50, allow_nan=False),
            st.floats(-50, 50, allow_nan=False),
            st.floats(-50, 50, allow_nan=False),
        ),
        min_size=3,
        max_size=3,
    ),
    st.lists(
        st.tuples(
            st.floats(-50, 50, allow_nan=False),
            st.floats(-50, 50, allow_nan=False),
            st.floats(-50, 50, allow_nan=False),
        ),
        min_size=3,
        max_size=3,
    ),
    st.sampled_from([1.0, 2.0, 3.0, math.inf]),
)
@settings(max_examples=60, deadline=None)
def test_minkowski_type_bound(xs, ys, p):
    space = LqSpace(Exponent(2.0), 3)
    zs = [tuple(c + 1.0 for c in pt) for pt in ys]
    lhs = chain_point_distance(space, xs, zs, p)
    mid = chain_point_distance(space, xs, ys, p)
    m = len(xs)
    tail = p_combine(
        [space.distance(ys[(i + 1) % m], zs[(i + 1) % m]) for i in range(m)], p
    )
    assert lhs <= mid + tail + 1e-9


def test_p_monotonicity_random_chains():
    # d_inf <= d_p <= d_1 and d_p <= m^(1/p) * d_inf, as for the l^p norm of
    # any m terms; m^(1/p) is 1 at p = inf.
    rng = random.Random(11)
    space, m = LqSpace(Exponent(2.0), 3), 5
    for _ in range(100):
        xs = [tuple(rng.uniform(-5, 5) for _ in range(3)) for _ in range(m)]
        ys = [tuple(rng.uniform(-5, 5) for _ in range(3)) for _ in range(m)]
        d1 = chain_point_distance(space, xs, ys, 1)
        dinf = chain_point_distance(space, xs, ys, math.inf)
        for p in (1.0, 1.5, 2.0, 3.0, 8.0, 64.0, math.inf):
            dp = chain_point_distance(space, xs, ys, p)
            assert dinf - 1e-12 <= dp <= d1 + 1e-12, p
            assert dp <= m ** (1.0 / p) * dinf + 1e-12, p


def test_chain_point_distance_reads_iterator_chains_once():
    xs, ys = chain1(0, 1, 3), chain1(2, -1, 4)
    want = chain_point_distance(LINE, xs, ys, 2)
    assert chain_point_distance(LINE, iter(xs), iter(ys), 2) == want
    assert chain_point_distance(LINE, (x for x in xs), map(tuple, ys), 2) == want


