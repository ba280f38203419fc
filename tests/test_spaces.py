import dataclasses
import itertools
import math
import pickle
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxcycle.spaces import (
    ALPHA,
    INFINITY,
    Domain,
    Exponent,
    LqSpace,
    OracleSpace,
    _GAP_KERNELS,
    _combined_gaps,
    _point_repr,
    _space_gap,
    as_exponent,
    check_point,
    p_combine,
    validate_metric,
)
from reference import Float, hexed

finite_floats = st.floats(min_value=-100, max_value=100, allow_nan=False)
vectors = st.lists(finite_floats, min_size=1, max_size=6)


def test_norm_pythagorean():
    assert LqSpace(2, 2).norm((3, 4)) == pytest.approx(5.0, abs=1e-12)


def test_norm_manhattan():
    assert LqSpace(1, 3).norm((1, 1, 1)) == 3.0


def test_norm_max():
    assert LqSpace(INFINITY, 3).norm((1, -2, 3)) == 3.0
    assert LqSpace(math.inf, 3).norm((1, -2, 3)) == 3.0


def test_norm_zero_iff_zero():
    assert LqSpace(2, 2).norm((0.0, 0.0)) == 0.0
    assert LqSpace(2, 2).norm((0.0, 1e-300)) > 0.0


@pytest.mark.parametrize(
    "point",
    [
        (1.0, 2.0),
        (1e308, 1e308),  # finite, although the sum overflows
        [1.0, 2.0],
        (1, 2.0),
        (True, 2.0),
        (Float(1.0), 2.0),
        (math.nan, 2.0),
        (math.inf, -math.inf),
        (1.0,),
        (1.0, 2.0, 3.0),
        (),
        "12",
    ],
)
def test_as_read_is_point_returning_each_point_itself(point):
    # The one-pass test of a block says yes exactly when Space.point would
    # return every point of the block as it is, with no error.
    space = LqSpace(2, 2)
    good = (0.5, -0.5)
    try:
        as_is = space.point(point) is point
    except ValueError:
        as_is = False
    assert space._as_read([good, point, good]) is as_is
    assert space._as_read([good]) and space._as_read([])


@pytest.mark.parametrize(
    "v, shown",
    [((), "()"), ((1.0,), "(1.0,)"), ((1.0, -0.0), "(1.0, -0.0)"), ([2.5, 3], "[2.5, 3]")],
)
def test_point_repr_is_repr_up_to_the_coordinate_count(v, shown):
    assert _point_repr(v) == shown == repr(v)


def test_check_point_reads_ints_and_float_subclasses_as_floats():
    for v in ([1, 2], (1, 2.0), (Float(1.0), 2.0), iter([1.0, 2.0]), range(1, 3)):
        pt = check_point(v)
        assert pt == (1.0, 2.0) and type(pt) is tuple
        assert {type(c) for c in pt} == {float}
    pt = (1.0, 2.0)
    assert check_point(pt) is pt  # a tuple of floats is returned as it is


def test_check_point_finiteness_does_not_hinge_on_the_sum():
    big = sys.float_info.max
    pt = (big, big)  # finite coordinates whose sum is past the float range
    assert check_point(pt) is pt and check_point([big, big]) == pt
    for v in ((big, big, -math.inf), (math.inf, -math.inf), (1.0, math.nan), (-big, -math.inf)):
        with pytest.raises(ValueError, match="non-finite coordinate"):
            check_point(v)


def test_large_q_does_not_overflow():
    # max-factoring keeps huge exponents finite on large coordinates
    v = (1e200, 1e200)
    got = LqSpace(512, 2).norm(v)
    assert math.isfinite(got)
    assert got == pytest.approx(1e200 * 2 ** (1 / 512), rel=1e-12)


def test_distance_examples():
    l2 = LqSpace(Exponent(2.0), 2)
    l1 = LqSpace(Exponent(1.0), 2)
    linf = LqSpace(INFINITY, 2)
    assert l2.distance((0, 0), (0, 1)) == 1.0
    assert l1.distance((1, 1), (0, 0)) == 2.0
    assert linf.distance((1, 0), (0, 2)) == 2.0


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("dimension", [1, 2, 3, 7])
def test_norm_of_the_right_dimension_keeps_its_bits(q, dimension):
    space = LqSpace(as_exponent(q), dimension)
    rng = random.Random(f"norm:{q}:{dimension}")
    for _ in range(200):
        v = tuple(rng.uniform(-1e3, 1e3) for _ in range(dimension))
        assert hexed(space.norm(v)) == hexed(p_combine(map(abs, v), q))
        assert hexed(space.norm(list(v))) == hexed(p_combine(map(abs, v), q))


def test_distance_dimension_mismatch():
    l2 = LqSpace(Exponent(2.0), 2)
    with pytest.raises(ValueError):
        l2.distance((0, 0), (0, 0, 0))


@given(vectors, st.sampled_from([1.0, 1.5, 2.0, 3.0, 8.0]))
@settings(max_examples=60, deadline=None)
def test_norm_monotone_in_q(v, q):
    # q1 <= q2 implies norm_q2 <= norm_q1
    n_q = LqSpace(q, len(v)).norm(v)
    n_2q = LqSpace(2 * q, len(v)).norm(v)
    n_inf = LqSpace(INFINITY, len(v)).norm(v)
    n_1 = LqSpace(1, len(v)).norm(v)
    assert n_2q <= n_q + 1e-12 * (1 + n_q)
    assert n_inf <= n_q + 1e-12 * (1 + n_q)
    assert n_q <= n_1 + 1e-12 * (1 + n_1)


@given(vectors, finite_floats, st.sampled_from([1.0, 2.0, 3.5, math.inf]))
@settings(max_examples=60, deadline=None)
def test_norm_homogeneity(v, c, q):
    lhs = LqSpace(q, len(v)).norm(tuple(c * x for x in v))
    rhs = abs(c) * LqSpace(q, len(v)).norm(v)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(vectors.filter(lambda v: len(v) >= 2), st.sampled_from([1.0, 2.0, 4.0, math.inf]))
@settings(max_examples=60, deadline=None)
def test_distance_triangle(v, q):
    dim = len(v)
    space = LqSpace(as_exponent(q), dim)
    a = tuple(v)
    b = tuple(-x for x in v)
    c = tuple(x + 1 for x in v)
    assert space.distance(a, c) <= space.distance(a, b) + space.distance(b, c) + 1e-12


def test_p_combine_empty_is_zero():
    assert p_combine((), 2) == 0.0
    assert p_combine((), INFINITY) == 0.0


def test_validate_metric_l2_passes():
    space = LqSpace(Exponent(2.0), 2)
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2.0, 3.0)]
    assert validate_metric(space, pts).ok


def test_validate_metric_flags_asymmetry():
    space = OracleSpace(lambda a, b: a[0] - b[0], 1)
    report = validate_metric(space, [(0.0,), (1.0,), (2.0,)])
    assert not report.ok
    assert report.symmetry_violations


def test_validate_metric_flags_triangle_violation():
    space = OracleSpace(lambda a, b: (a[0] - b[0]) ** 2, 1)
    report = validate_metric(space, [(0.0,), (1.0,), (2.0,)])
    assert not report.ok
    assert report.triangle_violations  # 4 > 1 + 1


def test_validate_metric_samples_max_triples_of_the_triples():
    # The squared gap breaks the triangle inequality in every triple of
    # points on a line; past max_triples the triples checked are a seeded
    # sample of them.
    space = OracleSpace(lambda a, b: (a[0] - b[0]) ** 2, 1)
    points = [(0.0,), (1.0,), (2.0,), (3.0,), (5.0,)]
    for seed in (0, 1, 7):
        report = validate_metric(space, points, seed=seed, max_triples=3)
        drawn = random.Random(seed).sample(list(itertools.combinations(points, 3)), 3)
        checked = {frozenset(v[:3]) for v in report.triangle_violations}
        assert not report.ok and checked == set(map(frozenset, drawn))


def test_a_nan_distance_is_a_violation():
    # Each test is "not ... <= tol": a NaN compares false with everything.
    nan = OracleSpace(lambda a, b: math.nan, 1)
    report = validate_metric(nan, [(0.0,), (1.0,), (2.0,)])
    assert not report.ok
    assert len(report.identity_violations) == len(report.symmetry_violations) == 3
    assert len(report.triangle_violations) == 3
    # Distances that overflow to inf are no NaN: inf == inf and inf <= inf hold.
    line = LqSpace(Exponent(2.0), 1)
    assert validate_metric(line, [(-1e308,), (1e308,), (0.0,)]).ok


def test_validate_metric_needs_three_points():
    space = LqSpace(Exponent(2.0), 1)
    with pytest.raises(ValueError):
        validate_metric(space, [(0.0,), (1.0,)])


def test_validate_metric_reads_each_sample_once_in_order():
    # Each sample is read by the space in turn, its dimension included, so
    # a wrong-dimension sample comes before a later non-finite one.
    line = LqSpace(Exponent(2.0), 1)
    with pytest.raises(ValueError, match="^point of dimension 2 in a 1-dimensional space$"):
        validate_metric(line, [(0.0,), (1.0, 0.0), (math.nan,)])
    with pytest.raises(ValueError, match="^non-finite coordinate nan"):
        validate_metric(line, [(0.0,), (math.nan,), (1.0, 0.0)])
    with pytest.raises(ValueError, match="^point of dimension 2"):
        validate_metric(line, [(0.0,), (1.0, 0.0)])
    # The oracle is handed the points read: tuples of floats.
    seen = []
    space = OracleSpace(lambda a, b: seen.append(a + b) or abs(a[0] - b[0]), 1)
    assert validate_metric(space, [[0], [1], (2.5,), [True + 2.0]]).ok
    assert {type(c) for coordinates in seen for c in coordinates} == {float}
    assert len(seen) == 4 + 2 * 6 + 3 * 3 * 4


# --- kernels chosen once per exponent ---------------------------------------

EXPONENTS = [1.0, 1.5, 2.0, 3.0, 3.5, math.inf]
# zeros, subnormals, ordinary values and magnitudes out to 1e300 either way
magnitudes = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),
    st.floats(min_value=1e-300, max_value=1e300),
    st.sampled_from([5e-324, 1e-300, 1.0, 1e300]),
)
magnitude_lists = st.lists(magnitudes, min_size=1, max_size=25)


def textbook_combine(vals, q):
    """(sum v_i^q)^(1/q) with the largest value factored out; fsum for q = 1,
    the max for q = inf. Integer q is raised by an int power."""
    if q == math.inf:
        return max(vals, default=0.0)
    if q == 1.0:
        return math.fsum(vals)
    peak = max(vals, default=0.0)
    if peak == 0.0:
        return 0.0
    power = int(q) if q == int(q) else q
    return peak * math.fsum((v / peak) ** power for v in vals) ** (1.0 / q)


@given(magnitude_lists, st.sampled_from(EXPONENTS))
@settings(max_examples=300, deadline=None)
def test_combine_matches_textbook_formula_bit_for_bit(vals, q):
    want = textbook_combine(vals, q)
    assert hexed(p_combine(vals, q)) == hexed(want)
    assert hexed(as_exponent(q)._combine(list(vals))) == hexed(want)


@given(
    st.lists(st.tuples(magnitudes, magnitudes, st.booleans()), min_size=1, max_size=25),
    st.sampled_from(EXPONENTS),
)
@settings(max_examples=300, deadline=None)
def test_distance_kernels_match_textbook_formula_bit_for_bit(coords, q):
    pa = tuple(-x if negate else x for x, _, negate in coords)
    pb = tuple(y for _, y, _ in coords)
    want = textbook_combine([abs(x - y) for x, y in zip(pa, pb)], q)
    space = LqSpace(as_exponent(q), len(pa))
    assert hexed(space._distance(pa, pb)) == hexed(want)
    assert hexed(space.distance(pa, pb)) == hexed(want)


def test_p_combine_extreme_magnitudes():
    assert p_combine([1e300, 1e300], 2) == 1e300 * math.sqrt(2.0)
    assert p_combine([1e300] * 4, 3.5) == pytest.approx(1e300 * 4 ** (1 / 3.5), rel=1e-15)
    assert p_combine([5e-324, 0.0], 2) == 5e-324
    assert p_combine([1e-300, 1e300], 3) == 1e300
    assert p_combine([1e300, 1e300], 1) == 2e300


@pytest.mark.parametrize(
    "q, dimension",
    [pytest.param(q, 3, id=str(q)) for q in (1, 2, 3.5, "inf")]
    + [pytest.param(q, 1, id=f"{q}-line") for q in (1, 2, 3.5, "inf")]
    + [pytest.param(q, 2, id=f"{q}-plane") for q in (1, 2, 3.5, "inf")],
)
def test_lq_space_pickles_compares_and_hashes_by_value(q, dimension):
    space = LqSpace(as_exponent(q), dimension)
    copy = pickle.loads(pickle.dumps(space))
    assert copy == space and hash(copy) == hash(space) and repr(copy) == repr(space)
    assert copy == LqSpace(q, dimension) and LqSpace(q, dimension) in {space}
    assert copy != LqSpace(as_exponent(q), dimension + 1)
    assert all(space != LqSpace(r, dimension) for r in (1, 2, 3.5, "inf") if r != q)

    def probe(s):
        a, b = (0.5, -2.0, 1e300), (3.0, 1e-300, -1e300)
        return s.distance(a[: s.dimension], b[: s.dimension])

    assert hexed(probe(copy)) == hexed(probe(space))
    # replace rebinds the kernel chosen from (q, dimension), between every
    # two of the line, the plane and 3-space.
    for d in {1, 2, 3} - {dimension}:
        other = dataclasses.replace(space, dimension=d)
        assert other == LqSpace(q, d)
        assert hexed(probe(other)) == hexed(probe(LqSpace(q, d)))


@pytest.mark.parametrize(
    "q, dimension",
    [pytest.param(q, 1, id=str(q)) for q in (1, 1.5, 2, 3.5, "inf")]
    + [pytest.param(q, 2, id=f"{q}-plane") for q in (1, 1.5, 2, 3.5, "inf")]
    + [pytest.param(q, 3, id=f"{q}-3") for q in (1, 1.5, 2, 3.5, "inf")],
)
def test_overflowing_distances_are_infinite(q, dimension):
    space = LqSpace(as_exponent(q), dimension)
    zeros = (0.0,) * dimension
    for axis in range(dimension):
        far = tuple(1e308 if i == axis else 0.0 for i in range(dimension))
        assert space.distance(tuple(-c for c in far), far) == math.inf
    assert space.distance((-1e308,) * dimension, (1e308,) * dimension) == math.inf
    assert p_combine([math.inf, 1.0], q) == math.inf
    if dimension > 1 and q != "inf":
        # Finite gaps, each below the float maximum, whose l^q combination
        # is past it.
        assert space.distance((1.7e308,) * dimension, zeros) == math.inf


def test_q1_combination_overflows_to_inf_and_keeps_finite_sums():
    assert p_combine([1e308, 1e308], 1) == math.inf
    # The exact sum is just below the overflow threshold, though fsum's
    # running partial overflows: the correctly rounded sum is the maximum.
    vals = [sys.float_info.max, 2.0**969, 2.0**969 - 2.0**916]
    assert p_combine(vals, 1) == sys.float_info.max
    assert p_combine([1e308, 7e307], 1) == 1.7e308


# --- column kernels -------------------------------------------------------------

# magnitudes, overflowed distances, and terms whose q = 1 sum sits at the
# overflow threshold or past it
column_values = st.one_of(
    magnitudes,
    st.just(math.inf),
    st.sampled_from([sys.float_info.max, 1e308, 7e307, 2.0**969, 2.0**969 - 2.0**916]),
)


@st.composite
def columns(draw):
    """Two to five equal-length columns, some rows all zeros."""
    m = draw(st.integers(2, 5))
    k = draw(st.integers(1, 12))
    cols = [draw(st.lists(column_values, min_size=k, max_size=k)) for _ in range(m)]
    for j in draw(st.sets(st.integers(0, k - 1))):
        for col in cols:
            col[j] = 0.0
    return cols


@pytest.mark.parametrize("q", [1, 1.5, 2, 3, "inf"])
@given(columns())
@example([[0.0, 0.0], [0.0, 1.0]])  # an all-zero row next to an ordinary one
@example([[math.inf, 1.0], [1e308, 0.0]])  # an infinite peak
@example([[1e308, 1.0], [1e308, 2.0]])  # a q = 1 row past the float range
@example([[sys.float_info.max], [2.0**969], [2.0**969 - 2.0**916]])  # fsum trips, sum fits
@settings(max_examples=200, deadline=None)
def test_combine_columns_is_the_per_row_combine_bit_for_bit(q, cols):
    exp = as_exponent(q)
    got = exp._combine_columns(cols)
    want = [exp._combine(list(row)) for row in zip(*cols)]
    assert hexed(got) == hexed(want)
    # The kernel reads tuples as readily as lists: the scan hands it tuples.
    assert exp._combine_columns([tuple(c) for c in cols]) == got


# --- the plane kernel ---------------------------------------------------------

signed_magnitudes = st.tuples(magnitudes, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])
plane_points = st.tuples(signed_magnitudes, signed_magnitudes)


@pytest.mark.parametrize("q", EXPONENTS + [7.0, 100.0])
@given(plane_points, plane_points)
@example((3.0, -1.5), (1.0, 0.5))  # equal gaps
@example((1e300, -1e300), (-1e300, 1e300))  # equal gaps at large magnitude
@example((2.5, 4.0), (2.5, 1.0))  # one zero gap
@example((2.5, 4.0), (-1.0, 4.0))  # the other zero gap
@example((1.0, -2.0), (1.0, -2.0))  # both gaps zero
@example((0.0, -0.0), (-0.0, 0.0))  # both gaps zero, signed zeros
@example((5e-324, 0.0), (0.0, 1e-310))  # subnormal gaps
@example((2.2250738585072014e-308, 3e-320), (0.0, -3e-320))  # subnormal and normal gaps
@settings(max_examples=200, deadline=None)
def test_plane_kernel_matches_textbook_formula_bit_for_bit(q, pa, pb):
    want = textbook_combine([abs(pa[0] - pb[0]), abs(pa[1] - pb[1])], q)
    space = LqSpace(as_exponent(q), 2)
    assert hexed(space._distance(pa, pb)) == hexed(want)
    assert hexed(space.distance(pa, pb)) == hexed(want)


# --- equal points -------------------------------------------------------------

# ordinary values, subnormals, signed zeros and the float maximum either way
kernel_coords = st.one_of(
    signed_magnitudes, st.sampled_from([-0.0, sys.float_info.max, -sys.float_info.max])
)


@pytest.mark.parametrize("dimension", [1, 2, 3, 7, 22])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, math.inf])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_kernel_is_plus_zero_on_equal_points_and_combines_the_gaps(q, dimension, data):
    space = LqSpace(as_exponent(q), dimension)
    points = st.lists(kernel_coords, min_size=dimension, max_size=dimension).map(tuple)
    pa = data.draw(points)
    flips = data.draw(st.lists(st.booleans(), min_size=dimension, max_size=dimension))
    # Equal to pa, with some of its zeros flipped in sign.
    same = tuple(-c if flip and c == 0.0 else c for c, flip in zip(pa, flips))
    d = space._distance(pa, same)
    assert d == 0.0 and math.copysign(1.0, d) == 1.0
    pb = data.draw(st.one_of(st.just(same), points))
    want = space.q._combine([abs(x - y) for x, y in zip(pa, pb)])
    assert hexed(space._distance(pa, pb)) == hexed(want)
    assert hexed(space.distance(pa, pb)) == hexed(want)


@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [1.0, 2.0, 3.5, math.inf])
def test_every_kernel_is_plus_zero_on_equal_points_with_either_zero(q, dimension):
    # No kernel tests its points for equality: equal points give only 0.0
    # gaps, and each kernel's zero peak, max or fsum of them is +0.0. Every
    # pair of points equal up to the signs of their zeros, on zeros alone
    # and after a first coordinate of every kind.
    space = LqSpace(as_exponent(q), dimension)
    zeros = list(itertools.product((0.0, -0.0), repeat=dimension))
    big = sys.float_info.max
    for head in (None, 1.5, -5e-324, big, -big):
        for za, zb in itertools.product(zeros, repeat=2):
            pa, pb = (za, zb) if head is None else ((head, *za[1:]), (head, *zb[1:]))
            d = space._distance(pa, pb)
            assert d == 0.0 and math.copysign(1.0, d) == 1.0, (pa, pb)


@pytest.mark.parametrize("dimension", [3, 4, 13, 22])
@pytest.mark.parametrize("q", [1.25, 3.5, 40.0])
@given(data=st.data())
@example(data=None)
@settings(max_examples=60, deadline=None)
def test_fused_power_kernel_is_the_combine_of_the_gaps_bit_for_bit(q, dimension, data):
    # From three dimensions up, 1 < q < inf binds the three-coordinate
    # kernel at dimension 3 and the exponent's _combine of the gaps from 4
    # up. Each must give the bits of that _combine, off the q
    # grid above too, at the float maximum (gaps that overflow to inf or
    # equal the peak) and on equal points written with either zero. The
    # seeded pairs, coordinates of every scale and sign, are many enough
    # that a plain sum in place of fsum rounds differently on some.
    space = LqSpace(as_exponent(q), dimension)
    if dimension == 3:
        assert space._distance.func is _space_gap
    else:
        assert space._distance.func is _combined_gaps
        assert space._distance.args == (space.q._combine,)
    big = sys.float_info.max
    if data is None:
        pairs = [
            ((big,) * dimension, (-big,) * dimension),
            ((big, -big, *[0.0] * (dimension - 2)), (0.0, 0.0, *[-0.0] * (dimension - 2))),
            ((0.0, -0.0) * (dimension // 2) + (0.0,) * (dimension % 2), (-0.0,) * dimension),
            ((big, *[1.0] * (dimension - 1)), (0.0, *[-1.0] * (dimension - 1))),
        ]
        rng = random.Random(f"{q}:{dimension}")

        def coordinate():
            return rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-300, 307)

        for _ in range(2_000):
            pairs.append(tuple(tuple(coordinate() for _ in range(dimension)) for _ in "ab"))
    else:
        points = st.lists(kernel_coords, min_size=dimension, max_size=dimension).map(tuple)
        pa = data.draw(points)
        flips = data.draw(st.lists(st.booleans(), min_size=dimension, max_size=dimension))
        same = tuple(-c if flip and c == 0.0 else c for c, flip in zip(pa, flips))
        pairs = [(pa, same), (pa, data.draw(points))]
    for pa, pb in pairs:
        want = space.q._combine([abs(x - y) for x, y in zip(pa, pb)])
        assert hexed(space._distance(pa, pb)) == hexed(want)
        assert hexed(space.distance(pa, pb)) == hexed(want)
        if pa == pb:
            assert math.copysign(1.0, space._distance(pa, pb)) == 1.0


space_points = st.tuples(kernel_coords, kernel_coords, kernel_coords)


def _space_gap_pairs():
    """Three-coordinate pairs at the edges of the float range: the float
    maximum either way (gaps that overflow to inf, or a peak they equal),
    subnormal gaps, signed zeros, equal points and peak ties of two and
    three gaps; then 2 000 seeded pairs of every scale and sign."""
    big, tiny, least = sys.float_info.max, 5e-324, 2.2250738585072014e-308
    pairs = [
        ((big, big, big), (-big, -big, -big)),
        ((big, -big, 0.0), (0.0, 0.0, -0.0)),
        ((big, 1.0, -1.0), (0.0, -1.0, 1.0)),
        ((big, 0.0, 0.0), (big, -0.0, 0.0)),
        ((tiny, -tiny, 0.0), (0.0, 0.0, tiny)),
        ((least, 3e-320, -tiny), (0.0, -3e-320, tiny)),
        ((0.0, -0.0, 0.0), (-0.0, 0.0, -0.0)),
        ((1.5, -2.0, 7.0), (1.5, -2.0, 7.0)),
        ((1.0, -1.0, 0.25), (-1.0, 1.0, 0.0)),
        ((3.0, 0.0, -3.0), (0.0, 3.0, 0.0)),
        ((1e300, -1e300, 1e300), (-1e300, 1e300, -1e300)),
        ((0.1, 0.2, 0.3), (0.3, 0.1, 0.2)),
    ]
    rng = random.Random("space-gap")

    def coordinate():
        return rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-320, 307)

    for _ in range(2_000):
        pairs.append(tuple(tuple(coordinate() for _ in range(3)) for _ in "ab"))
    return pairs


@pytest.mark.parametrize("q", [1.25, 1.5, 2.0, 3.0, 3.5, 40.0])
@given(pa=space_points, pb=space_points)
@example(pa=None, pb=None)
@settings(max_examples=200, deadline=None)
def test_three_coordinate_kernel_is_the_general_power_kernel_bit_for_bit(q, pa, pb):
    # The three-coordinate kernel repeats the operations of the exponent's
    # _combine of the gaps in its order, so both give the same bits on every
    # pair, in either order; a plain sum in place of fsum rounds differently
    # on some seeded pairs.
    exp = as_exponent(q)
    power, inv = exp._power, exp._inv
    pairs = _space_gap_pairs() if pa is None else [(pa, pb)]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            want = _combined_gaps(exp._combine, x, y)
            assert hexed(_space_gap(power, inv, x, y)) == hexed(want), (x, y)


# --- the first-coordinate gap bound --------------------------------------------


@pytest.mark.parametrize("dimension", [1, 2, 3, 4, 13, 22])
@pytest.mark.parametrize("q", [1.0, 1.25, 2.0, 3.5, 40.0, math.inf])
@given(data=st.data())
@example(data=None)
@settings(max_examples=60, deadline=None)
def test_every_kernel_is_at_least_the_first_coordinate_gap(q, dimension, data):
    # The solver tail decides a drift check from abs(a[0] - b[0]) > tol
    # alone where the space vouches for this bound, so it must hold for the
    # computed values, not only for the exact norms: at the float maximum
    # (a first gap that overflows to inf, or that is the peak of an
    # overflowing power sum), for subnormal gaps, for a first gap far below
    # the others and for seeded pairs of every scale and sign.
    space = LqSpace(as_exponent(q), dimension)
    assert space._gap_bound
    big, tiny = sys.float_info.max, 5e-324
    rest = dimension - 1
    if data is None:
        pairs = [
            ((big, *[big] * rest), (-big, *[-big] * rest)),
            ((big, *[0.0] * rest), (0.0, *[-big] * rest)),
            ((tiny, *[1.0] * rest), (-tiny, *[-1e300] * rest)),
            ((2.2250738585072014e-308, *[tiny] * rest), (0.0, *[-tiny] * rest)),
            ((1.0, *[1.0] * rest), (1.0 - 2**-52, *[1.0 + 2**-52] * rest)),
            ((0.0, *[big] * rest), (-0.0, *[0.0] * rest)),
        ]
        rng = random.Random(f"gap:{q}:{dimension}")

        def coordinate():
            return rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-320, 308)

        for _ in range(2_000):
            pairs.append(tuple(tuple(coordinate() for _ in range(dimension)) for _ in "ab"))
    else:
        points = st.lists(kernel_coords, min_size=dimension, max_size=dimension).map(tuple)
        pairs = [(data.draw(points), data.draw(points))]
    for pa, pb in pairs:
        gap = abs(pa[0] - pb[0])
        assert space._distance(pa, pb) >= gap and space._distance(pb, pa) >= gap, (pa, pb)


# A (q, dimension) at which LqSpace binds each kernel it chooses.
_KERNEL_AT = {
    "_line_gap": (2.0, 1),
    "_combined_gaps": (1.0, 3),
    "_plane_gap": (2.0, 2),
    "_space_gap": (3.0, 3),
}
# Each kernel at its (q, dimension), then the max of the gaps that
# _combined_gaps takes for q = inf from dimension 2 up.
_SYMMETRY_CASES = [
    *[pytest.param(k, *_KERNEL_AT[k.__name__], id=k.__name__) for k in _GAP_KERNELS],
    *[pytest.param(_combined_gaps, math.inf, d, id=f"_combined_gaps-inf-{d}") for d in (2, 3, 7)],
]


@pytest.mark.parametrize("kernel, q, dimension", _SYMMETRY_CASES)
@given(data=st.data())
@example(data=None)
@settings(max_examples=100, deadline=None)
def test_every_gap_bound_kernel_is_symmetric_bit_for_bit(kernel, q, dimension, data):
    # trace_rows takes a two-region trace's wrap d(x_{2n+1}, x_{2n}) from
    # the step d(x_{2n}, x_{2n+1}) where the space vouches for the gap
    # bound, so each kernel must give the same bits in both argument
    # orders: on signed zeros, subnormal gaps and gaps that overflow to inf.
    space = LqSpace(as_exponent(q), dimension)
    assert getattr(space._distance, "func", space._distance) is kernel
    big, tiny, rest = sys.float_info.max, 5e-324, dimension - 1
    if data is None:
        pairs = [
            ((big, *[-big] * rest), (-big, *[big] * rest)),
            ((0.0, *[-0.0] * rest), (-0.0, *[0.0] * rest)),
            ((tiny, *[-tiny] * rest), (-0.0, *[2.2250738585072014e-308] * rest)),
            ((1.0, *[big] * rest), (-big, *[-1e-300] * rest)),
        ]
    else:
        points = st.lists(kernel_coords, min_size=dimension, max_size=dimension).map(tuple)
        pairs = [(data.draw(points), data.draw(points))]
    for pa, pb in pairs:
        assert hexed(space._distance(pa, pb)) == hexed(space._distance(pb, pa)), (pa, pb)


def test_only_the_kernels_lq_space_chooses_vouch_for_the_gap_bound():
    # tests/test_orbit.py checks a subclass with a kernel of its own.
    for q in (1, 1.5, 2, 3, math.inf):
        for dimension in (1, 2, 3):
            space = LqSpace(as_exponent(q), dimension)
            assert space._gap_bound is True
            assert dataclasses.replace(space, dimension=dimension + 1)._gap_bound is True
            kernel = space._distance
            object.__setattr__(space, "_distance", lambda pa, pb: kernel(pa, pb))
            assert space._gap_bound is False
    assert OracleSpace(lambda a, b: abs(a[0] - b[0]), 1)._gap_bound is False


def test_domain_is_a_value_record_with_the_dataclass_repr():
    assert repr(Domain(2, 16, "[]", integer=True)) == (
        "Domain(low=2, high=16, ends='[]', integer=True, note=None, "
        "read=<class 'float'>, strings=True)"
    )
    assert Domain(0, 1) == ALPHA and hash(Domain(0, 1)) == hash(ALPHA)
    assert Domain(0, 1, note="alpha^m < 1/2") != ALPHA
    assert pickle.loads(pickle.dumps(ALPHA)) == ALPHA
    with pytest.raises(AttributeError):
        ALPHA.low = 0.5
    with pytest.raises(AttributeError):
        del ALPHA.note


def test_oracle_space_compares_by_oracle_and_dimension():
    space = OracleSpace(math.dist, 2)
    assert space == OracleSpace(math.dist, 2) and hash(space) == hash(OracleSpace(math.dist, 2))
    assert space != OracleSpace(math.dist, 3) and space != OracleSpace(max, 2)
    assert repr(space) == f"OracleSpace(oracle={math.dist!r}, dimension=2)"
    with pytest.raises(AttributeError):
        space.dimension = 3
