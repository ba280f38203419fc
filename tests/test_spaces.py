import collections
import itertools
import math
import operator
import pickle
import random
import struct
import sys
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxcycle.spaces import (
    ALPHA,
    INFINITY,
    Domain,
    Exponent,
    LqSpace,
    OracleSpace,
    _GAP_KERNELS,
    _point_repr,
    as_exponent,
    check_point,
    p_combine,
    validate_metric,
)
from reference import Float, hexed, textbook_combine

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
    # points on a line, at its order (x, y, z) alone; past max_triples the
    # triples checked are a seeded sample of them, in the sample's order.
    space = OracleSpace(lambda a, b: (a[0] - b[0]) ** 2, 1)
    for points, max_triples in (([(0.0,), (1.0,), (2.0,), (3.0,), (5.0,)], 3),
                                ([(k / 4,) for k in range(40)], 2000)):
        for seed in (0, 1, 7):
            report = validate_metric(space, points, seed=seed, max_triples=max_triples)
            triples = list(itertools.combinations(points, 3))
            drawn = random.Random(seed).sample(triples, max_triples)
            assert [v[:3] for v in report.triangle_violations] == drawn


def test_validate_metric_never_lists_every_triple():
    # 120 points make 280 840 triples, 19 MiB as a list; 2 000 are checked.
    space = OracleSpace(lambda a, b: (a[0] - b[0]) ** 2, 1)
    points = [(float(k),) for k in range(120)]
    tracemalloc.start()
    try:
        report = validate_metric(space, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.triangle_violations) == 2000 and peak < 2**20


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
        other = space.__replace__(dimension=d)
        assert other == LqSpace(q, d)
        assert hexed(probe(other)) == hexed(probe(LqSpace(q, d)))


# --- the kernels LqSpace chooses, one table ------------------------------------

_BIG, _TINY, _LEAST = sys.float_info.max, 5e-324, 2.2250738585072014e-308
# Every finite float; Hypothesis draws zeros of either sign, subnormals and
# the float maximum either way among them.
coordinates = st.floats(allow_nan=False, allow_infinity=False)
# Every nonnegative float, inf included, for the combinations.
values = st.floats(min_value=0.0)


@st.composite
def columns(draw):
    """One to 25 equal-length columns of 25 values or fewer in all, some
    rows all zeros."""
    m = draw(st.integers(1, 25))
    k = draw(st.integers(1, 25 // m))
    flat = draw(st.lists(values, min_size=m * k, max_size=m * k))
    cols = [flat[i * k : (i + 1) * k] for i in range(m)]
    for j in draw(st.sets(st.integers(0, k - 1))):
        for col in cols:
            col[j] = 0.0
    return cols


Kernel = collections.namedtuple("Kernel", "kernel q dimension examples seeded")


def _rows(kernel, exponents, dimensions=(None,), examples=200, seeded=2000):
    return [Kernel(kernel, q, d, examples, seeded) for q in exponents for d in dimensions]


Q = (1.0, 1.25, 1.5, 2.0, 3.0, 3.5, 7.0, 40.0, 100.0, math.inf)
POWERS = Q[1:-1]
# Each row names one binding: the kernel LqSpace binds at (q, dimension),
# or, with no dimension, the exponent's _combine and _combine_columns.
# Every row checks its edge inputs, its seeded pairs and its Hypothesis
# examples, each input for every property the docstrings claim. The
# unrolled kernels, and the gaps' combination in the plane and 3-space, get
# the most examples; the lengths from 5 to 25 without a seeded row get a
# few each.
KERNELS = [
    *_rows("_line_gap", Q, [1], examples=100),
    *_rows("_plane_gap", POWERS, [2]),
    *_rows("_space_gap", POWERS, [3]),
    *_rows("_combined_gaps", [1.0, math.inf], [2, 3, 7]),
    *_rows("_combined_gaps", POWERS, [7], examples=60),
    *_rows("_combined_gaps", Q, [4, 13, 22], examples=60),
    *_rows("_combined_gaps", [1.0, 1.5, 2.0, 3.0, 3.5, math.inf],
           sorted({*range(5, 26)} - {7, 13, 22}), examples=10, seeded=0),
    # 512: a huge exponent on large values
    *_rows("_combine", (*Q, 512.0), seeded=0),
]

# Pairs at the edges of the float range: the float maximum either way
# (gaps that overflow to inf, or a peak they equal, or finite gaps whose
# combination overflows), subnormal gaps, signed zeros, equal points, peak
# ties and a first gap far below the rest. Each point is stretched to a
# row's dimension by repeating its last coordinate, or cut short.
EDGE_PAIRS = [
    ((_BIG, _BIG), (-_BIG, -_BIG)),
    ((_BIG, -_BIG), (-_BIG, _BIG)),
    ((_BIG, -_BIG, 0.0), (0.0, 0.0, -0.0)),
    ((_BIG, 1.0), (0.0, -1.0)),
    ((_BIG, 1.0, -1.0), (0.0, -1.0, 1.0)),
    ((_BIG, 0.0, 0.0), (_BIG, -0.0, 0.0)),
    ((_BIG, 0.0), (0.0, -_BIG)),
    ((0.0, _BIG), (-0.0, 0.0)),
    ((1.0, _BIG), (-_BIG, -1e-300)),
    ((-1e308, -0.0), (1e308, 0.0)),
    ((-0.0, -1e308, -0.0), (0.0, 1e308, 0.0)),
    ((-0.0, -0.0, -1e308), (0.0, 0.0, 1e308)),
    ((-1e308, -1e308), (1e308, 1e308)),
    ((1.7e308, 1.7e308), (0.0, 0.0)),
    ((1e300, -1e300), (-1e300, 1e300)),
    ((1e300, -1e300, 1e300), (-1e300, 1e300, -1e300)),
    ((_TINY, -_TINY), (-0.0, _LEAST)),
    ((_TINY, -_TINY, 0.0), (0.0, 0.0, _TINY)),
    ((_TINY, 1.0), (-_TINY, -1e300)),
    ((_LEAST, _TINY), (0.0, -_TINY)),
    ((_LEAST, 3e-320, -_TINY), (0.0, -3e-320, _TINY)),
    ((_TINY, 0.0), (0.0, 1e-310)),
    ((0.0, -0.0), (-0.0, 0.0)),
    ((1.0, -2.0), (1.0, -2.0)),
    ((1.5, -2.0, 7.0), (1.5, -2.0, 7.0)),
    ((3.0, -1.5), (1.0, 0.5)),
    ((2.5, 4.0), (2.5, 1.0)),
    ((2.5, 4.0), (-1.0, 4.0)),
    ((1.0, -1.0, 0.25), (-1.0, 1.0, 0.0)),
    ((3.0, 0.0, -3.0), (0.0, 3.0, 0.0)),
    ((0.1, 0.2, 0.3), (0.3, 0.1, 0.2)),
    ((1.0, 1.0), (1.0 - 2**-52, 1.0 + 2**-52)),
]
_HALF_MAX = _BIG / 2
# Value columns at the edges: an all-zero row next to an ordinary one, an
# infinite peak, q = 1 rows past the float range or just inside it where
# fsum's running partial overflows, large and tiny magnitudes, and the
# values at which a doubled value overflows.
EDGE_COLUMNS = [
    [[0.0, 0.0], [0.0, 1.0]],
    [[math.inf, 1.0], [1e308, 0.0]],
    [[1e308, 1.0], [1e308, 2.0]],
    [[_BIG], [2.0**969], [2.0**969 - 2.0**916]],
    [[1e308], [7e307]],
    [[1e300]] * 4,
    [[1e200], [1e200]],
    [[1e300, 5e-324, 1e-300], [1e300, 0.0, 1e300]],
    [[0.0, _TINY, _LEAST, _HALF_MAX, math.nextafter(_HALF_MAX, math.inf), _BIG, math.inf]] * 2,
]


def _edges(dimension):
    """``EDGE_PAIRS`` in ``dimension`` coordinates; then every two points
    equal up to the signs of their zeros, on zeros alone and after a first
    coordinate of every kind: zeros of every sign pattern up to four
    dimensions, and past four of one sign or of alternating signs."""
    pairs = [tuple((*p, *[p[-1]] * dimension)[:dimension] for p in pair) for pair in EDGE_PAIRS]
    if dimension <= 4:
        zeros = list(itertools.product((0.0, -0.0), repeat=dimension))
    else:
        zeros = [(0.0,) * dimension, (-0.0,) * dimension,
                 ((0.0, -0.0) * dimension)[:dimension], ((-0.0, 0.0) * dimension)[:dimension]]
    for head in (None, 1.5, -_TINY, _BIG, -_BIG):
        for za, zb in itertools.product(zeros, repeat=2):
            pairs.append((za, zb) if head is None else ((head, *za[1:]), (head, *zb[1:])))
    return pairs


# Sparse points, as paper_lq_family's scaled basis vectors: c_j e_j against
# c_k e_k on one axis or two, with c at the float maximum, on either side of
# 1 and subnormal, so that all gaps but one or two are the zeros that
# _combined_gaps drops before it combines.
SPARSE_DIMENSIONS = (4, 7, 13, 22)
_SPARSE_C = (_BIG, 1.0 - 2**-53, 1.0 + 2**-52, _TINY)


def _sparse(dimension):
    """c_j e_j against c_k e_k for j and k among four axes, equal and not,
    and c of ``_SPARSE_C``."""

    def basis(j, c):
        return tuple(c if i == j else 0.0 for i in range(dimension))

    axes = (0, 1, dimension // 2, dimension - 1)
    return [(basis(j, a), basis(k, b)) for j, k in itertools.product(axes, repeat=2)
            for a, b in itertools.product(_SPARSE_C, repeat=2)]


def _seeded(row):
    """``row.seeded`` pairs of finite coordinates drawn as random bit
    patterns, so of every scale and sign: enough that a plain sum in place
    of fsum rounds differently on some."""
    rng, d = random.Random(f"{row.q}:{row.dimension}"), row.dimension
    pairs = []
    while len(pairs) < row.seeded:
        v = struct.unpack(f"{2 * d}d", rng.randbytes(16 * d))
        if all(map(math.isfinite, v)):
            pairs.append((v[:d], v[d:]))
    return pairs


def _distance_holds(space, q, pair):
    """The reference's bits in both argument orders, through ``_distance``
    and the public ``distance``; the same bits against a point ``==`` to
    the first with its zeros' signs flipped, in either order; at least the
    first-coordinate gap; +0.0 between the two equal points; and exactly
    the first-coordinate gap between a and b's first coordinate on a's
    others, as they are and with the signs of the zeros flipped, in either
    order."""
    a, b = pair
    want = hexed(textbook_combine([abs(x - y) for x, y in zip(a, b)], q))
    same = tuple(-c if c == 0.0 else c for c in a)
    for x, y in ((a, b), (b, a), (same, b), (b, same)):
        assert hexed(space._distance(x, y)) == want, (x, y)
    assert hexed(space.distance(a, b)) == want == hexed(space.distance(b, a)), (a, b)
    assert space._distance(a, b) >= abs(a[0] - b[0]), (a, b)
    assert hexed(space._distance(a, same)) == hexed(space._distance(same, a)) == hexed(0.0), a
    gap, near = hexed(abs(a[0] - b[0])), (b[0], *a[1:])
    for flat in (near, tuple(-c if c == 0.0 else c for c in near)):
        assert hexed(space._distance(a, flat)) == gap == hexed(space._distance(flat, a)), (a, flat)


def _combination_holds(q, cols):
    """Each row's reference bits through ``p_combine`` and ``_combine``;
    ``_combine_columns`` of two or more columns, lists or tuples, is the
    per-row combination; and of a column and its copy, every row of one
    value e, is e times the combination of [1.0, 1.0], or at q = inf the
    column itself. Every column, and every row, is taken as that column."""
    exp = as_exponent(q)
    rows = list(zip(*cols))
    want = [hexed(textbook_combine(row, q)) for row in rows]
    assert [hexed(p_combine(row, q)) for row in rows] == want
    assert [hexed(exp._combine(row)) for row in rows] == want
    assert [hexed(exp._combine(list(row))) for row in rows] == want
    if len(cols) > 1:
        assert hexed(exp._combine_columns(cols)) == want
        assert hexed(exp._combine_columns([tuple(c) for c in cols])) == want
    for c in (*cols, *rows):
        got = exp._combine_columns([c, c])
        if exp.is_inf:
            assert all(map(operator.is_, got, c))
        else:
            assert hexed(got) == hexed([e * exp._combine([1.0, 1.0]) for e in c])


def _row_id(row):
    return "-".join(map(str, row[:3] if row.dimension else row[:2]))


@pytest.mark.parametrize("row", KERNELS, ids=_row_id)
def test_each_kernel_row_holds_on_every_input(row):
    if row.dimension is None:
        check, inputs, drawn = partial(_combination_holds, row.q), EDGE_COLUMNS, columns()
    else:
        space = LqSpace(as_exponent(row.q), row.dimension)
        check = partial(_distance_holds, space, row.q)
        inputs = _edges(row.dimension) + _seeded(row)
        if row.kernel == "_combined_gaps" and row.dimension in SPARSE_DIMENSIONS:
            inputs += _sparse(row.dimension)
        points = st.lists(coordinates, min_size=row.dimension, max_size=row.dimension).map(tuple)
        drawn = st.tuples(points, points)
    for x in inputs:
        check(x)

    @settings(max_examples=row.examples, deadline=None)
    @given(drawn)
    def each_drawn(x):
        check(x)

    each_drawn()


# The branches of LqSpace.__init__'s choice, each a rule on (q, dimension).
_BRANCHES = {
    "line": lambda q, d: d == 1,
    "q = 1": lambda q, d: q == 1.0 and d > 1,
    "q = inf": lambda q, d: q == math.inf and d > 1,
    "past three dimensions": lambda q, d: 1.0 < q < math.inf and d > 3,
    "plane": lambda q, d: 1.0 < q < math.inf and d == 2,
    "three dimensions": lambda q, d: 1.0 < q < math.inf and d == 3,
}


def test_every_kernel_and_branch_has_a_row_that_binds_its_kernel():
    distance_rows = [row for row in KERNELS if row.dimension]
    assert {k.__name__ for k in _GAP_KERNELS} <= {row.kernel for row in distance_rows}
    for name, rule in _BRANCHES.items():
        assert any(rule(row.q, row.dimension) for row in distance_rows), name
    # Each distance row's exponent has a combination row: its reference.
    assert {row.q for row in distance_rows} <= {row.q for row in KERNELS if not row.dimension}
    for row in distance_rows:
        q = as_exponent(row.q)
        kernel = LqSpace(q, row.dimension)._distance
        assert getattr(kernel, "func", kernel).__name__ == row.kernel, row
        args = {"_line_gap": (), "_combined_gaps": (q._combine,)}.get(row.kernel, (q._power, q._inv))
        assert getattr(kernel, "args", ()) == args, row


def test_only_the_kernels_lq_space_chooses_vouch_for_the_gap_bound():
    # tests/test_orbit.py checks a subclass with a kernel of its own.
    for q in (1, 1.5, 2, 3, math.inf):
        for dimension in (1, 2, 3):
            space = LqSpace(as_exponent(q), dimension)
            assert space._gap_bound is True
            assert space.__replace__(dimension=dimension + 1)._gap_bound is True
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
