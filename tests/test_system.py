import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import proxcycle.system as system_module
from proxcycle.chains import chain_set_distance
from proxcycle.gallery import (
    attainment_gap,
    make_affine_strip,
    make_kirk_interval,
    make_paper_lq_family,
    make_scaled_pair,
)
from proxcycle.orbit import (
    banach_solve,
    periodic_point_solve,
    picard_orbit,
    proximity_chain_extract,
)
from proxcycle.spaces import (
    INFINITY,
    CapabilityError,
    Exponent,
    LqSpace,
    OracleSpace,
    Space,
    _value_repr,
    as_exponent,
    check_point,
    p_combine,
)
from proxcycle.system import (
    MEMBERSHIP_TOL,
    SAMPLE_BLOCK,
    Ball,
    Box,
    ContractionCertificate,
    CyclicSystem,
    FiniteCloud,
    LinearPhi,
    MapError,
    Phi,
    Region,
    TabulatedPhi,
    _as_returned,
    _draw,
    alpha_bound_check,
    contraction_margin,
    region_distance,
    validate_phi,
    verify_contraction,
    verify_cyclicity,
)
from reference import (
    CountingRandom,
    brute_force,
    certify_reference,
    counting,
    cyclicity_reference,
    exact_margin,
    hexed,
    margin_floor,
    margins_by_x_tuple,
    pair_margins,
    region_tuples,
    sampled_pairs,
    usable_tuples,
)

L2_1 = LqSpace(Exponent(2.0), 1)
L2_2 = LqSpace(Exponent(2.0), 2)


# --- regions ---------------------------------------------------------------


def test_membership_and_sampling():
    rng = random.Random(0)
    seg = Box((0.0, 0.0), (1.0, 0.0))  # a segment: one non-degenerate axis
    assert seg.contains((0.5, 0.0), L2_2)
    assert seg.contains((0.5, 5e-10), L2_2)  # within 1e-9 tolerance
    assert not seg.contains((0.5, 0.1), L2_2)
    for _ in range(20):
        assert seg.contains(seg.sample(rng), L2_2)

    ball = Ball((0.0, 0.0), 1.0)
    assert ball.contains((1.0, 0.0), L2_2)
    assert not ball.contains((1.1, 0.0), L2_2)
    for _ in range(20):
        assert ball.contains(ball.sample(rng), L2_2)

    fam = FiniteCloud(tuple((float(i), 0.0) for i in range(3)))
    assert fam.points == ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
    assert fam.contains((2.0, 0.0), L2_2)


@pytest.mark.parametrize(
    "region",
    [Box((0.0, 0.0), (1.0, 0.5)), Ball((0.5, 0.0), 1.0), FiniteCloud(((0.0, 0.0), (1.0, 1.0)))],
    ids=["box", "ball", "cloud"],
)
def test_contains_is_the_trusted_test_of_the_read_query(region):
    # Each shape states its test once, in _contains; Region.contains reads
    # the query and the tolerance in front of it.
    assert "contains" not in vars(type(region)) and "_contains" in vars(type(region))
    rng = random.Random(7)
    for _ in range(200):
        q = [rng.uniform(-1.0, 2.0), rng.choice((0.0, 0.5, 1.0, rng.uniform(-1.0, 2.0)))]
        for query in (tuple(q), q, [round(c) for c in q]):
            x = L2_2.point(query)
            assert region.contains(query, L2_2) is region._contains(x, L2_2, MEMBERSHIP_TOL)
            for tol in (1e-3, 0.25, 2.0):
                assert region.contains(query, L2_2, tol) is region._contains(x, L2_2, tol)


def test_region_distance_cases():
    # cloud vs cloud: exact min over pairs
    c1 = FiniteCloud(((0.0,), (0.5,)))
    c2 = FiniteCloud(((2.0,), (3.0,)))
    assert region_distance(L2_1, c1, c2) == 1.5

    # box vs box: coordinatewise interval gap through the norm
    b1 = Box((0.0, 0.0), (1.0, 1.0))
    b2 = Box((4.0, 5.0), (6.0, 7.0))
    assert region_distance(L2_2, b1, b2) == pytest.approx(5.0, abs=1e-12)

    # cloud vs box
    assert region_distance(L2_2, FiniteCloud(((2.0, 0.5),)), b1) == pytest.approx(
        1.0, abs=1e-12
    )

    # ball vs ball and ball vs cloud, l2 only
    s1 = Ball((0.0, 0.0), 1.0)
    s2 = Ball((5.0, 0.0), 1.0)
    assert region_distance(L2_2, s1, s2) == pytest.approx(3.0, abs=1e-12)
    assert region_distance(L2_2, s1, FiniteCloud(((3.0, 0.0),))) == pytest.approx(
        2.0, abs=1e-12
    )
    l1_2 = LqSpace(Exponent(1.0), 2)
    with pytest.raises(CapabilityError):
        region_distance(l1_2, s1, s2)

    # overlapping regions have distance 0
    assert region_distance(L2_2, s1, Ball((1.0, 0.0), 1.0)) == 0.0


@pytest.mark.parametrize("q", [1, 2, INFINITY])
def test_region_distances_past_the_float_range_are_inf(q):
    # The gaps themselves overflow: 1e308 - (-1e308) is inf. Box gaps are
    # combined as a distance's are, so the set distance is inf.
    space = LqSpace(as_exponent(q), 2)
    low = Box((-1e308, 0.0), (-1e308, 1.0))
    high = Box((1e308, 0.0), (1e308, 1.0))
    cloud = FiniteCloud(((-1e308, 0.0), (-1e308, 0.5)))
    for a, b in ((low, high), (high, low), (cloud, high), (high, cloud)):
        assert region_distance(space, a, b) == math.inf
        assert chain_set_distance(space, (a, b), 2) == math.inf
        assert CyclicSystem(space, (a, b), lambda x: x).edge_distances == (math.inf, math.inf)
    if q == 2:
        ball = Ball((-1e308, 0.0), 1.0)
        assert region_distance(space, ball, high) == region_distance(space, high, ball) == math.inf
        assert CyclicSystem(space, (ball, high), lambda x: x).set_chain_distance(q) == math.inf


def _region_of(kind, dim):
    if kind == "cloud":
        return FiniteCloud(((5.0,) * dim, (7.0,) * dim))
    if kind == "box":
        return Box((0.0,) * dim, (1.0,) * dim)
    return Ball((-3.0,) * dim, 1.0)


@pytest.mark.parametrize("a_kind", ["cloud", "box", "ball"])
@pytest.mark.parametrize("b_kind", ["cloud", "box", "ball"])
def test_region_distance_refuses_regions_of_another_dimension(a_kind, b_kind):
    # Every pair of kinds meets one dimension check before its branch, which
    # would otherwise pair the coordinates by zip and drop the extra ones.
    for da, db in ((2, 1), (1, 2), (1, 1), (3, 3)):
        a, b = _region_of(a_kind, da), _region_of(b_kind, db)
        message = f"^dimension mismatch: space is 2-dimensional, regions have {da} and {db}$"
        with pytest.raises(ValueError, match=message):
            region_distance(L2_2, a, b)
    assert region_distance(L2_2, _region_of(a_kind, 2), _region_of(b_kind, 2)) >= 0.0
    # A 2-dimensional box against a 1-dimensional one measured 4.0 here.
    with pytest.raises(ValueError, match="space is 3-dimensional, regions have 2 and 1"):
        region_distance(LqSpace(2, 3), Box((0, 0), (1, 1)), Box((5,), (6,)))


REGION_KINDS = ("cloud", "box", "segment", "ball")
coordinates = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def regions(draw, kind, dim):
    point = st.tuples(*[coordinates] * dim)
    if kind == "cloud":
        return FiniteCloud(tuple(draw(st.lists(point, min_size=1, max_size=4))))
    if kind == "ball":
        return Ball(draw(point), draw(st.floats(min_value=0.1, max_value=5.0)))
    a, b = draw(point), draw(point)
    lower, upper = tuple(map(min, a, b)), tuple(map(max, a, b))
    if kind == "segment":  # a box with one non-degenerate axis
        axis = draw(st.integers(0, dim - 1))
        upper = tuple(hi if i == axis else lo for i, (lo, hi) in enumerate(zip(lower, upper)))
    return Box(lower, upper)


def clamp(x, box):
    """The point of ``box`` nearest to x in every l^q: clamp each coordinate."""
    return tuple(min(max(c, lo), hi) for c, lo, hi in zip(x, box.lower, box.upper))


@given(
    st.data(),
    st.sampled_from(list(itertools.product(REGION_KINDS, repeat=2))),
    st.integers(1, 3),
    st.sampled_from([1, 1.5, 2, 3.5, "inf"]),
)
@settings(max_examples=300, deadline=None)
def test_region_distance_bounds_sampled_pairs_and_matches_brute_force(data, kinds, dim, q):
    a = data.draw(regions(kinds[0], dim))
    b = data.draw(regions(kinds[1], dim))
    space = LqSpace(as_exponent(2 if "ball" in kinds else q), dim)
    exact = region_distance(space, a, b)
    rng = random.Random(0)
    for _ in range(40):
        d = space.distance(a.sample(rng), b.sample(rng))
        assert exact <= d + 1e-12 * (1.0 + d)
    if kinds == ("cloud", "cloud"):
        assert exact == min(space.distance(x, y) for x in a.points for y in b.points)
    elif "ball" not in kinds and "cloud" in kinds:
        cloud, box = (a, b) if kinds[0] == "cloud" else (b, a)
        assert exact == min(space.distance(x, clamp(x, box)) for x in cloud.points)
    elif "ball" not in kinds:
        # Two boxes: the corner of a nearest to b, and its clamp into b.
        x = tuple(min(max(lo, lo2), hi) for lo, hi, lo2 in zip(a.lower, a.upper, b.lower))
        assert exact == space.distance(x, clamp(x, b))


# --- phi --------------------------------------------------------------------


def test_linear_phi():
    phi = LinearPhi(0.3)
    assert phi(2.0) == pytest.approx(0.6)
    assert validate_phi(phi, [0.0, 1.0, 2.0]).ok
    with pytest.raises(ValueError):
        LinearPhi(1.0)
    with pytest.raises(ValueError):
        phi(-1.0)


def test_tabulated_phi_construction_and_extension():
    phi = TabulatedPhi(((0.0, 0.0), (1.0, 2.0), (2.0, 3.0)))
    assert phi(0.5) == pytest.approx(1.0)
    assert phi(3.0) == pytest.approx(4.0)  # last slope persists
    with pytest.raises(ValueError):
        TabulatedPhi(((0.0, 0.0), (1.0, 2.0), (2.0, 1.0)))  # values drop
    with pytest.raises(ValueError):
        TabulatedPhi(((0.5, 0.0), (1.0, 1.0)))  # first knot not at 0


# 0.0, a subnormal, values at, between and past the knots of the tabulated
# phis below, and 1e300, inf and NaN.
PHI_VALUES = (0.0, 5e-324, 0.25, 0.7, 1.0, 1.3, 2.0, 3.0, 7.5, 1e300, math.inf, math.nan)


def _assert_many_is_each_call(phi, ts):
    """``phi._many(ts)`` is ``[phi(t) for t in ts]`` bit for bit, and a
    negative value anywhere in the list raises ``phi(t)``'s ValueError."""
    ts = list(ts)
    assert hexed(phi._many(ts)) == hexed([phi(t) for t in ts])
    assert phi._many([]) == []
    with pytest.raises(ValueError) as refused:
        phi(-1e-300)
    for at in range(len(ts) + 1):
        with pytest.raises(ValueError) as err:
            phi._many([*ts[:at], -1e-300, *ts[at:]])
        assert str(err.value) == str(refused.value)
    with pytest.raises(ValueError, match="phi is defined on"):
        phi._many([math.nan, 1.0, -math.inf])


@pytest.mark.parametrize(
    "phi",
    [
        LinearPhi(0.3),
        TabulatedPhi(((0.0, 0.1), (0.7, 0.3), (2.0, 0.6))),
        # a flat last segment: phi(inf) is v1 + 0.0 * inf, NaN both ways
        TabulatedPhi(((0.0, 0.0), (1.0, 0.5), (2.0, 0.5))),
        TabulatedPhi(((0.0, 0.2), (1.0, 0.2), (1.3, 0.9), (3.0, 1.0))),
        # a first slope of 2e23, steep but finite: phi(5e-324) is 1e-300
        TabulatedPhi(((0.0, 0.0), (5e-324, 1e-300), (1.0, 2.0))),
    ],
    ids=repr,
)
def test_phi_many_is_phi_of_each_value(phi):
    _assert_many_is_each_call(phi, PHI_VALUES)
    if isinstance(phi, TabulatedPhi) and phi.knots[-1][1] == phi.knots[-2][1]:
        assert math.isnan(phi(math.inf)) and math.isnan(phi._many([math.inf])[0])


@st.composite
def knot_lists(draw):
    """Knots at 0 and then strictly increasing abscissae, with values that
    start at 0 or above and never fall."""
    n = draw(st.integers(2, 6))
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=n - 1, max_size=n - 1))
    rises = draw(st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n))
    return tuple(zip(itertools.accumulate([0.0, *steps]), itertools.accumulate(rises)))


@settings(max_examples=60, deadline=None)
@given(knots=knot_lists(), extra=st.lists(st.floats(0.0, 1e4), max_size=8))
def test_tabulated_phi_many_matches_each_call_on_drawn_knots(knots, extra):
    phi = TabulatedPhi(knots)
    at = [t for t, _ in knots]
    between = [(t1 + t2) / 2 for t1, t2 in zip(at, at[1:])]
    past = [at[-1] * 2 + 1.0]
    _assert_many_is_each_call(phi, [*at, *between, *past, *extra, *PHI_VALUES])
    _assert_many_is_each_call(LinearPhi(0.4), [*at, *extra, *PHI_VALUES])


def test_tabulated_phi_matches_direct_interpolation():
    knots = ((0.0, 0.1), (0.7, 0.35), (2.0, 0.6), (3.5, 1.9))
    phi = TabulatedPhi(knots)
    for t in (0.0, 0.3, 0.7, 1.1, 2.0, 3.49, 3.5, 7.25, 1e6):
        i = min(max(k for k, (tk, _) in enumerate(knots) if tk <= t), len(knots) - 2)
        (t1, v1), (t2, v2) = knots[i], knots[i + 1]
        assert phi(t) == v1 + (v2 - v1) / (t2 - t1) * (t - t1)
    assert phi == TabulatedPhi(knots) and hash(phi) == hash(TabulatedPhi(knots))


@st.composite
def lattice_knots(draw):
    """2-6 knots on the 1/64 lattice: abscissa steps of 1-640 units, value
    steps of 0-640 units and phi(0) in [0, 1]."""
    n = draw(st.integers(2, 6))
    steps = draw(st.lists(st.integers(1, 640), min_size=n - 1, max_size=n - 1))
    rises = draw(st.lists(st.integers(0, 640), min_size=n - 1, max_size=n - 1))
    ts = itertools.accumulate([0, *steps])
    vs = itertools.accumulate([draw(st.integers(0, 64)), *rises])
    return tuple((t / 64, v / 64) for t, v in zip(ts, vs))


@settings(max_examples=200, deadline=None)
@given(knots=lattice_knots())
@example(knots=((0.0, 0.25), (0.5, 0.25), (2.0, 1.0)))
@example(knots=((0.0, 0.0), (1.0, 0.5), (1.5, 0.5), (3.0, 2.0)))
@example(knots=((0.0, 0.0), (1.0, 0.5), (2.5, 0.5)))
def test_exact_phi_validity_is_validate_phi_on_the_lattice_grid(knots):
    # Exact validity against a dense grid, flat segments at the start, in
    # the middle and at the end (so also past the last knot) included: the
    # grid holds every multiple of 1/64 up to one past the last knot. A
    # float-spaced grid would not do, since the rounded slope can step back
    # by one ulp just below an interior knot: with the knots (0, 0),
    # (0.2, 1.7), (0.9, 3.9), (1.9, 4.9), phi(0.8999999999999999) is
    # 3.9000000000000004 > phi(0.9) = 3.9, yet phi is valid.
    phi = TabulatedPhi(knots)
    grid = [k / 64 for k in range(round(knots[-1][0] * 64) + 65)]
    assert phi._strictly_increasing() == validate_phi(phi, grid).ok


def test_validate_phi_rejects_constant():
    phi = TabulatedPhi(((0.0, 0.0), (1.0, 0.0)))
    report = validate_phi(phi, [0.0, 0.5, 1.0])
    assert not report.ok


class _Shifted(Phi):
    """t - 1: negative below 1."""

    def __call__(self, t):
        return t - 1.0


def test_validate_phi_reports_negative_values():
    report = validate_phi(_Shifted(), [0.0, 0.5, 2.0])
    assert not report.ok
    assert report.violations == (("negative", 0.0, -1.0), ("negative", 0.5, -0.5))


# --- cyclicity ---------------------------------------------------------------


def kirk_system():
    return make_kirk_interval(0.5).system


def test_verify_cyclicity_kirk_passes():
    assert verify_cyclicity(kirk_system(), seed=1).ok


def test_verify_cyclicity_identity_fails_with_witness():
    system = CyclicSystem(
        space=L2_1,
        regions=(Box((0.0,), (1.0,)), Box((2.0,), (3.0,))),
        map=lambda x: x,
    )
    report = verify_cyclicity(system, samples_per_region=50, seed=0)
    assert not report.ok
    region_idx, point, image = report.violations[0]
    assert region_idx == 0 and point == image


def test_verify_cyclicity_reports_truncation_artifact():
    gs = make_paper_lq_family(m=2, alpha=0.5, q=2, N=4)
    report = verify_cyclicity(gs.system, seed=0)
    assert report.ok
    assert report.artifacts  # boundary index skipped, not a violation


def _nan_at(*nan_points):
    """A metric on the line that is NaN to each of ``nan_points``."""

    def oracle(a, b):
        return math.nan if b in nan_points else abs(a[0] - b[0])

    return OracleSpace(oracle, 1)


def test_cloud_membership_is_the_minimum_rule_with_nan_distances():
    # min() keeps a NaN first distance, so the verdict is False, and passes
    # over a later one; stopping at the first point within tol must agree.
    points = ((0.0,), (1.0,), (2.0,), (3.0,))
    cloud = FiniteCloud(points)
    for nans in itertools.chain.from_iterable(
        itertools.combinations(points, k) for k in range(len(points) + 1)
    ):
        space = _nan_at(*nans)
        for query in ((0.0,), (1.0,), (2.5,), (3.0,), (9.0,)):
            want = min(space._distance(query, p) for p in points) <= 1e-9
            assert cloud.contains(query, space) is want, (nans, query)
    assert not cloud.contains((1.0,), _nan_at((0.0,)))
    assert cloud.contains((1.0,), _nan_at((2.0,)))


def test_verify_cyclicity_with_a_nan_first_distance_reports_every_point():
    cloud = FiniteCloud(((0.0,), (1.0,)))
    system = CyclicSystem(space=_nan_at((0.0,)), regions=(cloud, cloud), map=lambda x: x)
    report = verify_cyclicity(system)
    assert not report.ok and report.checked == 4
    assert report.violations == tuple((i, x, x) for i in (0, 1) for x in cloud.points)


def test_verify_cyclicity_passes_over_a_nan_later_distance():
    cloud = FiniteCloud(((1.0,), (0.0,)))
    system = CyclicSystem(space=_nan_at((0.0,)), regions=(cloud, cloud), map=lambda x: x)
    report = verify_cyclicity(system)
    assert not report.ok and report.checked == 4
    assert report.violations == ((0, (0.0,), (0.0,)), (1, (0.0,), (0.0,)))


def test_error_messages_stay_short_at_any_dimension():
    n = 10**5
    pt = (0.5,) * n
    space = LqSpace(Exponent(2.0), n)
    cloud = (FiniteCloud((pt,)),) * 2

    def boom(x):
        raise RuntimeError("boom")

    messages = []
    for image_map in (boom, lambda x: (math.nan,) * n):
        system = CyclicSystem(space=space, regions=cloud, map=image_map)
        with pytest.raises(MapError) as err:
            system.apply(pt)
        assert err.value.point == pt
        messages.append(str(err.value))
    wide = CyclicSystem(space=space, regions=cloud, map=lambda x: x + (0.0,))
    with pytest.raises(ValueError, match=f"{n + 1}-dimensional point") as err:
        wide.apply(pt)
    messages.append(str(err.value))
    with pytest.raises(ValueError, match=f"inf at index {n}") as err:
        check_point(pt + (math.inf,))
    messages.append(str(err.value))
    with pytest.raises(ValueError, match="nonnegative") as err:
        p_combine((-1.0,) * n, 2)
    messages.append(str(err.value))
    with pytest.raises(ValueError, match="not in the first region") as err:
        picard_orbit(wide, (2.0,) * n, 2)
    messages.append(str(err.value))
    assert all(len(m) < 1024 and "...; dimension 1000" in m for m in messages), messages


# --- contraction certification ----------------------------------------------


def test_verify_contraction_kirk_matches_grid_oracle():
    system = kirk_system()
    phi = LinearPhi(0.5)
    # the per-pair reference on a grid: both inequality sides from the public calls
    grid1 = [(-1.0 + 0.2 * i,) for i in range(6)]
    grid2 = [(0.2 * i,) for i in range(6)]
    tuples = list(itertools.product(grid1, grid2))
    assert system.set_chain_distance(1) == 0.0
    min_margin = certify_reference(system, phi, 1, itertools.product(tuples, tuples))[0]
    assert min_margin >= -1e-10

    cert = verify_contraction(system, phi, 1, tuple_samples=400, seed=0)
    assert cert.ok
    assert cert.min_margin >= -1e-10


def test_verify_contraction_rejects_identity():
    unit = Box((0.0,), (1.0,))
    system = CyclicSystem(space=L2_1, regions=(unit, unit), map=lambda x: x)
    cert = verify_contraction(system, LinearPhi(0.5), 1, tuple_samples=200, seed=0)
    assert not cert.ok
    assert cert.min_margin < -1e-10
    assert cert.witness_xs and cert.witness_ys


def test_witness_margin_reproduces():
    unit = Box((0.0,), (1.0,))
    system = CyclicSystem(space=L2_1, regions=(unit, unit), map=lambda x: x)
    phi = LinearPhi(0.5)
    cert = verify_contraction(system, phi, 1, tuple_samples=200, seed=0)
    again = contraction_margin(system, phi, 1, cert.witness_xs, cert.witness_ys)
    assert abs(again - cert.min_margin) <= 1e-14


def test_verify_contraction_family_exhaustive_p_inf():
    gs = make_paper_lq_family(m=2, alpha=0.5, q=2, N=4)
    cert = verify_contraction(gs.system, LinearPhi(0.5), INFINITY, seed=0)
    assert cert.exhaustive
    assert cert.ok
    assert cert.artifact_skips > 0


def test_smaller_alpha_also_passes():
    system = kirk_system()
    for alpha in (0.5, 0.25, 0.1):
        cert = verify_contraction(system, LinearPhi(alpha), 1, tuple_samples=200, seed=3)
        assert cert.ok, alpha


def test_phi_shift_leaves_margins_unchanged():
    # only phi differences at two arguments enter the inequality
    gs = make_paper_lq_family(m=2, alpha=0.5, q=2, N=3)
    base = TabulatedPhi(((0.0, 0.0), (1.0, 0.4), (4.0, 1.6)))
    shifted = TabulatedPhi(((0.0, 2.0), (1.0, 2.4), (4.0, 3.6)))
    c1 = verify_contraction(gs.system, base, 2, seed=0)
    c2 = verify_contraction(gs.system, shifted, 2, seed=0)
    assert c1.min_margin == pytest.approx(c2.min_margin, abs=1e-12)


def test_scaled_pair_far_apart_certifies():
    # Margins of a 1e8-sized problem sit at its rounding level (about -3e-8);
    # the tolerance must scale with the sides, not stay absolute.
    gs = make_scaled_pair(alpha=0.4, separation=1e8, dimension=3)
    cert = verify_contraction(gs.system, LinearPhi(0.4), 2, tuple_samples=500, seed=1)
    assert cert.min_margin < -1e-10
    assert cert.ok


def _assert_matches_reference(system, phis, ps, samples=None):
    """Every ``ContractionCertificate`` field of the exhaustive scan equals
    the per-pair brute force, or with ``samples`` that of the sampled scan
    the per-pair reference on the same pairs, each float by ``float.hex``."""
    for p, phi in itertools.product(ps, phis):
        cert = verify_contraction(system, phi, p, tuple_samples=samples or 500, seed=0)
        if samples is None:
            best, (wxs, wys), evaluated, skips, ok = brute_force(system, phi, p)
        else:
            pairs = sampled_pairs(system, samples, 0)
            best, (wxs, wys), evaluated, skips, ok = certify_reference(system, phi, p, pairs)
        want = ContractionCertificate(
            ok=ok,
            # With no pair evaluated the certificate reports NaN, not inf.
            min_margin=best if evaluated else math.nan,
            witness_xs=wxs,
            witness_ys=wys,
            set_chain_distance=system.set_chain_distance(p),
            p=as_exponent(p),
            evaluated=evaluated,
            exhaustive=samples is None,
            artifact_skips=skips,
        )
        for name in ContractionCertificate._fields:
            got, expected = getattr(cert, name), getattr(want, name)
            assert hexed(got) == hexed(expected), (name, p, phi)


PHIS = (LinearPhi(0.4), TabulatedPhi(((0.0, 0.1), (0.7, 0.3), (2.0, 0.6))))
# Four knots with slopes up to 0.6 = 1 - alpha at alpha 0.4.
KNOTS = TabulatedPhi(((0.0, 0.05), (0.5, 0.35), (1.5, 0.75), (3.0, 1.2)))


@pytest.mark.parametrize(
    "m,n,alpha", [(2, 3, 0.5), (3, 2, 0.5), (3, 2, 0.4)], ids=["2-3", "3-2", "3-2-0.4"]
)
@pytest.mark.parametrize("q", [1, 2, "inf"])
def test_exhaustive_certificate_matches_brute_force(m, n, alpha, q):
    system = make_paper_lq_family(m=m, alpha=alpha, q=q, N=n).system
    _assert_matches_reference(system, (*PHIS, KNOTS), (1, 2, 3.5, "inf"))


def _flip(x):
    return (-x[0],)


# x -> -x swaps the two clouds, and 1e308 - (-1e308) overflows: some pairs
# have d = inf, where d - phi(d) is inf - inf, a NaN margin, and one of them
# comes first in its block.
OVERFLOW = CyclicSystem(
    space=LqSpace(1, 1),
    regions=(
        FiniteCloud(((1e308,), (-1e308,), (0.0,))),
        FiniteCloud(((-1e308,), (1e308,), (0.0,))),
    ),
    map=_flip,
)

FINITE_CLOUD_SYSTEMS = {
    # one point per region: one tuple, so one pair in one block of one
    "one-tuple": CyclicSystem(
        space=L2_1, regions=(FiniteCloud(((1.0,),)), FiniteCloud(((-1.0,),))), map=_flip
    ),
    # one usable tuple left once the artifact points are skipped
    "one-usable-tuple": CyclicSystem(
        space=L2_2,
        regions=(
            FiniteCloud(((1.0, 0.0), (3.0, 0.0))),
            FiniteCloud(((-1.0, 0.0), (-3.0, 0.0))),
            FiniteCloud(((0.0, 2.0), (0.0, 5.0))),
        ),
        map=lambda x: (-0.5 * x[0], 0.5 * x[1]),
        artifact_points=((3.0, 0.0), (-3.0, 0.0), (0.0, 5.0)),
    ),
    # every tuple touches an artifact point: nothing is evaluated
    "all-skipped": CyclicSystem(
        space=L2_1,
        regions=(FiniteCloud(((1.0,), (2.0,))), FiniteCloud(((-1.0,),))),
        map=_flip,
        artifact_points=((-1.0,),),
    ),
    # artifact skips among evaluated pairs, three regions in the plane
    "artifacts": CyclicSystem(
        space=L2_2,
        regions=(
            FiniteCloud(((1.0, 0.0), (2.0, 0.5), (3.0, 0.0))),
            FiniteCloud(((0.0, 1.0), (0.5, 2.0))),
            FiniteCloud(((-1.0, -1.0), (-2.0, -1.5), (-3.0, -1.0))),
        ),
        map=lambda x: (0.5 * x[1], 0.5 * x[0]),
        artifact_points=((3.0, 0.0), (0.5, 2.0)),
    ),
    # equal points in neighbouring regions: all-zero rows in a block
    "zero-rows": CyclicSystem(
        space=LqSpace(2, 3),
        regions=(
            FiniteCloud(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))),
            FiniteCloud(((0.0, 0.0, 0.0), (0.0, 1.0, 0.0))),
        ),
        map=lambda x: (0.0, 0.0, 0.0),
    ),
    "overflow": OVERFLOW,
}


@pytest.mark.parametrize("name", sorted(FINITE_CLOUD_SYSTEMS))
def test_finite_cloud_certificates_match_brute_force(name):
    system = FINITE_CLOUD_SYSTEMS[name]
    _assert_matches_reference(system, PHIS, (1, 1.5, 2, 3, "inf"))


# Symmetric under (u, v) -> (u, -v), which maps x-tuple 1 to x-tuple 2: the
# least margin comes first in x-tuple 1, at y-tuple 5, after larger margins
# in x-tuple 0, and again in x-tuple 2, a tie on either side of the boundary
# between them; the witness is the first.
MIRROR = CyclicSystem(
    space=L2_2,
    regions=(
        FiniteCloud(((1.0, 1.0), (1.0, -1.0), (2.0, 0.0))),
        FiniteCloud(((-2.0, 0.0), (-1.0, -1.0), (-1.0, 1.0))),
    ),
    map=lambda x: (-0.5 * x[0], 0.5 * x[1]),
)

# As OVERFLOW, but at p = 2 and inf, where two terms of 1e308 do not
# overflow, the first NaN margin comes in x-tuple 2, after finite margins,
# and x-tuple 3 holds NaN margins too.
LATE_OVERFLOW = CyclicSystem(
    space=LqSpace(1, 1),
    regions=(
        FiniteCloud(((0.0,), (1e308,), (1.0,))),
        FiniteCloud(((0.0,), (-1.0,), (-1e308,))),
    ),
    map=_flip,
)

BLOCK_SYSTEMS = {
    "mirror": MIRROR,
    "late-overflow": LATE_OVERFLOW,
    "overflow": OVERFLOW,
    "artifacts": FINITE_CLOUD_SYSTEMS["artifacts"],
    "family": make_paper_lq_family(m=2, alpha=0.5, q=2, N=3).system,
}


def test_block_systems_place_a_tie_and_the_first_nan_at_x_tuple_boundaries():
    for phi, p in itertools.product(PHIS, (1, 2, "inf")):
        rows = margins_by_x_tuple(MIRROR, phi, p)
        least = min(min(row) for row in rows)
        assert [row.index(least) if least in row else None for row in rows[:3]] == [None, 5, 2]
        if p != 1:
            rows = margins_by_x_tuple(LATE_OVERFLOW, phi, p)
            assert [any(map(math.isnan, row)) for row in rows[:4]] == [False, False, True, True]


@pytest.mark.parametrize("name", sorted(BLOCK_SYSTEMS))
def test_exhaustive_blocks_of_any_size_match_brute_force(name, monkeypatch):
    # A block is max(1, EXHAUSTIVE_BLOCK // width) whole x-tuples, width
    # being the count of usable tuples. Every block size from one x-tuple to
    # all of them puts a boundary after every x-tuple, so it splits the
    # least margin, a tie and the first NaN margin from their neighbours,
    # and most sizes do not divide the x-tuple count. A block size below
    # the width reads one x-tuple per block.
    system = BLOCK_SYSTEMS[name]
    width = len(usable_tuples(system))
    for block in (1, width - 1, *(g * width for g in range(1, width + 2))):
        monkeypatch.setattr(system_module, "EXHAUSTIVE_BLOCK", block)
        _assert_matches_reference(system, PHIS, (1, 2, "inf"))


@pytest.mark.parametrize("q", [1, "inf"])
def test_exhaustive_blocks_of_the_default_size_match_brute_force(q):
    # 42 usable tuples: blocks of 1024 // 42 = 24 x-tuples, then 18.
    system = make_paper_lq_family(m=2, alpha=0.45, q=q, N=6).system
    n = len(usable_tuples(system))
    step = system_module.EXHAUSTIVE_BLOCK // n
    assert n == 42 and step > 1 and n % step
    _assert_matches_reference(system, PHIS, (1, 2.5, "inf"))


@given(
    m=st.integers(2, 3),
    N=st.integers(2, 3),
    alpha=st.floats(0.3, 0.6),
    share=st.floats(0.05, 1.0),
    p=st.sampled_from([1, "inf"]),
    q=st.sampled_from([1, "inf"]),
)
@settings(max_examples=16, deadline=None)
def test_the_floor_covers_the_rounding_of_exact_margins(m, N, alpha, share, p, q):
    # At p, q in {1, inf} a margin has an exact rational value over the
    # float points, their float images and the float set chain distance.
    # Every enumerated pair's computed margin, and the certificate's least
    # margin at its witness, is within the certificate's floor of it.
    system = make_paper_lq_family(m=m, alpha=alpha, q=q, N=N).system
    phi = LinearPhi(share * (1.0 - alpha))
    set_distance = system.set_chain_distance(p)
    tuples = usable_tuples(system)
    pairs = list(pair_margins(system, phi, p, itertools.product(tuples, tuples), set_distance))
    floor = margin_floor(m, [phi(set_distance), *(s for *_, sides in pairs for s in sides[:3])])
    for xs, ys, _ in pairs:
        computed = contraction_margin(system, phi, p, xs, ys, set_distance)
        exact = exact_margin(system, phi, p, xs, ys, set_distance)
        assert abs(Fraction(computed) - exact) <= -floor
    cert = verify_contraction(system, phi, p)
    assert cert.exhaustive and cert.evaluated == len(pairs)
    exact = exact_margin(system, phi, p, cert.witness_xs, cert.witness_ys, set_distance)
    assert abs(Fraction(cert.min_margin) - exact) <= -floor


# The map throws the two clouds 2e308 apart, so every lhs is inf while every
# d is finite: each margin is -inf, and none is NaN.
BLOWUP = CyclicSystem(
    space=LqSpace(1, 1),
    regions=(FiniteCloud(((-1.0,), (-2.0,))), FiniteCloud(((1.0,), (2.0,)))),
    map=lambda x: (-1e308 if x[0] < 0 else 1e308,),
)


@pytest.mark.parametrize("p", [1, 2, "inf"])
def test_an_infinite_side_does_not_pass_the_certificate(p):
    # Only an infinite S would make the floor -inf and let -inf through.
    cert = verify_contraction(BLOWUP, LinearPhi(0.5), p)
    assert cert.exhaustive and cert.evaluated == 16
    assert cert.min_margin == -math.inf
    assert not cert.ok


def _first_nan_pair(system, phi, p, pairs):
    pairs = list(pairs)
    margins = [contraction_margin(system, phi, p, xs, ys) for xs, ys in pairs]
    return pairs[[math.isnan(v) for v in margins].index(True)]


@pytest.mark.parametrize("p", [1, 2, "inf"])
def test_a_nan_margin_refutes_the_certificate(p):
    # d = inf makes d - phi(d) inf - inf: the inequality cannot be evaluated
    # there, so the first such pair is the witness and the certificate fails.
    tuples = region_tuples(OVERFLOW)
    cert = verify_contraction(OVERFLOW, LinearPhi(0.5), p)
    assert cert.exhaustive and cert.evaluated == 81
    assert math.isnan(cert.min_margin) and not cert.ok
    assert (cert.witness_xs, cert.witness_ys) == _first_nan_pair(
        OVERFLOW, LinearPhi(0.5), p, itertools.product(tuples, tuples)
    )
    # Every margin is NaN on the smallest such system.
    single = CyclicSystem(
        space=LqSpace(1, 1),
        regions=(FiniteCloud(((1e308,),)), FiniteCloud(((-1e308,),))),
        map=_flip,
    )
    cert = verify_contraction(single, LinearPhi(0.5), p)
    assert math.isnan(cert.min_margin) and not cert.ok and cert.evaluated == 1
    assert cert.witness_xs == cert.witness_ys == ((1e308,), (-1e308,))
    # The sampled scan: two balls 2e308 apart.
    balls = CyclicSystem(
        space=L2_1, regions=(Ball((1e308,), 1), Ball((-1e308,), 1)), map=_flip
    )
    cert = verify_contraction(balls, LinearPhi(0.5), p, tuple_samples=300, seed=2)
    assert not cert.exhaustive and cert.evaluated == 300
    assert math.isnan(cert.min_margin) and not cert.ok
    assert (cert.witness_xs, cert.witness_ys) == _first_nan_pair(
        balls, LinearPhi(0.5), p, sampled_pairs(balls, 300, 2)
    )


def _first_reached(system):
    """The usable points of an enumerable system in the order the pair
    enumeration first reaches them, each once."""
    tuples = usable_tuples(system)
    return list(dict.fromkeys(pt for xs in tuples for ys in tuples for pt in xs + ys))


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2)])
def test_exhaustive_scan_maps_each_usable_point_once_in_first_reach_order(m, n):
    family = make_paper_lq_family(m=m, alpha=0.5, q=2, N=n).system
    calls = []
    system = family.__replace__(map=counting(calls, family.map))
    cert = verify_contraction(system, LinearPhi(0.4), 2)
    assert cert.exhaustive and cert == verify_contraction(family, LinearPhi(0.4), 2)
    order = _first_reached(family)
    assert calls == order and len(set(order)) == len(order)
    assert not any(map(family.is_artifact, calls))
    # Two failing points: the one reached first is raised, with no step,
    # although the other comes first region by region.
    early = order[m]  # the second point of the last region
    late = next(x for x in family.regions[0].points[1:] if x in order)
    assert order.index(early) < order.index(late)

    def failing(x):
        if x in (early, late):
            raise RuntimeError("no image")
        return family.map(x)

    failing_system = family.__replace__(map=failing)
    with pytest.raises(MapError) as err:
        verify_contraction(failing_system, LinearPhi(0.4), 2)
    assert err.value.point == early and err.value.step is None


# --- alpha bound --------------------------------------------------------------


def test_alpha_bound_examples():
    assert alpha_bound_check(0.7, 2, 1).ok  # 0.49 < 0.5
    assert not alpha_bound_check(0.8, 2, 1).ok  # 0.64 >= 0.5
    assert alpha_bound_check(0.99, 3, INFINITY).ok


def test_alpha_bound_takes_a_cycle_length_past_the_float_range():
    # CYCLE_LENGTH takes the int as it is, and alpha^m is 0.0 there.
    for alpha in (0.5, 1 - 2 ** -53):
        for m in (2 ** 64, 10 ** 400):
            result = alpha_bound_check(alpha, m, 2)
            assert result.ok and result.value == 0.0
    assert alpha_bound_check(0.5, 3, 2).value == 0.125


SAMPLED_SYSTEMS = {
    "kirk": make_kirk_interval(alpha=0.4).system,
    "strip": make_affine_strip(alpha=0.3, h=1.5).system,
    "pair": make_scaled_pair(alpha=0.4, separation=2.0, dimension=3).system,
    "pair7": make_scaled_pair(alpha=0.4, separation=3.0, dimension=7).system,
    # Three balls on the line: each sample takes one gauss value, so which
    # one waits in gauss_next alternates from round to round.
    "balls1": CyclicSystem(
        space=L2_1,
        regions=(Ball((0.0,), 1.0), Ball((3.0,), 0.5), Ball((-2.0,), 1.5)),
        map=lambda x: (0.5 * x[0] + 1.0,),
    ),
    # A segment with a degenerate axis, a disc and a square.
    "mixed": CyclicSystem(
        space=L2_2,
        regions=(Box((0.0, 0.0), (1.0, 0.0)), Ball((0.5, 3.0), 1.0), Box((2.0, 2.0), (3.0, 3.0))),
        map=lambda x: (0.5 * x[1], 0.25 * x[0] + 1.0),
    ),
}


# paper_lq_family with m = 4 and N = 6: 7^4 tuples and 5.8e6 tuple pairs,
# past EXHAUSTIVE_LIMIT, so its clouds are sampled, one FiniteCloud.sample
# call at a time, and pairs touching the truncation stub are skipped.
SAMPLED_FAMILY = make_paper_lq_family(m=4, alpha=0.5, q=2, N=6).system


def _assert_sampled_matches_reference(system, phi, p, samples, seed):
    cert = verify_contraction(system, phi, p, tuple_samples=samples, seed=seed)
    assert not cert.exhaustive
    best, (wxs, wys), evaluated, skips, ok = certify_reference(
        system, phi, p, sampled_pairs(system, samples, seed)
    )
    assert cert.min_margin.hex() == (best if evaluated else math.nan).hex(), (p, phi)
    assert (cert.witness_xs, cert.witness_ys) == (wxs, wys), (p, phi)
    assert (cert.evaluated, cert.artifact_skips, cert.ok) == (evaluated, skips, ok), (p, phi)


@pytest.mark.parametrize("name", [*sorted(SAMPLED_SYSTEMS), "family"])
@pytest.mark.parametrize(
    "seed,samples", [(0, 150), (1, 150), (5, 150), (1, 300)], ids=["0", "1", "5", "1-300"]
)
def test_sampled_certificate_matches_per_pair_reference(name, seed, samples):
    system = SAMPLED_FAMILY if name == "family" else SAMPLED_SYSTEMS[name]
    phis = (LinearPhi(0.3), TabulatedPhi(((0.0, 0.1), (0.7, 0.3), (2.0, 0.6))))
    for p, phi in itertools.product((1, 2, 3.5, "inf"), phis):
        _assert_sampled_matches_reference(system, phi, p, samples, seed)


B = SAMPLE_BLOCK
# 40 x 40 tuples, too many pairs to enumerate. 36 of the 40 points of the
# left cloud are truncation stubs, so about one pair in a hundred is
# evaluated and the first block of seed 5 is skipped whole.
LEFT = tuple((-k / 40,) for k in range(1, 41))
SPARSE = CyclicSystem(
    space=L2_1,
    regions=(FiniteCloud(LEFT), FiniteCloud(tuple((-x,) for (x,) in LEFT))),
    map=lambda x: (-0.5 * x[0],),
    artifact_points=LEFT[4:],
)


@pytest.mark.parametrize("samples", [1, B - 1, B, B + 1, 2 * B + 1])
def test_block_scan_matches_per_pair_reference(samples):
    for name in sorted(SAMPLED_SYSTEMS):
        for p, phi in itertools.product((1, 2, "inf"), PHIS):
            _assert_sampled_matches_reference(SAMPLED_SYSTEMS[name], phi, p, samples, 3)
    for p in (1, "inf"):
        _assert_sampled_matches_reference(SPARSE, LinearPhi(0.4), p, samples, 5)


def test_sparse_system_skips_a_whole_block():
    usable = [
        not any(SPARSE.is_artifact(pt) for pt in xs + ys)
        for xs, ys in sampled_pairs(SPARSE, 2 * B + 1, 5)
    ]
    assert not any(usable[:B]) and any(usable[B:])


# A degenerate box whose one point is an artifact point: every sampled pair
# touches it, as every pair of "all-skipped" touches its cloud of artifact
# points only, so neither scan has a pair to fold.
STUB_BOX = CyclicSystem(
    space=L2_1,
    regions=(Box((1.0,), (2.0,)), Box((-0.5,), (-0.5,))),
    map=_flip,
    artifact_points=((-0.5,),),
)


@pytest.mark.parametrize("samples", [None, 1, B + 1])
def test_a_certificate_with_no_pair_to_fold_is_the_references(samples):
    system = FINITE_CLOUD_SYSTEMS["all-skipped"] if samples is None else STUB_BOX
    _assert_matches_reference(system, PHIS, (1, 2, "inf"), samples)
    cert = verify_contraction(system, PHIS[0], 2, tuple_samples=samples or 500)
    assert (cert.evaluated, math.isnan(cert.min_margin), cert.ok) == (0, True, False)
    assert cert.artifact_skips == (samples or 4)


class _ListBox(Box):
    def sample(self, rng):
        return list(super().sample(rng))


class _ZeroAt(random.Random):
    """``random.Random`` whose ``random()`` returns 0.0 at the draws in
    ``at``, counted from 1; the count is part of its state."""

    at: frozenset = frozenset()
    draws = 0

    def random(self):
        self.draws += 1
        x = super().random()
        return 0.0 if self.draws in self.at else x

    def getstate(self):
        return super().getstate(), self.draws

    def setstate(self, state):
        inner, self.draws = state
        super().setstate(inner)


def _zero_at(seed, draw):
    # Python 3.10's Random takes one constructor argument, also in a subclass.
    rng = _ZeroAt(seed)
    rng.at = frozenset((draw,))
    return rng


class _AsDrawn(Space):
    """A space of no one dimension that reads every point as it is, so
    that regions of any dimensions are drawn together and their samples
    come back from ``_draw`` as they were drawn."""

    dimension = 0

    def _as_read(self, points):
        return True


def _drawn(regions, rng, rounds):
    """The samples ``_draw`` draws, unread; it draws them all."""
    points, failure = _draw(_AsDrawn(), regions, rng, rounds)
    assert failure is None
    return points


def _assert_draws_as_samples(regions, rounds, make_rng, waiting):
    """The column drawer gives the per-sample draws bit for bit, as tuples,
    and leaves the generator in the same state, over two blocks."""
    draw, ref = make_rng(), make_rng()
    for rng in (draw, ref):
        for _ in range(waiting):
            rng.gauss(0.0, 1.0)
    for n in (rounds, rounds + 1):
        got = _drawn(regions, draw, n)
        want = [r.sample(ref) for _ in range(n) for r in regions]
        assert hexed(got) == hexed(want)
        assert all(type(pt) is tuple for pt in got)
        assert draw.getstate() == ref.getstate()


def _coordinate():
    return st.one_of(st.just(-0.0), st.floats(-10, 10, allow_nan=False))


@st.composite
def _box(draw):
    lower = draw(st.lists(_coordinate(), min_size=1, max_size=3))
    # A zero width is a degenerate axis, which draws nothing.
    width = st.sampled_from([0.0, 0.5, 2.0])
    widths = draw(st.lists(width, min_size=len(lower), max_size=len(lower)))
    return Box(tuple(lower), tuple(lo + w for lo, w in zip(lower, widths)))


@st.composite
def _ball(draw):
    dim = draw(st.sampled_from([1, 2, 3, 7]))
    center = draw(st.lists(_coordinate(), min_size=dim, max_size=dim))
    return Ball(tuple(center), draw(st.sampled_from([0.25, 1.0, 3.0])))


@given(
    regions=st.lists(st.one_of(_box(), _ball()), min_size=1, max_size=4),
    rounds=st.sampled_from([1, 2, 5, 2 * B - 1, 2 * B]),
    seed=st.integers(0, 2 ** 32),
    waiting=st.integers(0, 1),
    zero_at=st.one_of(st.none(), st.integers(1, 40)),
)
@settings(max_examples=200, deadline=None)
# Boxes whose axes are all degenerate: two rounds take no draw at all.
@example(
    regions=[Box((1.0, -0.0), (1.0, -0.0)), Box((2.5,), (2.5,))],
    rounds=2, seed=7, waiting=0, zero_at=None,
)
# A 1-d ball then a 3-d ball: the 3-d ball takes the gauss value the 1-d
# ball kept. With a second 1-d ball after them a round takes five gauss
# values, so the next round's first ball takes the value the last one kept.
@example(
    regions=[Ball((0.5,), 1.0), Ball((1.0, -1.0, 0.0), 2.0)],
    rounds=2 * B, seed=11, waiting=0, zero_at=None,
)
@example(
    regions=[Ball((0.5,), 1.0), Ball((1.0, -1.0, 0.0), 2.0), Ball((-3.0,), 0.25)],
    rounds=2 * B, seed=11, waiting=0, zero_at=None,
)
def test_column_draw_matches_per_sample_draws(regions, rounds, seed, waiting, zero_at):
    # ``waiting`` gauss values drawn first leave one in gauss_next; a draw
    # forced to 0.0 gives a zero gauss pair, and so a zero norm in a ball
    # whose values all come from that pair.
    if zero_at is None:
        make_rng = lambda: random.Random(seed)
    else:
        make_rng = lambda: _zero_at(seed, zero_at)
    _assert_draws_as_samples(tuple(regions), rounds, make_rng, waiting)


@pytest.mark.parametrize("waiting", [0, 1])
def test_column_draw_redraws_a_block_with_a_zero_norm(waiting):
    # Draw 2 is the radius half of the first gauss pair, drawn by the ball
    # or by the gauss call before it, whose kept half the ball then takes:
    # either way the ball on the line gets a zero direction and returns its
    # center, drawing no radius.
    ball = Ball((2.0,), 1.0)
    regions = (ball, Box((0.0, 1.0), (1.0, 1.0)), Ball((0.0, 0.0, 0.0), 2.0))
    rng = _zero_at(9, 2)
    for _ in range(waiting):
        rng.gauss(0.0, 1.0)
    assert _drawn(regions, rng, 3)[0] == ball.center
    _assert_draws_as_samples(regions, 3, lambda: _zero_at(9, 2), waiting)


def test_column_draw_redraws_an_even_block_whose_ball_has_a_zero_direction():
    # Draw 2 is the radius half of the first gauss pair: 0.0 there makes
    # both gauss values of a 2-d ball 0.0, so its direction is (0, 0) and
    # the ball returns its center, drawing no radius. The block of two
    # rounds is drawn in columns first, and that zero sends it back to the
    # per-sample draws from the state it started in.
    ball = Ball((1.0, -2.0), 0.5)
    draw, ref = _zero_at(11, 2), _zero_at(11, 2)
    got = _drawn((ball,), draw, 2)
    want = [ball.sample(ref) for _ in range(2)]
    assert got[0] == ball.center and hexed(got) == hexed(want)
    assert draw.getstate() == ref.getstate() and draw.draws == ref.draws == 5


def test_column_draw_returns_zero_gauss_values_as_gauss_does():
    # gauss returns 0.0 + z * 1.0, so a raw -0.0 comes back as 0.0, and
    # -0.0 + scale * 0.0 is 0.0 where -0.0 + scale * -0.0 would stay -0.0.
    # Draw 2 zeroes the first gauss pair of the ball, not its third value.
    ball = Ball((-0.0, -0.0, -0.0), 2.0)
    got = _drawn((ball,), _zero_at(4, 2), 1)
    assert hexed(got) == hexed([ball.sample(_zero_at(4, 2))])
    assert hexed(got)[0][:2] == ("0x0.0p+0", "0x0.0p+0")
    _assert_draws_as_samples((ball,), 3, lambda: _zero_at(4, 2), 0)


def test_gauss_values_are_returned_as_gauss_returns_them():
    # gauss(0.0, 1.0) returns 0.0 + z * 1.0; z * 1.0 is z bit for bit, so
    # the drawer's single addition gives the same bits.
    rng = random.Random(11)
    zs = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e308, -1e308]
    zs += [rng.gauss(0.0, 1.0) for _ in range(200)]
    assert hexed(_as_returned(zs)) == hexed([0.0 + z * 1.0 for z in zs])


@pytest.mark.parametrize("name", sorted(SAMPLED_SYSTEMS))
@pytest.mark.parametrize("rounds", [1, 2, 7, 2 * B])
@pytest.mark.parametrize("waiting", [0, 1])
def test_column_draw_makes_the_per_sample_random_calls_in_order(name, rounds, waiting):
    regions = SAMPLED_SYSTEMS[name].regions
    draw, ref = CountingRandom(5), CountingRandom(5)
    for rng in (draw, ref):
        for _ in range(waiting):
            rng.gauss(0.0, 1.0)
    got = _drawn(regions, draw, rounds)
    want = [r.sample(ref) for _ in range(rounds) for r in regions]
    assert hexed(got) == hexed(want)
    assert len(draw.calls) == len(ref.calls) > 0
    assert hexed(draw.calls) == hexed(ref.calls)


def test_only_exact_boxes_and_balls_are_drawn_by_columns(monkeypatch):
    # Column draws make no sample call; a block with a cloud or a subclass
    # of Box in it makes one per point, in draw order.
    sampled = []
    for cls in (Box, Ball, FiniteCloud):
        monkeypatch.setattr(
            cls, "sample", lambda self, rng, sample=cls.sample: sampled.append(self) or sample(self, rng)
        )
    kirk = SAMPLED_SYSTEMS["kirk"]
    for system in (kirk, SAMPLED_SYSTEMS["mixed"]):
        points, failure = _draw(system.space, system.regions, random.Random(1), 6)
        assert len(points) == 6 * system.m and failure is None and sampled == []
    cloud = kirk.regions + (FiniteCloud(((0.0,),)),)
    lists = tuple(_ListBox(r.lower, r.upper) for r in kirk.regions)
    for regions in (cloud, lists):
        sampled.clear()
        points, failure = _draw(kirk.space, regions, random.Random(1), 5)
        assert len(points) == 5 * len(regions) and failure is None
        assert sampled == list(regions) * 5


@pytest.mark.parametrize("name", ["balls1", "mixed", "pair"])
@pytest.mark.parametrize("rounds, waiting", [(5, 0), (6, 1), (5, 1)])
def test_odd_rounds_or_a_waiting_gauss_value_are_drawn_sample_by_sample(
    monkeypatch, name, rounds, waiting
):
    # Only an even number of rounds from a state with no gauss value
    # waiting is drawn by columns; any other block makes one sample call
    # per point, in draw order, with the per-sample bits and end state.
    regions = SAMPLED_SYSTEMS[name].regions
    draw, ref = random.Random(3), random.Random(3)
    for rng in (draw, ref):
        for _ in range(waiting):
            rng.gauss(0.0, 1.0)
    want = [r.sample(ref) for _ in range(rounds) for r in regions]
    sampled = []
    for cls in (Box, Ball):
        monkeypatch.setattr(
            cls, "sample", lambda self, rng, sample=cls.sample: sampled.append(self) or sample(self, rng)
        )
    got = _drawn(regions, draw, rounds)
    assert sampled == list(regions) * rounds
    assert hexed(got) == hexed(want)
    assert draw.getstate() == ref.getstate()


# 200 samples of a Box or a Ball are drawn by columns; 201 are an odd block,
# drawn sample by sample, and those of a 3-d Ball leave a gauss value
# waiting for the next region.
@pytest.mark.parametrize("name", sorted(SAMPLED_SYSTEMS))
@pytest.mark.parametrize("samples", [1, 7, 200, 201])
def test_verify_cyclicity_matches_per_sample_reference(name, samples):
    for seed in range(4):
        _assert_cyclicity_as_reference(SAMPLED_SYSTEMS[name], samples, seed)


def _assert_cyclicity_as_reference(system, samples, seed):
    """The report on ``system`` and on its regions under the identity map,
    which violates cyclicity at every sample of disjoint regions, so that
    the report lists the drawn points themselves, equal the reference's;
    returns the identity map's."""
    stuck = system.__replace__(map=lambda x: x)
    for tested in (system, stuck):
        report = verify_cyclicity(tested, samples_per_region=samples, seed=seed)
        want = cyclicity_reference(tested, samples, seed)
        assert report == want and repr(report) == repr(want)
    return report


@pytest.mark.parametrize("name", ["kirk", "pair", "mixed"])
@pytest.mark.parametrize("seed", [0, 3])
def test_verify_cyclicity_skips_drawn_artifact_points_as_the_reference_does(name, seed):
    # Every third drawn sample of every region is made an artifact point.
    system = SAMPLED_SYSTEMS[name]
    rng = random.Random(seed)
    drawn = [r.sample(rng) for r in system.regions for _ in range(30)]
    marked = system.__replace__(artifact_points=drawn[::3])
    report = _assert_cyclicity_as_reference(marked, 30, seed)
    assert len(report.artifacts) == len(drawn[::3]) and report.checked == len(drawn) - 10 * system.m


@pytest.mark.parametrize("m,q,N", [(2, 2, 4), (3, "inf", 3), (4, 1, 2)])
def test_verify_cyclicity_on_the_enumerable_family_is_the_reference(m, q, N):
    system = make_paper_lq_family(m=m, alpha=0.5, q=q, N=N).system
    report = _assert_cyclicity_as_reference(system, 5, 1)
    assert report.artifacts  # the truncation stub, skipped


def test_internal_callers_read_validated_points_with_the_trusted_methods(monkeypatch):
    # A system whose first region is a cloud and whose second is a box, with
    # an artifact point, built before the readers are watched.
    mixed = CyclicSystem(
        space=L2_1,
        regions=(FiniteCloud(((-1.0,), (-0.5,), (0.0,))), Box((0.0,), (1.0,))),
        map=lambda x: (-0.5 * x[0],),
        artifact_points=((0.0,),),
    )
    kirk, strip = make_kirk_interval(0.5), make_affine_strip(0.5, 1.0)
    lq, pair = make_paper_lq_family(m=2, N=3), make_scaled_pair(0.4, 2.0, 3)
    lists = CyclicSystem(
        space=kirk.system.space,
        regions=tuple(_ListBox(r.lower, r.upper) for r in kirk.system.regions),
        map=kirk.system.map,
    )
    reads, blocks = [], []
    read, as_read = Space.point, Space._as_read

    def counted(self, v, what="point"):
        reads.append(v)
        return read(self, v, what)

    def counted_block(self, points):
        blocks.append(list(points))
        return as_read(self, points)

    def refused(*args, **kwargs):
        raise AssertionError("a public reader was handed a validated point")

    monkeypatch.setattr(Space, "point", counted)
    monkeypatch.setattr(Space, "_as_read", counted_block)
    monkeypatch.setattr(Region, "contains", refused)
    monkeypatch.setattr(CyclicSystem, "apply", refused)
    monkeypatch.setattr(CyclicSystem, "is_artifact", refused)

    # Each region's drawn samples are read once, by one block read, and its
    # images by one more; cloud points are not read again.
    for system, samples in ((mixed, 7), (lq.system, 5), (pair.system, 6)):
        reads.clear()
        blocks.clear()
        verify_cyclicity(system, samples_per_region=samples, seed=3)
        rng, want = random.Random(3), []
        for region in system.regions:
            if isinstance(region, FiniteCloud):
                xs = region.points
            else:
                xs = [region.sample(rng) for _ in range(samples)]
                want.append(xs)
            want.append([system.map(x) for x in xs if not system._is_artifact(x)])
        assert reads == [] and blocks == want
    # Samples that are lists are not read as they are: one point read each.
    reads.clear()
    verify_cyclicity(lists, samples_per_region=6, seed=3)
    rng = random.Random(3)
    assert reads == [r.sample(rng) for r in lists.regions for _ in range(6)]
    reads.clear()
    assert attainment_gap(lq, 2) > 0.0 and reads == []

    # The solvers and picard_orbit read x0 and nothing else.
    for gs in (kirk, strip, pair, lq):
        x0 = gs.default_start
        reads.clear()
        picard_orbit(gs.system, x0, 40)
        banach_solve(gs.system, x0, max_iter=200)
        periodic_point_solve(gs.system, x0, max_iter=200)
        proximity_chain_extract(gs.system, x0, max_iter=200)
        assert reads == [x0] * 4
    assert banach_solve(kirk.system, kirk.default_start).converged
    assert periodic_point_solve(strip.system, strip.default_start).converged
    assert proximity_chain_extract(strip.system, strip.default_start).converged


def test_region_of_the_wrong_dimension_is_a_value_error_in_both_scans():
    # Both scans trust the region dimensions, which the system checks once
    # when it is built: a sampled (box) or enumerated (cloud) system with a
    # region of the wrong dimension is refused there, before any scan.
    def first_coordinate(x):
        return (x[0],)

    line, plane = Box((0.0,), (1.0,)), Box((0.0, 0.0), (1.0, 0.0))
    clouds = FiniteCloud(((0.0,), (1.0,))), FiniteCloud(((2.0, 5.0), (3.0, 5.0)))
    for regions, i in (((line, plane), 2), ((plane, line, line), 1), (clouds, 2)):
        message = f"^region {i} is 2-dimensional in a 1-dimensional space$"
        with pytest.raises(ValueError, match=message):
            CyclicSystem(space=L2_1, regions=regions, map=first_coordinate)
    system = CyclicSystem(space=L2_1, regions=(line, line), map=first_coordinate)
    with pytest.raises(ValueError, match="dimension"):
        contraction_margin(system, LinearPhi(0.5), 2, ((0.0,), (1.0, 0.0)), ((0.0,), (1.0,)))
    with pytest.raises(ValueError, match="chain lengths differ"):
        contraction_margin(system, LinearPhi(0.5), 2, ((0.0,), (1.0,)), ((0.0,), (1.0,), (0.5,)))


def test_regions_are_read_once_into_a_tuple():
    # A list, a tuple and an iterator of the same regions give equal
    # systems with equal hashes, and so do their traces.
    kirk = make_kirk_interval().system
    trace = picard_orbit(kirk, (-1.0,), 4)
    for regions in (list(kirk.regions), tuple(kirk.regions), iter(kirk.regions)):
        system = CyclicSystem(space=kirk.space, regions=regions, map=kirk.map)
        assert type(system.regions) is tuple
        assert system == kirk and hash(system) == hash(kirk)
        assert hash(picard_orbit(system, (-1.0,), 4)) == hash(trace)


TENTS = TabulatedPhi(((0, 0), (1, 1), (2, 4)))


def test_numbers_in_the_float_range_read_as_float_reads_them():
    big, third = 10**300, Fraction(1, 3)
    assert Exponent(big).value == float(big) and Exponent(Fraction(7, 2)).value == 3.5
    assert as_exponent(2) == Exponent(2.0) and as_exponent(math.inf) is INFINITY
    for p in (1, 2, 3.5, "inf"):
        got = p_combine([big, third, 2], p)
        assert float.hex(got) == float.hex(p_combine([float(big), float(third), 2.0], p))
    assert float.hex(LinearPhi(0.5)(big)) == float.hex(0.5 * float(big))
    assert float.hex(LinearPhi(0.5)(third)) == float.hex(0.5 * float(third))
    assert float.hex(TENTS(big)) == float.hex(1.0 + 3.0 * (float(big) - 1.0))
    assert float.hex(TENTS(third)) == float.hex(0.0 + 1.0 * (float(third) - 0.0))
    grid = [0, third, 2, big]
    assert validate_phi(TENTS, grid) == validate_phi(TENTS, list(map(float, grid)))


def test_box_coerces_and_compares_its_bounds():
    seg = Box((-3.0, 2.0), (1.0, 2.0))
    same = Box([-3, 2], [1, 2])
    assert same.lower == (-3.0, 2.0) and same.upper == (1.0, 2.0)
    assert same == seg and hash(same) == hash(seg)
    assert Box((-3.0, 2.0), (1.0, 3.0)) != seg


@pytest.mark.parametrize(
    "make",
    [
        lambda k: FiniteCloud(((0.0, k), (1.0, 2.0))),
        lambda k: Box((0.0, k), (1.0, 2.0)),
        lambda k: Ball((0.0, k), 1.0),
        lambda k: Ball((0.0, 1.0), 1.0 + k),
        lambda k: LinearPhi(0.25 + k / 4),
        lambda k: TabulatedPhi(((0.0, 0.0), (1.0, 0.5 + k / 4))),
    ],
    ids=["cloud", "box", "ball-center", "ball-radius", "linear", "tabulated"],
)
def test_regions_and_phis_compare_hash_and_pickle_by_value(make):
    value = make(1)
    assert value == make(1) and hash(value) == hash(make(1)) and value in {make(1)}
    assert value != make(0)
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and hash(copy) == hash(value) and repr(copy) == repr(value)
    with pytest.raises(AttributeError):
        value.anything = 1


def test_regions_of_different_kinds_are_not_equal():
    assert FiniteCloud(((0.0,),)) != Box((0.0,), (0.0,))
    assert LinearPhi(0.5) != TabulatedPhi(((0.0, 0.0), (1.0, 0.5)))


def test_reports_refuse_assignment():
    system = kirk_system()
    reports = [
        verify_cyclicity(system, samples_per_region=5),
        verify_contraction(system, LinearPhi(0.5), 2, tuple_samples=5),
        validate_phi(LinearPhi(0.5), [0.0, 1.0]),
        alpha_bound_check(0.5, 2, 2),
    ]
    for report in reports:
        with pytest.raises(AttributeError):
            report.ok = not report.ok
        with pytest.raises(AttributeError):
            del report.ok
        with pytest.raises(AttributeError):
            report.extra = 1


def test_record_reprs_keep_the_dataclass_format():
    cert = ContractionCertificate(True, 0.5, ((0.0,),), ((1.0,),), 0.0, Exponent(2.0), 1, True, 0)
    assert repr(cert) == (
        "ContractionCertificate(ok=True, min_margin=0.5, witness_xs=((0.0,),), "
        "witness_ys=((1.0,),), set_chain_distance=0.0, p=Exponent(2.0), evaluated=1, "
        "exhaustive=True, artifact_skips=0)"
    )
    # The knot abscissae kept for the interpolation stay out of the repr.
    assert repr(TabulatedPhi([[0, 0], [1, 2]])) == "TabulatedPhi(knots=((0.0, 0.0), (1.0, 2.0)))"
    assert repr(Box((0.0,), (1.0,))) == "Box(lower=(0.0,), upper=(1.0,))"


# --- refusals of ints too long for decimal text -------------------------------


def test_long_ints_and_fractions_show_as_they_did_up_to_2048_bits():
    short, long_ = 2**2048 - 1, 2**2048
    assert _value_repr(short) == repr(short) and _value_repr(-short) == repr(-short)
    assert _value_repr(long_) == "int of 2049 bits"
    assert _value_repr(Fraction(1, long_)) == "Fraction of 2049 bits"
    assert _value_repr(Fraction(short, 3)) == repr(Fraction(short, 3))
    for value in (True, 1.5, "1e3", None, 10**400):
        assert _value_repr(value) == repr(value)


# --- what a sampled certificate can miss --------------------------------------


def _edge_flip(x):
    # -x/2 on most of [-1, 1], but -x on the last 1% at either end: the
    # pairs that refute the contraction inequality sit in that thin band.
    return (-x[0],) if abs(x[0]) > 0.99 else (-x[0] / 2,)


@pytest.mark.parametrize(
    "pairs, ok, min_margin",
    [
        (500, True, 0.05401776379348244),
        (2_500, False, -0.06574673685067167),
        (5_000, False, -0.06574673685067167),
        (50_000, False, -0.18836614103428428),
    ],
)
def test_a_sampled_certificate_passes_until_it_draws_the_band_that_refutes_it(
    pairs, ok, min_margin
):
    # Kirk's regions under a map that is cyclic everywhere but expands on a
    # 1% band: 500 pairs miss the band and certify a false inequality.
    kirk = kirk_system()
    system = CyclicSystem(kirk.space, kirk.regions, _edge_flip)
    assert verify_cyclicity(system, seed=1).ok
    cert = verify_contraction(system, LinearPhi(0.1), 2, tuple_samples=pairs, seed=1)
    assert (cert.ok, cert.evaluated, float.hex(cert.min_margin)) == (
        ok, pairs, float.hex(min_margin)
    )
