import copy
import dataclasses
import inspect
import math
import operator
import pickle
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import proxcycle.cli  # defines ExperimentConfig, a record
from proxcycle.gallery import (
    GALLERY,
    GalleryEntry,
    GallerySpec,
    GallerySystem,
    _gallery,
    attainment_gap,
    build,
    list_gallery,
    make_affine_strip,
    make_kirk_interval,
    make_paper_lq_family,
    make_scaled_pair,
)
from proxcycle.orbit import banach_solve, periodic_point_solve, proximity_chain_extract
from proxcycle.spaces import ALPHA, INFINITY, Exponent, LqSpace, _Record
from proxcycle.system import (
    Box,
    CyclicSystem,
    LinearPhi,
    PhiReport,
    alpha_bound_check,
    verify_contraction,
    verify_cyclicity,
)
from reference import LISTING

ALL_IDS = tuple(sorted(GALLERY))


@pytest.fixture(scope="module", params=ALL_IDS)
def gallery_system(request):
    return build(request.param)


def test_every_system_is_cyclic(gallery_system):
    report = verify_cyclicity(gallery_system.system, samples_per_region=10_000, seed=0)
    assert report.ok, report.violations[:3]


def test_stored_set_distance_matches(gallery_system):
    for p in (1, 2, INFINITY):
        expected = gallery_system.expected_chain_distance(p)
        got = gallery_system.system.set_chain_distance(p)
        assert got == pytest.approx(expected, abs=1e-12), (gallery_system.spec.id, p)


def test_every_system_passes_its_certificate(gallery_system):
    phi = LinearPhi(gallery_system.certificate_alpha)
    for p in (1, 2, INFINITY):
        cert = verify_contraction(gallery_system.system, phi, p, tuple_samples=300, seed=1)
        assert cert.ok, (gallery_system.spec.id, p, cert.min_margin)


@pytest.mark.parametrize(
    "system_id,parameters",
    [
        *(("affine_strip", {"alpha": a, "h": h}) for a in (0.55, 0.8, 0.999999) for h in (0.5, 2.0)),
        ("affine_strip", {"alpha": 1e-17}),
        *(
            ("paper_lq_family", {"m": m, "N": 2, "q": q, "alpha": a})
            for m, a in ((2, 0.6), (2, 0.7), (3, 0.75), (4, 0.8))
            for q in (1, 2, "inf")
        ),
        ("paper_lq_family", {"m": 2, "N": 2, "alpha": 1e-17}),
    ],
)
def test_certificate_alpha_passes_on_either_side_of_one_half(system_id, parameters):
    # The closed forms of both systems allow phi slopes up to 1 - alpha, which
    # is below alpha past 1/2; 1.0 - alpha is 1.0 for alpha below 2^-54.
    gs = build(system_id, parameters)
    assert 0.0 < gs.certificate_alpha <= min(parameters["alpha"], 1.0 - parameters["alpha"])
    phi = LinearPhi(gs.certificate_alpha)
    for p in (1, 2, INFINITY):
        cert = verify_contraction(gs.system, phi, p, tuple_samples=300, seed=1)
        assert cert.ok, (system_id, parameters, p, cert.min_margin)


def test_attainable_solutions_reproduced(gallery_system):
    gs = gallery_system
    if not gs.attainable:
        result = proximity_chain_extract(gs.system, gs.default_start, tol=1e-10, max_iter=2000)
        assert not result.converged
        assert result.note is not None
        return
    if gs.system.set_chain_distance(2) <= 1e-10:
        solved = banach_solve(gs.system, gs.default_start, tol=1e-12)
    else:
        solved = periodic_point_solve(gs.system, gs.default_start, tol=1e-12)
    assert solved.converged
    err = gs.system.space.distance(solved.point, gs.expected_solution)
    assert err < 1e-8, (gs.spec.id, solved.point, gs.expected_solution)


def test_kirk_interval_basics():
    gs = make_kirk_interval(0.5)
    assert gs.system.set_chain_distance(1) == 0.0
    assert verify_contraction(gs.system, LinearPhi(0.5), 1, tuple_samples=300, seed=0).ok
    with pytest.raises(ValueError):
        make_kirk_interval(0.0)


def test_affine_strip_basics():
    gs = make_affine_strip(0.5, 2.0)
    assert gs.system.set_chain_distance(2) == pytest.approx(2.0 * math.sqrt(2), abs=1e-12)
    with pytest.raises(ValueError):
        make_affine_strip(0.5, 0.0)


def test_paper_family_construction():
    gs = make_paper_lq_family(m=2, alpha=0.5, q=2, N=4)
    assert alpha_bound_check(0.5, 2, 2).ok
    # each family point has norm 1 + alpha^k > 1
    for region in gs.system.regions:
        for pt in region.points:
            assert gs.system.space.norm(pt) > 1.0
    assert not gs.attainable
    with pytest.raises(ValueError):
        make_paper_lq_family(m=2, alpha=0.8, q=2, N=4)  # alpha^m >= 1/2
    with pytest.raises(ValueError):
        make_paper_lq_family(m=1, alpha=0.5, q=2, N=4)


def test_paper_family_gap_positive():
    gs = make_paper_lq_family(m=2, alpha=0.5, q=2, N=6)
    for p in (1, 2, INFINITY):
        assert attainment_gap(gs, p) > 0.0


def test_paper_family_map_rejects_foreign_points():
    gs = make_paper_lq_family(m=2, alpha=0.5, q=2, N=4)
    from proxcycle.system import MapError

    with pytest.raises(MapError):
        gs.system.apply((1.0,) * gs.system.space.dimension)


@pytest.mark.parametrize("m, q", [(2, 2), (3, "inf")])
def test_paper_family_map_table_matches_the_validating_path(m, q):
    # A tuple is looked up in the successor table; a list is unhashable and
    # a point perturbed by 1e-12 is not a key, so both take the validating path.
    gs = make_paper_lq_family(m=m, alpha=0.5, q=q, N=4)
    step = gs.system.map
    points = [pt for region in gs.system.regions for pt in region.points]
    assert len(points) == m * 5
    for pt in points:
        image = step(pt)
        assert type(image) is tuple and image == step(list(pt))
        assert step(tuple(c + 1e-12 if c else c for c in pt)) == image
        assert step(tuple(c - 1e-12 for c in pt)) == image
    # The truncation stub maps to itself, the very object, from the stub
    # itself, from an equal tuple and from a list.
    (stub,) = gs.system.artifact_points
    assert stub is points[-1]
    assert all(step(x) is stub for x in (stub, tuple(list(stub)), list(stub)))
    for foreign in [(1.0,) * len(points[0]), tuple(2.0 * c for c in points[0])]:
        with pytest.raises(ValueError, match="indexed family"):
            step(foreign)
        with pytest.raises(ValueError, match="indexed family"):
            step(list(foreign))


def test_scaled_pair_separation_zero_reduces_to_fixed_point():
    gs = make_scaled_pair(alpha=0.5, separation=0.0, dimension=2)
    solved = banach_solve(gs.system, gs.default_start, tol=1e-12)
    assert solved.converged
    assert gs.system.space.distance(solved.point, (0.0, 0.0)) < 1e-8


@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
@pytest.mark.parametrize("separation", [0.0, 1.3])
@pytest.mark.parametrize("first", [0.0, -0.0, -2.0])
def test_scaled_pair_map_is_the_textbook_formula_bit_for_bit(dimension, separation, first):
    # The reflection written out as the construction states it, sign of the
    # pull and all, followed for 10 000 steps: every coordinate keeps its
    # bits, the zero signs of a start on the axis included, in the unpacked
    # 2-d and 3-d maps and in the general one on each side of them.
    alpha = 0.25
    beta, half = 1.0 - alpha, separation / 2.0

    def textbook(x):
        shift = (1.0 - beta) * half * (1.0 if x[0] < 0 else -1.0 if x[0] > 0 else 0.0)
        return (-beta * x[0] + shift,) + tuple(-beta * c for c in x[1:])

    step = make_scaled_pair(alpha=alpha, separation=separation, dimension=dimension).system.map
    x = y = (first, *[0.5, -0.0, -7.25][: dimension - 1])
    for _ in range(10_000):
        x, y = step(x), textbook(y)
        assert [c.hex() for c in x] == [c.hex() for c in y]


@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
def test_scaled_pair_raw_map_scales_coordinates_of_any_number_type(dimension):
    # Every coordinate is scaled with the * operator, so a Fraction or an
    # int coordinate falls back to its own multiplication: the raw map gives
    # the float image of the point's float value, bit for bit, and never
    # NotImplemented.
    step = make_scaled_pair(dimension=dimension).system.map
    x = (Fraction(-3), Fraction(1, 2), 0, Fraction(-7, 4))[:dimension]
    image = step(x)
    assert all(type(c) is float for c in image)
    assert [c.hex() for c in image] == [c.hex() for c in step(tuple(map(float, x)))]
    assert build("scaled_pair").system.map((Fraction(-3), Fraction(1, 2), 0)) == (2.0, -0.25, -0.0)


def test_scaled_pair_dimension_one_matches_hand_construction():
    gs = make_scaled_pair(alpha=0.5, separation=2.0, dimension=1)
    # A1 = [-3, -1], A2 = [1, 3]; nearest points are -1 and 1
    result = proximity_chain_extract(gs.system, gs.default_start, tol=1e-12)
    assert result.converged
    assert result.chain[0][0] == pytest.approx(-1.0, abs=1e-8)
    assert result.chain[1][0] == pytest.approx(1.0, abs=1e-8)
    assert result.total_residual < 1e-6


def test_build_validates_ids_and_parameters():
    with pytest.raises(ValueError):
        build("unknown_system")
    with pytest.raises(ValueError):
        build("kirk_interval", {"beta": 0.5})
    gs = build("kirk_interval", {"alpha": 0.25})
    assert gs.spec.parameter_dict()["alpha"] == 0.25


def test_build_passes_on_a_type_error_from_inside_the_factory(monkeypatch):
    # A parameter of the wrong type is a ValueError (the contract's build
    # rows); a factory's own TypeError is a defect, and passes as it is.
    def broken(alpha):
        raise TypeError("a defect inside the factory")

    entry = replace(GALLERY["kirk_interval"], factory=broken)
    monkeypatch.setitem(GALLERY, "kirk_interval", entry)
    with pytest.raises(TypeError, match="a defect inside the factory"):
        build("kirk_interval", {"alpha": 0.25})


def test_list_gallery_pins_ids_descriptions_domains_and_defaults():
    assert list_gallery() == LISTING


def test_domains_read_values_as_before_and_record_them_in_the_spec():
    # Numeric strings read as numbers, q reads "inf" (or inf) as the
    # infinite exponent, and the spec holds the values read.
    assert make_affine_strip("0.25", 2).spec.parameter_dict() == {"alpha": 0.25, "h": 2.0}
    for q in ("inf", math.inf):
        gs = make_paper_lq_family(q=q)
        assert gs.spec.parameter_dict() == {"m": 2, "alpha": 0.5, "q": "inf", "N": 6}
        assert gs.system.space.q == INFINITY
    assert make_scaled_pair(separation=0).spec.parameters == (
        ("alpha", 0.5), ("dimension", 3), ("separation", 0.0),
    )


def test_size_caps_are_inclusive():
    gs = make_paper_lq_family(m=16, N=50)
    assert gs.system.space.dimension == 16 * 51 + 1
    assert make_scaled_pair(dimension=1000).system.space.dimension == 1000


@pytest.mark.parametrize("system_id", ALL_IDS)
def test_two_builds_give_equal_systems_but_for_their_maps(system_id):
    # Each build makes its map afresh, and functions compare by identity;
    # the space, the regions, the artifact points and the spec compare and
    # hash by value, so the systems are equal once they share a map.
    a, b = build(system_id), build(system_id)
    shared = replace(b.system, map=a.system.map)
    assert shared == a.system and hash(shared) == hash(a.system)
    assert replace(b, system=shared) == a
    assert a.spec == b.spec and hash(a.spec) == hash(b.spec)
    assert b.system != a.system and b != a


# --- binding a factory's arguments --------------------------------------------------


def test_factories_take_positional_and_keyword_arguments():
    assert make_affine_strip(0.25, 2.0).spec == make_affine_strip(h=2.0, alpha=0.25).spec
    assert make_paper_lq_family(3, 0.5, "inf").spec.parameter_dict() == {
        "m": 3, "alpha": 0.5, "q": "inf", "N": 6,
    }


@pytest.mark.parametrize(
    "make, args, kwargs, message",
    [
        (make_kirk_interval, (0.5, 0.3), {}, "too many positional arguments"),
        (make_kirk_interval, (), {"beta": 0.3}, "got an unexpected keyword argument 'beta'"),
        (make_kirk_interval, (0.5,), {"alpha": 0.4}, "multiple values for argument 'alpha'"),
        # inspect.Signature.bind's order: a clash before an extra argument.
        (make_kirk_interval, (0.5, 0.3), {"alpha": 0.4}, "multiple values for argument 'alpha'"),
        # A record binds its fields by the same rules.
        (PhiReport, (True, (), 1), {}, "too many positional arguments"),
        (PhiReport, (True, ()), {"bad": 1}, "got an unexpected keyword argument 'bad'"),
        (PhiReport, (True,), {"ok": False}, "multiple values for argument 'ok'"),
        (PhiReport, (True,), {}, "missing a required argument: 'violations'"),
        # ... and a missing argument before an extra one.
        (PhiReport, (), {"violations": (), "bad": 1}, "missing a required argument: 'ok'"),
    ],
)
def test_factories_refuse_bad_bindings_with_the_signature_messages(make, args, kwargs, message):
    with pytest.raises(TypeError) as err:
        make(*args, **kwargs)
    assert str(err.value) == message


# The records whose constructor is _Record's own, and the defaults of their fields.
SHARED_CONSTRUCTOR = {
    "AlphaBoundResult": {},
    "BoundednessReport": {},
    "ContractionCertificate": {},
    "CyclicityReport": {},
    "Domain": {"ends": "()", "integer": False, "note": None, "read": float, "strings": True},
    "ExperimentConfig": {"output_dir": None},
    "GalleryEntry": {},
    "GallerySpec": {},
    "GallerySystem": {"spec": None},
    "MetricReport": {},
    "PhiReport": {},
    "ProximityChainResult": {"note": None},
    "SolveResult": {"warnings": (), "proximity_residual": None},
}


def _shared_constructor_records():
    # By identity: _Walk has no __init__ of its own, but inherits OrbitTrace's.
    found, classes = {}, _Record.__subclasses__()
    while classes:
        cls = classes.pop()
        classes += cls.__subclasses__()
        if cls.__init__ is _Record.__init__ and cls.__module__.startswith("proxcycle."):
            found[cls.__name__] = cls
    return found


def test_the_shared_constructor_builds_exactly_the_plain_records():
    assert sorted(_shared_constructor_records()) == sorted(SHARED_CONSTRUCTOR)


@pytest.mark.parametrize("name", sorted(SHARED_CONSTRUCTOR))
def test_a_record_built_by_the_shared_constructor(name):
    cls, defaults = _shared_constructor_records()[name], SHARED_CONSTRUCTOR[name]
    fields = cls._fields
    values = {field: f"{name}.{field}" for field in fields}
    record = cls(*values.values())
    assert record == cls(**values) and hash(record) == hash(cls(**values))
    assert tuple(getattr(record, field) for field in fields) == tuple(values.values())
    required = {field: value for field, value in values.items() if field not in defaults}
    assert cls(**required) == cls(**required, **defaults)
    assert all(getattr(cls(**required), field) == value for field, value in defaults.items())
    copied = pickle.loads(pickle.dumps(record))
    assert copied == record and type(copied) is cls
    last = fields[-1]
    assert record.__replace__(**{last: "changed"}) == cls(**{**values, last: "changed"})
    shown = ", ".join(f"{field}={value!r}" for field, value in values.items())
    assert repr(record) == f"{name}({shown})"


def test_factory_signatures_show_through_the_checking_wrapper():
    signature = inspect.signature(make_paper_lq_family)
    assert [(p.name, p.default) for p in signature.parameters.values()] == [
        ("m", 2), ("alpha", 0.5), ("q", 2), ("N", 6),
    ]
    assert list(inspect.signature(make_kirk_interval).parameters) == ["alpha"]


def test_a_factory_parameter_without_a_default_is_refused_at_registration():
    def factory(alpha, h=1.0):
        raise AssertionError("never called")

    with pytest.raises(TypeError, match="^every parameter of factory needs a default$"):
        _gallery("no_default", "a parameter with no default", alpha=ALPHA, h=ALPHA)(factory)
    assert "no_default" not in GALLERY


# --- the records callers pass to dataclasses.replace --------------------------------


def _system(k):
    regions = (Box((-1.0,), (0.0,)), Box((0.0,), (1.0 + k,)))
    return CyclicSystem(LqSpace(Exponent(2.0), 1), regions, operator.neg)


def _gallery_system(k):
    spec = GallerySpec("kirk_interval", (("alpha", 0.5 + k / 4),))
    return GallerySystem(spec, _system(0), (0.0, 0.0), (0.0,), True, 0.5, 0.5, (-1.0,))


def test_a_gallery_system_is_built_in_repr_order_and_the_registry_sets_its_spec():
    spec = GallerySpec("kirk_interval", (("alpha", 0.5),))
    # spec is the first positional field, so the seven others and spec=
    # bind spec twice.
    with pytest.raises(TypeError) as err:
        GallerySystem(_system(0), (0.0, 0.0), (0.0,), True, 0.5, 0.5, (-1.0,), spec=spec)
    assert str(err.value) == "multiple values for argument 'spec'"
    raw, built = make_kirk_interval.__wrapped__(0.5), make_kirk_interval(0.5)
    assert raw.spec is None and built.spec == spec
    same = [name for name in GallerySystem._fields if name not in ("spec", "system")]
    assert [getattr(raw, name) for name in same] == [getattr(built, name) for name in same]
    assert raw.system.__replace__(map=built.system.map) == built.system


CONTRACT_RECORDS = {
    "Exponent": (lambda k: Exponent(2.0 + k), ("value",)),
    "LqSpace": (lambda k: LqSpace(Exponent(2.0), 2 + k), ("q", "dimension")),
    "CyclicSystem": (_system, ("space", "regions", "map", "artifact_points")),
    "GallerySystem": (
        _gallery_system,
        (
            "spec",
            "system",
            "edge_distances",
            "expected_solution",
            "attainable",
            "certificate_alpha",
            "step_factor",
            "default_start",
        ),
    ),
    "GalleryEntry": (
        lambda k: GalleryEntry(operator.neg, {"alpha": ALPHA}, f"entry {k}"),
        ("factory", "domains", "description"),
    ),
}


@pytest.mark.parametrize("name", sorted(CONTRACT_RECORDS))
def test_contract_records_are_value_records(name):
    make, fields = CONTRACT_RECORDS[name]
    value = make(0)
    assert value == make(0) and value != make(1) and value.__class__.__name__ == name
    if name == "GalleryEntry":
        with pytest.raises(TypeError):  # its domains are a dict
            hash(value)
    else:
        assert hash(value) == hash(make(0)) and value in {make(0)}
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    copied = pickle.loads(pickle.dumps(value))
    assert copied == value and repr(copied) == repr(value)


@pytest.mark.parametrize("name", sorted(CONTRACT_RECORDS))
def test_contract_records_still_work_with_dataclasses(name):
    make, fields = CONTRACT_RECORDS[name]
    value, other = make(0), make(1)
    cls = type(value)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(value)
    assert tuple(f.name for f in dataclasses.fields(value)) == fields
    assert tuple(f.name for f in dataclasses.fields(cls)) == fields
    # replace runs __init__ again, so a derived attribute is derived again.
    changed = {field: getattr(other, field) for field in fields}
    assert dataclasses.replace(value, **changed) == other
    assert dataclasses.replace(value) == value
    assert value.__replace__(**changed) == other
    if sys.version_info >= (3, 13):
        assert copy.replace(value, **changed) == other


def test_replacing_a_field_checks_and_derives_again():
    space = LqSpace(Exponent(2.0), 3)
    assert dataclasses.replace(space, q=Exponent(1.0)).distance((0, 0, 0), (1, 1, 1)) == 3.0
    with pytest.raises(ValueError, match="m >= 2 regions"):
        dataclasses.replace(_system(0), regions=(Box((0.0,), (1.0,)),))
    with pytest.raises(TypeError):
        dataclasses.replace(_system(0), edge_distances=(0.0, 0.0))
    assert dataclasses.asdict(LqSpace(Exponent(2.0), 3)) == {"q": {"value": 2.0}, "dimension": 3}


def test_contract_record_reprs_keep_the_dataclass_format():
    assert repr(Exponent(2.0)) == "Exponent(2.0)" and repr(INFINITY) == "Exponent(inf)"
    assert repr(LqSpace(Exponent(2.0), 3)) == "LqSpace(q=Exponent(2.0), dimension=3)"
    system = (
        "CyclicSystem(space=LqSpace(q=Exponent(2.0), dimension=1), "
        "regions=(Box(lower=(-1.0,), upper=(0.0,)), Box(lower=(0.0,), upper=(1.0,))), "
        f"map={operator.neg!r}, artifact_points=())"
    )
    assert repr(_system(0)) == system
    assert repr(_gallery_system(0)) == (
        "GallerySystem(spec=GallerySpec(id='kirk_interval', parameters=(('alpha', 0.5),)), "
        f"system={system}, edge_distances=(0.0, 0.0), expected_solution=(0.0,), "
        "attainable=True, certificate_alpha=0.5, step_factor=0.5, default_start=(-1.0,))"
    )
    assert repr(GalleryEntry(operator.neg, {}, "d")) == (
        f"GalleryEntry(factory={operator.neg!r}, domains={{}}, description='d')"
    )


def test_a_systems_edge_distances_are_measured_once_and_kept():
    system = make_kirk_interval(0.5).system
    assert system.edge_distances == (0.0, 0.0)
    assert system.edge_distances is system.edge_distances
    with pytest.raises(AttributeError):
        system.edge_distances = (1.0, 1.0)
