"""The fault table: every block path fails where its per-item reference fails;
and the agreement table: on a clean system it gives its reference's bits.

The fast paths that call a caller's map or draw region samples do so in
blocks: the orbit walk and the solver tails ``_CHUNK`` steps at a time, the
sampled scan ``SAMPLE_BLOCK`` pairs at a time, the exhaustive scan and
``verify_cyclicity`` one block of points each. Each promises to fail where a
one-point-at-a-time loop fails, and to read a converted image as that loop
reads it. A row of ``FAULTS`` is (path, faults, positions): one fault, or two
in one block, each put into a system at its position. The path runs on that
system and so does its per-item reference from ``reference``; the expected
outcome is the reference's, never typed in. The path raises what the
reference raises (its type, its whole message, a ``MapError``'s point and
step, and the very object where the system raised it), or returns the
reference's fields bit for bit and the clean run's others, with the clean
run's map calls, at most one refused chunk more per walk on an orbit. On a
sampling path the points it maps are the reference's, each once (a map that
raises has its block mapped again up to it), and with no bad image so are
those its membership tests see; where the map returns a bad image, the
reference's come first and then at most the other points of that image's
block, each once. A CLI row checks the exit code, the stderr line and that
no file is written.
"""

import collections
import itertools
import json
import math
from functools import cache, reduce

import pytest

import proxcycle.cli as cli
import proxcycle.system as system_module
from proxcycle.orbit import (
    _CHUNK, _record, banach_solve, periodic_point_solve, picard_orbit, proximity_chain_extract,
)
from proxcycle.spaces import LqSpace, OracleSpace, as_exponent
from proxcycle.system import SAMPLE_BLOCK as B
from proxcycle.system import (
    Box, ContractionCertificate, CyclicSystem, LinearPhi, MapError, TabulatedPhi,
    verify_contraction, verify_cyclicity,
)
from reference import (
    MARKED, RIVER_BETA, RIVER_H, RIVER_K, SAMPLED, STUB_FAMILIES, SYSTEMS, Float, broken_map,
    brute_force, built, certify_reference, counting, cyclicity_reference, fields_hex,
    mapped_build, no_image, per_step, per_step_fields, per_step_stop, sampled_pairs, typed_hex,
    usable_tuples,
)
from test_orbit import TRACES

# scaled_pair at separation 0 (PAIR, as a CLI config names it), in the plane
# and in 3-d: each solver stops near step 3 340, past step TAIL + 2 chunks +
# 1, and TAIL is past a recorded prefix of KEEP steps. Its maps and the plane
# and 3-d kernels unpack their points; a str or bytes of two digits is as
# long as a plane point.
PAIR = {"alpha": 0.002, "separation": 0.0, "dimension": 2}
ORBITS = ORBIT, ORBIT_3D = tuple(
    f"scaled_pair(alpha=0.002, separation=0.0, dimension={d})" for d in (2, 3))
SOLVERS = {
    "banach": (banach_solve, 2.5e-3),
    "periodic": (periodic_point_solve, 5e-6),
    "proximity": (proximity_chain_extract, 5e-6),
}
KEEP, BUDGET, TAIL = 1_100, 20_000, 1_200
# The exhaustive scan's system, and its 5 usable points in the order the
# pairs first reach them, the order the scan maps them in.
FAMILY = "paper_lq_family(m=2, N=2, q=2)"
ORDER = list(dict.fromkeys(x for xs in usable_tuples(built(FAMILY)[0]) for x in xs))
PHIS = {
    "0.5": LinearPhi(0.5), "0.4": LinearPhi(0.4), "0.3": LinearPhi(0.3),
    "tabulated": TabulatedPhi(((0.0, 0.1), (0.7, 0.3), (2.0, 0.6))),
    # Four knots with slopes up to 0.6 = 1 - alpha at alpha 0.4.
    "knots": TabulatedPhi(((0.0, 0.05), (0.5, 0.35), (1.5, 0.75), (3.0, 1.2))),
}
# What a path runs with, the fault rows' unless a row says otherwise: its
# start x0, walk length n, stop rule, the steps ``keep`` a walk start records,
# p, phi (a key of PHIS), samples, seed and EXHAUSTIVE_BLOCK (None: its own).
Args = collections.namedtuple("Args", "x0 n tol max_iter keep p phi samples seed block",
                              defaults=(None, 0, 0.0, BUDGET, KEEP, 2, "0.5", 0, 0, None))

# Each fault's value from the point x the map is given and the image y, or
# from the draw: a bad image, a converted one and a bad draw. "MapError" and
# "draw raises" raise their object in RAISED, the same one each time.
BAD = {
    "raises": lambda x, y: no_image(x),
    "nan": lambda x, y: (math.nan, *y[1:]),
    "None": lambda x, y: (None, *y[1:]),
    "past the float range": lambda x, y: (10**400, *y[1:]),
    "not a sequence": lambda x, y: y[0],
    "str": lambda x, y: "12",
    "bytes": lambda x, y: b"12",
    "bool coordinate": lambda x, y: (True, *y[1:]),
    "str coordinate": lambda x, y: ("1.5", *y[1:]),
    # x one coordinate longer: a zero step drift in x's coordinates
    "one dimension more": lambda x, y: (*x, 0.0),
    "one dimension less": lambda x, y: y[:-1],
    "MapError": None,
}
CONVERTED = {
    "list": lambda x, y: list(y),
    "ints": lambda x, y: tuple(int(c) if c.is_integer() else c for c in y),
    "float subclass": lambda x, y: tuple(map(Float, y)),
}
# Each converted image, from the step that maps a point on.
ONWARD = {f"{name} onward": convert for name, convert in CONVERTED.items()}
DRAWS = {
    "draw nan": lambda x, y: (math.nan,),
    "draw inf": lambda x, y: (math.inf,),
    "draw -inf": lambda x, y: (-math.inf,),
    "draw str": lambda x, y: "1",
    "draw raises": None,
}
PUT = BAD | CONVERTED | ONWARD | DRAWS
IMAGES = (*BAD, *CONVERTED)
RAISED = {"MapError": MapError("no image here", (0.25,), 7), "draw raises": LookupError("no draw")}


def put(name, x, y):
    if name in RAISED:
        raise RAISED[name].with_traceback(None)
    return PUT[name](x, y)


def faulted(raw, points, faults):
    """``raw`` with each image fault of ``faults`` put in at its point."""
    step = raw
    for point, name in zip(points, faults):
        if name in IMAGES:
            step = broken_map(step, point, lambda x, name=name: put(name, x, raw(x)))
        elif name in ONWARD:
            step = lambda x, inner=step, to=abs(point[0]), convert=PUT[name]: (
                convert(x, inner(x)) if abs(x[0]) <= to else inner(x)
            )
    return step


class Scripted(Box):
    """A box on the line whose j-th sample for a generator is (-(j + 1),)
    below 0 and (j + 1,) above, with a draw fault at j put in, or a
    converted one; its membership test records each point it is given."""

    def __init__(self, lower, upper, at, tested):
        super().__init__(lower, upper)
        object.__setattr__(self, "script", (at, tested, {}))

    def sample(self, rng):
        at, _, taken = self.script
        j = taken[rng] = taken.get(rng, -1) + 1
        draw, name = (-(j + 1.0) if self.lower[0] else j + 1.0,), at.get(j)
        # A bad image leaves the draw as it is; a converted one converts it.
        return draw if name is None or name in BAD else put(name, draw, draw)

    def _contains(self, x, space, tol):
        self.script[1].append(x)
        return super()._contains(x, space, tol)


@cache
def clean_walk(world):
    """x_0..x_10100 of the orbit with no fault, from x_0 = (-1, 0, ...):
    x_{k-1} is where the map takes a fault at step k."""
    return per_step(*built(world), 10_100)


def injected(world, faults, at, counted=True):
    """The system of ``world``, a name of ``SYSTEMS`` or "line", with
    faults[i] put in at position at[i], a step or a (region, sample) pair;
    the calls of its map, if ``counted``, and the points its membership
    tests see."""
    calls, tested = [], []
    count = counting if counted else lambda calls, step: step
    if world != "line":
        base = built(world)[0]
        points = [clean_walk(world)[k - 1] if world in ORBITS else ORDER[k[1]] for k in at]
        system = base.__replace__(map=count(calls, faulted(base.map, points, faults)))
    else:
        regions = [
            Scripted(*bounds, {j: f for (r, j), f in zip(at, faults) if r == i}, tested)
            for i, bounds in enumerate((((-2048.0,), (0.0,)), ((0.0,), (2048.0,))))
        ]
        points = [(-(j + 1.0),) if r == 0 else (j + 1.0,) for r, j in at]
        # Each image lies in the other region but that of (-1,), a violation.
        step = faulted(lambda x: (-x[0] / 2 - 1,), points, faults)
        system = CyclicSystem(LqSpace(as_exponent(2), 1), regions, count(calls, step))
    return system, calls, tested


def shown(value):
    """A result as the bits of its fields; a list of points as one field."""
    if isinstance(value, (list, tuple)):
        return {"points": typed_hex(value)}
    return value if isinstance(value, dict) else fields_hex(value)


def outcome(call):
    """The call's result as its fields' bits, or how it failed: the type,
    message, point and step of the exception, and the exception itself
    where the system raised it."""
    try:
        return shown(call())
    except Exception as exc:
        own = exc if any(exc is r for r in RAISED.values()) else None
        return type(exc), str(exc), getattr(exc, "point", None), getattr(exc, "step", None), own


def certified(system, a, exhaustive, result):
    """``certify_reference``'s result on ``system`` run with ``a`` as the
    certificate's fields; with no pair evaluated the least margin is NaN."""
    best, (xs, ys), evaluated, skips, ok = result
    return fields_hex(ContractionCertificate(
        ok, best if evaluated else math.nan, xs, ys, system.set_chain_distance(a.p),
        as_exponent(a.p), evaluated, exhaustive, skips))


def _solve(name, walk, world):
    solver, tol = SOLVERS[name]

    def run(system, a):
        x0 = _record(system, a.x0, a.keep) if walk else a.x0
        return solver(system, x0, tol=a.tol, max_iter=a.max_iter)

    return world, run, name, lambda at: Args(tol=tol)


def _walk(walker, n=None):
    run = lambda s, a: walker(s, a.x0, a.n).points
    return ORBIT, run, "per_step", lambda at: Args(n=n or max(at) + 1)


# A path's system (an orbit, "line" or the family), its run, called with the
# system and its Args, its reference and its Args from the positions.
PATHS = {
    "prefix": _walk(_record),
    "prefix 1 023": _walk(_record, _CHUNK - 1),
    "prefix 10 000": _walk(_record, 10_000),
    "picard_orbit": _walk(picard_orbit),
    "apply": (ORBIT, lambda s, a: [s.apply(clean_walk(ORBIT)[a.n - 1], step=a.n)], "apply",
              lambda at: Args(n=max(at))),
    "apply_n": (ORBIT, lambda s, a: [s.apply_n(a.x0, a.n)], "apply_n", lambda at: Args(n=max(at))),
    **{name: _solve(name, False, ORBIT) for name in SOLVERS},
    **{f"{name} walk": _solve(name, True, ORBIT) for name in SOLVERS},
    # The 3-d orbit from a recorded walk only, as its removed test ran it.
    **{f"{name} walk 3-d": _solve(name, True, ORBIT_3D) for name in SOLVERS},
    "sampled": ("line", lambda s, a: verify_contraction(s, PHIS[a.phi], a.p, a.samples, a.seed),
                "sampled", lambda at: Args(samples=B + 1)),
    "exhaustive": (FAMILY, lambda s, a: verify_contraction(s, PHIS[a.phi], a.p), "exhaustive",
                   lambda at: Args()),
    "cyclicity": ("line", lambda s, a: verify_cyclicity(s, a.samples, a.seed), "cyclicity",
                  lambda at: Args(samples=2 * B + 1)),
}
# The map calls of one block of a sampling path with no fault: B pairs of 2m
# points, a region's samples, and every usable point.
BLOCK = {"sampled": 4 * B, "cyclicity": 2 * B + 1, "exhaustive": len(ORDER)}
REFERENCES = {
    "per_step": lambda s, a: per_step(s, a.x0, a.n),
    "apply": lambda s, a: per_step(s, a.x0, a.n)[a.n :],
    "apply_n": lambda s, a: [reduce(lambda x, _: s.apply(x), range(a.n), a.x0)],
    **{name: lambda s, a, name=name: per_step_fields(name, s, a.x0, a.tol) for name in SOLVERS},
    "sampled": lambda s, a: certified(s, a, False, certify_reference(
        s, PHIS[a.phi], a.p, sampled_pairs(s, a.samples, a.seed))),
    "exhaustive": lambda s, a: certified(s, a, True, brute_force(s, PHIS[a.phi], a.p)),
    "cyclicity": lambda s, a: cyclicity_reference(s, a.samples, a.seed),
}


def referenced(reference, world, faults, at, arg, counted=True):
    """The reference's outcome on the system of ``injected``, the points it
    maps, in order, if ``counted``, and those its membership tests see."""
    system, calls, tested = injected(world, faults, at, counted)
    return outcome(lambda: REFERENCES[reference](system, arg)), calls, tested


@cache
def expected(reference, world, faults, at, arg):
    """The reference's outcome on the faulted system, and off an orbit the
    points it maps, each once, in the order it first maps them, and those
    its membership tests see."""
    want, calls, tested = referenced(reference, world, faults, at, arg, world not in ORBITS)
    return want, list(dict.fromkeys(calls)), tested


@cache
def clean(path, arg):
    """The path's fields on the system with no fault, and its map calls."""
    world, run, _, _ = PATHS[path]
    system, calls, _ = injected(world, (), ())
    return shown(run(system, arg)), calls


def assert_failed(got, want, faults):
    """``got`` fails as ``want`` does; an exception the system raises
    itself reaches the caller as it is."""
    assert got == want
    assert len(faults) > 1 or faults[0] not in RAISED or got[-1] is RAISED[faults[0]]


@cache
def stop(name, world):
    """The step at which the solver ``name`` stops on the orbit with no fault."""
    return per_step_stop(name, *built(world), SOLVERS[name][1])


def recorded(path):
    """The steps a solver's walk records before its rule: the prefix, or
    x_0..x_{s-1} from a start point."""
    name, *rest = path.split()
    return KEEP if "walk" in rest else int(name != "banach")


def position(path, where):
    """The step a solver's position names: past the steps its walk records
    first, or its stop."""
    if not isinstance(where, str):
        return where
    if where in ("stop", "residual"):
        return stop(path.split()[0], PATHS[path][0]) + (where == "residual")
    return recorded(path) + {"+ 1": 1, "+ chunk": _CHUNK, "+ chunk + 1": _CHUNK + 1}[where]


# A CLI position: the step and the config's iterations and tolerance. A run
# walks up to 10 000 steps before its kind runs.
CLI_AT = {
    "early": (5, 50, 1e-5),
    "walk past a stop": (4_000, 100_000, 1e-2),
    "past the walk": (10_100, 100_000, 1e-12),
}
PLANE = [*SOLVERS, *(f"{name} walk" for name in SOLVERS)]
SOLVES = [*PLANE, *(f"{name} walk 3-d" for name in SOLVERS)]
DIMENSIONS = ("one dimension more", "one dimension less", "list")
EDGES, SAMPLES = (1, _CHUNK, _CHUNK + 1, 2 * _CHUNK), ((0, 0), (0, 7), (0, 2 * B))
FAULTS = [
    # Every fault on every path, at the edges of its blocks.
    *((path, (f,), (k,)) for path in ("prefix", "picard_orbit") for f in IMAGES for k in EDGES),
    *((path, (f,), (_CHUNK + 1,)) for path in ("apply", "apply_n") for f in IMAGES),
    *((path, (f,), (TAIL,)) for path in PLANE for f in IMAGES),
    *((path, (f,), (_CHUNK + 1,)) for path in SOLVES for f in DIMENSIONS),
    *((path, (f,), (TAIL,)) for path in SOLVES[len(PLANE) :] for f in DIMENSIONS),
    # Images converted from a step on, over whole walks.
    *((path, (f,), (1,)) for path in ("prefix 1 023", "prefix 10 000") for f in ONWARD),
    ("prefix 10 000", ("list onward",), (2_500,)),
    *((path, ("list onward",), (k,)) for path in PLANE for k in (1, 2_500)),
    *(
        (path, (f,), (at,))
        for path in ("sampled", "cyclicity") for f in (*IMAGES, *DRAWS) for at in SAMPLES
    ),
    *(("exhaustive", (f,), ((0, j),)) for f in IMAGES for j in (0, 2, 4)),
    *((f"{entry} {kind}", (f,), ("early",)) for entry in ("run", "main") for kind in cli.RUNS
      for f in BAD),
    # Past the steps a solver's walk records, at its stop and its residual;
    # a CLI run's walk past a solver's stop, and a solver past the walk.
    *(
        (path, (f,), (where,))
        for path in PLANE for f in ("raises", "nan")
        for where in ("+ 1", "+ chunk", "+ chunk + 1", "stop", "residual")
    ),
    *(
        (f"{entry} {kind}", ("raises",), (where,))
        for entry in ("run", "main") for kind in cli.RUNS for where in CLI_AT
        if where != "early" and (kind in SOLVERS or where != "past the walk")
    ),
    # A map failure two chunks past a chunk refused for a converted image.
    *(
        (path, ("list", f), (j, j + 2 * _CHUNK + 1))
        for path in ("prefix", "picard_orbit", *PLANE) for f in ("raises", "nan")
        for j in (100, TAIL)
    ),
    # A map failure and a bad draw in one block, in both orders: pair k's
    # x_1 and pair j's x_1 or y_2; then two chains of one pair.
    *(
        ("sampled", (f, d), ((0, 2 * k), at))
        for f in ("raises", "nan") for d in ("draw nan", "draw str", "draw raises")
        for k, j in ((3, 5), (5, 3), (4, 4)) for at in ((0, 2 * j), (1, 2 * j + 1))
    ),
    *(
        ("sampled", (d, "draw raises"), ((0, 2 * j + y), (1, 2 * j + 1)))
        for d in ("draw nan", "draw str") for y in (0, 1) for j in (0, 3, B)
    ),
    *(
        ("cyclicity", faults, ((0, j - 1), (0, j)))
        for d in ("draw nan", "draw raises") for faults in (("raises", d), (d, "raises"))
        for j in (1, 7, 2 * B)
    ),
    # A converted image before or after a bad one, in one block.
    *(
        (path, faults, at)
        for path, at in (
            ("sampled", ((0, 6), (0, 7))), ("cyclicity", ((0, 6), (0, 7))),
            ("exhaustive", ((0, 1), (0, 3))),
        )
        for faults in (("list", "nan"), ("nan", "list"))
    ),
]
LIBRARY = [row for row in FAULTS if row[0] in PATHS]
CLI = [row for row in FAULTS if row[0] not in PATHS]


def _ids(rows):
    return ["-".join(map(str, (path, *faults, *where))) for path, faults, where in rows]


@pytest.mark.parametrize("path, faults, where", LIBRARY, ids=_ids(LIBRARY))
def test_each_path_fails_or_reads_where_its_reference_does(path, faults, where):
    world, run, reference, argument = PATHS[path]
    at = tuple(position(path, w) for w in where)
    arg = argument(at)._replace(x0=built(world)[1] if world in SYSTEMS else None)
    want, mapped, tested = expected(reference, world, faults, at, arg)
    system, calls, seen = injected(world, faults, at)
    got = outcome(lambda: run(system, arg))
    if isinstance(want, tuple):
        assert_failed(got, want, faults)
    else:
        fields, made = clean(path, arg)
        assert got == {**fields, **want}
        # One refused chunk more; with images converted from a step on, a
        # solver also refuses a chunk of the steps its walk records first.
        more = _CHUNK + min(_CHUNK, recorded(path)) * (path in SOLVES and faults[0] in ONWARD)
        assert len(made) <= len(calls) <= len(made) + more * (world in ORBITS)
    # A block maps all its points before it reads an image or tests one, so
    # a bad image it returns leaves other points of its block mapped, one
    # block more at most; where the map raises, ``_image`` maps the block
    # again up to it, testing none of them.
    if world not in ORBITS and set(faults) & set(BAD) <= {"raises", "MapError"}:
        again = len(calls) - len(mapped) if set(faults) & set(BAD) else 0
        assert calls == mapped + mapped[len(mapped) - again :]
        assert set(faults) & set(BAD) or seen == tested
    elif world not in ORBITS:
        size, further = BLOCK[path], calls[len(mapped) :]
        first = max(len(mapped) - 1, 0) // size * size  # the bad image's block
        assert calls[: len(mapped)] == mapped and len(set(further)) == len(further)
        assert set(further) <= set(clean(path, arg)[1][first : first + size])


@pytest.mark.parametrize("path, faults, where", CLI, ids=_ids(CLI))
def test_each_cli_run_fails_where_its_reference_does(path, faults, where, tmp_path, monkeypatch,
                                                    capsys):
    entry, kind = path.split()
    k, iterations, tol = CLI_AT[where[0]]
    point = [clean_walk(ORBIT)[k - 1]]
    build = mapped_build(lambda raw: faulted(raw, point, faults))
    monkeypatch.setattr(cli.gallery, "build", build)
    # The steps the run walks before its kind runs, as it asks for them.
    kept, ran, record, run = [], [], cli.orbit._record, cli.RUN_KINDS[kind]
    monkeypatch.setattr(cli.orbit, "_record", lambda *a: kept.append(a[2]) or record(*a))
    monkeypatch.setitem(cli.RUN_KINDS, kind, lambda *a: ran.append(a) or run(*a))
    config = {
        "system": {"id": "scaled_pair", "parameters": PAIR}, "p": 2, "run": kind, "seed": 0,
        "phi": {"kind": "linear", "alpha": 0.5}, "iterations": iterations, "tolerance": tol,
    }
    out, path = tmp_path / "out", tmp_path / "config.json"
    path.write_text(json.dumps(config))
    if entry == "run":
        got = outcome(lambda: cli.run_experiment(cli.parse_config(config), out))
    else:
        got = cli.main(["run", "--config", str(path), "--out", str(out)]), capsys.readouterr().err
    (walk,) = kept
    x0 = built(ORBIT)[1]
    reference, arg = ("per_step", Args(x0, n=walk)) if k <= walk else (kind, Args(x0, tol=tol))
    want = expected(reference, ORBIT, faults, (k,), arg)[0]
    if entry == "run":
        assert_failed(got, want, faults)
    else:
        code, label = (3, "map error") if want[0] is MapError else (2, "error")
        assert got == (code, f"{label}: {want[1]}\n")
    assert not out.exists() and len(ran) == (k > walk)


# --- the agreement table: each path gives its reference's bits on a clean system
#
# A row of ``AGREES`` is (path, system, Args): a path of ``PATHS`` run on a
# system of ``SYSTEMS`` with the arguments the row varies, held to the same
# reference as the fault rows, through the same ``outcome``. A walk maps the
# reference's steps and then at most a chunk more; a scan or a sampling path
# maps each distinct point once, in the order the reference first maps it,
# also where a cloud draws a point again. A solve from a start point and
# from a walk agree, and where the stop rule fired, stop where the per-step
# walk does, with its fields.


def _rows(path, names, **axes):
    """A row for each name and each combination of the ``axes``' values."""
    combos = itertools.product(*axes.values())
    return [(path, name, Args(**dict(zip(axes, values)))) for values in combos for name in names]


def _blocks(name):
    """Block sizes that put a boundary after every x-tuple: one x-tuple,
    one tuple less than it and every multiple of it to all x-tuples and
    more; most do not divide the x-tuple count."""
    width = len(usable_tuples(built(name)[0]))
    return (1, width - 1, *(g * width for g in range(1, width + 2)))


def _gap_tol(name, solver):
    """The drift d(x_{k-s}, x_k) at step k = 3 000, s = 1 for banach and m
    otherwise: it equals that step's first-coordinate gap."""
    system, x0 = built(name)
    points = per_step(system, x0, 3_000)
    return system.space.distance(points[-2 if solver == "banach" else -1 - system.m], points[-1])


FAMILIES = tuple(f"paper_lq_family(m={m}, N={n}, q={q}{alpha})" for m, n, alpha in (
    (2, 3, ""), (3, 2, ""), (3, 2, ", alpha=0.4")) for q in (1, 2, "inf"))
CLOUDS = ("one-tuple", "one-usable-tuple", "all-skipped", "artifacts", "zero-rows", "overflow")
IMAGE_CLOUDS = ("signed zeros", "merge", "half outside", "one-way", "signed oracle")
BLOCKED = ("mirror", "late-overflow", "overflow", "artifacts", "paper_lq_family(m=2, N=3, q=2)")
TWO = ("0.4", "tabulated")
KIRK, STRIP = "kirk_interval(alpha=0.001)", "affine_strip(alpha=0.999, h=1.5)"
PAIR_3D = "scaled_pair(alpha=0.001, separation=2.0, dimension=3)"
# Prefixes whose last chunk is cut short, whole, one step on, and long.
PREFIXES = (KIRK, "affine_strip(alpha=0.999, h=2.0)",
            "scaled_pair(alpha=0.002, separation=1.0, dimension=2)",
            "paper_lq_family(m=2, N=2, q=inf)", "paper_lq_family(m=3, N=6, q=2, alpha=0.4)")
# Solves whose drift at step 3 000 equals its first-coordinate gap, in the
# line, plane and three-coordinate l^2 kernels: the other coordinates of the
# strip's stride-2 drift, and of the pair's orbit, do not move.
EQUAL_GAPS = ((KIRK, "banach"), (KIRK, "periodic"), (KIRK, "proximity"), (STRIP, "periodic"),
              (STRIP, "proximity"), (PAIR_3D, "periodic"), (PAIR_3D, "proximity"))
AGREES = [
    # The exhaustive scan: every family, phi and p; clouds with a single
    # pair, nothing or little evaluated, zero rows and NaN margins.
    *_rows("exhaustive", FAMILIES, phi=(*TWO, "knots"), p=(1, 2, 3.5, "inf")),
    *_rows("exhaustive", CLOUDS, phi=TWO, p=(1, 1.5, 2, 3, "inf")),
    # Blocks of every size split the least margin, a tie and the first NaN
    # margin from their neighbours; a block below the width reads one x-tuple.
    *(row for name in BLOCKED for row in _rows("exhaustive", (name,), block=_blocks(name),
                                                phi=TWO, p=(1, 2, "inf"))),
    # The river metric: the edge tables under a metric oracle.
    *_rows("exhaustive", ("river",), p=(1, 2, "inf")),
    # Image tuples read from the places of == cloud points, merged, or off
    # the clouds; oracles that keep the whole product in chain order.
    *_rows("exhaustive", IMAGE_CLOUDS, phi=TWO, p=(1, 2, "inf")),
    # 42 usable tuples: blocks of 1024 // 42 = 24 x-tuples, then 18.
    *_rows("exhaustive", [f"paper_lq_family(m=2, N=6, q={q}, alpha=0.45)" for q in (1, "inf")],
           phi=TWO, p=(1, 2.5, "inf")),
    # The sampled scan, on boxes, balls and a family past EXHAUSTIVE_LIMIT
    # whose clouds are sampled and whose truncation stub is skipped; blocks
    # of B pairs cut anywhere; no pair to fold, or a block skipped whole.
    *(row for seed, samples in ((0, 150), (1, 150), (5, 150), (1, 300))
      for row in _rows("sampled", (*SAMPLED, "paper_lq_family(m=4, N=6, q=2)"), seed=(seed,),
                       samples=(samples,), p=(1, 2, 3.5, "inf"), phi=("0.3", "tabulated"))),
    *_rows("sampled", SAMPLED, seed=(3,), samples=(1, B - 1, B, B + 1, 2 * B + 1),
           p=(1, 2, "inf"), phi=TWO),
    *_rows("sampled", ("sparse",), seed=(5,), samples=(1, B - 1, B, B + 1, 2 * B + 1),
           p=(1, "inf"), phi=("0.4",)),
    *_rows("sampled", ("stub box",), samples=(1, B + 1), phi=TWO, p=(1, 2, "inf")),
    # verify_cyclicity: 200 samples of a box or a ball are drawn by columns,
    # 201 sample by sample; drawn artifact points; enumerable families.
    *_rows("cyclicity", (*SAMPLED, *(f"{name} stuck" for name in SAMPLED)),
           samples=(1, 7, 200, 201), seed=range(4)),
    *(row for name in MARKED for row in _rows("cyclicity", (name, f"{name} stuck"),
                                               samples=(30,), seed=(int(name[-1]),))),
    *_rows("cyclicity", (*STUB_FAMILIES, *(f"{name} stuck" for name in STUB_FAMILIES), "river"),
           samples=(5,), seed=(1,)),
    # The trace prefix, walked in chunks.
    *(row for path in ("prefix", "picard_orbit")
      for row in _rows(path, PREFIXES, n=(_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 10_000))),
    # Budget-bound solves whose recorded prefix ends on each side of a chunk
    # boundary, and a stop or budget past the 10 000-step prefix, from the
    # walk a CLI run hands the solver; then three slow solves that stop
    # between steps 2 x 10^4 and 5 x 10^4: the proximity rule's r = m
    # consecutive checks on the strip and in the plane kernel, and the
    # periodic rule in the three-coordinate one.
    *(row for solver in SOLVERS
      for max_iter in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 100_000, 10_001, 11_025)
      for row in _rows(solver, (STRIP, KIRK, PAIR_3D), tol=(1e-12,), max_iter=(max_iter,),
                       keep=(min(max_iter, 10_000),))),
    *(row for name, solver, max_iter in (
        ("affine_strip(alpha=0.999, h=2.0)", "proximity", 100_000),
        ("scaled_pair(alpha=0.0005, separation=2.0, dimension=3)", "periodic", 1_000_000),
        ("scaled_pair(alpha=0.0005, separation=2.0, dimension=2)", "proximity", 100_000))
      for row in _rows(solver, (name,), tol=(1e-12,), max_iter=(max_iter,), keep=(10_000,))),
    # A tol equal to a first-coordinate gap past the recorded prefix: the
    # gap test must not decide the check, and the drift is measured.
    *(row for name, solver in EQUAL_GAPS
      for row in _rows(solver, (name,), tol=(_gap_tol(name, solver),), keep=(2_000,))),
    # Steps of 1/8 to the fixed point at step 8, inside the recorded walk:
    # each rule fires at its first check under a tol of 0.3, and just past
    # a drift above it under 0.1.
    *(row for solver in SOLVERS for row in _rows(solver, ("fixed point",), tol=(0.3, 0.1))),
]


def _agree_id(path, name, args):
    shown = [f"{k}={v}" for k, v in args._asdict().items() if v != Args._field_defaults[k]]
    return "-".join([path, name, *shown])


@pytest.mark.parametrize("path, name, args", AGREES, ids=[_agree_id(*row) for row in AGREES])
def test_each_path_gives_its_references_bits_on_a_clean_system(path, name, args, monkeypatch):
    if args.block:
        monkeypatch.setattr(system_module, "EXHAUSTIVE_BLOCK", args.block)
    world, run, reference, _ = PATHS[path]
    arg = args._replace(x0=built(name)[1])
    system, calls, _ = injected(name, (), ())
    got = outcome(lambda: run(system, arg))
    if path in SOLVERS:
        assert got == outcome(lambda: PATHS[f"{path} walk"][1](built(name)[0], arg))
        if not got["converged"]:
            return  # the budget ran out: no per-step stop to compare
    want, made, _ = referenced(reference, name, (), (), arg)
    assert got == (got | want if isinstance(want, dict) else want)
    if world in ORBITS:
        assert calls[: len(made)] == made and len(calls) <= len(made) + _CHUNK
    else:
        assert calls == list(dict.fromkeys(made))


def test_the_agreeing_systems_are_what_their_rows_need():
    # Every pair touches an artifact point, so neither scan has a pair to fold.
    for name, samples in (("all-skipped", 500), ("stub box", 1), ("stub box", B + 1)):
        cert = verify_contraction(built(name)[0], PHIS["0.4"], 2, samples)
        assert (cert.evaluated, math.isnan(cert.min_margin), cert.ok) == (0, True, False)
        assert cert.artifact_skips == (4 if name == "all-skipped" else samples)
    # 42 usable tuples: blocks of 1024 // 42 = 24 x-tuples, then 18.
    for q in (1, "inf"):
        n = len(usable_tuples(built(f"paper_lq_family(m=2, N=6, q={q}, alpha=0.45)")[0]))
        assert n == 42 and n % (system_module.EXHAUSTIVE_BLOCK // n) == 18
    # A third of a marked system's drawn samples are artifact points, and
    # each family's truncation stub is one.
    for name in MARKED:
        system = built(name)[0]
        report = verify_cyclicity(system, 30, int(name[-1]))
        assert len(report.artifacts) == 10 * system.m and report.checked == 20 * system.m
    assert all(verify_cyclicity(built(name)[0], 5, 1).artifacts for name in STUB_FAMILIES)
    # The river system: each edge is 2h, and the certificate passes at phi
    # slope 1 - beta and fails 0.01 above it, at every p. Its oracle has no
    # gap bound, so a membership test measures up to the point its query
    # equals, and does not stop there by ==.
    river = built("river")[0]
    assert river.edge_distances == (2 * RIVER_H,) * 2
    for p in (1, 2, "inf"):
        assert verify_contraction(river, LinearPhi(1 - RIVER_BETA), p).ok
        assert not verify_contraction(river, LinearPhi(1 - RIVER_BETA + 0.01), p).ok
    calls, cloud = [], river.regions[1]
    assert cloud.contains(cloud.points[-1], OracleSpace(counting(calls, river.space.oracle), 2))
    assert len(calls) == len(cloud.points) == RIVER_K + 1
    report = verify_cyclicity(river)
    assert report.ok and len(report.artifacts) == 2 and report.checked == 2 * RIVER_K
    # The image clouds: every image of the signed-zero clouds is == a point
    # of the next cloud, three of four differing from it in a zero's sign;
    # "half outside" has images off its clouds; two x-tuples of "merge"
    # share their images.
    for name in IMAGE_CLOUDS:
        system = built(name)[0]
        regions = system.regions[1:] + system.regions[:1]
        images = [(system.apply(x), [pt for pt in b.points if pt == system.apply(x)])
                  for a, b in zip(system.regions, regions) for x in a.points]
        assert all(same for _, same in images) == (name != "half outside")
        assert any(same for _, same in images)
        if name in ("signed zeros", "one-way", "signed oracle"):
            assert sum(repr(t) != repr(same) for t, (same,) in images) == 6
    merged = [built("merge")[0].apply(x) for x in built("merge")[0].regions[0].points]
    assert len(set(merged)) < len(merged)
    # An equal-gap tol is the first-coordinate gap at step 3 000, where the
    # per-step walk stops, or one step on.
    for name, solver in EQUAL_GAPS:
        system, x0 = built(name)
        s, tol = 1 if solver == "banach" else system.m, _gap_tol(name, solver)
        points = per_step(system, x0, 3_000)
        assert tol == abs(points[-1 - s][0] - points[-1][0]) > 0.0
        assert per_step_stop(solver, system, x0, tol) in (3_000, 3_001)


def test_every_system_is_run_by_a_row():
    run = {name for _, name, _ in AGREES} | {row[0] for row in TRACES}
    assert set(SYSTEMS) - run - {world for world, *_ in PATHS.values()} == set()
