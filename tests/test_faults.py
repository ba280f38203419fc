"""The fault table: every block path fails where its per-item reference fails.

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

import json
import math
from functools import cache, reduce

import pytest

import proxcycle.cli as cli
from proxcycle.gallery import make_paper_lq_family, make_scaled_pair
from proxcycle.orbit import (
    _CHUNK, _record, banach_solve, periodic_point_solve, picard_orbit, proximity_chain_extract,
)
from proxcycle.spaces import LqSpace, as_exponent
from proxcycle.system import SAMPLE_BLOCK as B
from proxcycle.system import (
    Box, CyclicSystem, LinearPhi, MapError, verify_contraction, verify_cyclicity,
)
from reference import (
    Float, broken_map, brute_force, certify_reference, counting, cyclicity_reference, fields_hex,
    hexed, mapped_build, no_image, per_step, per_step_fields, per_step_stop, sampled_pairs,
    typed_hex, usable_tuples,
)

# scaled_pair at separation 0, in the plane and in 3-d: x_k = (-(-0.998)^k,
# +-0.0, ...), so |x_k[0]| names step k. Each solver stops near step 3 340,
# past step TAIL + 2 chunks + 1, and TAIL is past a recorded prefix of KEEP
# steps. Its maps and the plane and 3-d kernels unpack their points; a str or
# bytes of two digits is as long as a plane point.
PAIR = {"alpha": 0.002, "separation": 0.0, "dimension": 2}
ORBITS = {
    "orbit": make_scaled_pair(**PAIR).system,
    "orbit 3-d": make_scaled_pair(**PAIR | {"dimension": 3}).system,
}
SOLVERS = {
    "banach": (banach_solve, 2.5e-3),
    "periodic": (periodic_point_solve, 5e-6),
    "proximity": (proximity_chain_extract, 5e-6),
}
KEEP, BUDGET, TAIL = 1_100, 20_000, 1_200
# The exhaustive scan's system, and its 5 usable points in the order the
# pairs first reach them, the order the scan maps them in.
FAMILY = make_paper_lq_family(m=2, N=2).system
ORDER = list(dict.fromkeys(x for xs in usable_tuples(FAMILY) for x in xs))
PHI = LinearPhi(0.5)

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


def start(system):
    """x_0 = (-1, 0, ...) of an orbit."""
    return (-1.0, *(0.0,) * (system.space.dimension - 1))


@cache
def clean_walk(world):
    """x_0..x_10100 of the orbit with no fault: x_{k-1} is where the map
    takes a fault at step k."""
    return per_step(ORBITS[world], start(ORBITS[world]), 10_100)


def injected(world, faults, at, counted=True):
    """The system of ``world`` with faults[i] put in at position at[i], a
    step or a (region, sample) pair; the calls of its map, if ``counted``,
    and the points its membership tests see."""
    calls, tested = [], []
    count = counting if counted else lambda calls, step: step
    if world != "line":
        base = ORBITS.get(world, FAMILY)
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


def certified(best, witness, evaluated, skips, ok):
    """``certify_reference``'s result as a certificate's fields."""
    return {
        "min_margin": hexed(best if evaluated else math.nan), "witness_xs": hexed(witness[0]),
        "witness_ys": hexed(witness[1]), "evaluated": evaluated, "artifact_skips": skips, "ok": ok,
    }


def _solve(name, walk, world):
    solver, tol = SOLVERS[name]

    def run(system, _):
        x0 = _record(system, start(system), KEEP) if walk else start(system)
        return solver(system, x0, tol=tol, max_iter=BUDGET)

    return world, run, name, lambda at: tol


def _walk(walker, n=None):
    run = lambda s, k: walker(s, start(s), k).points
    return "orbit", run, "per_step", lambda at: n or max(at) + 1


# A path's system ("orbit", "line" or "cloud" above), its run, called with the
# system and an argument, its reference and that argument from the positions.
PATHS = {
    "prefix": _walk(_record),
    "prefix 1 023": _walk(_record, _CHUNK - 1),
    "prefix 10 000": _walk(_record, 10_000),
    "picard_orbit": _walk(picard_orbit),
    "apply": ("orbit", lambda s, k: [s.apply(clean_walk("orbit")[k - 1], step=k)], "apply", max),
    "apply_n": ("orbit", lambda s, k: [s.apply_n(start(s), k)], "apply_n", max),
    **{name: _solve(name, False, "orbit") for name in SOLVERS},
    **{f"{name} walk": _solve(name, True, "orbit") for name in SOLVERS},
    # The 3-d orbit from a recorded walk only, as its removed test ran it.
    **{f"{name} walk 3-d": _solve(name, True, "orbit 3-d") for name in SOLVERS},
    "sampled": ("line", lambda s, _: verify_contraction(s, PHI, 2, B + 1), "sampled", len),
    "exhaustive": ("cloud", lambda s, _: verify_contraction(s, PHI, 2), "exhaustive", len),
    "cyclicity": ("line", lambda s, _: verify_cyclicity(s, 2 * B + 1), "cyclicity", len),
}
# The map calls of one block of a sampling path with no fault: B pairs of 2m
# points, a region's samples, and every usable point.
BLOCK = {"sampled": 4 * B, "cyclicity": 2 * B + 1, "exhaustive": len(ORDER)}
REFERENCES = {
    "per_step": lambda s, n: per_step(s, start(s), n),
    "apply": lambda s, k: per_step(s, start(s), k)[k:],
    "apply_n": lambda s, k: [reduce(lambda x, _: s.apply(x), range(k), start(s))],
    **{name: lambda s, tol, name=name: per_step_fields(name, s, start(s), tol) for name in SOLVERS},
    "sampled": lambda s, _: certified(*certify_reference(s, PHI, 2, sampled_pairs(s, B + 1, 0))),
    "exhaustive": lambda s, _: certified(*brute_force(s, PHI, 2)),
    "cyclicity": lambda s, _: cyclicity_reference(s, 2 * B + 1, 0),
}


@cache
def expected(reference, world, faults, at, arg):
    """The reference's outcome on the faulted system, and off an orbit the
    points it maps, each once, in the order it first maps them, and those
    its membership tests see."""
    system, calls, tested = injected(world, faults, at, world not in ORBITS)
    return outcome(lambda: REFERENCES[reference](system, arg)), list(dict.fromkeys(calls)), tested


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
    return per_step_stop(name, ORBITS[world], start(ORBITS[world]), SOLVERS[name][1])


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
    arg = argument(at)
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
    point = [clean_walk("orbit")[k - 1]]
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
    reference, arg = ("per_step", walk) if k <= walk else (kind, tol)
    want = expected(reference, "orbit", faults, (k,), arg)[0]
    if entry == "run":
        assert_failed(got, want, faults)
    else:
        code, label = (3, "map error") if want[0] is MapError else (2, "error")
        assert got == (code, f"{label}: {want[1]}\n")
    assert not out.exists() and len(ran) == (k > walk)
