"""The findings table: what a library run finds on a named system.

A row of ``FINDINGS`` is (system, run, facts). The system is a name of
``reference.SYSTEMS``, or a gallery call written the way ``SYSTEMS`` names
one, ``kirk_interval(alpha=0.5)``. The run is one of four:

- ``Certify(phi, p, samples, seed)``: ``verify_contraction``; phi None is
  ``LinearPhi`` at the gallery system's ``certificate_alpha``;
- ``Cyclic(samples, seed)``: ``verify_cyclicity``;
- ``Solve(solver, starts, tol, max_iter)``: a solver from each start, None
  being the system's own;
- ``Walk(n, reader, args, start)``: ``picard_orbit`` of n steps, read by
  ``reader(trace, *args)``, a public trace reader, or kept whole.

Its facts are dotted paths into what the run found, each compared by ``==``,
by ``approx`` or by a predicate, through ``reference.check_facts``, the
checker of the golden ``FACTS``. What a run finds is its result's fields
(a walk's result is ``value``, or the trace's fields with no reader), and:

- ``system`` and ``gallery``: the built system, and the gallery system that
  the name makes, or None;
- on a certificate, ``witness_margin``, the witness's margin again by
  ``contraction_margin``, and ``exact_margin``, by ``reference.exact_margin``
  where it applies (a ``LinearPhi``, p and q in {1, inf}, a finite margin),
  else None; on a gallery system, ``expected_chain_distance`` at p, and on
  clouds ``attainment_gap`` at p;
- on a solve, ``error``, the distance of its point from the gallery's
  expected solution, and ``image_gaps``, d(T c_i, c_{i+1}) along its chain;
  from more than one start, ``runs`` (each start's findings), ``answers``
  (how many distinct points) and ``spread`` (the largest coordinate gap
  between two points) in place of one start's.

A new finding on a system is a row; a new system is a ``SYSTEMS`` entry and
its rows. ``WRONG_FINDINGS`` shows each kind of fact failing its row.
"""

import collections
import itertools
import math
import pickle
import re

import pytest
from pytest import approx

from proxcycle.chains import chain_self_distance
from proxcycle.gallery import attainment_gap
from proxcycle.orbit import (
    banach_solve, block_drift_trace, boundedness_probe, chain_trace, cross_block_chain_distance,
    edge_trace, periodic_point_solve, picard_orbit, proximity_chain_extract,
)
from proxcycle.spaces import as_exponent, p_combine
from proxcycle.system import (
    FiniteCloud, LinearPhi, TabulatedPhi, contraction_margin, verify_contraction, verify_cyclicity,
)
from reference import (
    _RAY, RIVER_BETA, RIVER_H, RIVER_K, built, check_facts, exact_margin, made,
)

Certify = collections.namedtuple("Certify", "phi p samples seed", defaults=(500, 0))
Cyclic = collections.namedtuple("Cyclic", "samples seed", defaults=(100, 0))
Solve = collections.namedtuple("Solve", "solver starts tol max_iter",
                               defaults=((None,), 1e-10, 100_000))
Walk = collections.namedtuple("Walk", "n reader args start", defaults=(None, (), None))


def _fields(record):
    return {name: getattr(record, name) for name in type(record)._fields}


def _exact(system, phi, p, cert):
    """The witness's margin in exact arithmetic, where the oracle takes it."""
    exponents = (as_exponent(p), getattr(system.space, "q", None))
    if (isinstance(phi, LinearPhi) and math.isfinite(cert.min_margin)
            and all(e is not None and (e.is_inf or e.value == 1.0) for e in exponents)):
        return exact_margin(system, phi, p, cert.witness_xs, cert.witness_ys,
                            cert.set_chain_distance)
    return None


def _solved(system, gs, run, x0):
    found = _fields(run.solver(system, x0, tol=run.tol, max_iter=run.max_iter))
    if gs is not None and found.get("point") is not None and gs.expected_solution is not None:
        found["error"] = system.space.distance(found["point"], gs.expected_solution)
    if "chain" in found:
        chain = found["chain"]
        found["image_gaps"] = tuple(system.space.distance(system.apply(c), d)
                                    for c, d in zip(chain, chain[1:] + chain[:1]))
    return found


def find(name, run):
    """What ``run`` finds on the system ``name``."""
    (system, start), gs = built(name), made(name)
    found = {"system": system, "gallery": gs}
    if isinstance(run, Certify):
        phi = run.phi or LinearPhi(gs.certificate_alpha)
        cert = verify_contraction(system, phi, run.p, run.samples, run.seed)
        found.update(_fields(cert), exact_margin=_exact(system, phi, run.p, cert), witness_margin=(
            contraction_margin(system, phi, run.p, cert.witness_xs, cert.witness_ys)
            if cert.evaluated else None))
        if gs is not None:
            found["expected_chain_distance"] = gs.expected_chain_distance(run.p)
            if all(isinstance(r, FiniteCloud) for r in system.regions):
                found["attainment_gap"] = attainment_gap(gs, run.p)
    elif isinstance(run, Cyclic):
        found.update(_fields(verify_cyclicity(system, run.samples, run.seed)))
    elif isinstance(run, Solve):
        runs = [_solved(system, gs, run, start if x0 is None else x0) for x0 in run.starts]
        if len(runs) == 1:
            found.update(runs[0])
        else:
            points = [r["point"] for r in runs]
            gaps = (abs(a - b) for x, y in itertools.combinations(points, 2) for a, b in zip(x, y))
            found.update(runs=runs, answers=len(set(points)), spread=max(gaps))
    else:
        trace = picard_orbit(system, start if run.start is None else run.start, run.n)
        found.update({"value": run.reader(trace, *run.args)} if run.reader else _fields(trace))
    return found


def block_self_distance(trace, n, p):
    """The chain distance of block n with itself, by ``chain_self_distance``."""
    return chain_self_distance(trace.system.space, trace.block(n), p)


def below(bound):
    return lambda v: v < bound


def all_below(bound):
    return lambda vs: all(v < bound for v in vs)


def near(point, tol):
    """Each coordinate within ``tol`` of ``point``'s, strictly."""
    return lambda x: max(abs(a - b) for a, b in zip(x, point)) < tol


P3 = (1, 2, "inf")
KIRK, STRIP = "kirk_interval(alpha=0.5)", "affine_strip(alpha=0.5, h=1.0)"
FAMILY_4 = "paper_lq_family(m=2, N=4, q=2)"
# The gallery's systems at their defaults, and their edge distances in closed
# form: touching intervals, segments at h = 1, the family's top points
# (1 + 2^-12) e_12 and (1 + 2^-13) e_13 in l^2, balls 2 apart.
DEFAULTS = {
    "affine_strip()": (1.0, 1.0),
    "kirk_interval()": (0.0, 0.0),
    "paper_lq_family()": (math.hypot(1 + 2**-12, 1 + 2**-13),) * 2,
    "scaled_pair()": (2.0, 2.0),
}
# Systems on either side of alpha = 1/2, whose certificate_alpha is 1 - alpha
# past it, and 1.0 - alpha = 1.0 for alpha below 2^-54.
EITHER_SIDE = {
    **{f"affine_strip(alpha={a}, h={h})": a for a in (0.55, 0.8, 0.999999) for h in (0.5, 2.0)},
    "affine_strip(alpha=1e-17)": 1e-17,
    **{f"paper_lq_family(m={m}, N=2, q={q}, alpha={a})": a
       for m, a in ((2, 0.6), (2, 0.7), (3, 0.75), (4, 0.8)) for q in P3},
    "paper_lq_family(m=2, N=2, alpha=1e-17)": 1e-17,
}
FAR_NAN = ((1e308,), (-1e308,))
# The periodic points of flat_strip from four starts: each start its own.
FLAT_STARTS = ((0.0, 0.0), (0.25, 0.0), (0.5, 0.0), (1.0, 0.0))
RIVER_START = (_RAY[1], 0.0)
SHIFTED = {"base": TabulatedPhi(((0.0, 0.0), (1.0, 0.4), (4.0, 1.6))),
           "shifted by 2": TabulatedPhi(((0.0, 2.0), (1.0, 2.4), (4.0, 3.6)))}

FINDINGS = [
    # --- the gallery at its defaults: cyclic, certified at certificate_alpha
    # at every p, with the stored set distance of the closed form, and the
    # known answer reproduced where it is attained; the family's chain
    # distance is not attained.
    *((name, Cyclic(10_000, 0), {"ok": True}) for name in DEFAULTS),
    *((name, Certify(None, p, 300, 1), {
        "ok": True, "expected_chain_distance": p_combine(edges, p),
        "set_chain_distance": approx(p_combine(edges, p), abs=1e-12),
        **({"attainment_gap": lambda gap: gap > 0.0} if name == "paper_lq_family()" else {}),
    }) for name, edges in DEFAULTS.items() for p in P3),
    ("kirk_interval()", Solve(banach_solve, tol=1e-12), {
        "gallery.attainable": True, "set_chain_distance": 0.0, "converged": True,
        "error": below(1e-8)}),
    *((name, Solve(periodic_point_solve, tol=1e-12), {
        "gallery.attainable": True, "set_chain_distance": lambda d: d > 1e-10, "converged": True,
        "error": below(1e-8)}) for name in ("affine_strip()", "scaled_pair()")),
    ("paper_lq_family()", Solve(proximity_chain_extract, tol=1e-10, max_iter=2000), {
        "gallery.attainable": False, "converged": False, "note": lambda note: note is not None}),
    ("paper_lq_family()", Solve(proximity_chain_extract, tol=1e-10, max_iter=500), {
        "converged": False, "note": lambda note: note is not None}),
    *((name, Certify(None, p, 300, 1), {
        "ok": True, **({"gallery.certificate_alpha": lambda c, a=a: 0.0 < c <= min(a, 1.0 - a)}
                       if p == 1 else {}),
    }) for name, a in EITHER_SIDE.items() for p in P3),
    ("affine_strip(alpha=0.5, h=2.0)", Certify(None, 2, 300, 1), {
        "ok": True, "set_chain_distance": approx(2.0 * math.sqrt(2), abs=1e-12)}),
    ("scaled_pair(alpha=0.5, separation=0.0, dimension=2)", Solve(banach_solve, tol=1e-12), {
        "converged": True, "error": below(1e-8)}),
    # A1 = [-3, -1] and A2 = [1, 3]: the nearest points are -1 and 1.
    ("scaled_pair(alpha=0.5, separation=2.0, dimension=1)",
     Solve(proximity_chain_extract, tol=1e-12), {
        "converged": True, "chain.0.0": approx(-1.0, abs=1e-8), "chain.1.0": approx(1.0, abs=1e-8),
        "total_residual": below(1e-6)}),
    # --- certificates: Kirk's interval against the grid, passing at smaller
    # slopes; the identity refuted at a witness whose margin reproduces;
    # a family's truncation stub skipped; margins read only phi's
    # differences; a margin at the rounding level of a 1e8-sized system
    # passes; -inf and NaN margins refute.
    ("kirk grid", Certify(LinearPhi(0.5), 1), {
        "exhaustive": True, "min_margin": lambda v: v >= -1e-10}),
    (KIRK, Certify(LinearPhi(0.5), 1, 400, 0), {
        "ok": True, "min_margin": lambda v: v >= -1e-10, "set_chain_distance": 0.0}),
    (KIRK, Certify(LinearPhi(0.5), 1, 300, 0), {"ok": True, "set_chain_distance": 0.0}),
    *((KIRK, Certify(LinearPhi(a), 1, 200, 3), {"ok": True}) for a in (0.5, 0.25, 0.1)),
    ("identity on [0, 1]", Certify(LinearPhi(0.5), 1, 200, 0), {
        "ok": False, "min_margin": -0.7649116086844825,
        "witness_margin": approx(-0.7649116086844825, abs=1e-14),
        "witness_xs": bool, "witness_ys": bool}),
    (FAMILY_4, Certify(LinearPhi(0.5), "inf"), {
        "exhaustive": True, "ok": True, "artifact_skips": lambda n: n > 0}),
    *(("paper_lq_family(m=2, N=3, q=2)", Certify(phi, 2), {"min_margin": 0.014089232727412693})
      for phi in SHIFTED.values()),
    ("scaled_pair(alpha=0.4, separation=100000000.0, dimension=3)",
     Certify(LinearPhi(0.4), 2, 500, 1), {
        "ok": True, "min_margin": below(-1e-10)}),
    *(("blowup", Certify(LinearPhi(0.5), p), {
        "exhaustive": True, "evaluated": 16, "min_margin": -math.inf, "ok": False}) for p in P3),
    # d = inf makes d - phi(d) inf - inf: the first such pair is the witness.
    *((name, Certify(LinearPhi(0.5), p, *drawn), {
        "exhaustive": not drawn, "evaluated": evaluated, "min_margin": math.isnan, "ok": False,
        "witness_xs": FAR_NAN, "witness_ys": FAR_NAN})
      for name, evaluated, drawn in (("overflow", 81, ()), ("far points", 1, ()),
                                     ("far balls", 300, (300, 2))) for p in P3),
    # --- cyclicity: a witness is a drawn point and its image; a truncation
    # stub is skipped, not a violation; a NaN distance to 0 keeps 0 out of
    # the cloud, and a NaN first distance every point.
    (KIRK, Cyclic(100, 1), {"ok": True}),
    ("identity on [0, 1] and [2, 3]", Cyclic(50, 0), {
        "ok": False, "violations.0": lambda v: v[0] == 0 and v[1] == v[2]}),
    (FAMILY_4, Cyclic(100, 0), {"ok": True, "artifacts": bool}),
    ("nan first", Cyclic(), {
        "ok": False, "checked": 4,
        "violations": tuple((i, x, x) for i in (0, 1) for x in ((0.0,), (1.0,)))}),
    ("nan later", Cyclic(), {
        "ok": False, "checked": 4, "violations": ((0, (0.0,), (0.0,)), (1, (0.0,), (0.0,)))}),
    # --- solvers: Kirk's fixed point 0 from any start; no fixed point of
    # the strip, whose periodic pair is ((0, 0), (0, 1)); a chain leaving its
    # region, or stalled on the truncation stub, does not converge.
    (KIRK, Solve(banach_solve, ((-1.0,), (-0.25,)), 1e-12), {
        "runs.0.converged": True, "runs.1.converged": True, "runs.0.point": near((0.0,), 1e-9),
        "runs.0.residual": below(1e-9), "spread": below(1e-8)}),
    (STRIP, Solve(banach_solve, tol=1e-9, max_iter=200), {
        "converged": False, "warnings": lambda ws: any("set chain distance" in w for w in ws)}),
    (STRIP, Solve(periodic_point_solve, ((1.0, 0.0), (0.25, 0.0)), 1e-12), {
        "runs.0.converged": True, "runs.1.converged": True, "runs.0.residual": below(1e-9),
        "runs.0.point": near((0.0, 0.0), 1e-6), "spread": below(1e-6),
        "runs.0.proximity_residual": below(1e-6)}),
    (KIRK, Solve(periodic_point_solve, tol=1e-12), {
        "converged": True, "point": near((0.0,), 1e-9)}),
    (STRIP, Solve(proximity_chain_extract, tol=1e-12), {
        "converged": True, "chain": lambda chain: len(chain) == 2, "total_residual": below(1e-6),
        "edge_residuals": all_below(1e-6), "image_gaps": all_below(1e-6)}),
    (KIRK, Solve(proximity_chain_extract, tol=1e-12), {
        "converged": True, "total_residual": below(1e-9)}),
    # Every point past x_0 maps to 0.5: the subsequences settle, and the
    # chain's first point is outside A_1.
    ("leaves A_1", Solve(proximity_chain_extract, tol=1e-12), {
        "converged": False, "note": "extracted point left region 1", "chain": ((0.5,), (0.5,)),
        "iterations": 4}),
    # --- walks, each read by a public trace reader.
    (KIRK, Walk(3), {"points": ((-1.0,), (0.5,), (-0.25,), (0.125,))}),
    (STRIP, Walk(2), {"points": ((1.0, 0.0), (0.5, 1.0), (0.25, 0.0))}),
    (KIRK, Walk(10), {"points": lambda points: len(points) == 11}),
    (KIRK, Walk(30, chain_trace, (1,)), {
        "value": lambda v: v[:10] == approx([3.0 * 0.5**n for n in range(10)], abs=1e-12)}),
    (STRIP, Walk(80, chain_trace, (2,)), {
        "value.-1": approx(math.sqrt(2), abs=1e-9),
        "value": lambda v: min(v) >= math.sqrt(2) - 1e-12}),
    (KIRK, Walk(6, chain_trace, (2,), (0.0,)), {"value": lambda v: set(v) == {0.0}}),
    *((STRIP, Walk(100, edge_trace, (i,)), {"value.-1": approx(1.0, abs=1e-9)}) for i in (1, 2)),
    *((STRIP, Walk(60, block_drift_trace, (i,)), {"value": lambda v: v[-1] < 1e-6 and v[0] > v[-1]})
      for i in (1, 2)),
    (KIRK, Walk(12, block_drift_trace, (1,), (0.0,)), {"value": lambda v: set(v) == {0.0}}),
    # The chain distance of block 20 with itself, read both ways, is sqrt 2.
    (STRIP, Walk(90, cross_block_chain_distance, (20, 20, 2)), {"value": math.sqrt(2)}),
    (STRIP, Walk(90, block_self_distance, (20, 2)), {"value": math.sqrt(2)}),
    (STRIP, Walk(90, cross_block_chain_distance, (5, 9, 2)), {
        "value": lambda v: v >= math.sqrt(2) - 1e-12}),
    (KIRK, Walk(90, cross_block_chain_distance, (30, 40, 1)), {"value": below(1e-6)}),
    # The initial gap of apriori_error_bound at k = 0.
    (KIRK, Walk(3, cross_block_chain_distance, (1, 0, 2)), {"value": lambda v: v > 0.0}),
    (KIRK, Walk(1000, boundedness_probe), {
        "value.ok": True, "value.sups": lambda sups: all(s <= 2.0 for s in sups)}),
    (STRIP, Walk(1000, boundedness_probe), {"value.ok": True}),
    ("scaled_pair()", Walk(60, chain_trace, ("inf",)), {
        "value": lambda v: all(b <= a + 1e-12 * (1 + a) for a, b in zip(v, v[1:]))}),
    # --- p decides: the first system passes at p in {1, 2} and fails at inf,
    # the second fails at p in {1, 2} and passes at inf on the floor, where
    # its witness's exact margin is negative.
    ("p-split 0.05", Certify(LinearPhi(0.05), 1), {
        "exhaustive": True, "ok": True, "min_margin": 0.0, "exact_margin": lambda e: e > 0}),
    ("p-split 0.05", Certify(LinearPhi(0.05), 2), {"ok": True, "min_margin": 0.0}),
    ("p-split 0.05", Certify(LinearPhi(0.05), "inf"), {
        "ok": False, "min_margin": -0.13, "exact_margin": approx(-0.13)}),
    ("p-split 0.2", Certify(LinearPhi(0.2), 1), {"ok": False, "min_margin": approx(-0.09)}),
    ("p-split 0.2", Certify(LinearPhi(0.2), 2), {"ok": False, "min_margin": approx(-0.0133129245)}),
    ("p-split 0.2", Certify(LinearPhi(0.2), "inf"), {
        "exhaustive": True, "ok": True, "min_margin": 0.0,
        "exact_margin": approx(-2.22e-17, rel=0.01)}),
    # --- flat_strip: certified in l^inf at every p on margin 0, refuted in
    # l^q for q in {1, 1.5, 2}; every start is a periodic point of its own.
    *((f"flat_strip q={q}", Certify(LinearPhi(0.5), p, 500, 1),
       {"ok": True, "min_margin": 0.0} if q == "inf" else {"ok": False, "min_margin": below(0.0)})
      for q in ("inf", 1, 1.5, 2) for p in P3),
    ("flat_strip q=inf", Solve(periodic_point_solve, FLAT_STARTS), {
        **{f"runs.{i}.converged": True for i in range(4)},
        **{f"runs.{i}.iterations": 2 for i in range(4)},
        **{f"runs.{i}.point": x0 for i, x0 in enumerate(FLAT_STARTS)}, "answers": 4}),
    # --- the river metric: edges 2h; the certificate tight at phi slope
    # 1 - beta at every p, refuted 0.01 above it; the last point of each ray
    # skipped; the chain (h e_1, h e_2) reached, with no fixed point.
    *(("river", Certify(LinearPhi(1 - RIVER_BETA + slope), p), {
        "system.edge_distances": (2 * RIVER_H,) * 2, "exhaustive": True, "ok": slope == 0.0})
      for slope in (0.0, 0.01) for p in P3),
    ("river", Cyclic(), {"ok": True, "artifacts": lambda a: len(a) == 2, "checked": 2 * RIVER_K}),
    ("river", Solve(proximity_chain_extract, (RIVER_START,), 1e-12), {
        "converged": True, "iterations": 42, "chain.0": approx((RIVER_H, 0.0), abs=1e-12),
        "chain.1": approx((0.0, RIVER_H), abs=1e-12), "total_residual": below(1e-12),
        "edge_residuals": all_below(1e-12)}),
    ("river", Solve(periodic_point_solve, (RIVER_START,), 1e-12), {
        "converged": True, "iterations": 42, "point": approx((RIVER_H, 0.0), abs=1e-12),
        "residual": below(1e-12), "proximity_residual": below(1e-12)}),
    ("river", Solve(banach_solve, (RIVER_START,), 1e-12), {
        "converged": False, "warnings": (
            "set chain distance 0.707107 exceeds tol; no fixed point can exist",
            "max_iter exhausted before the step criterion fired")}),
]


def _shown(value):
    return getattr(value, "__name__", None) or repr(value)


def finding_id(name, run):
    shown = [f"{k}={_shown(v)}" for k, v in run._asdict().items()
             if k not in run._field_defaults or v != run._field_defaults[k]]
    return "-".join([name, type(run).__name__.lower(), *shown])


@pytest.mark.parametrize("name, run, facts", FINDINGS,
                         ids=[finding_id(name, run) for name, run, _ in FINDINGS])
def test_each_run_finds_its_rows_facts(name, run, facts):
    check_facts(finding_id(name, run), find(name, run), facts)


# A row that does not hold, one per kind of fact and of run: a certificate's
# verdict (==), a walk's last chain entry (approx), a solve's residual (a
# predicate), a cyclicity count and an exact witness sign.
WRONG_FINDINGS = {
    "equal": ("river", Certify(LinearPhi(0.51), 1), "ok", True),
    "approx": (STRIP, Walk(80, chain_trace, (2,)), "value.-1", approx(1.0, abs=1e-9)),
    "predicate": (KIRK, Solve(proximity_chain_extract, tol=1e-12), "total_residual", below(0.0)),
    "count": ("nan later", Cyclic(), "checked", 2),
    "exact sign": ("p-split 0.2", Certify(LinearPhi(0.2), "inf"), "exact_margin", lambda e: e >= 0),
}


@pytest.mark.parametrize("kind", WRONG_FINDINGS)
def test_a_finding_that_does_not_hold_fails_its_row(kind):
    name, run, path, want = WRONG_FINDINGS[kind]
    key = finding_id(name, run)
    with pytest.raises(AssertionError, match=f"^{re.escape(key)}: {path} is "):
        check_facts(key, find(name, run), {path: want})


def test_the_systems_built_for_findings_pickle_and_compare_by_value():
    for name in {name for name, *_ in FINDINGS if made(name) is None}:
        system = built(name)[0]
        assert pickle.loads(pickle.dumps(system)) == system, name

