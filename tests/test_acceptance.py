"""Acceptance suite: one test per criterion, one pass/fail line each.

Every criterion is checked at its stated tolerance against independent
oracles (closed forms, brute-force enumeration, or direct re-evaluation),
never against the library's own intermediate values.
"""

import json
import math
from pathlib import Path

import pytest

import proxcycle.cli as cli
from proxcycle.chains import chain_point_distance
from proxcycle.gallery import (
    GALLERY,
    attainment_gap,
    build,
    make_paper_lq_family,
    make_scaled_pair,
)
from proxcycle.orbit import (
    apriori_error_bound,
    banach_solve,
    chain_trace,
    cross_block_chain_distance,
    edge_trace,
    periodic_point_solve,
    picard_orbit,
    proximity_chain_extract,
)
from proxcycle.spaces import INFINITY, LqSpace, Exponent
from proxcycle.system import (
    Box,
    CyclicSystem,
    LinearPhi,
    alpha_bound_check,
    contraction_margin,
    verify_contraction,
)
from reference import read_summary

ALL_IDS = tuple(sorted(GALLERY))
P_VALUES = (1, 2, INFINITY)
STEPS = 500


def report(n, text):
    print(f"[PASS] criterion {n}: {text}")


@pytest.fixture(scope="module")
def traces():
    out = {}
    for system_id in ALL_IDS:
        gs = build(system_id)
        out[system_id] = (gs, picard_orbit(gs.system, gs.default_start, STEPS))
    return out


def test_criterion_1_monotone_chain_trace(traces):
    for system_id, (gs, trace) in traces.items():
        for p in P_VALUES:
            values = chain_trace(trace, p)
            for n, (a, b) in enumerate(zip(values, values[1:])):
                slack = 1e-12 * (1 + a)
                assert b <= a + slack, (system_id, p, n, a, b)
    report(1, "chain trace nonincreasing on all gallery systems, p in {1, 2, inf}")


def test_criterion_2_chain_trace_limit_and_gap_decay(traces):
    alpha = 0.5
    for system_id in ("kirk_interval", "affine_strip"):
        gs, trace = traces[system_id]
        for p in P_VALUES:
            floor = gs.system.set_chain_distance(p)
            values = chain_trace(trace, p)
            assert abs(values[200] - floor) < 1e-6, (system_id, p)
            gaps = [v - floor for v in values[:220]]
            for n, (g0, g1) in enumerate(zip(gaps, gaps[1:])):
                assert g1 <= (1 - alpha) * g0 + 1e-12, (system_id, p, n, g0, g1)
    report(2, "chain trace limit within 1e-6 and geometric gap decay at factor 1-alpha")


def test_criterion_3_edge_convergence(traces):
    gs, trace = traces["affine_strip"]
    for i in (1, 2):
        target = gs.system.regions[i - 1].distance_to(
            gs.system.regions[i % 2], gs.system.space
        )
        entries = edge_trace(trace, i)
        assert abs(entries[200] - target) < 1e-6, (i, entries[200], target)
    report(3, "affine strip edge traces converge to the pairwise set distances")


def test_criterion_4_banach_solver_and_apriori_bound(traces):
    gs, trace = traces["kirk_interval"]
    first = banach_solve(gs.system, (-1.0,), tol=1e-12)
    second = banach_solve(gs.system, (-0.125,), tol=1e-12)
    assert first.converged and second.converged
    assert first.residual < 1e-9 and second.residual < 1e-9
    assert abs(first.point[0] - second.point[0]) < 1e-8

    p = 2
    alpha = gs.step_factor  # per-step chain contraction factor 1 - alpha_param
    gap = cross_block_chain_distance(trace, 1, 0, p)
    for k in range(21):
        bound = apriori_error_bound(alpha, gs.system.m, k, gap)
        for n in range(k, k + 11):
            measured = cross_block_chain_distance(trace, n, k, p)
            assert measured <= bound + 1e-9, (n, k, measured, bound)
    report(4, "banach solver unique within 1e-8 and a-priori bound dominates, k <= 20")


def test_criterion_5_periodic_point_solver():
    gs = build("affine_strip", {"alpha": 0.5, "h": 1.0})
    first = periodic_point_solve(gs.system, (1.0, 0.0), tol=1e-12)
    second = periodic_point_solve(gs.system, (0.375, 0.0), tol=1e-12)
    assert first.converged and second.converged
    space = gs.system.space
    assert space.distance(gs.system.apply_n(first.point, 2), first.point) < 1e-9
    step_norm = space.distance(first.point, gs.system.apply(first.point))
    assert abs(step_norm - 1.0) < 1e-6
    assert space.distance(first.point, second.point) < 1e-6
    report(5, "periodic point solver: T^2 x = x, |x - Tx| = h, unique within 1e-6")


def test_criterion_6_proximity_chain_finite_dimension():
    gs = make_scaled_pair(separation=2.0, dimension=3)
    result = proximity_chain_extract(gs.system, gs.default_start, tol=1e-12)
    assert result.converged
    assert result.total_residual < 1e-6
    assert all(r < 1e-6 for r in result.edge_residuals)
    report(6, "scaled pair proximity chain: total and per-edge residuals < 1e-6")


def test_criterion_7_non_attainment_counterexample():
    alpha = 0.5
    assert alpha_bound_check(alpha, 2, 2).ok
    gs = make_paper_lq_family(m=2, alpha=alpha, q=2, N=6)
    system = gs.system

    # independent oracle: enumerate chains (x, Tx) directly from the index
    # structure, skipping chains that touch the truncation boundary
    dim = system.space.dimension
    k_top = dim - 2

    def coeff(k):
        return 1.0 + alpha ** k

    def oracle_gap(p):
        edge = math.sqrt(coeff(k_top - 1) ** 2 + coeff(k_top) ** 2)
        if p is INFINITY:
            d_sets = edge
            combine = max
        else:
            d_sets = (2 * edge ** p) ** (1 / p)
            combine = lambda a, b: (a ** p + b ** p) ** (1 / p)
        best = math.inf
        for k in range(k_top - 1):  # chains (e_k, e_{k+1}) avoiding the boundary
            d = math.sqrt(coeff(k) ** 2 + coeff(k + 1) ** 2)
            best = min(best, combine(d, d))
        return best - d_sets

    for p in P_VALUES:
        expected = oracle_gap(p)
        got = attainment_gap(gs, p)
        assert expected > 0.0
        assert abs(got - expected) <= 1e-12, (p, got, expected)

    result = proximity_chain_extract(system, gs.default_start, tol=1e-10, max_iter=2000)
    assert not result.converged
    report(7, "truncated family: positive non-attainment gap matches brute force, "
              "proximity extraction flags non-convergence")


def test_criterion_8_certification_rejects_identity():
    space = LqSpace(Exponent(2.0), 1)
    unit = Box((0.0,), (1.0,))
    system = CyclicSystem(space=space, regions=(unit, unit), map=lambda x: x)
    phi = LinearPhi(0.5)
    cert = verify_contraction(system, phi, 1, tuple_samples=300, seed=0)
    assert not cert.ok
    assert cert.witness_xs and cert.witness_ys
    replay = contraction_margin(system, phi, 1, cert.witness_xs, cert.witness_ys)
    assert abs(replay - cert.min_margin) <= 1e-14
    report(8, "identity map rejected with a witness whose margin replays within 1e-14")


def test_criterion_9_alpha_threshold_grid():
    alphas = [0.05 + 0.1 * i for i in range(10)]
    ms = [2, 3, 4, 5, 6]
    ps = [1.5, INFINITY]
    count = 0
    for alpha in alphas:
        for m in ms:
            for p in ps:
                got = alpha_bound_check(alpha, m, p)
                if p is INFINITY:
                    expected = True
                else:
                    expected = alpha ** m < 2 ** (-1 / p)
                assert got.ok == expected, (alpha, m, p)
                count += 1
    assert count == 100
    report(9, "alpha bound matches direct evaluation on a 100-point grid incl. p = inf")


def test_criterion_10_cli_determinism(tmp_path):
    config = {
        "system": {"id": "affine_strip", "parameters": {"alpha": 0.5, "h": 1.0}},
        "p": 2,
        "phi": {"kind": "linear", "alpha": 0.5},
        "run": "certify",
        "iterations": 300,
        "tolerance": 1e-10,
        "seed": 2024,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        outs.append(out)

    trace_a = (outs[0] / "trace.csv").read_bytes()
    trace_b = (outs[1] / "trace.csv").read_bytes()
    assert trace_a == trace_b

    summaries = []
    for out in outs:
        summary = read_summary(out)
        summary.pop("metadata")
        summaries.append(summary)
    assert summaries[0] == summaries[1]
    report(10, "repeated CLI runs byte-identical modulo the metadata timestamp")
