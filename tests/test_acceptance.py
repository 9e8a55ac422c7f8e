"""End-to-end acceptance checks, one test per promised guarantee.

Each test prints one summary line on success and asserts at the stated
tolerance, so a verbose run reads as a pass/fail scorecard. Tolerances
here are contractual: do not loosen them to make a failure go away.
"""

import math
import time

import numpy as np
import pytest

from planarz import (
    ModelParams,
    error_metric,
    exact_log_z,
    exact_log_z_factor,
    face_parity_violations,
    factor_to_forney,
    gen_grid,
    loop_correction,
    orient,
    pfaffian,
    pfaffian_series,
    reduce_degree,
    run_bp,
    solve_forney,
    triplet_nodes,
    two_core,
    z_empty,
)
from planarz.bench import _rng, normal_draws

from builders import (
    plain_extended,
    random_planar_forney,
    random_planar_vertex_graph,
    random_tree_forney,
)
from oracles import kasteleyn_matrix, lower, matching_count, transfer_log_z


def test_zero_field_grid_correction_is_exact():
    # 50 pairwise grids without fields: the corrected estimate must agree
    # with the exact log Z to 1e-8 relative, and each correction pipeline
    # run must finish within a second. The exact values come from the row
    # transfer matrix, checked against exhaustive enumeration on the first
    # instance
    betas = (0.5, 1.0, 2.0)
    worst = 0.0
    slowest = 0.0
    count = 0
    for n in (4, 5):
        for seed in range(25):
            params = ModelParams(beta=betas[seed % 3], theta=0.0, seed=seed)
            fg, g = gen_grid(n, params)
            exact = transfer_log_z(fg)
            if count == 0:
                assert exact == pytest.approx(exact_log_z_factor(fg), rel=1e-12)
            t0 = time.perf_counter()
            r = solve_forney(g, method="z_empty")
            dt = time.perf_counter() - t0
            assert r["converged"], f"n={n} seed={seed}"
            assert r["log_z"] is not None
            err = error_metric(r["log_z"], exact)
            assert err <= 1e-8, f"n={n} seed={seed}: err {err:.3e}"
            assert dt < 1.0, f"n={n} seed={seed}: {dt:.2f}s"
            worst = max(worst, err)
            slowest = max(slowest, dt)
            count += 1
    print(
        f"PASS zero-field grids: {count} instances, worst rel err "
        f"{worst:.2e}, slowest correction {slowest * 1000:.0f} ms"
    )


def test_full_series_matches_exact_and_loop_sum():
    # 25 random planar graphs with up to 6 degree-3 nodes: the summed
    # removal-set series must reproduce both exhaustive state enumeration
    # and the brute-force generalized-loop sum to 1e-8 relative
    checked = 0
    worst_exact = 0.0
    worst_loops = 0.0
    for seed in range(25):
        g = random_planar_forney(seed)
        assert len(triplet_nodes(g)) <= 6
        assert g.num_edges <= 24
        res = run_bp(g)
        assert res.converged, f"seed {seed}"
        series = pfaffian_series(g, res)
        assert series.complete
        est = res.log_z_bp + series.z_total.log_magnitude
        assert series.z_total.sign == 1, f"seed {seed}"
        exact = exact_log_z(g)
        err = error_metric(est, exact)
        assert err <= 1e-8, f"seed {seed}: vs exact {err:.3e}"
        total, _ = loop_correction(g, res)
        loop_est = res.log_z_bp + math.log(total)
        err2 = error_metric(est, loop_est)
        assert err2 <= 1e-8, f"seed {seed}: vs loop sum {err2:.3e}"
        worst_exact = max(worst_exact, err)
        worst_loops = max(worst_loops, err2)
        checked += 1
    print(
        f"PASS series consistency: {checked} instances, worst vs exact "
        f"{worst_exact:.2e}, worst vs loop oracle {worst_loops:.2e}"
    )


def test_pfaffian_counts_matchings():
    # 25 oriented planar graphs on at most 14 vertices: |Pf| of the
    # all-ones matrix must equal the brute-force perfect matching count
    named = [
        (3, [(0, 1), (1, 2), (2, 0)]),
        (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        (5, [(i, (i + 1) % 5) for i in range(5)]),
        (6, [(i, (i + 1) % 6) for i in range(6)]),
        (7, [(i, (i + 1) % 7) for i in range(7)]),
        (4, [(0, 2), (0, 3), (3, 1), (0, 1), (1, 2)]),  # theta graph
        (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),  # K4
        (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]),  # prism
        (8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
             (0, 4), (1, 5), (2, 6), (3, 7)]),  # cube
    ]
    pool = list(named)
    seed = 0
    while len(pool) < 25:
        n, edges = random_planar_vertex_graph(seed)
        if n <= 14:
            pool.append((n, edges))
        seed += 1
    checked = 0
    for n, edges in pool[:25]:
        ext = plain_extended(n, edges)
        o = orient(ext)
        pf = pfaffian(lower(kasteleyn_matrix(o)))
        want = matching_count(ext.num_vertices, ext.edges)
        if want == 0:
            assert pf.sign == 0, f"graph {n} vertices"
        else:
            got = math.exp(pf.log_magnitude)
            assert round(got) == want and abs(got - want) < 1e-6 * want, (
                f"graph {n} vertices: |Pf| {got} vs count {want}"
            )
        checked += 1
    print(f"PASS matching counts: {checked} graphs, |Pf| integer-exact each time")


def test_orientation_parity_everywhere():
    # 100 random biconnected planar graphs: every bounded face must see an
    # odd number of clockwise-oriented boundary edges
    for seed in range(100):
        n, edges = random_planar_vertex_graph(seed)
        ext = plain_extended(n, edges)
        o = orient(ext)
        bad = face_parity_violations(o)
        assert bad == [], f"seed {seed}: faces {bad}"
    print("PASS orientation parity: 100 graphs, zero bounded-face violations")


def test_bp_exact_on_trees():
    # 100 random tree models: converged BP free energy equals exhaustive
    # enumeration to 1e-10 relative
    worst = 0.0
    for seed in range(100):
        size = 2 + seed % 14
        g = random_tree_forney(size, seed=1000 + seed)
        res = run_bp(g)
        assert res.converged, f"seed {seed}"
        err = error_metric(res.log_z_bp, exact_log_z(g))
        assert err <= 1e-10, f"seed {seed}: err {err:.3e}"
        worst = max(worst, err)
    print(f"PASS trees: 100 instances, worst rel err {worst:.2e}")


def test_correction_dominates_bp_on_attractive_fields():
    # 50 attractive grids with positive fields spread over temperature and
    # field strength: whenever BP converges the corrected estimate must be
    # at least as accurate, and with all-positive magnetizations the
    # estimates must bracket from below: bp <= corrected <= exact. The
    # exact values come from the row transfer matrix, checked against
    # exhaustive enumeration on the first instance
    thetas = (0.1, 1.0)
    betas = (0.1, 0.5, 1.0, 1.5, 2.0)
    sizes = (4, 5)
    cells = [(t, b, n) for t in thetas for b in betas for n in sizes]
    improved = 0
    converged = 0
    sandwiched = 0
    seed = 0
    for idx in range(50):
        theta, beta, n = cells[idx % len(cells)]
        params = ModelParams(beta=beta, theta=theta, attractive=True, seed=300 + idx)
        fg, g = gen_grid(n, params)
        exact = transfer_log_z(fg)
        if idx == 0:
            assert exact == pytest.approx(exact_log_z_factor(fg), rel=1e-12)
        core, log_const = two_core(g)
        res = run_bp(core, max_iterations=1500)
        if not res.converged:
            continue
        converged += 1
        bp_est = log_const + res.log_z_bp
        corr = z_empty(core, res)
        assert corr.sign == 1
        corr_est = bp_est + corr.log_magnitude
        err_bp = error_metric(bp_est, exact)
        err_corr = error_metric(corr_est, exact)
        assert err_corr <= err_bp, (
            f"instance {idx}: corrected {err_corr:.3e} vs bp {err_bp:.3e}"
        )
        improved += 1
        if all(m > 0 for m in res.magnetizations.values()):
            assert bp_est <= corr_est <= exact + 1e-9 * abs(exact), f"instance {idx}"
            sandwiched += 1
    assert converged >= 45, f"only {converged} of 50 converged"
    assert improved == converged
    print(
        f"PASS attractive fields: {converged}/50 converged, correction as "
        f"accurate or better in all of them, {sandwiched} bracketed below exact"
    )


def test_pfaffian_squared_is_determinant():
    # 100 random skew matrices up to 60x60: Pf^2 = det to 1e-8 relative
    # in log space; odd dimensions give exactly zero
    rng = np.random.default_rng(77)
    worst = 0.0
    odd_checked = 0
    for trial in range(100):
        n = int(rng.integers(2, 61))
        m = rng.normal(size=(n, n))
        a = m - m.T
        pf = pfaffian(lower(a))
        if n % 2 == 1:
            assert pf.sign == 0
            assert pf.log_magnitude == -math.inf
            odd_checked += 1
            continue
        sign, logdet = np.linalg.slogdet(a)
        assert sign == pytest.approx(1.0)
        diff = abs(2.0 * pf.log_magnitude - logdet)
        assert diff <= 1e-8, f"trial {trial} n={n}: log gap {diff:.3e}"
        worst = max(worst, diff)
    print(
        f"PASS pfaffian identity: 100 matrices ({odd_checked} odd), "
        f"worst log gap {worst:.2e}"
    )


def _prism_factor_graph(beta: float, theta: float, seed: int):
    # triangular prism on 6 variables: two triangles plus three rungs,
    # a pair coupling per edge and a field per variable
    variables = [f"u{i}" for i in range(3)] + [f"w{i}" for i in range(3)]
    edges = (
        [("u0", "u1"), ("u1", "u2"), ("u2", "u0")]
        + [("w0", "w1"), ("w1", "w2"), ("w2", "w0")]
        + [("u0", "w0"), ("u1", "w1"), ("u2", "w2")]
    )
    gen = _rng(seed, 0)
    js = normal_draws(gen, len(edges), math.sqrt(beta / 2.0))
    hs = normal_draws(gen, len(variables), math.sqrt(beta * theta))
    factors = []
    for (a, b), j in zip(edges, js):
        factors.append(
            (f"J_{a}_{b}", (a, b), [math.exp(j), math.exp(-j), math.exp(-j), math.exp(j)])
        )
    for v, h in zip(variables, hs):
        factors.append((f"h_{v}", (v,), [math.exp(-h), math.exp(h)]))
    from planarz import FactorGraph

    return FactorGraph(variables, factors)


def test_prism_series_term_dominance():
    # degree-3 variable graph at three temperatures: the full 32-term
    # series must hit enumeration to 1e-8, with the empty removal set as
    # the dominant term in every regime
    for beta in (0.1, 0.5, 1.5):
        fg = _prism_factor_graph(beta, theta=0.1, seed=17)
        g = reduce_degree(factor_to_forney(fg))
        core, log_const = two_core(g)
        assert core.num_edges == 24
        assert len(triplet_nodes(core)) == 6
        res = run_bp(core)
        assert res.converged, f"beta {beta}"
        series = pfaffian_series(core, res)
        assert series.complete
        assert len(series.terms) == 32
        est = log_const + res.log_z_bp + series.z_total.log_magnitude
        exact = exact_log_z_factor(fg)
        err = error_metric(est, exact)
        assert err <= 1e-8, f"beta {beta}: err {err:.3e}"
        dominant = max(series.terms, key=lambda t: t.contribution.log_magnitude)
        assert dominant.psi == (), f"beta {beta}: dominant term {dominant.psi}"
    print(
        "PASS prism series: 3 temperature regimes, 32 terms each, "
        "series matches enumeration to 1e-8 with the empty set dominant"
    )
