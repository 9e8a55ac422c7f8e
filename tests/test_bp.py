"""Belief propagation: exactness on trees, schedules, beliefs, loop weights.

BP is exact on trees, so 100 random trees at rel 1e-10 pin down the
message updates, the belief normalization, and the free energy in one
sweep. Cycle and ladder cases exercise the loopy regime where only
self-consistency can be checked.
"""

import math
import tracemalloc

import numpy as np
import pytest

from planarz import (
    BPConfig,
    ForneyGraph,
    ModelError,
    ModelParams,
    SCHEDULES,
    dump_beliefs,
    exact_log_z,
    gen_grid,
    gen_spiderweb,
    loop_correction,
    mu_term,
    pfaffian_series,
    run_bp,
    run_bp_multistart,
    two_core,
)
from planarz.bp import BPNumericError

from builders import cycle_forney, ladder_graph, random_planar_forney, random_tree_forney
from oracles import reference_mu_term, reference_run_bp


def test_exact_on_random_trees():
    for seed in range(100):
        size = 2 + seed % 14
        g = random_tree_forney(size, seed=seed)
        res = run_bp(g, BPConfig())
        assert res.converged
        assert res.log_z_bp == pytest.approx(exact_log_z(g), rel=1e-10)


def test_tree_beliefs_are_exact_marginals():
    g = random_tree_forney(7, seed=3)
    res = run_bp(g, BPConfig())
    # brute-force edge marginal for one edge
    e = g.edges[0]
    num = {-1: 0.0, 1: 0.0}
    for mask in range(2 ** g.num_edges):
        spins = {ed: 1 if (mask >> i) & 1 else -1 for i, ed in enumerate(g.edges)}
        p = 1.0
        for a in g.nodes:
            idx = 0
            for b in g.neighbors[a]:
                idx = 2 * idx + (1 if spins[tuple(sorted((a, b)))] > 0 else 0)
            p *= g.tables[a][idx]
        num[spins[e]] += p
    z = num[-1] + num[1]
    np.testing.assert_allclose(
        res.edge_beliefs[e], [num[-1] / z, num[1] / z], rtol=1e-9
    )


def test_all_schedules_agree_when_converged():
    g = ladder_graph(seed=5)
    values = {}
    for s in SCHEDULES:
        res = run_bp(g, BPConfig(schedule=s))
        assert res.converged, s
        values[s] = res.log_z_bp
    base = values["fixed"]
    for s, v in values.items():
        assert v == pytest.approx(base, abs=100 * 1e-14), s


def test_parallel_may_need_more_sweeps_than_residual():
    g = random_planar_forney(12)
    it = {}
    for s in ("parallel", "residual"):
        res = run_bp(g, BPConfig(schedule=s))
        assert res.converged
        it[s] = res.iterations
    assert it["residual"] <= it["parallel"]


def test_unconverged_flagged_not_raised():
    # two nodes, strongly repulsive symmetric tables, parallel schedule
    # oscillates; the run must report rather than raise
    g = cycle_forney(4, seed=9, spread=3.0)
    res = run_bp(g, BPConfig(schedule="parallel", max_iterations=20))
    assert res.iterations == 20 or res.converged
    if not res.converged:
        assert res.final_residual > 0


def test_multistart_prefers_first_converged():
    g = ladder_graph(seed=2)
    res = run_bp_multistart(g, BPConfig())
    assert res.converged
    assert res.schedule == "fixed"


def _known_gap_core():
    # spiderweb(2,6), beta 1, theta 0.1, seed 0: no schedule converges in
    # the first few hundred sweeps
    return two_core(gen_spiderweb(2, 6, ModelParams(beta=1.0, theta=0.1, seed=0))[1])[0]


def test_multistart_falls_back_to_smallest_residual():
    core = _known_gap_core()
    runs = {s: run_bp(core, BPConfig(schedule=s, max_iterations=10)) for s in SCHEDULES}
    assert not any(r.converged for r in runs.values())
    best = min(SCHEDULES, key=lambda s: runs[s].final_residual)
    assert best == "residual"
    res = run_bp_multistart(core, BPConfig(max_iterations=10))
    assert not res.converged
    assert (res.schedule, res.final_residual, res.log_z_bp) == (
        best, runs[best].final_residual, runs[best].log_z_bp
    )


def test_residual_memory_does_not_grow_with_sweeps():
    core = _known_gap_core()
    peaks = []
    for sweeps in (25, 100):
        tracemalloc.start()
        res = run_bp(core, BPConfig(schedule="residual", max_iterations=sweeps))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert not res.converged and res.iterations == sweeps
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_empty_graph():
    from planarz import ForneyGraph

    g = ForneyGraph({}, {})
    res = run_bp(g, BPConfig())
    assert res.converged
    assert res.log_z_bp == 0.0


def test_bethe_consistency_on_cycle():
    # single cycle: marginal of node belief must match edge belief
    g = cycle_forney(5, seed=4)
    res = run_bp(g, BPConfig())
    assert res.converged
    for a in g.nodes:
        nb = res.node_beliefs[a]
        for pos, b in enumerate(g.neighbors[a]):
            e = tuple(sorted((a, b)))
            k = g.degree(a)
            marg = nb.reshape((2,) * k).sum(
                axis=tuple(i for i in range(k) if i != pos)
            )
            np.testing.assert_allclose(marg, res.edge_beliefs[e], atol=1e-10)


def _kernel_cases():
    for seed in range(100):
        yield random_tree_forney(2 + seed % 14, seed=seed), {}
    for seed in range(10):
        yield ladder_graph(seed=seed), {}
    yield cycle_forney(4, seed=9, spread=3.0), {"max_iterations": 20}
    for seed in range(20):
        yield random_planar_forney(seed), {}
    for seed in range(4):
        yield gen_grid(5, ModelParams(beta=1.0, theta=1.0, seed=seed))[1], {}
        yield gen_spiderweb(1, 4, ModelParams(beta=0.5, theta=0.5, seed=seed))[1], {}


def test_kernel_matches_reference_bp():
    # the slot kernel against the numpy array update it replaced: same
    # sweeps under every schedule, same fixed point
    for g, kw in _kernel_cases():
        for s in SCHEDULES:
            cfg = BPConfig(schedule=s, **kw)
            res, ref = run_bp(g, cfg), reference_run_bp(g, cfg)
            assert (res.iterations, res.converged, res.schedule) == (
                ref.iterations, ref.converged, ref.schedule
            ), (g, s)
            np.testing.assert_allclose(res.log_z_bp, ref.log_z_bp, rtol=1e-12, atol=0)
            for e in g.edges:
                np.testing.assert_allclose(
                    res.edge_beliefs[e], ref.edge_beliefs[e], rtol=1e-12, atol=0
                )
                np.testing.assert_allclose(
                    res.magnetizations[e], ref.magnetizations[e], rtol=1e-12, atol=0
                )


def test_unnormalizable_message_names_the_edge():
    # K4 whose node a allows only all +1 and b, c, d only all -1: their
    # messages floor a's +1 input at MESSAGE_FLOOR, and the first message
    # out of a with two floored inputs underflows to a zero sum. Which
    # message that is depends on the schedule's order
    nbrs = {a: tuple(b for b in "abcd" if b != a) for a in "abcd"}
    g = ForneyGraph(nbrs, {a: np.eye(8)[7 if a == "a" else 0] for a in nbrs})
    expected = {"fixed": "'a'->'d'", "random": "'a'->'c'", "parallel": "'a'->'b'",
                "residual": "'a'->'d'"}
    for s in SCHEDULES:
        with pytest.raises(BPNumericError, match=f"message {expected[s]} is not normalizable"):
            run_bp(g, BPConfig(schedule=s))


def test_magnetization_matches_edge_belief():
    g = ladder_graph(seed=7)
    res = run_bp(g, BPConfig())
    for e, m in res.magnetizations.items():
        p = res.edge_beliefs[e]
        assert m == pytest.approx(p[1] - p[0], abs=1e-14)


# ---------------------------------------------------------------- mu_term


def test_mu_term_independent_recomputation():
    g = ladder_graph(seed=1)
    res = run_bp(g, BPConfig())
    a = "t1"
    nbrs = res.neighbor_order[a]
    subset = (nbrs[0], nbrs[2])
    belief = res.node_beliefs[a]
    total = 0.0
    for idx in range(8):
        spins = [1 if (idx >> (2 - i)) & 1 else -1 for i in range(3)]
        term = belief[idx]
        for b, s in zip(nbrs, spins):
            if b in subset:
                e = tuple(sorted((a, b)))
                term *= s - res.magnetizations[e]
        total += term
    for b in subset:
        e = tuple(sorted((a, b)))
        total /= math.sqrt(1.0 - res.magnetizations[e] ** 2)
    assert mu_term(res, a, subset) == pytest.approx(total, rel=1e-12)


def test_mu_term_antisymmetry_under_global_flip():
    # negating every edge variable (reversing every table) mirrors the BP
    # fixed point, so m -> -m and mu over a set S picks up (-1)^|S|
    from planarz import ForneyGraph

    g = ladder_graph(seed=8)
    res = run_bp(g, BPConfig())
    g2 = ForneyGraph(g.neighbors, {a: g.tables[a][::-1].copy() for a in g.nodes})
    res2 = run_bp(g2, BPConfig())
    assert res.converged and res2.converged
    for e, m in res.magnetizations.items():
        assert res2.magnetizations[e] == pytest.approx(-m, abs=1e-12)
    for a in ("t1", "b2"):
        nbrs = res.neighbor_order[a]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            sub = (nbrs[i], nbrs[j])
            assert mu_term(res2, a, sub) == pytest.approx(
                mu_term(res, a, sub), rel=1e-9, abs=1e-12
            )
        assert mu_term(res2, a, nbrs) == pytest.approx(
            -mu_term(res, a, nbrs), rel=1e-9, abs=1e-12
        )


def test_mu_term_validates_subset():
    g = ladder_graph(seed=0)
    res = run_bp(g, BPConfig())
    with pytest.raises(ModelError):
        mu_term(res, "t1", ("t0",))  # size 1
    with pytest.raises(ModelError):
        mu_term(res, "t1", ("t0", "t0"))  # repeat
    with pytest.raises(ModelError):
        mu_term(res, "t1", ("t0", "b3"))  # not a neighbor


def test_loop_weight_tables_match_reference_formula():
    # every entry of size 2 and 3 against the magnetization formula the
    # tables replaced, away from saturation where that formula is accurate
    models = [ladder_graph(seed=s) for s in range(3)]
    models += [random_planar_forney(s) for s in range(5)]
    for theta in (0.0, 1.0):
        for seed in range(2):
            params = ModelParams(beta=1.0, theta=theta, seed=seed)
            models.append(two_core(gen_spiderweb(2, 3, params)[1])[0])
            models.append(two_core(gen_grid(5, params)[1])[0])
    checked = 0
    for g in models:
        res = run_bp(g, BPConfig())
        for a in g.nodes:
            nbrs = g.neighbors[a]
            k = len(nbrs)
            table = res.loop_weights[a]
            assert table.shape == (1 << k,) and table[0] == 1.0
            for s in range(1 << k):
                subset = [b for i, b in enumerate(nbrs) if s >> (k - 1 - i) & 1]
                if len(subset) in (2, 3):
                    want = reference_mu_term(res, a, subset)
                    assert table[s] == pytest.approx(want, rel=1e-12, abs=1e-14), (a, subset)
                    checked += 1
    assert checked > 1000


def test_saturated_ring_loop_corrections_are_exact():
    # biased equality tables push every edge to |m| = 1 - 5e-15, where
    # 1 - m^2 keeps about one digit; the loop weights come from the log
    # messages instead and both corrections stay exact on the single loop
    nbrs = {f"n{i}": (f"n{(i - 1) % 3}", f"n{(i + 1) % 3}") for i in range(3)}
    g = ForneyGraph(nbrs, {a: np.array([1.0, 1e-7, 1e-7, 3.0]) for a in nbrs})
    res = run_bp(g, BPConfig())
    assert res.converged
    assert abs(res.magnetizations[("n0", "n1")]) > 1 - 1e-14
    exact = exact_log_z(g)
    series = pfaffian_series(g, res)
    assert series.complete and series.z_total.sign == 1
    assert res.log_z_bp + series.z_total.log_magnitude == pytest.approx(exact, rel=1e-10)
    total, count = loop_correction(g, res)
    assert count == 1 and total > 1.0
    assert res.log_z_bp + math.log(total) == pytest.approx(exact, rel=1e-10)


def test_dump_beliefs_contains_all_rows():
    g = ladder_graph(seed=0)
    res = run_bp(g, BPConfig())
    text = dump_beliefs(res)
    assert text.count("node ") == g.num_nodes
    assert text.count("edge ") == g.num_edges
