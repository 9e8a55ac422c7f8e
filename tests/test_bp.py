"""Belief propagation: exactness on trees, convergence, beliefs, loop weights.

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
    ForneyGraph,
    ModelError,
    ModelParams,
    exact_log_z,
    exact_log_z_factor,
    gen_grid,
    gen_spiderweb,
    loop_correction,
    mu_term,
    pfaffian_series,
    run_bp,
    two_core,
)
from planarz import bp as bp_module
from planarz.bp import RESIDUAL_THRESHOLD, BPNumericError

from builders import cycle_forney, ladder_graph, random_planar_forney, random_tree_forney
from oracles import reference_mu_term, reference_run_bp


def test_exact_on_random_trees():
    for seed in range(100):
        size = 2 + seed % 14
        g = random_tree_forney(size, seed=seed)
        res = run_bp(g)
        assert res.converged
        assert res.log_z_bp == pytest.approx(exact_log_z(g), rel=1e-10)


def test_tree_beliefs_are_exact_marginals():
    g = random_tree_forney(7, seed=3)
    res = run_bp(g)
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


def _known_gap_core():
    # spiderweb(2,6), beta 1, theta 0.1, seed 0: BP does not converge on
    # it within 2,000 sweeps
    return two_core(gen_spiderweb(2, 6, ModelParams(beta=1.0, theta=0.1, seed=0))[1])[0]


def test_unconverged_flagged_not_raised():
    # the Known-gap core does not converge in 20 sweeps: the run must
    # report that, with beliefs from its final messages, rather than raise
    core = _known_gap_core()
    res = run_bp(core, max_iterations=20)
    assert not res.converged
    assert res.iterations == 20
    assert res.final_residual >= RESIDUAL_THRESHOLD
    assert math.isfinite(res.log_z_bp)


def test_converges_where_fixed_sweeps_did_not():
    # in-order sweeps over every message do not converge on the two
    # spiderwebs within 10,000 sweeps and need 2,713 on the grid;
    # largest-residual-first updates need at most 114
    cases = [
        gen_spiderweb(2, 6, ModelParams(beta=2.0, theta=0.5, seed=7))[1],
        gen_grid(6, ModelParams(beta=2.0, theta=0.5, seed=1))[1],
        gen_spiderweb(2, 4, ModelParams(beta=2.0, theta=0.1, seed=0))[1],
    ]
    for g in cases:
        res = run_bp(two_core(g)[0])
        assert res.converged and res.iterations <= 200, res.iterations


def test_run_bp_rejects_zero_max_iterations():
    with pytest.raises(ValueError, match="max_iterations must be at least 1"):
        run_bp(cycle_forney(3, seed=0), max_iterations=0)


def test_residual_memory_does_not_grow_with_sweeps():
    core = _known_gap_core()
    peaks = []
    for sweeps in (25, 100):
        tracemalloc.start()
        res = run_bp(core, max_iterations=sweeps)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert not res.converged and res.iterations == sweeps
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_empty_graph():
    from planarz import ForneyGraph

    g = ForneyGraph({}, {})
    res = run_bp(g)
    assert res.converged
    assert res.log_z_bp == 0.0


def test_bethe_consistency_on_cycle():
    # single cycle: marginal of node belief must match edge belief
    g = cycle_forney(5, seed=4)
    res = run_bp(g)
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
    # every initial message is (4/7, 3/7): 12 residuals tie, and only the
    # lowest-slot rule fixes the order in which they are applied
    ring = {f"n{i}": (f"n{(i - 1) % 6}", f"n{(i + 1) % 6}") for i in range(6)}
    tied = ForneyGraph(ring, {a: np.array([3.0, 1.0, 1.0, 2.0]) for a in ring})
    yield tied, {}
    yield tied, {"max_iterations": 1}
    # an equality sender, zero but in its first and last entry, takes the
    # two-corner form: with -0.0 between its corners, with the smallest
    # subnormal there (the full kernel), and with corners near 1e-300 and
    # 1e300
    core = two_core(gen_grid(5, ModelParams(beta=1.0, theta=1.0, seed=0))[1])[0]
    equal = [a for a in core.nodes if not core.tables[a][1:-1].any()]
    assert {core.degree(a) for a in equal} == {2, 3}
    signed = {a: np.where(t == 0.0, -0.0, t) if a in equal else t for a, t in core.tables.items()}
    yield ForneyGraph(core.neighbors, signed), {}
    a = next(a for a in equal if core.degree(a) == 3)
    signed[a] = signed[a].copy()
    signed[a][5] = 5e-324
    yield ForneyGraph(core.neighbors, signed), {}
    for scale in (1e-300, 1e300):
        scaled = {a: t * scale if a in equal else t for a, t in core.tables.items()}
        yield ForneyGraph(core.neighbors, scaled), {}


def test_kernel_matches_reference_bp():
    # the inlined slot kernel and residual heap against a numpy array
    # update per message and a versioned heap: same sweeps, same fixed point
    for g, kw in _kernel_cases():
        res, ref = run_bp(g, **kw), reference_run_bp(g, **kw)
        assert (res.iterations, res.converged) == (ref.iterations, ref.converged), g
        assert res.final_residual == ref.final_residual, g
        np.testing.assert_allclose(res.log_z_bp, ref.log_z_bp, rtol=1e-12, atol=0)
        for e in g.edges:
            np.testing.assert_allclose(
                res.edge_beliefs[e], ref.edge_beliefs[e], rtol=1e-12, atol=0
            )
            np.testing.assert_allclose(
                res.magnetizations[e], ref.magnetizations[e], rtol=1e-12, atol=0
            )


def _bp_fields(res):
    tables = (res.node_beliefs, res.edge_beliefs, res.loop_weights)
    return (
        res.converged,
        res.iterations,
        res.final_residual.hex(),
        res.log_z_bp.hex(),
        [[(k, [x.hex() for x in v.tolist()]) for k, v in d.items()] for d in tables],
        [(e, m.hex()) for e, m in res.magnetizations.items()],
        res.neighbor_order,
    )


def _rotated(g, a):
    # a's neighbor order turned by one, its table permuted to match: the
    # same model on the same node ids, but another topology key
    nbrs = dict(g.neighbors)
    nbrs[a] = nbrs[a][1:] + nbrs[a][:1]
    k = len(nbrs[a])
    tables = dict(g.tables)
    tables[a] = g.tables[a].reshape((2,) * k).transpose(*range(1, k), 0).reshape(-1)
    return ForneyGraph(nbrs, tables)


def test_warm_plan_gives_the_cold_digits(monkeypatch):
    # run_bp plans a topology once and refills only the tables: every
    # field of a warm run, after another table on the same topology, is
    # the cold run's to the last digit
    grids = [gen_grid(4, ModelParams(beta=1.0, theta=1.0, seed=s))[1] for s in range(3)]
    zero_field = gen_grid(8, ModelParams(beta=1.0, theta=0.0, seed=0))[1]
    wheel = {"h": ("r0", "r1", "r2", "r3")}
    wheel.update({f"r{i}": ("h", f"r{(i - 1) % 4}", f"r{(i + 1) % 4}") for i in range(4)})
    rng = np.random.default_rng(5)
    unsplit = ForneyGraph(wheel, {a: rng.uniform(0.3, 1.7, 2 ** len(n)) for a, n in wheel.items()})
    a = next(a for a in grids[0].nodes if grids[0].degree(a) == 3)
    # one of grids[0]'s equality nodes with nonzero middle entries: the same
    # plan, but that node's slots take the full kernel, not two corners
    g0 = grids[0]
    b = next(b for b in g0.nodes if g0.degree(b) == 3 and not g0.tables[b][1:-1].any())
    tables = dict(g0.tables)
    tables[b] = tables[b] + 0.25
    mixed = ForneyGraph(g0.neighbors, tables)
    models = [
        *grids,
        mixed,
        _rotated(grids[0], a),
        zero_field,
        gen_spiderweb(2, 3, ModelParams(beta=1.0, theta=1.0, seed=0))[1],
        unsplit,  # the hub's slots take the generic kernel
    ]
    other = cycle_forney(3, seed=0)
    cold = []
    for g in models:
        run_bp(other)
        cold.append(_bp_fields(run_bp(g)))
    assert cold[5][:2] == (True, 1)  # the zero-field grid applies no update
    assert float.fromhex(cold[4][3]) == pytest.approx(float.fromhex(cold[0][3]), rel=1e-12)
    assert cold[3] != cold[0]
    real = bp_module._plan
    calls = []
    monkeypatch.setattr(bp_module, "_plan", lambda g: calls.append(1) or real(g))
    for _ in range(2):
        for g, want in zip(models, cold):
            assert _bp_fields(run_bp(g)) == want
            assert _bp_fields(run_bp(g)) == want
    # the kernel form is chosen per run, never kept with the plan
    for _ in range(3):
        for g, want in ((grids[0], cold[0]), (mixed, cold[3])):
            assert _bp_fields(run_bp(g)) == want
    # the grids share one plan; the rotated grid, like the others, has its own
    assert len(calls) == 2 * 5 + 1


def test_unnormalizable_message_names_the_edge():
    # K4 whose node a allows only all +1 and b, c, d only all -1: their
    # messages floor a's +1 input at MESSAGE_FLOOR, and the first message
    # out of a with two floored inputs underflows to a zero sum
    nbrs = {a: tuple(b for b in "abcd" if b != a) for a in "abcd"}
    g = ForneyGraph(nbrs, {a: np.eye(8)[7 if a == "a" else 0] for a in nbrs})
    with pytest.raises(BPNumericError, match="message 'a'->'d' is not normalizable"):
        run_bp(g)


def test_finish_names_the_first_failing_node_and_edge():
    # messages run_bp never leaves (its floor keeps every entry positive),
    # handed to _finish directly: it names the first node, then the first
    # edge, in graph order, whose belief cannot be normalized
    g = cycle_forney(4, seed=0)
    plan = bp_module._plan(g)
    slot = {de: j for j, de in enumerate(plan.dir_edges)}
    lo, hi = [0.5] * len(slot), [0.5] * len(slot)
    for de in (("n2", "n3"), ("n0", "n1")):  # all-zero messages into n3 and n1
        lo[slot[de]] = hi[slot[de]] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(BPNumericError, match="^belief of node 'n1' vanished or overflowed$"):
            bp_module._finish(g, plan, lo, hi, True, 1, 0.0)
        lo, hi = [0.5] * len(slot), [0.5] * len(slot)
        for e in g.edges[1:]:  # each message of an edge rules out the other's value
            lo[slot[e]], hi[slot[e[::-1]]] = 0.0, 0.0
        with pytest.raises(BPNumericError, match="^edge belief 'n0'-'n3' is not normalizable$"):
            bp_module._finish(g, plan, lo, hi, True, 1, 0.0)


def test_magnetization_matches_edge_belief():
    g = ladder_graph(seed=7)
    res = run_bp(g)
    for e, m in res.magnetizations.items():
        p = res.edge_beliefs[e]
        assert m == pytest.approx(p[1] - p[0], abs=1e-14)


# ---------------------------------------------------------------- mu_term


def test_mu_term_independent_recomputation():
    g = ladder_graph(seed=1)
    res = run_bp(g)
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
    res = run_bp(g)
    g2 = ForneyGraph(g.neighbors, {a: g.tables[a][::-1].copy() for a in g.nodes})
    res2 = run_bp(g2)
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
    res = run_bp(g)
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
        res = run_bp(g)
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
    res = run_bp(g)
    assert res.converged
    assert abs(res.magnetizations[("n0", "n1")]) > 1 - 1e-14
    exact = exact_log_z(g)
    series = pfaffian_series(g, res)
    assert series.complete and series.z_total.sign == 1
    assert res.log_z_bp + series.z_total.log_magnitude == pytest.approx(exact, rel=1e-10)
    total, count = loop_correction(g, res)
    assert count == 1 and total > 1.0
    assert res.log_z_bp + math.log(total) == pytest.approx(exact, rel=1e-10)



@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="RESIDUAL_THRESHOLD is absolute on probability-space messages, so "
    "a change in a tiny message component never registers and BP stops far "
    "from its fixed point",
)
def test_stiff_grid_series_matches_exact():
    # beta 500 on a 3x3 grid with fields: BP reports converged after 2
    # sweeps at residual 6.7e-16, and bp and the full series both give
    # 271.9331530249983 against exact 339.07278669328076. With the
    # threshold at 0 and 50 sweeps the series gives the exact value
    fg, g = gen_grid(3, ModelParams(beta=500.0, theta=1.0, seed=0))
    core, log_const = two_core(g)
    res = run_bp(core)
    series = pfaffian_series(core, res)
    assert res.converged and series.complete
    est = log_const + res.log_z_bp + series.z_total.log_magnitude
    assert est == pytest.approx(exact_log_z_factor(fg), rel=1e-9)
