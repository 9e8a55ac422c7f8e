"""Loop corrections: the 2-regular term, the full series, and the oracle.

Three-way agreement is the point: the matching-based series, the brute
enumeration of generalized loops, and exhaustive state enumeration must
all coincide. The ladder census (counts per removal set) is frozen from a
hand derivation.
"""

import importlib
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from planarz import (
    ForneyGraph,
    ModelError,
    ModelParams,
    NonPlanarError,
    OrientationError,
    SignedLog,
    SparseSkew,
    exact_log_z,
    exact_log_z_factor,
    fisher_extend,
    gen_grid,
    gen_spiderweb,
    loop_correction,
    matching_sign,
    orient,
    pfaffian,
    pfaffian_series,
    run_bp,
    triplet_nodes,
    two_core,
    z_empty,
)
from planarz.planar import _weight_pool
from builders import cycle_forney, ladder_graph, random_planar_forney
from oracles import (
    dense_minor_term,
    enumerate_loops,
    exact_pfaffian,
    flipped_minor,
    fold_nodes,
    folded_tutte_matrix,
    kasteleyn_matrix,
    layout_tutte_matrix,
    lower,
    reference_matching,
)

bp_module = importlib.import_module("planarz.bp")
model_module = importlib.import_module("planarz.model")
oracles_module = importlib.import_module("oracles")
pfaffian_module = importlib.import_module("planarz.pfaffian")
series_module = importlib.import_module("planarz.series")


def _bp(g):
    res = run_bp(g)
    assert res.converged
    return res


def _laid_out(g, res):
    # the series' oriented graph of g and its K for res, as entries
    lay = _kept_layout(g)
    return lay.o, lay.pattern.entries(_weight_pool(g, res))


def _kept_layout(g):
    # the series' layout of g, as pfaffian_series keeps it
    return model_module._kept(g, series_module._layout)


# ---------------------------------------------------------------- loop oracle


def test_cycle_has_one_loop():
    g = cycle_forney(6, seed=0)
    res = _bp(g)
    loops = enumerate_loops(g, res)
    assert len(loops) == 1
    assert len(loops[0].edges) == 6
    assert loops[0].triplets == ()


def test_ladder_loop_census():
    # frozen by hand for the 2x4 ladder: 7 two-regular loops and 7 loops
    # with degree-3 nodes, grouped by which nodes have degree 3
    g = ladder_graph(seed=4)
    res = _bp(g)
    loops = enumerate_loops(g, res)
    assert len(loops) == 14
    regular = enumerate_loops(g, res, regular_only=True)
    assert len(regular) == 7
    census = Counter(l.triplets for l in loops)
    assert census[()] == 7
    assert census[("b1", "t1")] == 2
    assert census[("b2", "t2")] == 2
    assert census[("b1", "b2")] == 1
    assert census[("t1", "t2")] == 1
    assert census[("b1", "b2", "t1", "t2")] == 1
    # interleaved pairs cannot close a generalized loop on the ladder
    assert census[("b1", "t2")] == 0
    assert census[("b2", "t1")] == 0


def test_loop_weights_product_form():
    g = ladder_graph(seed=4)
    res = _bp(g)
    from planarz import mu_term

    for loop in enumerate_loops(g, res):
        want = 1.0
        seen = set()
        for u, v in loop.edges:
            seen.add(u)
            seen.add(v)
        for a in seen:
            inside = tuple(b for b in g.neighbors[a] if tuple(sorted((a, b))) in loop.edges)
            want *= mu_term(res, a, inside)
        assert loop.weight == pytest.approx(want, rel=1e-12)


def test_loop_correction_streams_same_total():
    g = ladder_graph(seed=4)
    res = _bp(g)
    total, count = loop_correction(g, res)
    loops = enumerate_loops(g, res)
    assert count == len(loops)
    assert total == pytest.approx(1.0 + sum(l.weight for l in loops), rel=1e-14)


def test_loop_oracle_does_not_depend_on_chunk_size(monkeypatch):
    # 17 edges in chunks of 2^6 masks: same loops, order, triplets and weights
    g = random_planar_forney(5)
    res = _bp(g)
    for regular_only in (False, True):
        want = enumerate_loops(g, res, regular_only)
        total, count = loop_correction(g, res, regular_only)
        with monkeypatch.context() as m:
            m.setattr(importlib.import_module("planarz.model"), "_CHUNK_BITS", 6)
            got = enumerate_loops(g, res, regular_only)
            assert loop_correction(g, res, regular_only) == pytest.approx((total, count), rel=1e-12)
        assert [(l.edges, l.triplets) for l in got] == [(l.edges, l.triplets) for l in want]
        assert [l.weight for l in got] == pytest.approx([l.weight for l in want], rel=1e-12)


def test_loop_enumeration_caps():
    big = cycle_forney(25, seed=0)
    res_big = _bp(big)
    with pytest.raises(ModelError):
        enumerate_loops(big, res_big)


# ---------------------------------------------------------------- z_empty


def test_z_empty_exact_on_single_cycle():
    # one loop, and the matching construction must reproduce it exactly
    for seed in range(5):
        g = cycle_forney(5 + seed, seed=seed)
        res = _bp(g)
        corr = z_empty(g, res)
        total, _ = loop_correction(g, res)
        assert corr.to_float() == pytest.approx(total, rel=1e-12)
        est = res.log_z_bp + corr.log_magnitude
        assert est == pytest.approx(exact_log_z(g), rel=1e-12)


def test_z_empty_matches_regular_loop_sum():
    for seed in range(8):
        g = random_planar_forney(seed)
        res = _bp(g)
        corr = z_empty(g, res)
        total, _ = loop_correction(g, res, regular_only=True)
        assert corr.to_float() == pytest.approx(total, rel=1e-10), f"seed {seed}"


def test_z_empty_empty_graph_is_one():
    g = ForneyGraph({}, {})
    assert z_empty(g, None).to_float() == 1.0


# ---------------------------------------------------------------- full series


def test_series_terms_match_loop_groups():
    # every removal-set term equals the summed weights of the loops whose
    # degree-3 set is exactly that removal set (plus 1 for the empty set)
    g = ladder_graph(seed=11)
    res = _bp(g)
    series = pfaffian_series(g, res)
    groups: dict = {}
    for loop in enumerate_loops(g, res):
        groups[loop.triplets] = groups.get(loop.triplets, 0.0) + loop.weight
    for term in series.terms:
        want = groups.get(term.psi, 0.0) + (1.0 if term.psi == () else 0.0)
        assert term.contribution.to_float() == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_series_total_matches_oracle_and_exact():
    for seed in (1, 3, 5, 7):
        g = random_planar_forney(seed)
        res = _bp(g)
        series = pfaffian_series(g, res)
        assert series.complete
        total, _ = loop_correction(g, res)
        assert series.z_total.to_float() == pytest.approx(total, rel=1e-9), f"seed {seed}"
        est = res.log_z_bp + series.z_total.log_magnitude
        assert est == pytest.approx(exact_log_z(g), rel=1e-9), f"seed {seed}"


def test_series_term_count():
    g = ladder_graph(seed=0)
    res = _bp(g)
    series = pfaffian_series(g, res)
    # 4 degree-3 nodes: 1 empty + 6 pairs + 1 quadruple
    assert len(series.terms) == 8
    assert series.terms[0].psi == ()
    sizes = [len(t.psi) for t in series.terms]
    assert sizes == sorted(sizes)


def test_series_max_psi_size():
    g = ladder_graph(seed=0)
    res = _bp(g)
    series = pfaffian_series(g, res, max_psi_size=2)
    assert len(series.terms) == 7
    assert not series.complete
    full = pfaffian_series(g, res)
    for a, b in zip(series.terms, full.terms):
        assert a.psi == b.psi


def test_series_rejects_negative_caps():
    g = ladder_graph(seed=0)
    res = _bp(g)
    with pytest.raises(ModelError, match="non-negative"):
        pfaffian_series(g, res, max_psi_size=-1)
    assert len(pfaffian_series(g, res, max_psi_size=0).terms) == 1


def test_triplet_nodes_sorted():
    g = ladder_graph(seed=0)
    assert triplet_nodes(g) == ("b1", "b2", "t1", "t2")


# ------------------------------------------------- one Pfaffian per term


def _series_models():
    for seed in range(6):
        yield ladder_graph(seed=seed)
    for seed in range(12):
        yield random_planar_forney(seed)
    for rings, spokes, seed in ((1, 3, 0), (1, 3, 1), (2, 3, 0)):
        _, g = gen_spiderweb(rings, spokes, ModelParams(beta=0.5, theta=0.5, seed=seed))
        yield two_core(g)[0]


def test_reference_matching_sign_matches_kasteleyn():
    # a term's matrix is the removal-free orientation sliced to the kept
    # ports, with the removed nodes' defect lines flipped. Its sign comes
    # from one reference matching, which must agree with the unit-weight
    # Pfaffian of that flipped, sliced matrix. Without a reference matching
    # the sliced graph has no perfect matching, so its weighted Pfaffian
    # vanishes
    checked = 0
    for g in _series_models():
        res = _bp(g)
        o, entries = _laid_out(g, res)
        lines = series_module._defect_lines(g, o, triplet_nodes(g))
        unit, weighted = kasteleyn_matrix(o), entries.dense()
        for term in pfaffian_series(g, res).terms:
            flip = set()
            for a in term.psi:
                flip ^= lines[a]
            sign = np.ones_like(unit)
            for u, v in flip:
                sign[u, v] = sign[v, u] = -1
            kept = [v for v, (a, _) in enumerate(o.ext.labels) if a not in term.psi]
            at = {v: i for i, v in enumerate(kept)}
            pf = pfaffian(lower((sign * unit)[np.ix_(kept, kept)]))
            matching = reference_matching(g, o.ext, term.psi)
            if not term.psi:
                # no odd node, no loop: every edge of g matches externally
                port = o.ext.port
                assert matching == [tuple(sorted((port[(a, b)], port[(b, a)]))) for a, b in g.edges]
            if matching is None:
                assert pfaffian(lower((sign * weighted)[np.ix_(kept, kept)])).sign == 0
                assert term.z_psi.sign == 0
                continue
            assert set(matching) <= set(o.ext.edges)
            assert all(at.keys() >= set(k) for k in matching)
            pairs = [o.orientation[k][::-1] if k in flip else o.orientation[k] for k in matching]
            assert matching_sign([(at[t], at[h]) for t, h in pairs]) == pf.sign
            checked += 1
    assert checked >= 100


def test_loopless_removal_set_skips_the_pfaffian(monkeypatch):
    # no generalized loop has degree-3 set {b2, t1} on the ladder (census
    # above), so that term is exactly zero and never reaches a Pfaffian
    g = ladder_graph(seed=0)
    res = _bp(g)
    assert reference_matching(g, fisher_extend(g), ("b2", "t1")) is None
    real, real_stack = pfaffian_module.pfaffian, pfaffian_module.stacked_pfaffians
    dims, members = [], []
    monkeypatch.setattr(pfaffian_module, "pfaffian", lambda a: dims.append(a.shape) or real(a))
    monkeypatch.setattr(pfaffian_module, "stacked_pfaffians", lambda m: members.append(len(m)) or real_stack(m))
    series = pfaffian_series(g, res)
    term = next(t for t in series.terms if t.psi == ("b2", "t1"))
    assert term.z_psi.sign == 0 and term.contribution.sign == 0
    # Pf(K) for the empty set, and one border in a stack for each other
    # term except the loopless (b1, t2); a full minor only where a border
    # falls back
    assert len(dims) == 1 + series.dense_terms
    assert sum(members) == len(series.terms) - 3


def _oracle_sign(g, o, psi):
    # matching_sign of the oracle's reference matching, each flipped edge
    # written head to tail and the ports renumbered to the minor; 0 without
    # a perfect matching
    matching = reference_matching(g, o.ext, psi)
    if matching is None:
        return 0
    flip = _term_flips(g, o, psi)
    kept = [v for v, (a, _) in enumerate(o.ext.labels) if a not in psi]
    at = {v: i for i, v in enumerate(kept)}
    pairs = [o.orientation[k][::-1] if k in flip else o.orientation[k] for k in matching]
    return matching_sign([(at[t], at[h]) for t, h in pairs])


def test_term_signs_match_the_global_matching_oracle(monkeypatch):
    # with every Pfaffian read as +1, a term's sign is its matching's
    # alone: the kept empty-set matching's sign, corrected along a local
    # T-join, must be the spanning-forest oracle's, and a term with no
    # perfect matching an exact zero that takes no Pfaffian
    models = _forty_nine_models()
    _, g = gen_grid(6, ModelParams(beta=1.0, theta=1.0, seed=0))
    models.append((two_core(g)[0], 2))
    assert len(models) == 50
    calls = []
    monkeypatch.setattr(series_module, "minor_pfaffian", lambda *a: calls.append(1) or SignedLog.one())
    monkeypatch.setattr(
        series_module,
        "bordered_pfaffians",
        lambda pf, inverse, anchors, removed, lengths, flip: calls.extend(lengths) or [SignedLog.one()] * len(lengths),
    )
    zeros = checked = 0
    for g, cap in models:
        res = _bp(g)
        calls.clear()
        series = pfaffian_series(g, res, cap)
        o = _kept_layout(g).o
        for term in series.terms:
            assert term.z_psi.sign == _oracle_sign(g, o, term.psi), term.psi
            zeros += term.z_psi.sign == 0
            checked += 1
        assert len(calls) == sum(t.z_psi.sign != 0 for t in series.terms)
    assert (checked, zeros) == (7407, 1423)


def _forty_nine_models():
    # (model, cap on |psi|) for ladders 0-5, random planar models 0-19,
    # spiderweb(1, 3) seeds 0-1 and (2, 3) seeds 0-2, the benchmark's 16
    # spiderwebs and the 4x4 beta 1 theta 1 grids of seeds 0-1 (|psi| <= 4)
    models = [(g, None) for g in _series_models()]
    models += [(g, 4) for g, cap in _bordered_models() if cap]
    for seed in (1, 2):
        _, g = gen_spiderweb(2, 3, ModelParams(beta=0.5, theta=0.5, seed=seed))
        models.append((two_core(g)[0], None))
    for seed in np.random.SeedSequence(0).generate_state(16):  # the benchmark's spiderwebs
        _, g = gen_spiderweb(1, 4, ModelParams(beta=0.5, theta=0.5, seed=int(seed)))
        models.append((two_core(g)[0], None))
    models += [(random_planar_forney(seed), None) for seed in range(12, 20)]
    assert len(models) == 49
    return models


def _long_ladder(length, seed):
    # a 2 x length ladder: rails t0..t(length-1) and b0..b(length-1), a rung
    # at every column
    nbrs = {}
    for rail, other in (("t", "b"), ("b", "t")):
        for i in range(length):
            along = [f"{rail}{j}" for j in (i - 1, i + 1) if 0 <= j < length]
            nbrs[f"{rail}{i}"] = (*along, f"{other}{i}")
    rng = np.random.default_rng(seed)
    return ForneyGraph(nbrs, {a: rng.uniform(0.3, 1.7, size=2 ** len(n)) for a, n in nbrs.items()})


def _t_per_component(g, psi):
    # per component of g - psi, its kept nodes with an odd number of
    # removed neighbours
    h = nx.Graph()
    h.add_nodes_from(a for a in g.nodes if a not in psi)
    h.add_edges_from(e for e in g.edges if not set(e) & set(psi))
    odd = {a for a in h if sum(b in psi for b in g.neighbors[a]) % 2}
    return sorted(len(odd & c) for c in nx.connected_components(h))


def test_removal_sets_that_split_the_kept_graph(monkeypatch):
    # g - psi falls apart, so T must be paired inside each component: with
    # every component's T even the term is the dense minor's; one odd
    # component makes it an exact zero that reaches no Pfaffian
    ladder, long_ladder = ladder_graph(seed=0), _long_ladder(8, seed=0)
    cases = [
        (ladder, ("b1", "t1"), [2, 2]),
        (ladder, ("b2", "t1"), [1, 1]),
        (long_ladder, ("b1", "t1", "b5", "t5"), [2, 2, 4]),
        (long_ladder, ("b2", "t2", "b4", "t4"), [0, 2, 2]),
        (long_ladder, ("b1", "t1", "t3", "b3", "b5", "t5"), [0, 0, 2, 2]),
        (long_ladder, ("b1", "t1", "b5", "t6"), [1, 2, 3]),
        (long_ladder, ("t1", "b2", "t4", "b4"), [1, 1, 2]),
        (long_ladder, ("b1", "t1", "b3", "t3", "b5", "t6"), [0, 1, 1, 2]),
    ]
    real, real_stack = pfaffian_module.pfaffian, pfaffian_module.stacked_pfaffians
    for g, psi, t_counts in cases:
        assert _t_per_component(g, psi) == t_counts
        res = _bp(g)
        o, entries = _laid_out(g, res)
        K = entries.dense()
        pf, inverse = pfaffian(entries), pfaffian_module.skew_inverse(K)
        flip = _term_flips(g, o, psi)
        calls = []
        monkeypatch.setattr(pfaffian_module, "pfaffian", lambda a: calls.append(1) or real(a))
        monkeypatch.setattr(pfaffian_module, "stacked_pfaffians", lambda m: calls.append(1) or real_stack(m))
        z, _ = _planned_term(g, entries, pf, inverse, psi)
        monkeypatch.undo()
        want = dense_minor_term(g, o, K, psi, flip)
        nonzero = all(c % 2 == 0 for c in t_counts)
        assert (z.sign != 0) == (want.sign != 0) == bool(calls) == nonzero, psi
        assert z.sign == want.sign
        if nonzero:
            assert z.log_magnitude == pytest.approx(want.log_magnitude, rel=1e-12)


def _planned_term(g, entries, pf, inverse, psi):
    # (z_psi, whether it took the full minor) for psi alone, through a plan
    # of that one set and the series' evaluation of it; each flipped edge's
    # weight is read from the dense K
    lay = _kept_layout(g)
    K = entries.dense()
    plan = series_module._plan_sets(g, lay, [psi])
    found = series_module._evaluate(entries, K[lay.pattern.cols, lay.pattern.rows], pf, inverse, lay.sign, plan, 0, 1)
    return found.get(0, (SignedLog.zero(), False))


def _term_flips(g, o, psi):
    lines = series_module._defect_lines(g, o, psi)
    flip = set()
    for a in psi:
        flip ^= lines[a]
    return flip


def _bordered_models():
    for g in _series_models():  # it has spiderweb(2, 3) seed 0
        yield g, None
    for seed in (1, 2):
        _, g = gen_spiderweb(2, 3, ModelParams(beta=0.5, theta=0.5, seed=seed))
        yield two_core(g)[0], None
    for seed in range(2):
        _, g = gen_grid(4, ModelParams(beta=1.0, theta=1.0, seed=seed))
        yield two_core(g)[0], 4


def test_series_terms_match_the_dense_minor():
    # each term but the empty set's is a small Pfaffian over its border,
    # or the dense minor where that border cancels; either way it keeps the
    # dense minor's sign and exact zeros, and its digits next to the total
    checked = 0
    for g, cap in _bordered_models():
        res = _bp(g)
        series = pfaffian_series(g, res, cap)
        o, entries = _laid_out(g, res)
        K = entries.dense()
        total = series.z_total.log_magnitude
        for term in series.terms:
            dense = dense_minor_term(g, o, K, term.psi, _term_flips(g, o, term.psi))
            assert term.z_psi.sign == dense.sign, term.psi
            if dense.sign == 0:
                continue
            scale = term.triplet_factor.log_magnitude - total
            got, want = (math.exp(z.log_magnitude + scale) for z in (term.z_psi, dense))
            assert got == pytest.approx(want, rel=0, abs=1e-12), term.psi
            checked += 1
    assert checked >= 3000


def test_full_minor_is_built_from_the_entries():
    # a term's fallback minor on a 16x16 grid (2,816 ports): K's entries
    # with the removed ports' dropped, the kept ones renumbered and the
    # flipped ones negated, never an n x n array; it is the dense minor's
    _, g = gen_grid(16, ModelParams(beta=1.0, theta=1.0, seed=0))
    g = two_core(g)[0]
    o, entries = _laid_out(g, _bp(g))
    trips = triplet_nodes(g)
    psi = (trips[0], trips[-1])  # far apart: 6 kept flipped edges
    flip = _term_flips(g, o, psi)
    K, n = entries.dense(), o.ext.num_vertices
    labels = o.ext.labels
    kept = {(u, v): K[u, v] for u, v in flip if K[u, v] and labels[u][0] not in psi and labels[v][0] not in psi}
    ports = sorted(o.ext.port[(a, b)] for a in psi for b in g.neighbors[a])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pf = pfaffian_module.minor_pfaffian(entries, ports, kept)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(ports) == 6 and len(kept) == 6
    assert peak < 0.03 * n**2 * 8
    minor, _ = flipped_minor(o, K, psi, flip)
    assert pf == pfaffian(lower(minor)) != SignedLog.zero()


def test_defect_lines_are_shortest_dual_paths():
    # orient grows its dual forest breadth first, so a node's line is a
    # shortest dual path to the root, the grid's outer face: on a 16x16
    # grid no line crosses more than 8 edges
    _, g = gen_grid(16, ModelParams(beta=1.0, theta=1.0, seed=0))
    g = two_core(g)[0]
    o = orient(fisher_extend(g))
    lines = series_module._defect_lines(g, o, triplet_nodes(g))
    assert len(lines) == len(triplet_nodes(g)) > 0
    assert max(len(line) for line in lines.values()) <= 8


def test_cancelling_border_falls_back_to_the_dense_minor():
    # the 4x4 grid term whose border Pfaffian is about 3e-9 of its
    # Hadamard bound: Z + G[T, T] has lost its digits there, so the term
    # is the dense minor's, which matches exact rational arithmetic
    _, g = gen_grid(4, ModelParams(beta=1.0, theta=1.0, seed=1))
    g = two_core(g)[0]
    res = _bp(g)
    series = pfaffian_series(g, res, max_psi_size=4)
    assert series.dense_terms >= 1
    psi = ("delta_x1_1_s1", "delta_x1_2_s0", "delta_x2_2_s0", "delta_x2_3_s0")
    term = next(t for t in series.terms if t.psi == psi)
    o, entries = _laid_out(g, res)
    K = entries.dense()
    flip = _term_flips(g, o, psi)
    pf, inverse = pfaffian(entries), pfaffian_module.skew_inverse(K)
    assert _planned_term(g, entries, pf, inverse, psi)[1]
    minor, kept = flipped_minor(o, K, psi, flip)
    at = {v: i for i, v in enumerate(kept)}
    exact = exact_pfaffian(minor)
    pairs = [o.orientation[k][::-1] if k in flip else o.orientation[k] for k in reference_matching(g, o.ext, psi)]
    sign = matching_sign([(at[t], at[h]) for t, h in pairs])
    assert term.z_psi.sign == sign * (1 if exact > 0 else -1)
    log_exact = math.log(abs(exact.numerator)) - math.log(exact.denominator)
    assert log_exact == pytest.approx(-29.5, abs=0.1)
    assert term.z_psi.log_magnitude == pytest.approx(log_exact, rel=0, abs=1e-12)


def test_series_never_calls_the_matching_oracle(monkeypatch):
    # every term signs itself against the kept empty-set matching, and a
    # term that falls back to the dense minor keeps that sign: the
    # spanning-forest oracle is never called
    _, g = gen_grid(4, ModelParams(beta=1.0, theta=1.0, seed=1))
    g = two_core(g)[0]
    res = _bp(g)
    real = oracles_module.reference_matching
    calls = []
    monkeypatch.setattr(oracles_module, "reference_matching", lambda *a: calls.append(1) or real(*a))
    series = pfaffian_series(g, res, max_psi_size=4)
    assert len(series.terms) == 1941 and calls == []
    assert series.dense_terms == 91
    assert not hasattr(series_module, "reference_matching")
    assert not hasattr(importlib.import_module("planarz.planar"), "reference_matching")


def test_z_empty_is_the_series_first_term(monkeypatch):
    # one Pfaffian, of K with its degree-2 gadgets folded out, two ports
    # fewer per folded node, and no inverse: a series capped below a
    # removal set takes nothing that only removal sets use
    real = pfaffian_module.pfaffian
    dims, inverses = [], []
    monkeypatch.setattr(pfaffian_module, "pfaffian", lambda a: dims.append(a.shape[0]) or real(a))
    real_inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(1) or real_inv(a))
    for g in _series_models():
        res = _bp(g)
        n = fisher_extend(g).num_vertices - 2 * len(fold_nodes(g))
        assert n < fisher_extend(g).num_vertices
        for run in (lambda: z_empty(g, res), lambda: pfaffian_series(g, res, max_psi_size=1)):
            dims.clear()
            inverses.clear()
            run()
            assert dims == [n] and not inverses
        assert z_empty(g, res) == pfaffian_series(g, res).terms[0].z_psi


def test_z_empty_builds_no_dense_matrix(monkeypatch):
    # below a removal set Pf(K) is read from the oriented edges; only a
    # series that evaluates removal sets builds the dense K
    def refuse(self):
        raise AssertionError("dense Tutte matrix built")

    monkeypatch.setattr(SparseSkew, "dense", refuse)
    for g in _series_models():
        res = _bp(g)
        z_empty(g, res)
        pfaffian_series(g, res, max_psi_size=1)
    with pytest.raises(AssertionError, match="dense"):
        pfaffian_series(g, res, max_psi_size=2)


def test_series_takes_one_pfaffian_of_the_full_matrix(monkeypatch):
    # Pf(K) once, on the windowed kernel, with K's degree-2 gadgets folded
    # out; then one stack of borders per
    # BORDER_BATCH removal sets with a matching, whatever their sizes, each
    # border over the removed ports and both ends of each flipped edge that
    # is kept, and a windowed Pfaffian only for a term whose border falls
    # back
    real, real_stack = pfaffian_module.pfaffian, pfaffian_module.stacked_pfaffians
    real_borders = series_module.bordered_pfaffians
    dims, stacks, widths, removals = [], [], [], []
    monkeypatch.setattr(pfaffian_module, "pfaffian", lambda a: dims.append(a.shape[0]) or real(a))
    monkeypatch.setattr(pfaffian_module, "stacked_pfaffians", lambda m: stacks.append(m.shape[1]) or real_stack(m))

    def borders(pf, inverse, anchors, removed, lengths, flip):
        widths.append(lengths.tolist())
        removals.extend(removed.tolist())
        return real_borders(pf, inverse, anchors, removed, lengths, flip)

    monkeypatch.setattr(series_module, "bordered_pfaffians", borders)
    _, spiderweb = gen_spiderweb(1, 4, ModelParams(beta=0.5, theta=0.5, seed=0))
    _, grid = gen_grid(4, ModelParams(beta=1.0, theta=1.0, seed=1))
    for g, sizes, dense, widest in ((spiderweb, (2, 4, 6), 0, [18]), (grid, (2, 4), 91, [18, 20, 20, 18])):
        g = two_core(g)[0]
        res = _bp(g)
        for seen in (dims, stacks, widths, removals):
            seen.clear()
        series = pfaffian_series(g, res, max(sizes))
        o, _ = _laid_out(g, res)
        n = o.ext.num_vertices
        assert series.dense_terms == dense
        assert dims[0] == n - 2 * len(fold_nodes(g)) and len(dims) == 1 + dense
        assert set(dims[1:]) <= {n - 3 * size for size in sizes}  # full minors keep every port but psi's
        live = len(model_module._kept(g, series_module._term_plan, max(sizes)).live)
        assert len(stacks) == len(widths) == -(-live // series_module.BORDER_BATCH)
        assert stacks == [max(w) for w in widths] == widest
        assert sum(map(len, widths)) == len(removals) == live
        assert sorted(set(removals)) == [3 * size for size in sizes]
        bounds = []
        for term in series.terms[1:]:
            if term.z_psi.sign == 0:
                continue
            kept = [e for e in _term_flips(g, o, term.psi) if not ({o.ext.labels[x][0] for x in e} & set(term.psi))]
            bounds.append(3 * len(term.psi) + 2 * len(kept))
        assert [w for batch in widths for w in batch] == bounds
        assert len(bounds) > 20
    # without K^-1 there is no stack: every term with a matching takes its
    # full minor
    monkeypatch.setattr(series_module, "skew_inverse", lambda a: None)
    g = two_core(spiderweb)[0]
    dims.clear()
    stacks.clear()
    series = pfaffian_series(g, _bp(g))
    nonzero = sum(t.z_psi.sign != 0 for t in series.terms[1:])
    assert stacks == [] and series.dense_terms == len(dims) - 1 == nonzero > 20


def _solve_another_topology():
    # any solve of another topology takes the one per-topology slot
    g = cycle_forney(3, seed=0)
    z_empty(g, _bp(g))


def test_corrupted_orientation_raises(monkeypatch):
    real = series_module.orient

    def corrupted(ext):
        o = real(ext)
        walk = o.faces[next(iter(o.dual_tree))]
        x, y = next((x, y) for x, y in walk if (y, x) not in walk)
        key = (min(x, y), max(x, y))
        o.orientation[key] = o.orientation[key][::-1]
        return o

    g = ladder_graph(seed=0)
    res = _bp(g)
    _solve_another_topology()
    monkeypatch.setattr(series_module, "orient", corrupted)
    with pytest.raises(OrientationError):
        z_empty(g, res)
    with pytest.raises(OrientationError):
        pfaffian_series(g, res)
    # a layout that fails its parity check is not kept
    monkeypatch.undo()
    assert z_empty(g, res).sign == 1


def test_series_runs_one_planarity_test(monkeypatch):
    # once per topology, however many tables are solved on it
    real = nx.check_planarity
    calls = []
    monkeypatch.setattr(nx, "check_planarity", lambda *a, **k: calls.append(1) or real(*a, **k))
    _solve_another_topology()
    for g in (ladder_graph(seed=0), random_planar_forney(4)):
        calls.clear()
        series = pfaffian_series(g, _bp(g))
        assert len(series.terms) > 1
        assert len(calls) == 1
        z_empty(g, _bp(g))
        assert len(calls) == 1
    pfaffian_series(ladder_graph(seed=1), _bp(ladder_graph(seed=1)))
    assert len(calls) == 2
    # the same node ids joined by other edges are another topology
    g = cycle_forney(6, seed=0)
    ring = ("n0", "n2", "n4", "n1", "n3", "n5")
    nbrs = {a: (ring[i - 1], ring[(i + 1) % 6]) for i, a in enumerate(ring)}
    h = ForneyGraph({a: nbrs[a] for a in g.nodes}, g.tables)
    for model in (g, h):
        z_empty(model, _bp(model))
    assert len(calls) == 4


def test_series_orients_once(monkeypatch):
    # every removal set's matrix is sliced from the removal-free graph's,
    # and a topology is oriented once: a second solve of it, with other
    # tables or through z_empty after the series, orients nothing
    real = series_module.orient
    calls = []
    monkeypatch.setattr(series_module, "orient", lambda ext: calls.append(1) or real(ext))
    _solve_another_topology()
    for g in (ladder_graph(seed=0), random_planar_forney(4)):
        res = _bp(g)
        calls.clear()
        series = pfaffian_series(g, res)
        assert len(series.terms) > 1
        assert len(calls) == 1
        calls.clear()
        z_empty(g, res)
        assert calls == []
    g = ladder_graph(seed=1)
    z_empty(g, _bp(g))
    assert len(calls) == 1
    z_empty(g, _bp(g))
    pfaffian_series(g, _bp(g))
    assert len(calls) == 1


def _digits(series):
    return [(t.z_psi.sign, t.z_psi.log_magnitude.hex()) for t in series.terms]


def test_reused_layout_gives_the_cold_digits(monkeypatch):
    # the 4x4 grids of one theta share one topology and differ in their
    # tables; each is solved cold, right after another topology, and warm,
    # after a grid of another seed, and every term keeps its float digits
    models = []
    for theta in (1.0, 0.0):
        for seed in range(3 if theta else 2):
            _, g = gen_grid(4, ModelParams(beta=1.0, theta=theta, seed=seed))
            models.append((two_core(g)[0], 2))
    _, g = gen_spiderweb(2, 3, ModelParams(beta=0.5, theta=0.5, seed=0))
    models.append((two_core(g)[0], None))
    cold = []
    for g, cap in models:
        res = _bp(g)
        _solve_another_topology()
        series = _digits(pfaffian_series(g, res, max_psi_size=cap))
        _solve_another_topology()
        cold.append((series, z_empty(g, res).log_magnitude.hex()))
    real = series_module.orient
    calls = []
    monkeypatch.setattr(series_module, "orient", lambda ext: calls.append(1) or real(ext))
    for _ in range(2):
        for (g, cap), (series, z) in zip(models, cold):
            res = _bp(g)
            assert _digits(pfaffian_series(g, res, max_psi_size=cap)) == series
            assert z_empty(g, res).log_magnitude.hex() == z == series[0][1]
    # the grids of one theta share one layout, the spiderweb has its own
    assert len(calls) == 2 * 3


def _record(series):
    # every term's digits, and the total's
    terms = [(t.psi, t.z_psi.sign, t.z_psi.log_magnitude.hex(), t.contribution.sign, t.contribution.log_magnitude.hex()) for t in series.terms]
    return terms, series.z_total.sign, series.z_total.log_magnitude.hex(), series.complete, series.dense_terms


def test_warm_series_reuses_the_term_plans(monkeypatch):
    # the T-joins, signs and borders of a topology's removal sets are
    # planned once: another instance of the topology finds no T-join, and
    # its terms have the digits it has when solved first
    real = series_module._t_join
    calls = []
    monkeypatch.setattr(series_module, "_t_join", lambda *a: calls.append(1) or real(*a))
    spiderwebs = [gen_spiderweb(1, 4, ModelParams(beta=0.5, theta=0.5, seed=seed))[1] for seed in range(4)]
    grids = [gen_grid(4, ModelParams(beta=1.0, theta=1.0, seed=seed))[1] for seed in range(2)]
    for models, cap in ((spiderwebs, None), (grids, 4)):
        models = [two_core(g)[0] for g in models]
        results = [_bp(g) for g in models]
        cold = []
        for g, res in zip(models, results):
            _solve_another_topology()
            calls.clear()
            cold.append(_record(pfaffian_series(g, res, cap)))
            assert calls
        for g, res, want in zip(models, results, cold):
            calls.clear()
            assert _record(pfaffian_series(g, res, cap)) == want
            assert calls == []


def test_term_plans_are_kept_per_cap(monkeypatch):
    # one plan per topology and even cap, holding the sets of every size up
    # to it: a |psi| <= 3 series reuses the |psi| <= 2 one's, a |psi| <= 4
    # series after them plans its own and has the cold digits, a second one
    # finds no T-join, and a solve of another topology drops every plan
    _, g = gen_grid(4, ModelParams(beta=1.0, theta=1.0, seed=0))
    g = two_core(g)[0]
    res = _bp(g)
    _solve_another_topology()
    want = _record(pfaffian_series(g, res, 4))
    real = series_module._t_join
    calls = []
    monkeypatch.setattr(series_module, "_t_join", lambda *a: calls.append(1) or real(*a))

    def plans():
        return sorted(k[1:] for k in model_module._built if isinstance(k, tuple) and k[0] is series_module._term_plan)

    _solve_another_topology()
    pfaffian_series(g, res, 2)
    calls.clear()
    pfaffian_series(g, res, 3)
    assert calls == [] and plans() == [(2,)]
    assert _record(pfaffian_series(g, res, 4)) == want
    trips = len(triplet_nodes(g))
    assert len(calls) == math.comb(trips, 2) + math.comb(trips, 4)
    calls.clear()
    assert _record(pfaffian_series(g, res, 4)) == want
    assert calls == [] and plans() == [(2,), (4,)]
    _solve_another_topology()
    assert plans() == []


def test_zero_entry_on_a_kept_flipped_edge(monkeypatch):
    # on the 5x5 zero-field grid, delta_x1_1_s0's defect line crosses the
    # gadget edge of the coupling node J0_0_v. With that edge's loop weight
    # zeroed, K has no entry there, so the edge is in no matching and
    # every term that flips it takes the full minor, without the edge, and
    # counts in dense_terms. Cold and warm, each such term is the dense
    # minor's
    _, g = gen_grid(5, ModelParams(beta=1.0, theta=0.0, seed=0))
    g = two_core(g)[0]
    res = _bp(g)
    weights = dict(res.loop_weights)
    weights["J0_0_v"] = weights["J0_0_v"].copy()
    weights["J0_0_v"][0b11] = 0.0  # the pair entry of its two ports
    zeroed = replace(res, loop_weights=weights)
    o, entries = _laid_out(g, zeroed)
    K = entries.dense()
    labels = o.ext.labels
    [edge] = [e for e in _kept_layout(g).lines["delta_x1_1_s0"] if labels[e[0]][0] == labels[e[1]][0] == "J0_0_v"]
    assert K[edge] == 0 != _laid_out(g, res)[1].dense()[edge]
    real = series_module.minor_pfaffian
    minors = {}  # the flipped pairs of each full minor, by its removed ports

    def minor(a, removed, flip):
        minors[tuple(removed)] = set(flip)
        return real(a, removed, flip)

    monkeypatch.setattr(series_module, "minor_pfaffian", minor)
    _solve_another_topology()
    cold = pfaffian_series(g, zeroed, 2)
    monkeypatch.undo()
    _solve_another_topology()
    pfaffian_series(g, res, 2)
    warm = pfaffian_series(g, zeroed, 2)
    assert _record(warm) == _record(cold)
    checked = 0
    for term in cold.terms:
        flip = _term_flips(g, o, term.psi)
        if edge not in flip:
            continue
        want = dense_minor_term(g, o, K, term.psi, flip)
        assert term.z_psi.sign == want.sign, term.psi
        if want.sign:
            assert term.z_psi.log_magnitude == pytest.approx(want.log_magnitude, rel=1e-12), term.psi
            ports = tuple(sorted(o.ext.port[(a, b)] for a in term.psi for b in g.neighbors[a]))
            assert minors[ports] == flip - {edge} - {e for e in flip if {labels[x][0] for x in e} & set(term.psi)}
            checked += 1
    assert checked >= 10
    assert cold.dense_terms == len(minors) - 1 >= checked  # Pf(K) is the minor without ports
    assert type(cold.dense_terms) is int


def test_warm_tutte_entries_are_the_cold_ones(monkeypatch):
    # a warm folded K, the matrix z_empty takes its Pfaffian of, is the
    # kept fold filled with this solve's loop weights: an exactly zero
    # gadget weight drops its entry, as a freshly laid out fold drops it,
    # and the next solve of the topology has the entry back
    g = ladder_graph(seed=0)
    res = _bp(g)
    weights = dict(res.loop_weights)
    weights["t1"] = weights["t1"].copy()
    weights["t1"][0b110] = 0.0  # the gadget edge between t1's first two ports
    zeroed = replace(res, loop_weights=weights)
    real = series_module.minor_pfaffian
    seen = []
    monkeypatch.setattr(series_module, "minor_pfaffian", lambda a, *rest: seen.append(a) or real(a, *rest))
    real_extend = series_module.fisher_extend
    built = []
    monkeypatch.setattr(series_module, "fisher_extend", lambda g: built.append(1) or real_extend(g))

    def cold(r):  # a layout of its own, its fold filled from the pool
        return series_module._layout(g).fold.entries(_weight_pool(g, r))

    for order in ((zeroed, res), (res, zeroed)):
        _solve_another_topology()
        for warm, r in enumerate(order):
            before = len(built)
            z_empty(g, r)
            assert len(built) - before == (not warm)  # a warm solve lays nothing out
            want = cold(r)
            assert want.shape[0] == fisher_extend(g).num_vertices - 2 * len(fold_nodes(g))
            got = seen[-1]
            assert got.shape == want.shape
            for x, y in ((got.rows, want.rows), (got.cols, want.cols), (got.vals, want.vals)):
                assert x.tobytes() == y.tobytes()
            assert len(got.vals) == len(cold(res).vals) - (r is zeroed)


def test_layout_needs_no_bp(monkeypatch):
    # a fresh topology is laid out, its fold too, before any BP runs on it;
    # two BP results with other tables, theta 0.1 and theta 1 on one 4x4
    # grid (theta 0 draws no fields, so its grid is another topology), then
    # solve on the kept layout, orienting nothing more, and each solve's K
    # and folded K are the dense oracles', bit for bit
    models = [two_core(gen_grid(4, ModelParams(beta=1.0, theta=t, seed=0))[1])[0] for t in (0.1, 1.0)]
    real_orient, real_minor = series_module.orient, series_module.minor_pfaffian
    calls, seen = [], []
    monkeypatch.setattr(series_module, "orient", lambda ext: calls.append(1) or real_orient(ext))
    monkeypatch.setattr(series_module, "minor_pfaffian", lambda a, *rest: seen.append(a) or real_minor(a, *rest))
    _solve_another_topology()
    calls.clear()
    layout = _kept_layout(models[0])
    assert calls == [1] and bp_module._plan not in model_module._built  # no run_bp yet
    o = layout.o
    for g in models:
        res = _bp(g)
        z_empty(g, res)
        assert _kept_layout(g) is layout
        K = layout_tutte_matrix(g, o, res)
        assert np.array_equal(layout.pattern.entries(_weight_pool(g, res)).dense(), K)
        assert np.array_equal(seen[-1].dense(), folded_tutte_matrix(g, o.ext, K))
    assert len(calls) == 1


def _fold_models():
    # the 49-model list, beta 0 grids, whose folded gadgets all weigh 0, and
    # cycles of degree-2 nodes alone
    models = [g for g, _ in _forty_nine_models()]
    for n in (2, 3, 4, 8, 16):
        models.append(two_core(gen_grid(n, ModelParams(beta=0.0, theta=0.0, seed=0))[1])[0])
    models += [cycle_forney(length, seed=length) for length in range(3, 10)]
    return models


def test_folded_pfaffian_is_the_unfolded_one():
    # Pf(K) = fold_sign * Pf(K'), K' the kept fold filled from the pool:
    # the same sign and log within 1e-13 of the unfolded kernel's. K' is
    # the dense oracle's Schur complement of K, bit for bit, two ports
    # fewer per folded node
    zero_weights = cycles = 0
    for g in _fold_models():
        res = _bp(g)
        lay, pool = _kept_layout(g), _weight_pool(g, res)
        K, folded = lay.pattern.entries(pool), lay.fold.entries(pool)
        nodes = fold_nodes(g)
        assert folded.shape[0] == K.shape[0] - 2 * len(nodes) < K.shape[0]
        assert np.array_equal(folded.dense(), folded_tutte_matrix(g, lay.o.ext, K.dense()))
        want, got = pfaffian(K), pfaffian(folded)
        assert lay.fold_sign * got.sign == want.sign != 0
        assert got.log_magnitude == pytest.approx(want.log_magnitude, rel=0, abs=1e-13)
        zero_weights += all(res.loop_weights[a][0b11] == 0 for a in nodes)
        cycles += all(g.degree(a) == 2 for a in g.nodes)
    # the beta 0 grids; the cycles, random planar models 3 and 11 and the
    # 2x2 beta 0 grid
    assert (zero_weights, cycles) == (5, 10)


def test_folded_pfaffian_is_exact():
    # on every fold model of at most 64 ports, fold_sign * Pf(K') is Pf(K)
    # in rational arithmetic, to 1e-14 in log
    checked = 0
    for g in _fold_models():
        lay = _kept_layout(g)
        if lay.o.ext.num_vertices > 64:
            continue
        pool = _weight_pool(g, _bp(g))
        exact = exact_pfaffian(lay.pattern.entries(pool).dense())
        got = pfaffian(lay.fold.entries(pool))
        assert exact != 0 and lay.fold_sign * got.sign == (1 if exact > 0 else -1)
        # log |exact| to the last bit: its float after a power-of-two shift
        shift = exact.numerator.bit_length() - exact.denominator.bit_length()
        log_exact = math.log(abs(float(exact / Fraction(2) ** shift))) + shift * math.log(2)
        assert got.log_magnitude == pytest.approx(log_exact, rel=0, abs=1e-14)
        checked += 1
    assert checked == 53


def test_fold_dimensions():
    # the fold drops about 40% of the ports: 512 -> 296 on the 8x8 theta 0
    # grid, 220 -> 140 on 5x5 theta 1 and 44 -> 28 on the benchmark's
    # spiderweb(1, 4)
    cases = [
        (gen_grid(8, ModelParams(beta=1.0, theta=0.0, seed=0))[1], 512, 296),
        (gen_grid(5, ModelParams(beta=1.0, theta=1.0, seed=0))[1], 220, 140),
        (gen_spiderweb(1, 4, ModelParams(beta=0.5, theta=0.5, seed=0))[1], 44, 28),
    ]
    for g, ports, folded in cases:
        lay = _kept_layout(two_core(g)[0])
        assert (lay.pattern.shape[0], lay.fold.shape[0]) == (ports, folded)


def test_non_planar_model_is_never_laid_out(monkeypatch):
    # K3,3 fails the planarity test on every attempt, and the planar model
    # solved next is laid out afresh, to the cold value
    neighbors = {f"a{i}": ("b0", "b1", "b2") for i in range(3)}
    neighbors.update({f"b{i}": ("a0", "a1", "a2") for i in range(3)})
    k33 = ForneyGraph(neighbors, {a: np.ones(8) for a in neighbors})
    g = ladder_graph(seed=0)
    res = _bp(g)
    _solve_another_topology()
    cold = _digits(pfaffian_series(g, res))
    real = nx.check_planarity
    calls = []
    monkeypatch.setattr(nx, "check_planarity", lambda *a, **k: calls.append(1) or real(*a, **k))
    for _ in range(2):
        with pytest.raises(NonPlanarError, match="not planar"):
            z_empty(k33, run_bp(k33))
    assert len(calls) == 2
    assert _digits(pfaffian_series(g, res)) == cold
    assert len(calls) == 3


def test_series_matches_exact_where_defect_lines_matter():
    # spiderweb(2, 3) has removal sets whose gadgets sit inside cycles of
    # the kept graph: without the defect-line flips the orientation is not
    # Kasteleyn there and the series misses exact log Z
    for seed in range(3):
        fg, g = gen_spiderweb(2, 3, ModelParams(beta=0.5, theta=0.5, seed=seed))
        core, log_const = two_core(g)
        res = _bp(core)
        series = pfaffian_series(core, res)
        assert series.complete and series.z_total.sign == 1
        est = log_const + res.log_z_bp + series.z_total.log_magnitude
        assert est == pytest.approx(exact_log_z_factor(fg), rel=1e-10), f"seed {seed}"


def test_series_matches_exact_on_two_components():
    # two disjoint ladders: each component's faces hang off its own root
    # face, and a removal set spanning both flips both components' lines
    for seed in range(3):
        neighbors, tables = {}, {}
        for tag, part in (("p", ladder_graph(seed=seed)), ("q", ladder_graph(seed=seed + 10))):
            for a in part.nodes:
                neighbors[tag + a] = tuple(tag + b for b in part.neighbors[a])
                tables[tag + a] = part.tables[a]
        g = ForneyGraph(neighbors, tables)
        res = _bp(g)
        series = pfaffian_series(g, res)
        assert series.complete and series.z_total.sign == 1
        both = [t for t in series.terms if {a[0] for a in t.psi} == {"p", "q"}]
        assert sum(t.contribution.sign != 0 for t in both) > 0
        est = res.log_z_bp + series.z_total.log_magnitude
        assert est == pytest.approx(exact_log_z(g), rel=1e-10), f"seed {seed}"


def test_series_computes_each_loop_weight_once(monkeypatch):
    # loop weights depend only on the BP fixed point: run_bp builds each
    # node's table once, and a series reads them without building any
    _, g = gen_spiderweb(1, 4, ModelParams(beta=0.5, theta=0.5, seed=0))
    core = two_core(g)[0]
    built = Counter()

    def counted(b, h):
        built["rows"] += len(b)
        return real(b, h)

    real = bp_module._loop_weights
    monkeypatch.setattr(bp_module, "_loop_weights", counted)
    res = _bp(core)
    assert res.iterations > 0 and built["rows"] == core.num_nodes
    series = pfaffian_series(core, res)
    assert len(series.terms) == 32
    assert built["rows"] == core.num_nodes
