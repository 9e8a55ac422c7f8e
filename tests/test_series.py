"""Loop corrections: the 2-regular term, the full series, and the oracle.

Three-way agreement is the point: the matching-based series, the brute
enumeration of generalized loops, and exhaustive state enumeration must
all coincide. The ladder census (counts per removal set) is frozen from a
hand derivation.
"""

import importlib
from collections import Counter

import networkx as nx
import numpy as np
import pytest

from planarz import (
    BPConfig,
    ForneyGraph,
    ModelError,
    ModelParams,
    OrientationError,
    enumerate_loops,
    exact_log_z,
    exact_log_z_factor,
    fisher_extend,
    gen_spiderweb,
    loop_correction,
    matching_sign,
    orient,
    pfaffian,
    pfaffian_series,
    reference_matching,
    run_bp,
    term_ranking,
    triplet_nodes,
    tutte_matrix,
    two_core,
    z_empty,
)
from planarz.series import format_term_log
from builders import cycle_forney, ladder_graph, random_planar_forney
from oracles import kasteleyn_matrix

bp_module = importlib.import_module("planarz.bp")
pfaffian_module = importlib.import_module("planarz.pfaffian")
series_module = importlib.import_module("planarz.series")


def _bp(g):
    res = run_bp(g, BPConfig())
    assert res.converged
    return res


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


def test_term_ranking_descending():
    g = ladder_graph(seed=11)
    res = _bp(g)
    series = pfaffian_series(g, res)
    ranked = term_ranking(series.terms)
    mags = [t.contribution.log_magnitude for t in ranked]
    assert mags == sorted(mags, reverse=True)
    assert ranked[0].psi == ()


def test_format_term_log_lines():
    g = ladder_graph(seed=0)
    res = _bp(g)
    series = pfaffian_series(g, res)
    text = format_term_log(series.terms)
    lines = text.strip().split("\n")
    assert len(lines) == len(series.terms)
    assert lines[0].startswith("psi - sign")
    assert "b1,b2" in text


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
        o = orient(fisher_extend(g, res))
        lines = series_module._defect_lines(g, o, triplet_nodes(g))
        unit, weighted = kasteleyn_matrix(o), tutte_matrix(o)
        for term in pfaffian_series(g, res).terms:
            flip = set()
            for a in term.psi:
                flip ^= lines[a]
            sign = np.ones_like(unit)
            for u, v in flip:
                sign[u, v] = sign[v, u] = -1
            kept = [v for v, (a, _) in enumerate(o.ext.labels) if a not in term.psi]
            at = {v: i for i, v in enumerate(kept)}
            pf = pfaffian((sign * unit)[np.ix_(kept, kept)])
            matching = reference_matching(g, o.ext, term.psi)
            if matching is None:
                assert pfaffian((sign * weighted)[np.ix_(kept, kept)]).sign == 0
                assert term.z_psi.sign == 0
                continue
            assert set(matching) <= {e.key() for e in o.ext.edges}
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
    assert reference_matching(g, fisher_extend(g, res), ("b2", "t1")) is None
    real = pfaffian_module.pfaffian
    dims = []
    monkeypatch.setattr(pfaffian_module, "pfaffian", lambda a: dims.append(a.shape) or real(a))
    series = pfaffian_series(g, res)
    term = next(t for t in series.terms if t.psi == ("b2", "t1"))
    assert term.z_psi.sign == 0 and term.contribution.sign == 0
    # one Pfaffian for each of the other terms except the loopless (b1, t2)
    assert len(dims) == len(series.terms) - 2


def test_corrupted_orientation_raises(monkeypatch):
    real = series_module.orient

    def corrupted(ext):
        o = real(ext)
        walk = o.embedding.faces[next(iter(o.dual_tree))]
        x, y = next((x, y) for x, y in walk if (y, x) not in walk)
        key = (min(x, y), max(x, y))
        o.orientation[key] = o.orientation[key][::-1]
        return o

    monkeypatch.setattr(series_module, "orient", corrupted)
    g = ladder_graph(seed=0)
    res = _bp(g)
    with pytest.raises(OrientationError):
        z_empty(g, res)
    with pytest.raises(OrientationError):
        pfaffian_series(g, res)


def test_series_runs_one_planarity_test(monkeypatch):
    real = nx.check_planarity
    calls = []
    monkeypatch.setattr(nx, "check_planarity", lambda *a, **k: calls.append(1) or real(*a, **k))
    for g in (ladder_graph(seed=0), random_planar_forney(4)):
        calls.clear()
        series = pfaffian_series(g, _bp(g))
        assert len(series.terms) > 1
        assert len(calls) == 1


def test_series_orients_once(monkeypatch):
    # every removal set's matrix is sliced from the removal-free graph's
    real = series_module.orient
    calls = []
    monkeypatch.setattr(series_module, "orient", lambda ext: calls.append(1) or real(ext))
    for g in (ladder_graph(seed=0), random_planar_forney(4)):
        res = _bp(g)
        calls.clear()
        series = pfaffian_series(g, res)
        assert len(series.terms) > 1
        assert len(calls) == 1
        calls.clear()
        z_empty(g, res)
        assert len(calls) == 1


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
