"""Planar machinery: embedding, node splitting, orientation.

The orientation test is the load-bearing one: a correct odd-clockwise
parity on every bounded face is exactly what makes the matching Pfaffian
come out with uniform signs, so it is checked directly on many random
planar graphs rather than trusted.
"""

import importlib
import itertools
import math

import networkx as nx
import numpy as np
import pytest

from planarz import (
    BPConfig,
    ForneyGraph,
    NonPlanarError,
    embed,
    face_parity_violations,
    fisher_extend,
    mu_term,
    orient,
    pfaffian,
    run_bp,
    tutte_matrix,
)

from builders import (
    ladder_graph,
    plain_extended,
    random_planar_forney,
    random_planar_vertex_graph,
)
from oracles import kasteleyn_matrix, matching_count, matching_sum

pfaffian_module = importlib.import_module("planarz.pfaffian")
series_module = importlib.import_module("planarz.series")
planar_module = importlib.import_module("planarz.planar")


# ---------------------------------------------------------------- embedding


def test_embed_square_faces():
    emb = embed(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert len(emb.faces) == 2
    assert all(len(f) == 4 for f in emb.faces)


def test_embed_euler_formula_per_component():
    # two disjoint triangles: V - E + F = 2 per component, faces add up
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    emb = embed(6, edges)
    # each component contributes its own outer face: 2 bounded + 2 outer
    assert len(emb.faces) == 4


def test_embed_rejects_k5_with_witness():
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    with pytest.raises(NonPlanarError) as exc:
        embed(5, edges)
    assert len(exc.value.witness_edges) > 0
    witness = set(exc.value.witness_edges)
    assert witness <= {(min(u, v), max(u, v)) for u, v in edges}


def test_orient_witness_names_model_edges():
    # K3,3 as a Forney model: the Kuratowski witness found among the gadget
    # ports is reported as the model edges it runs through
    neighbors = {f"a{i}": ("b0", "b1", "b2") for i in range(3)}
    neighbors.update({f"b{i}": ("a0", "a1", "a2") for i in range(3)})
    g = ForneyGraph(neighbors, {a: np.ones(8) for a in neighbors})
    with pytest.raises(NonPlanarError) as exc:
        orient(fisher_extend(g, run_bp(g, BPConfig())))
    witness = exc.value.witness_edges
    assert set(witness) <= set(g.edges)
    assert not nx.check_planarity(nx.Graph(witness))[0]
    assert f"witness has {len(witness)} model edges" in str(exc.value)


def test_random_planar_graphs_embed():
    for seed in range(30):
        n, edges = random_planar_vertex_graph(seed)
        emb = embed(n, edges)
        # connected graph: V - E + F = 2
        assert n - len(edges) + len(emb.faces) == 2


# ---------------------------------------------------------------- gadgets


def _bp(g):
    res = run_bp(g, BPConfig())
    assert res.converged
    return res


def test_fisher_extend_sizes():
    g = ladder_graph(seed=0)
    res = _bp(g)
    ext = fisher_extend(g, res)
    # degree-2 nodes give 2 ports, degree-3 nodes 3 ports
    want = sum(g.degree(a) for a in g.nodes)
    assert ext.num_vertices == want
    assert ext.num_vertices <= 3 * g.num_nodes
    assert len(ext.edges) <= 3 * g.num_edges + 3 * g.num_nodes


def test_fisher_gadget_weights():
    g = ladder_graph(seed=3)
    res = _bp(g)
    ext = fisher_extend(g, res)
    # an edge is internal exactly when both its ports belong to one node
    internals = [e for e in ext.edges if ext.labels[e.u][0] == ext.labels[e.v][0]]
    externals = [e for e in ext.edges if ext.labels[e.u][0] != ext.labels[e.v][0]]
    assert all(e.weight == 1.0 for e in externals)
    assert len(externals) == g.num_edges
    # every internal weight is the loop weight of its port pair
    for e in internals:
        (node, b), (_, c) = ext.labels[e.u], ext.labels[e.v]
        assert e.weight == pytest.approx(mu_term(res, node, (b, c)), rel=1e-14)
    # degree-2 nodes contribute 1 internal edge, degree-3 nodes 3
    assert len(internals) == sum(1 if g.degree(a) == 2 else 3 for a in g.nodes)


def test_fisher_extend_removal(monkeypatch):
    # a removal set's term matrix is the principal minor of the removal-free
    # Tutte matrix on the ports of the kept nodes
    g = ladder_graph(seed=3)
    res = _bp(g)
    o = orient(fisher_extend(g, res))
    real = pfaffian_module.pfaffian
    seen = []
    monkeypatch.setattr(pfaffian_module, "pfaffian", lambda a: seen.append(a) or real(a))
    series_module._matching_correction(g, o, tutte_matrix(o), ("t1", "t2"))
    (minor,) = seen
    kept = [v for v, (a, _) in enumerate(o.ext.labels) if a not in ("t1", "t2")]
    assert minor.shape == (len(kept), len(kept)) == (o.ext.num_vertices - 6,) * 2
    # externals on removed nodes are gone too: each removed degree-3 node
    # kills its 3 externals, but the t1-t2 edge is shared
    labels = o.ext.labels
    external = {e.key() for e in o.ext.edges if labels[e.u][0] != labels[e.v][0]}
    entries = {(kept[i], kept[j]) for i, j in zip(*np.nonzero(np.triu(minor)))}
    assert len(entries & external) == g.num_edges - 5


def test_ladder_extended_graph_has_eight_matchings():
    # frozen by hand: the full gadget graph of the 2x4 ladder admits
    # exactly 8 perfect matchings
    g = ladder_graph(seed=0)
    res = _bp(g)
    ext = fisher_extend(g, res)
    count = matching_count(ext.num_vertices, [(e.u, e.v) for e in ext.edges])
    assert count == 8


# ---------------------------------------------------------------- components


def _roots(o):
    return [fi for fi in range(len(o.embedding.faces)) if fi not in o.dual_tree]


def test_orient_adds_no_dummy_to_connected_graph():
    # a square, and two triangles sharing the cut vertex 0: the graph is
    # oriented as given, around one root face
    for n, edges in (
        (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        (5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]),
    ):
        ext = plain_extended(n, edges)
        o = orient(ext)
        assert o.ext is ext
        assert len(_roots(o)) == 1
        assert face_parity_violations(o) == []


def test_orient_roots_one_face_per_component():
    # two disjoint squares are oriented as given, with one root face in
    # each component's dual forest, and keep their weighted matching sum
    edges = []
    for base in (0, 4):
        for i in range(4):
            edges.append((base + i, base + (i + 1) % 4))
    ext = plain_extended(8, edges)
    before = matching_sum(8, [(e.u, e.v, e.weight) for e in ext.edges])
    o = orient(ext)
    assert o.ext is ext
    assert len(_roots(o)) == 2
    assert face_parity_violations(o) == []
    after = matching_sum(o.ext.num_vertices, [(e.u, e.v, e.weight) for e in o.ext.edges])
    assert after == pytest.approx(before)
    z = pfaffian(tutte_matrix(o))
    assert abs(z.to_float()) == pytest.approx(before, rel=1e-10)


def test_orient_embeds_once(monkeypatch):
    # one embedding of the graph as given, connected or not
    real = planar_module.embed
    calls = []
    monkeypatch.setattr(planar_module, "embed", lambda *args: calls.append(args) or real(*args))
    square = [(0, 1), (1, 2), (2, 3), (3, 0)]
    for n, edges in ((4, square), (8, square + [(u + 4, v + 4) for u, v in square])):
        calls.clear()
        o = orient(plain_extended(n, edges))
        assert len(calls) == 1
        assert sorted(calls[0][1]) == sorted(e.key() for e in o.ext.edges)
        assert face_parity_violations(o) == []


def _glued(a, b, how):
    """Two vertex graphs sharing vertex 0 ("cut"), joined by a bridge
    between their vertices 0 ("bridge"), or side by side ("union")."""
    (na, ea), (nb, eb) = a, b
    shift = na - 1 if how == "cut" else na

    def moved(v):
        return 0 if how == "cut" and v == 0 else v + shift

    edges = list(ea) + [(moved(u), moved(v)) for u, v in eb]
    if how == "bridge":
        edges.append((0, na))
    return nb + shift, edges


def test_orient_cut_vertex_bridge_and_disjoint_union():
    # cut vertices and bridges stay, and each component of a disjoint
    # union is oriented around its own root face
    small = [(3, [(0, 1), (1, 2), (2, 0)]), (4, [(0, 1), (1, 2), (2, 3), (3, 0)])]
    small += [random_planar_vertex_graph(seed) for seed in range(12)]
    checked = 0
    for a, b in itertools.combinations(small, 2):
        for how in ("cut", "bridge", "union"):
            n, edges = _glued(a, b, how)
            if n > 16:
                continue
            o = orient(plain_extended(n, edges))
            assert face_parity_violations(o) == [], (how, n, edges)
            pf = pfaffian(kasteleyn_matrix(o))
            want = matching_count(n, [(e.u, e.v) for e in o.ext.edges])
            assert math.exp(pf.log_magnitude) == pytest.approx(want, rel=1e-10, abs=0)
            # unit weights: the weighted Pfaffian counts the glued graph's matchings
            z = pfaffian(tutte_matrix(o))
            assert abs(z.to_float()) == pytest.approx(matching_count(n, edges), rel=1e-10)
            checked += 1
    assert checked >= 90


# ---------------------------------------------------------------- orientation


def test_orientation_parity_on_random_planar_graphs():
    for seed in range(40):
        n, edges = random_planar_vertex_graph(seed)
        ext = plain_extended(n, edges)
        o = orient(ext)
        assert face_parity_violations(o) == [], f"seed {seed}"


def test_orientation_covers_every_edge_once():
    n, edges = random_planar_vertex_graph(11)
    ext = plain_extended(n, edges)
    o = orient(ext)
    keys = {e.key() for e in ext.edges}
    assert set(o.orientation.keys()) == keys
    for (u, v), (tail, head) in o.orientation.items():
        assert {tail, head} == {u, v}


def test_orientation_on_gadget_graphs():
    for seed in range(10):
        g = random_planar_forney(seed)
        res = _bp(g)
        ext = fisher_extend(g, res)
        o = orient(ext)
        assert face_parity_violations(o) == [], f"seed {seed}"
