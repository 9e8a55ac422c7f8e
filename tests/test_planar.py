"""Planar machinery: embedding, node splitting, orientation.

The orientation test is the load-bearing one: a correct odd-clockwise
parity on every bounded face is exactly what makes the matching Pfaffian
come out with uniform signs, so it is checked directly on many random
planar graphs rather than trusted.
"""

import importlib
import itertools
import math
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest

from planarz import (
    ForneyGraph,
    ModelError,
    ModelParams,
    NonPlanarError,
    embed,
    exact_log_z_factor,
    face_parity_violations,
    fisher_extend,
    gen_grid,
    mu_term,
    orient,
    pfaffian,
    run_bp,
    solve_forney,
    two_core,
    z_empty,
)
from planarz.pfaffian import tutte_pattern
from planarz.planar import _planar_faces, _weight_pool
from planarz.series import _layout

from builders import (
    cycle_forney,
    ladder_graph,
    plain_extended,
    random_planar_forney,
    random_planar_vertex_graph,
    triangular_lattice,
)
from oracles import flipped_minor, kasteleyn_matrix, lower, matching_count, matching_sum

pfaffian_module = importlib.import_module("planarz.pfaffian")


# ---------------------------------------------------------------- embedding


def test_embed_square_faces():
    faces = _planar_faces(embed(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert len(faces) == 2
    assert all(len(f) == 4 for f in faces)


def test_embed_euler_formula_per_component():
    # two disjoint triangles: V - E + F = 2 per component, faces add up
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    faces = _planar_faces(embed(range(6), edges))
    # each component contributes its own outer face: 2 bounded + 2 outer
    assert len(faces) == 4


def test_embed_rejects_k5_with_witness():
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    with pytest.raises(NonPlanarError) as exc:
        embed(range(5), edges)
    assert len(exc.value.witness_edges) > 0
    witness = set(exc.value.witness_edges)
    assert witness <= {(min(u, v), max(u, v)) for u, v in edges}


def test_embed_rejects_a_repeated_vertex():
    # a repeat is named as one, not taken for an isolated vertex
    with pytest.raises(ModelError, match="vertex 'a' more than once"):
        embed(["a", "b", "a"], [("a", "b")])
    with pytest.raises(ModelError, match="isolated"):
        embed(["a", "b", "c"], [("a", "b")])


def test_orient_witness_names_model_edges():
    # K3,3 as a Forney model: the Kuratowski witness found among the gadget
    # ports is reported as the model edges it runs through
    neighbors = {f"a{i}": ("b0", "b1", "b2") for i in range(3)}
    neighbors.update({f"b{i}": ("a0", "a1", "a2") for i in range(3)})
    g = ForneyGraph(neighbors, {a: np.ones(8) for a in neighbors})
    with pytest.raises(NonPlanarError) as exc:
        orient(fisher_extend(g))
    witness = exc.value.witness_edges
    assert set(witness) <= set(g.edges)
    assert not nx.check_planarity(nx.Graph(witness))[0]
    assert f"witness has {len(witness)} model edges" in str(exc.value)


@pytest.mark.xfail(
    raises=NonPlanarError,
    strict=True,
    reason="reduce_degree splits a degree-6 node into a chain along its "
    "neighbour order, not along its planar rotation",
)
def test_triangular_lattice_in_any_factor_order_is_planar():
    # a triangular lattice is planar whatever order its factors come in.
    # Row-major, the chains its degree-6 nodes are split into embed, and
    # zero-field z_empty is exact; shuffled, the split graph is rejected
    # as not planar (a Kuratowski witness of 32 model edges)
    exact = 13.62769778001502
    row_major = triangular_lattice(4, seed=0)
    assert exact_log_z_factor(row_major) == pytest.approx(exact, rel=1e-14)
    assert solve_forney(row_major, "z_empty")["log_z"] == pytest.approx(exact, rel=1e-12)
    shuffled = triangular_lattice(4, seed=0, shuffle=True)
    assert exact_log_z_factor(shuffled) == pytest.approx(exact, rel=1e-14)
    assert solve_forney(shuffled, "z_empty")["log_z"] == pytest.approx(exact, rel=1e-12)


def test_random_planar_graphs_embed():
    for seed in range(30):
        n, edges = random_planar_vertex_graph(seed)
        faces = _planar_faces(embed(range(n), edges))
        # connected graph: V - E + F = 2
        assert n - len(edges) + len(faces) == 2


# ---------------------------------------------------------------- gadgets


def _bp(g):
    res = run_bp(g)
    assert res.converged
    return res


def test_fisher_extend_sizes():
    g = ladder_graph(seed=0)
    ext = fisher_extend(g)
    # degree-2 nodes give 2 ports, degree-3 nodes 3 ports
    want = sum(g.degree(a) for a in g.nodes)
    assert ext.num_vertices == want
    assert ext.num_vertices <= 3 * g.num_nodes
    assert len(ext.edges) <= 3 * g.num_edges + 3 * g.num_nodes


def test_fisher_gadget_weights():
    g = ladder_graph(seed=3)
    res = _bp(g)
    lay = _layout(g)
    o, pattern = lay.o, lay.pattern
    ext = o.ext
    K = pattern.entries(_weight_pool(g, res)).dense()

    def weight(e):  # the edge's entry of the series' K, at [tail, head]
        return K[o.orientation[e]]

    # an edge is internal exactly when both its ports belong to one node
    internals = [(u, v) for u, v in ext.edges if ext.labels[u][0] == ext.labels[v][0]]
    externals = [(u, v) for u, v in ext.edges if ext.labels[u][0] != ext.labels[v][0]]
    assert all(weight(e) == 1.0 for e in externals)
    assert len(externals) == g.num_edges
    # every internal weight is the loop weight of its port pair
    for e in internals:
        (node, b), (_, c) = ext.labels[e[0]], ext.labels[e[1]]
        assert weight(e) == pytest.approx(mu_term(res, node, (b, c)), rel=1e-14)
    # degree-2 nodes contribute 1 internal edge, degree-3 nodes 3
    assert len(internals) == sum(1 if g.degree(a) == 2 else 3 for a in g.nodes)


def test_fisher_extend_ports_make_a_banded_tutte_matrix():
    # each Pfaffian step works on a window about as wide as the band, so the
    # port order must keep it narrow: half-bandwidth 29 and 55 here
    for n in (8, 16):
        core, _ = two_core(gen_grid(n, ModelParams(beta=1.0, theta=0.0, seed=0))[1])
        lay = _layout(core)
        o, pattern = lay.o, lay.pattern
        nodes = [a for a, _ in o.ext.labels]
        runs = [a for i, a in enumerate(nodes) if i == 0 or a != nodes[i - 1]]
        assert sorted(runs) == sorted(core.nodes)  # each node's ports contiguous
        rows, cols = np.nonzero(pattern.entries(_weight_pool(core, _bp(core))).dense())
        assert np.abs(rows - cols).max() <= 5 * n


def test_fisher_extend_removal(monkeypatch):
    # a removal set's term matrix is the principal minor of the removal-free
    # Tutte matrix on the ports of the kept nodes
    g = ladder_graph(seed=3)
    res = _bp(g)
    lay = _layout(g)
    o, pattern = lay.o, lay.pattern
    entries = pattern.entries(_weight_pool(g, res))
    K = entries.dense()
    minor, kept = flipped_minor(o, K, ("t1", "t2"), ())
    # the series' own full minor, built from the entries, is that slice
    real = pfaffian_module.pfaffian
    seen = []
    monkeypatch.setattr(pfaffian_module, "pfaffian", lambda a: seen.append(a) or real(a))
    removed = sorted(set(range(o.ext.num_vertices)) - set(kept))
    pfaffian_module.minor_pfaffian(entries, removed, {})
    want = lower(minor)
    assert len(seen) == 1 and seen[0].shape == want.shape
    assert all(np.array_equal(getattr(seen[0], f), getattr(want, f)) for f in ("rows", "cols", "vals"))
    assert minor.shape == (len(kept), len(kept)) == (o.ext.num_vertices - 6,) * 2
    # externals on removed nodes are gone too: each removed degree-3 node
    # kills its 3 externals, but the t1-t2 edge is shared
    labels = o.ext.labels
    external = {(u, v) for u, v in o.ext.edges if labels[u][0] != labels[v][0]}
    entries = {(kept[i], kept[j]) for i, j in zip(*np.nonzero(np.triu(minor)))}
    assert len(entries & external) == g.num_edges - 5


def test_ladder_extended_graph_has_eight_matchings():
    # frozen by hand: the full gadget graph of the 2x4 ladder admits
    # exactly 8 perfect matchings
    g = ladder_graph(seed=0)
    ext = fisher_extend(g)
    count = matching_count(ext.num_vertices, ext.edges)
    assert count == 8


# ---------------------------------------------------------------- components


def _roots(o):
    return [fi for fi in range(len(o.faces)) if fi not in o.dual_tree]


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
    weights = np.ones(len(ext.edges))
    before = matching_sum(8, [(u, v, w) for (u, v), w in zip(ext.edges, weights)])
    o = orient(ext)
    assert o.ext is ext
    assert len(_roots(o)) == 2
    assert face_parity_violations(o) == []
    after = matching_sum(o.ext.num_vertices, [(u, v, w) for (u, v), w in zip(o.ext.edges, weights)])
    assert after == pytest.approx(before)
    z = pfaffian(tutte_pattern(o).entries(weights))
    assert abs(z.to_float()) == pytest.approx(before, rel=1e-10)


def test_orient_embeds_once(monkeypatch):
    # the one planarity test runs in fisher_extend, on the model graph; orient
    # traces its faces from the rotation it is given, connected or not
    real = nx.check_planarity
    calls = []

    def check_planarity(G, **kwargs):
        calls.append(G.number_of_nodes())
        return real(G, **kwargs)

    monkeypatch.setattr(nx, "check_planarity", check_planarity)
    for g in (ladder_graph(seed=0), random_planar_forney(4)):
        calls.clear()
        ext = fisher_extend(g)
        assert calls == [g.num_nodes]
        calls.clear()
        o = orient(ext)
        assert calls == [] and o.ext is ext
        assert face_parity_violations(o) == []
    square = [(0, 1), (1, 2), (2, 3), (3, 0)]
    for n, edges in ((4, square), (8, square + [(u + 4, v + 4) for u, v in square])):
        ext = plain_extended(n, edges)
        calls.clear()
        o = orient(ext)
        assert calls == [] and o.ext is ext
        assert face_parity_violations(o) == []


def _disjoint_union(g, h):
    neighbors, tables = {}, {}
    for tag, model in (("x", g), ("y", h)):
        for a in model.nodes:
            neighbors[tag + a] = tuple(tag + b for b in model.neighbors[a])
            tables[tag + a] = model.tables[a]
    return ForneyGraph(neighbors, tables)


def test_fisher_extend_rotation_is_planar_per_component():
    # networkx checks the lifted rotation on its own: every component has
    # V - E + F = 2, counting its own outer face
    for g, parts in (
        (_disjoint_union(ladder_graph(seed=1), random_planar_forney(5)), 2),
        (cycle_forney(7), 1),
    ):
        ext = fisher_extend(g)
        emb = nx.PlanarEmbedding()
        emb.set_data({v: list(nbrs) for v, nbrs in enumerate(ext.rotation)})
        emb.check_structure()
        assert sorted(emb.edges()) == sorted(x for e in ext.edges for x in (e, e[::-1]))
        assert nx.number_connected_components(emb.to_undirected()) == parts
        faces = orient(ext).faces
        assert ext.num_vertices - len(ext.edges) + len(faces) == 2 * parts


def test_orient_rejects_a_corrupted_rotation():
    # one gadget port turned the other way round: the rotation is no longer
    # planar, and the Euler check in orient says so
    g = ladder_graph(seed=0)
    ext = fisher_extend(g)
    v = next(v for v, nbrs in enumerate(ext.rotation) if len(nbrs) == 3)
    rotation = list(ext.rotation)
    rotation[v] = rotation[v][::-1]
    with pytest.raises(NonPlanarError, match="Euler"):
        orient(replace(ext, rotation=tuple(rotation)))


def test_one_face_trace_per_model(monkeypatch):
    # embed gives the model's rotation only; orient traces the lifted
    # rotation's faces, and its Euler check is the topology's only one:
    # other tables on the same graph reuse the traced layout
    planar_module = importlib.import_module("planarz.planar")
    calls = []

    def counted(rotation):
        calls.append(len(rotation))
        return _planar_faces(rotation)

    monkeypatch.setattr(planar_module, "_planar_faces", counted)
    cycle = cycle_forney(3, seed=0)  # another topology takes the kept layout's place
    z_empty(cycle, _bp(cycle))
    calls.clear()
    for seed in (0, 1):
        g = ladder_graph(seed=seed)
        z_empty(g, _bp(g))
    assert calls == [sum(len(g.neighbors[a]) for a in g.nodes)]


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
            pf = pfaffian(lower(kasteleyn_matrix(o)))
            want = matching_count(n, o.ext.edges)
            assert math.exp(pf.log_magnitude) == pytest.approx(want, rel=1e-10, abs=0)
            # unit weights: the weighted Pfaffian counts the glued graph's matchings
            z = pfaffian(tutte_pattern(o).entries(np.ones(len(o.ext.edges))))
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
    assert set(o.orientation.keys()) == set(ext.edges)
    for (u, v), (tail, head) in o.orientation.items():
        assert {tail, head} == {u, v}


def test_orientation_on_gadget_graphs():
    for seed in range(10):
        g = random_planar_forney(seed)
        ext = fisher_extend(g)
        o = orient(ext)
        assert face_parity_violations(o) == [], f"seed {seed}"
