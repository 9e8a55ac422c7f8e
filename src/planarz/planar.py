"""Planar machinery: embeddings, node-splitting gadgets, edge orientation.

The pipeline goes reduced graph -> its rotation-system embedding (the one
planarity test, and the only networkx call) -> split gadgets (one 2-node
gadget per degree-2 node, one triangle per degree-3 node) with that
rotation lifted onto their ports -> the lifted rotation's faces, traced
once per topology and checked against Euler's formula -> orientation making
every bounded face odd when walked clockwise, one root face per component,
fixed along a breadth-first dual spanning forest. Every graph search
here, over the model's nodes, the ports or the faces, runs through _bfs,
and so do the series' T-join searches, which stop at the first node they
want. Perfect matchings of the extended graph then line up with the
even-degree loop structure of the source graph. Only the removal-free
graph of a model is built, embedded and oriented: a removal set's graph
is its subgraph induced on the kept ports. The layout depends on the model's topology
alone: its edges are port pairs, without weights. Only the gadget-edge
weights depend on BP, each one entry of a node's loop-weight table
(ExtendedGraph.source says which, _weight_pool holds them), so the series
builds this layout once per topology and keeps it, in its _Layout, in
the per-topology slot it shares with BP's plan (model._kept); every
solve gathers its weights from the pool. fisher_extend and orient themselves keep
nothing between calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import networkx as nx
import numpy as np

from .bp import BPResult
from .model import ForneyGraph, ModelError, canon_edge


class NonPlanarError(ValueError):
    """Graph admits no planar embedding; carries a Kuratowski witness."""

    def __init__(self, message, witness_edges=()):
        super().__init__(message)
        self.witness_edges = tuple(witness_edges)


@dataclass(frozen=True)
class ExtendedGraph:
    """Port graph produced by splitting nodes of a reduced source graph.

    Vertex i is labels[i] = (source node, facing neighbor), and port maps
    each label back to i. Each edge is a port pair (u, v), u < v. It is
    gadget-internal when both its ports belong to one source node, and then
    weighs a loop weight of that node; an external edge joins two nodes'
    ports and weighs 1. The weights are not kept here: source[i] is where
    edge i's weight sits in the weight array (see fisher_extend).
    """

    num_vertices: int
    labels: tuple
    edges: tuple  # canonical port pairs (u, v), u < v
    source: tuple  # per edge, the index of its weight in the weight array
    port: dict  # label -> vertex
    rotation: tuple  # per vertex, neighbor tuple in cyclic order of a planar embedding


@dataclass(frozen=True)
class OrientedPlanarGraph:
    """Extended graph with the faces of its rotation and a parity-correct
    edge orientation; every component has its own faces, its outer one
    included."""

    ext: ExtendedGraph
    faces: tuple  # per face, tuple of directed edges (u, v)
    orientation: dict  # canonical (u, v) -> (tail, head)
    dual_tree: dict  # face -> (parent face, canonical edge crossed to reach it); roots absent


def _planar_faces(rotation) -> tuple:
    """Faces of a rotation system, each a walk of directed edges, after a
    per-component Euler check: the rotation is planar iff each component
    has V - E + F = 2, its outer face counted. A component is the vertices
    one _bfs over the rotation reaches. Raises NonPlanarError."""
    n = len(rotation)
    pos = [{b: i for i, b in enumerate(nbrs)} for nbrs in rotation]
    faces = []
    seen = set()
    for u in range(n):
        for v in rotation[u]:
            if (u, v) in seen:
                continue
            walk = []
            x, y = u, v
            while (x, y) not in seen:
                seen.add((x, y))
                walk.append((x, y))
                nxt = rotation[y][(pos[y][x] + 1) % len(rotation[y])]
                x, y = y, nxt
            faces.append(tuple(walk))

    comp, parent = [0] * n, {}
    for u in range(n):
        if u not in parent:
            for x in _bfs(rotation, u, parent):
                comp[x] = u
    # 2(V - E + F) per component: each vertex adds 2 - degree, each face 2
    euler = dict.fromkeys(comp, 0)
    for u in range(n):
        euler[comp[u]] += 2 - len(rotation[u])
    for face in faces:
        euler[comp[face[0][0]]] += 2
    if any(chi != 4 for chi in euler.values()):
        raise NonPlanarError("rotation system violates Euler's formula")
    return tuple(faces)


def embed(vertices, edges) -> tuple:
    """Planar embedding as a rotation system: per vertex of vertices, in
    that order, its neighbors in clockwise order, as networkx's planarity
    test gives them. Vertices are distinct hashable ids; edges join them.

    Non-planar input raises NonPlanarError whose witness is the Kuratowski
    subgraph's edges as sorted canon_edge pairs. Every vertex must touch
    an edge. This is the pipeline's one planarity test: fisher_extend runs
    it on the model graph, once per topology, and lifts the rotation onto
    the gadget ports. No faces are traced here; orient traces the lifted
    rotation's faces, once per topology.
    """
    vertices = tuple(vertices)
    pos = {v: i for i, v in enumerate(vertices)}
    if len(pos) != len(vertices):
        repeated = next(v for i, v in enumerate(vertices) if pos[v] != i)
        raise ModelError(f"embed got vertex {repeated!r} more than once")
    key_edges = set()  # by their ends' positions, the order networkx sees
    for u, v in edges:
        if u not in pos or v not in pos or u == v:
            raise ModelError(f"bad edge ({u}, {v})")
        key_edges.add((min(pos[u], pos[v]), max(pos[u], pos[v])))
    if not key_edges:
        raise ModelError("embed needs at least one edge")
    if len({x for e in key_edges for x in e}) != len(vertices):
        raise ModelError("embed does not accept isolated vertices")

    G = nx.Graph()
    G.add_nodes_from(vertices)
    G.add_edges_from((vertices[i], vertices[j]) for i, j in sorted(key_edges))
    ok, cert = nx.check_planarity(G, counterexample=True)
    if not ok:
        witness = sorted(canon_edge(u, v) for u, v in cert.edges())
        raise NonPlanarError(
            f"model is not planar; Kuratowski witness has {len(witness)} model edges",
            witness_edges=witness,
        )
    return tuple(tuple(cert.neighbors_cw_order(v)) for v in vertices)


def _bfs(adj, root, parent: dict):
    """Yield the nodes reached from root in breadth-first order, root
    first, skipping every node already in parent; records each reached
    node's parent there, None for root. A caller that stops early leaves
    parent holding only the nodes yielded so far. adj maps each node, by
    key or index, to its neighbours: a ForneyGraph's neighbors, a rotation
    system, a face adjacency."""
    parent[root] = None
    yield root
    order = [root]
    for a in order:
        for b in adj[a]:
            if b not in parent:
                parent[b] = a
                order.append(b)
                yield b


def _level_order(g: ForneyGraph) -> list:
    """g's nodes in reverse breadth-first order, one component at a time,
    each searched from a pseudo-peripheral node: the last node reached from
    the component's first node in g.nodes. Nodes of one level sit together,
    so edges only join nearby positions (Cuthill & McKee 1969)."""
    order, seen = [], {}
    for a in g.nodes:
        if a not in seen:
            far = list(_bfs(g.neighbors, a, {}))[-1]
            order += reversed(list(_bfs(g.neighbors, far, seen)))
    return order


def fisher_extend(g: ForneyGraph) -> ExtendedGraph:
    """Split every node into its matching gadget, embedded in the plane.

    Degree-2 nodes become two ports joined by one edge; degree-3 nodes
    become a triangle, whose edge between the ports facing b and c weighs
    the node's loop weight against {b, c}, and an external edge weighs 1:
    source says where each sits in _weight_pool. Ports are numbered node
    by node, in _level_order, so the Tutte matrix is banded and every
    principal minor of it too. The edges are each node's gadget edges,
    node by node in g.nodes order, then one external edge per edge of g,
    in g.edges order.

    g itself is embedded, embed(g.nodes, g.edges), and its rotation is
    lifted onto the ports: each gadget sits at its node, so the port facing
    b lists its external edge to b first, then the node's other ports going
    backwards round the node's rotation. (Going forwards gives the mirror
    image, just as planar.) g's faces are not traced: lifting keeps
    V - E + F of every component, each face of g giving one port face and
    each triangle adding one, so orient's trace of the ports is the
    model's one. A non-planar model raises embed's NonPlanarError, whose
    witness is the model edges of the Kuratowski subgraph.
    """
    if not g.is_reduced:
        raise ModelError("fisher_extend needs a reduced graph (degrees 2 and 3)")
    if not g.nodes:
        return ExtendedGraph(0, (), (), (), {}, ())
    labels = [(a, b) for a in _level_order(g) for b in g.neighbors[a]]
    port = {lbl: i for i, lbl in enumerate(labels)}
    rotation = [None] * len(labels)
    edges, source, start = [], [], 0
    for a, ring in zip(g.nodes, embed(g.nodes, g.edges)):
        for i, b in enumerate(ring):
            back = tuple(port[(a, ring[i - d])] for d in range(1, len(ring)))
            rotation[port[(a, b)]] = (port[(b, a)],) + back
        nbrs = g.neighbors[a]
        k = len(nbrs)
        # ports are numbered in neighbor order (i < j is u < v); the pair's
        # entry has bits i and j set, the first neighbor's most significant
        for i, j in itertools.combinations(range(k), 2):
            edges.append((port[(a, nbrs[i])], port[(a, nbrs[j])]))
            source.append(start + (1 << (k - 1 - i) | 1 << (k - 1 - j)))
        start += 1 << k
    for a, b in g.edges:
        u, v = port[(a, b)], port[(b, a)]
        edges.append((u, v) if u < v else (v, u))
    source += [start] * len(g.edges)
    return ExtendedGraph(len(labels), tuple(labels), tuple(edges), tuple(source), port, tuple(rotation))


def _weight_pool(g: ForneyGraph, res: BPResult) -> np.ndarray:
    """res's loop-weight tables in g.nodes order, then 1.0."""
    return np.concatenate([*(res.loop_weights[a] for a in g.nodes), [1.0]])


def orient(ext: ExtendedGraph) -> OrientedPlanarGraph:
    """Direct every edge so each bounded face has an odd clockwise count.

    Every edge starts out pointing to its larger endpoint. A breadth-first
    walk of the dual (_bfs over the faces, each adjacent to the faces
    across its edges) then grows a spanning forest, rooted in each
    component's largest face, which serves as that component's outer face.
    A face is reached across the first edge of its parent's walk into it.
    Faces are fixed leaves first: each flips the edge it was reached
    across, if need be, to make its own count odd. The forest is kept on
    the result: a path up it from any face is a shortest dual path to its
    component's root.

    The faces are traced from ext.rotation, the one face trace per topology,
    checked per component against Euler's formula and kept on the result;
    a rotation that fails raises NonPlanarError. No planarity test runs
    here.
    """
    faces = _planar_faces(ext.rotation)
    face_of = {de: fi for fi, walk in enumerate(faces) for de in walk}
    orientation = dict(zip(ext.edges, ext.edges))  # tail = smaller endpoint

    dual = [[face_of[(y, x)] for x, y in walk] for walk in faces]
    parent, order = {}, []
    for root in sorted(range(len(faces)), key=lambda i: (-len(faces[i]), i)):
        if root not in parent:
            order += _bfs(dual, root, parent)
    dual_tree = {}
    for fi in order:
        for (x, y), nf in zip(faces[fi], dual[fi]):
            if parent[nf] == fi and nf not in dual_tree:
                dual_tree[nf] = (fi, (min(x, y), max(x, y)))

    for fi in reversed(order):
        if fi not in dual_tree:
            continue  # a root
        u, v = dual_tree[fi][1]
        cw = 0
        this_dir = None
        for x, y in faces[fi]:
            key = (min(x, y), max(x, y))
            if key == (u, v):
                this_dir = (x, y)
                continue
            if orientation[key] == (x, y):
                cw += 1
        orientation[(u, v)] = this_dir if cw % 2 == 0 else (this_dir[1], this_dir[0])

    return OrientedPlanarGraph(ext, faces, orientation, dual_tree)


def face_parity_violations(o: OrientedPlanarGraph) -> list[int]:
    """Indices of faces below a root of o.dual_tree, one root per component,
    whose clockwise count is even (should be none)."""
    bad = []
    for fi, walk in enumerate(o.faces):
        if fi not in o.dual_tree:
            continue
        cw = sum(
            1 for x, y in walk if o.orientation[(min(x, y), max(x, y))] == (x, y)
        )
        if cw % 2 == 0:
            bad.append(fi)
    return bad
