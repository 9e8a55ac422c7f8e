"""Planar machinery: embeddings, node-splitting gadgets, edge orientation.

The pipeline goes reduced graph -> split gadgets (one 2-node gadget per
degree-2 node, one triangle per degree-3 node) -> rotation-system embedding
-> orientation making every bounded face odd when walked clockwise, one
root face per component. Perfect matchings of the extended graph then line
up with the even-degree loop structure of the source graph. Only the
removal-free graph of a model is built, embedded and oriented: a removal
set's graph is its subgraph induced on the kept ports.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .bp import BPResult
from .model import ForneyGraph, ModelError, canon_edge


class NonPlanarError(ValueError):
    """Graph admits no planar embedding; carries a Kuratowski witness."""

    def __init__(self, message, witness_edges=()):
        super().__init__(message)
        self.witness_edges = tuple(witness_edges)


@dataclass(frozen=True)
class ExtEdge:
    """Edge of an extended graph; weight is the matching weight."""

    u: int
    v: int
    weight: float

    def key(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


@dataclass(frozen=True)
class ExtendedGraph:
    """Port graph produced by splitting nodes of a reduced source graph.

    Vertex i is labels[i] = (source node, facing neighbor), and port maps
    each label back to i. An edge is gadget-internal when both its ports
    belong to one source node and then carries a loop weight; an external
    edge joins two nodes' ports and weighs 1.
    """

    num_vertices: int
    labels: tuple
    edges: tuple
    port: dict  # label -> vertex


@dataclass(frozen=True)
class PlanarEmbedding:
    """Rotation system plus traced faces for a planar graph; every
    component has its own faces, its outer one included."""

    rotation: tuple  # per vertex, neighbor tuple in cyclic order
    faces: tuple  # per face, tuple of directed edges (u, v)


@dataclass(frozen=True)
class OrientedPlanarGraph:
    """Extended graph with an embedding and a parity-correct edge orientation."""

    ext: ExtendedGraph
    embedding: PlanarEmbedding
    orientation: dict  # canonical (u, v) -> (tail, head)
    dual_tree: dict  # face -> (parent face, canonical edge crossed to reach it); roots absent


def _trace_faces(num_vertices, rotation):
    pos = [{b: i for i, b in enumerate(nbrs)} for nbrs in rotation]
    faces = []
    seen = set()
    for u in range(num_vertices):
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
    return tuple(faces)


def embed(num_vertices: int, edges) -> PlanarEmbedding:
    """Planar embedding as a rotation system with traced faces.

    The rotation is networkx's, checked per component against Euler's
    formula. Non-planar input raises NonPlanarError carrying a Kuratowski
    witness. Every vertex must touch an edge.
    """
    key_edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    if not key_edges:
        raise ModelError("embed needs at least one edge")
    for u, v in key_edges:
        if not (0 <= u < num_vertices and 0 <= v < num_vertices) or u == v:
            raise ModelError(f"bad edge ({u}, {v})")
    if len({x for e in key_edges for x in e}) != num_vertices:
        raise ModelError("embed does not accept isolated vertices")

    G = nx.Graph()
    G.add_nodes_from(range(num_vertices))
    G.add_edges_from(key_edges)
    ok, cert = nx.check_planarity(G, counterexample=True)
    if not ok:
        raise NonPlanarError(
            f"graph is not planar; Kuratowski witness has {cert.number_of_edges()} edges",
            witness_edges=sorted(tuple(sorted(e)) for e in cert.edges()),
        )
    rotation = tuple(tuple(cert.neighbors_cw_order(v)) for v in range(num_vertices))
    faces = _trace_faces(num_vertices, rotation)

    # per-component Euler check: the rotation system is planar iff each
    # component satisfies V - E + F = 2 with its own outer face
    comp = list(range(num_vertices))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for u, v in key_edges:
        comp[find(u)] = find(v)
    v_count = {}
    e_count = {}
    f_count = {}
    for v in range(num_vertices):
        v_count[find(v)] = v_count.get(find(v), 0) + 1
    for u, v in key_edges:
        e_count[find(u)] = e_count.get(find(u), 0) + 1
    for face in faces:
        root = find(face[0][0])
        f_count[root] = f_count.get(root, 0) + 1
    for root, nv in v_count.items():
        if nv - e_count.get(root, 0) + f_count.get(root, 0) != 2:
            raise NonPlanarError("rotation system violates Euler's formula")

    return PlanarEmbedding(rotation, faces)


_GADGET_PAIRS = {2: ((0, 1),), 3: ((0, 1), (0, 2), (1, 2))}


def fisher_extend(g: ForneyGraph, res: BPResult) -> ExtendedGraph:
    """Split every node into its matching gadget.

    Degree-2 nodes become two ports joined by one weighted edge; degree-3
    nodes become a triangle whose edge between the ports facing b and c
    carries the node's loop weight against {b, c}, read from its table in
    res.loop_weights. Ports are numbered node by node in g's order.
    """
    if not g.is_reduced:
        raise ModelError("fisher_extend needs a reduced graph (degrees 2 and 3)")
    labels = [(a, b) for a in g.nodes for b in g.neighbors[a]]
    port = {lbl: i for i, lbl in enumerate(labels)}

    edges = []
    for a in g.nodes:
        nbrs = g.neighbors[a]
        k = len(nbrs)
        for i, j in _GADGET_PAIRS[k]:
            pair = (nbrs[i], nbrs[j])
            w = float(res.loop_weights[a][(1 << (k - 1 - i)) | (1 << (k - 1 - j))])
            edges.append(ExtEdge(port[(a, pair[0])], port[(a, pair[1])], w))
    for a, b in g.edges:
        edges.append(ExtEdge(port[(a, b)], port[(b, a)], 1.0))

    return ExtendedGraph(len(labels), tuple(labels), tuple(edges), port)


def reference_matching(g: ForneyGraph, ext: ExtendedGraph, removed=()):
    """One perfect matching of ext = fisher_extend(g, res) minus the ports
    of the removed nodes, as canonical port pairs of ext, or None when there
    is none.

    Perfect matchings are generalized loops through every removed node: the
    loop pairs ports inside gadgets, the other kept edges match externally.
    Its edges between kept nodes form a T-join, T the kept nodes with an odd
    number of removed neighbors, and every T-join is such a loop. One exists
    iff each component of g minus the removed nodes holds an even number of
    T; the one inside a spanning forest takes O(V).
    """
    removed = set(removed)
    kept = [a for a in g.nodes if a not in removed]
    port = ext.port
    odd = {a: sum(b in removed for b in g.neighbors[a]) % 2 == 1 for a in kept}
    loop = set()
    parent = {}
    for root in kept:
        if root in parent:
            continue
        parent[root] = None
        order = [root]  # breadth-first: every node after its parent
        for a in order:
            for b in g.neighbors[a]:
                if b not in removed and b not in parent:
                    parent[b] = a
                    order.append(b)
        for a in reversed(order[1:]):
            if odd[a]:
                loop.add(canon_edge(a, parent[a]))
                odd[parent[a]] = not odd[parent[a]]
        if odd[root]:
            return None

    pairs = []
    for a in kept:
        ends = [port[(a, b)] for b in g.neighbors[a] if b in removed or canon_edge(a, b) in loop]
        if ends:
            pairs.append(tuple(sorted(ends)))
    for a, b in g.edges:
        if a not in removed and b not in removed and (a, b) not in loop:
            pairs.append(tuple(sorted((port[(a, b)], port[(b, a)]))))
    return pairs


def orient(ext: ExtendedGraph) -> OrientedPlanarGraph:
    """Direct every edge so each bounded face has an odd clockwise count.

    Every edge starts out pointing to its larger endpoint. A depth-first
    walk across edges then grows a spanning forest of the dual, rooted in
    each component's largest face, which serves as that component's outer
    face. Faces are fixed leaves first: each flips the edge it was reached
    across, if need be, to make its own count odd. The forest is kept on
    the result: a path up it from any face reaches its component's root.

    A non-planar model raises NonPlanarError whose witness is the model
    edges that the Kuratowski subgraph runs through.
    """
    try:
        emb = embed(ext.num_vertices, [e.key() for e in ext.edges])
    except NonPlanarError as exc:
        if not exc.witness_edges:
            raise
        nodes = [(ext.labels[u][0], ext.labels[v][0]) for u, v in exc.witness_edges]
        witness = sorted({canon_edge(a, b) for a, b in nodes if a != b})
        raise NonPlanarError(
            f"model is not planar; Kuratowski witness has {len(witness)} model edges",
            witness_edges=witness,
        ) from None
    faces = emb.faces
    face_of = {de: fi for fi, walk in enumerate(faces) for de in walk}
    orientation = {e.key(): e.key() for e in ext.edges}  # tail = smaller endpoint

    dual_tree = {}
    order = []
    seen = set()
    for root in sorted(range(len(faces)), key=lambda i: (-len(faces[i]), i)):
        if root in seen:
            continue
        seen.add(root)
        stack = [root]
        while stack:
            fi = stack.pop()
            order.append(fi)
            for x, y in faces[fi]:
                nf = face_of[(y, x)]
                if nf not in seen:
                    seen.add(nf)
                    dual_tree[nf] = (fi, (min(x, y), max(x, y)))
                    stack.append(nf)

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

    return OrientedPlanarGraph(ext, emb, orientation, dual_tree)


def face_parity_violations(o: OrientedPlanarGraph) -> list[int]:
    """Indices of faces below a root of o.dual_tree, one root per component,
    whose clockwise count is even (should be none)."""
    bad = []
    for fi, walk in enumerate(o.embedding.faces):
        if fi not in o.dual_tree:
            continue
        cw = sum(
            1 for x, y in walk if o.orientation[(min(x, y), max(x, y))] == (x, y)
        )
        if cw % 2 == 0:
            bad.append(fi)
    return bad
