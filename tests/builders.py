"""Instance builders shared by the test modules.

The ladder is the hand-checked reference fixture: its loop census and
matching counts were worked out on paper and are frozen in the tests that
use it. The random builders produce planar graphs by construction (a cycle
plus non-interleaving chord paths routed inside).
"""

from __future__ import annotations

import numpy as np

from planarz import ForneyGraph
from planarz.planar import ExtEdge, ExtendedGraph

LADDER_NEIGHBORS = {
    "t0": ("t1", "b0"),
    "t1": ("t0", "t2", "b1"),
    "t2": ("t1", "t3", "b2"),
    "t3": ("t2", "b3"),
    "b0": ("b1", "t0"),
    "b1": ("b0", "b2", "t1"),
    "b2": ("b1", "b3", "t2"),
    "b3": ("b2", "t3"),
}


def ladder_graph(seed: int = 0) -> ForneyGraph:
    """2x4 ladder with random positive tables; t1, t2, b1, b2 have degree 3."""
    rng = np.random.default_rng(seed)
    tabs = {a: rng.uniform(0.3, 1.7, size=2 ** len(n)) for a, n in LADDER_NEIGHBORS.items()}
    return ForneyGraph(LADDER_NEIGHBORS, tabs)


def cycle_forney(length: int, seed: int = 0, spread: float = 1.0) -> ForneyGraph:
    rng = np.random.default_rng(seed)
    nbrs = {f"n{i}": (f"n{(i - 1) % length}", f"n{(i + 1) % length}") for i in range(length)}
    tabs = {a: np.exp(rng.normal(0.0, spread, size=4)) for a in nbrs}
    return ForneyGraph(nbrs, tabs)


def random_tree_forney(num_nodes: int, seed: int = 0) -> ForneyGraph:
    """Random tree; node degrees capped at 5 to keep tables small."""
    rng = np.random.default_rng(seed)
    adj: dict[str, list[str]] = {"n0": []}
    for i in range(1, num_nodes):
        options = [p for p, ch in adj.items() if len(ch) < 5]
        parent = options[int(rng.integers(0, len(options)))]
        adj[parent].append(f"n{i}")
        adj[f"n{i}"] = [parent]
    tabs = {a: np.exp(rng.normal(0.0, 0.8, size=2 ** len(n))) for a, n in adj.items()}
    return ForneyGraph({a: tuple(n) for a, n in adj.items()}, tabs)


def random_planar_forney(seed: int, max_chords: int = 3) -> ForneyGraph:
    """Cycle plus non-interleaving chord paths: planar, degrees in {2, 3}.

    Chord endpoints are disjoint position pairs on the cycle taken in
    sorted order, so the chords bound disjoint regions and the graph stays
    planar. Each chord is a path of 1..3 fresh degree-2 nodes; endpoints
    become the only degree-3 nodes (at most 2 * max_chords of them).
    """
    rng = np.random.default_rng(seed)
    length = int(rng.integers(6, 13))
    adj: dict[str, list[str]] = {}
    for i in range(length):
        adj[f"c{i}"] = [f"c{(i - 1) % length}", f"c{(i + 1) % length}"]
    n_chords = int(rng.integers(0, max_chords + 1))
    if 2 * n_chords > length:
        n_chords = length // 2
    positions = sorted(rng.choice(length, size=2 * n_chords, replace=False).tolist())
    for k in range(n_chords):
        a, b = f"c{positions[2 * k]}", f"c{positions[2 * k + 1]}"
        hops = int(rng.integers(1, 4))
        path = [f"p{k}_{j}" for j in range(hops)]
        chain = [a] + path + [b]
        for j, mid in enumerate(path):
            adj[mid] = [chain[j], chain[j + 2]]
        adj[a].append(path[0])
        adj[b].append(path[-1])
    tabs = {v: np.exp(rng.normal(0.0, 0.7, size=2 ** len(n))) for v, n in adj.items()}
    return ForneyGraph({v: tuple(n) for v, n in adj.items()}, tabs)


def random_planar_vertex_graph(seed: int) -> tuple[int, list[tuple[int, int]]]:
    """Biconnected planar graph on integer vertices: cycle plus chord paths.

    Direct chords are skipped when they would duplicate a cycle edge.
    """
    rng = np.random.default_rng(seed)
    length = int(rng.integers(4, 11))
    edges = [(i, (i + 1) % length) for i in range(length)]
    nxt = length
    n_chords = int(rng.integers(0, 4))
    if 2 * n_chords > length:
        n_chords = length // 2
    positions = sorted(rng.choice(length, size=2 * n_chords, replace=False).tolist())
    for k in range(n_chords):
        a, b = positions[2 * k], positions[2 * k + 1]
        hops = int(rng.integers(0, 3))
        if hops == 0 and (b - a == 1 or (a == 0 and b == length - 1)):
            hops = 1
        chain = [a] + [nxt + j for j in range(hops)] + [b]
        nxt += hops
        for u, v in zip(chain, chain[1:]):
            edges.append((u, v))
    return nxt, edges


def plain_extended(num_vertices: int, edges) -> ExtendedGraph:
    """Wrap a plain vertex graph as a weight-1 extended graph."""
    ext_edges = tuple(ExtEdge(u, v, 1.0) for u, v in edges)
    labels = tuple((f"v{i}", "") for i in range(num_vertices))
    return ExtendedGraph(num_vertices, labels, ext_edges, {lbl: i for i, lbl in enumerate(labels)})
