"""Independent brute-force references used across the test suite.

Deliberately naive recursive implementations: they share no code with the
Pfaffian path, so agreement is evidence, not tautology.
"""

from __future__ import annotations

from planarz import SkewMatrix


def matching_sum(num_vertices: int, edges) -> float:
    """Sum over perfect matchings of the product of matched edge weights.

    edges: iterable of (u, v, weight). Exponential; keep graphs small.
    """
    adj = {v: [] for v in range(num_vertices)}
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))

    def rec(free: frozenset) -> float:
        if not free:
            return 1.0
        v = min(free)
        total = 0.0
        for u, w in adj[v]:
            if u in free and u != v:
                total += w * rec(free - {v, u})
        return total

    return rec(frozenset(range(num_vertices)))


def matching_count(num_vertices: int, edges) -> int:
    """Number of perfect matchings (all weights treated as 1)."""
    return round(matching_sum(num_vertices, [(u, v, 1.0) for u, v, *_ in edges]))


def kasteleyn_matrix(o) -> SkewMatrix:
    """Unit-weight matrix of an oriented graph, dummy edges included: with a
    Kasteleyn orientation |Pf| counts its perfect matchings."""
    return SkewMatrix.from_edges(
        o.ext.num_vertices,
        ((*o.orientation[e.key()], 1.0) for e in o.ext.edges),
    )
