"""Binary graphical models in normal form.

A normal-form (Forney) graph has interactions as nodes and one binary +-1
variable per edge, shared by exactly the two endpoint nodes. Factor graphs
with named variables are supported as the input representation and are
converted so that every variable ends up on an edge.

Factor tables are flat numpy arrays of length 2^k for a node with k
neighbors, indexed lexicographically over assignments with -1 before +1 and
the first neighbor most significant.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

MAX_ENUM_VARIABLES = 30
_CHUNK_BITS = 22


class ModelError(ValueError):
    """Structurally invalid model, conversion, or oracle request."""


def assignment_to_index(spins) -> int:
    """Table index of a +-1 assignment, first position most significant."""
    idx = 0
    for s in spins:
        if s not in (-1, 1):
            raise ModelError(f"spins must be +-1, got {s!r}")
        idx = (idx << 1) | (s > 0)
    return idx


def index_to_assignment(idx: int, k: int) -> tuple[int, ...]:
    """Inverse of assignment_to_index for a scope of size k."""
    if not 0 <= idx < (1 << k):
        raise ModelError(f"index {idx} out of range for scope size {k}")
    return tuple(1 if (idx >> (k - 1 - i)) & 1 else -1 for i in range(k))


def _check_table(owner: str, table, k: int) -> np.ndarray:
    t = np.asarray(table, dtype=float)
    if t.shape != (1 << k,):
        raise ModelError(
            f"table of {owner!r} has shape {t.shape}, expected ({1 << k},) for {k} neighbors"
        )
    if not np.all(np.isfinite(t)):
        raise ModelError(f"table of {owner!r} has non-finite entries")
    if np.any(t < 0):
        raise ModelError(f"table of {owner!r} has negative entries")
    if not np.any(t > 0):
        raise ModelError(f"table of {owner!r} is identically zero")
    return t


def canon_edge(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class ForneyGraph:
    """Normal-form model: nodes with ordered neighbor tuples and tables.

    neighbors maps node id to its ordered neighbor tuple; the order fixes the
    axis layout of the node's table. Adjacency must be symmetric, simple
    (no self loops or parallel edges), and every node needs a table with
    2^degree non-negative finite entries, at least one positive.
    """

    def __init__(self, neighbors: dict, tables: dict):
        self.nodes: tuple[str, ...] = tuple(neighbors)
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ModelError("duplicate node ids")
        self.neighbors: dict[str, tuple[str, ...]] = {}
        for a, nbrs in neighbors.items():
            nbrs = tuple(nbrs)
            if a in nbrs:
                raise ModelError(f"self loop at node {a!r}")
            if len(set(nbrs)) != len(nbrs):
                raise ModelError(f"parallel edges at node {a!r}")
            for b in nbrs:
                if b not in node_set:
                    raise ModelError(f"node {a!r} lists unknown neighbor {b!r}")
            self.neighbors[a] = nbrs
        for a, nbrs in self.neighbors.items():
            for b in nbrs:
                if a not in self.neighbors[b]:
                    raise ModelError(f"edge {a!r}-{b!r} not symmetric")
        extra = set(tables) - node_set
        if extra:
            raise ModelError(f"tables for unknown nodes: {sorted(extra)}")
        self.tables: dict[str, np.ndarray] = {}
        for a in self.nodes:
            if a not in tables:
                raise ModelError(f"missing table for node {a!r}")
            self.tables[a] = _check_table(a, tables[a], len(self.neighbors[a]))
        self.edges: tuple[tuple[str, str], ...] = tuple(
            sorted({canon_edge(a, b) for a in self.nodes for b in self.neighbors[a]})
        )

    def degree(self, a: str) -> int:
        return len(self.neighbors[a])

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def is_reduced(self) -> bool:
        """True when every degree is 2 or 3 (the shape the planar pipeline needs)."""
        return all(len(n) in (2, 3) for n in self.neighbors.values())

    def __repr__(self):
        return f"ForneyGraph({self.num_nodes} nodes, {self.num_edges} edges)"


@dataclass(frozen=True, eq=False)
class Factor:
    """One factor of a factor graph: ordered variable scope plus table."""

    id: str
    scope: tuple[str, ...]
    table: np.ndarray


class FactorGraph:
    """Bipartite model over named binary variables.

    Variables must be used by at least one factor; a scope may not repeat a
    variable. Table layout follows the same index convention as ForneyGraph.
    """

    def __init__(self, variables, factors):
        self.variables: tuple[str, ...] = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ModelError("duplicate variable ids")
        var_set = set(self.variables)
        self.factors: tuple[Factor, ...] = tuple(
            Factor(fid, tuple(scope), _check_table(fid, table, len(tuple(scope))))
            for fid, scope, table in factors
        )
        seen = set()
        used = set()
        for f in self.factors:
            if f.id in seen:
                raise ModelError(f"duplicate factor id {f.id!r}")
            seen.add(f.id)
            if len(set(f.scope)) != len(f.scope):
                raise ModelError(f"factor {f.id!r} repeats a variable in its scope")
            for v in f.scope:
                if v not in var_set:
                    raise ModelError(f"factor {f.id!r} references unknown variable {v!r}")
                used.add(v)
        unused = var_set - used
        if unused:
            raise ModelError(f"variables never used by any factor: {sorted(unused)}")

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    def __repr__(self):
        return f"FactorGraph({self.num_variables} variables, {len(self.factors)} factors)"


@dataclass(frozen=True)
class ModelParams:
    """Sampling parameters for generated instances.

    beta scales coupling variance (beta / 2), theta scales field variance
    (beta * theta). attractive takes absolute values of all draws.
    """

    beta: float
    theta: float = 0.0
    attractive: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.beta < 0 or self.theta < 0:
            raise ModelError("beta and theta must be non-negative")


def _equality_table(degree: int, lo: float = 1.0, hi: float = 1.0) -> np.ndarray:
    t = np.zeros(1 << degree)
    t[0] = lo
    t[-1] = hi
    return t


def _is_equality_like(table: np.ndarray) -> bool:
    # supported only on the all-minus and all-plus assignments
    return table.size >= 4 and not np.any(table[1:-1] != 0.0)


def factor_to_forney(fg: FactorGraph) -> ForneyGraph:
    """Convert a factor graph to normal form, preserving Z exactly.

    Variables used by one factor are summed out of that factor's table.
    Variables shared by two factors become a direct edge; a second shared
    variable between the same pair gets a degree-2 equality node so edges
    stay simple. Variables in three or more factors become an equality node
    of that degree.
    """
    occ: dict[str, list[str]] = {v: [] for v in fg.variables}
    for f in fg.factors:
        for v in f.scope:
            occ[v].append(f.id)

    factor_ids = {f.id for f in fg.factors}
    generated = {}
    for v in fg.variables:
        if len(occ[v]) >= 3:
            generated[v] = f"delta_{v}"
    for name in generated.values():
        if name in factor_ids:
            raise ModelError(f"factor id {name!r} collides with a generated node name")

    # peer of each (factor, scope position): filled below
    peer: dict[tuple[str, str], str] = {}
    extra_nodes: list[tuple[str, tuple[str, str], np.ndarray]] = []
    direct: set[tuple[str, str]] = set()
    for v in fg.variables:
        fs = occ[v]
        if len(fs) == 1:
            continue
        if len(fs) == 2:
            a, b = fs
            key = canon_edge(a, b)
            if key in direct:
                eq = f"eq_{v}"
                if eq in factor_ids:
                    raise ModelError(f"factor id {eq!r} collides with a generated node name")
                extra_nodes.append((eq, (a, b), _equality_table(2)))
                peer[(a, v)] = eq
                peer[(b, v)] = eq
            else:
                direct.add(key)
                peer[(a, v)] = b
                peer[(b, v)] = a
        else:
            d = generated[v]
            extra_nodes.append((d, tuple(fs), _equality_table(len(fs))))
            for a in fs:
                peer[(a, v)] = d

    neighbors: dict[str, tuple[str, ...]] = {}
    tables: dict[str, np.ndarray] = {}
    for f in fg.factors:
        kept = [v for v in f.scope if len(occ[v]) >= 2]
        absorbed_axes = tuple(i for i, v in enumerate(f.scope) if len(occ[v]) == 1)
        t = f.table
        if absorbed_axes:
            t = t.reshape((2,) * len(f.scope)).sum(axis=absorbed_axes).reshape(-1)
        neighbors[f.id] = tuple(peer[(f.id, v)] for v in kept)
        tables[f.id] = t
    for name, nbrs, table in extra_nodes:
        neighbors[name] = nbrs
        tables[name] = table
    return ForneyGraph(neighbors, tables)


def reduce_degree(g: ForneyGraph) -> ForneyGraph:
    """Split nodes of degree above three into chains of degree-3 nodes.

    Only equality-pattern tables (support on the two all-equal assignments)
    can be split; the first chain node carries the two weights and the rest
    are plain equalities, so Z is unchanged. Anything else of high degree is
    an error. Graphs already at degree <= 3 are returned as-is.
    """
    high = [a for a in g.nodes if g.degree(a) > 3]
    if not high:
        return g

    port: dict[tuple[str, str], str] = {}
    plans = {}
    for a in high:
        t = g.tables[a]
        if not _is_equality_like(t):
            raise ModelError(
                f"node {a!r} has degree {g.degree(a)} and a non-equality table; cannot split"
            )
        nbrs = g.neighbors[a]
        m = len(nbrs) - 2
        chain = [f"{a}_s{i}" for i in range(m)]
        for c in chain:
            if c in g.neighbors:
                raise ModelError(f"generated chain id {c!r} collides with an existing node")
        port[(a, nbrs[0])] = chain[0]
        port[(a, nbrs[1])] = chain[0]
        for i in range(1, m - 1):
            port[(a, nbrs[i + 1])] = chain[i]
        port[(a, nbrs[-2])] = chain[-1]
        port[(a, nbrs[-1])] = chain[-1]
        plans[a] = (nbrs, chain, float(t[0]), float(t[-1]))

    def port_of(a: str, b: str) -> str:
        return port.get((a, b), a)

    neighbors: dict[str, tuple[str, ...]] = {}
    tables: dict[str, np.ndarray] = {}
    for a in g.nodes:
        if a not in plans:
            neighbors[a] = tuple(port_of(b, a) for b in g.neighbors[a])
            tables[a] = g.tables[a]
            continue
        nbrs, chain, lo, hi = plans[a]
        m = len(chain)
        ext = [port_of(b, a) for b in nbrs]
        neighbors[chain[0]] = (ext[0], ext[1], chain[1])
        tables[chain[0]] = _equality_table(3, lo, hi)
        for i in range(1, m - 1):
            neighbors[chain[i]] = (chain[i - 1], ext[i + 1], chain[i + 1])
            tables[chain[i]] = _equality_table(3)
        neighbors[chain[-1]] = (chain[-2], ext[-2], ext[-1])
        tables[chain[-1]] = _equality_table(3)
    return ForneyGraph(neighbors, tables)


def two_core(g: ForneyGraph) -> tuple[ForneyGraph, float]:
    """Strip degree-0/1 nodes recursively, absorbing them into neighbors.

    Returns (core, log_constant) with Z(g) = exp(log_constant) * Z(core).
    A fully absorbed component leaves its scalar weight in the constant; a
    zero scalar means Z = 0 and is rejected.
    """
    nbrs = {a: list(g.neighbors[a]) for a in g.nodes}
    tabs = dict(g.tables)
    alive = set(g.nodes)
    log_const = 0.0
    heap = [a for a in g.nodes if len(nbrs[a]) <= 1]
    heapq.heapify(heap)
    while heap:
        a = heapq.heappop(heap)
        if a not in alive or len(nbrs[a]) > 1:
            continue
        if len(nbrs[a]) == 0:
            val = float(tabs[a][0])
            if val <= 0.0:
                raise ModelError(f"absorbing node {a!r} leaves a zero weight; Z = 0")
            log_const += math.log(val)
            alive.remove(a)
            continue
        b = nbrs[a][0]
        pos = nbrs[b].index(a)
        db = len(nbrs[b])
        tb = tabs[b].reshape((2,) * db)
        tabs[b] = np.moveaxis(tb, pos, -1).dot(tabs[a]).reshape(-1)
        nbrs[b].pop(pos)
        alive.remove(a)
        if len(nbrs[b]) <= 1:
            heapq.heappush(heap, b)
    core = ForneyGraph(
        {a: tuple(nbrs[a]) for a in g.nodes if a in alive},
        {a: tabs[a] for a in g.nodes if a in alive},
    )
    return core, log_const


def _log_safe(x: np.ndarray, zero: float = -np.inf) -> np.ndarray:
    """Elementwise log, with `zero` where x is 0."""
    return np.log(x, out=np.full(np.shape(x), zero), where=x > 0)


def _enumerate(n: int, tables, ufunc):
    """Combine tables over all 2^n assignments of n binary variables, by chunk.

    tables: (positions, table) pairs; the table has 2^k entries in the usual
    layout, axis i (first most significant) belonging to variable
    positions[i]. Variable p is bit p of the assignment number. For each
    value of the variables at and above the chunk size, in ascending order,
    yields an array of shape (2,)*min(n, chunk) over the low variables, the
    last axis being variable 0, so its C order runs over ascending
    assignment numbers. Each entry is ufunc applied across every table's
    entry, tables in the order given, except that tables over low variables
    only are combined first, once for all chunks. Yielded arrays are
    read-only to the caller.
    """
    nlow = min(n, _CHUNK_BITS)
    low, cross = [], []
    for positions, t in tables:
        k = len(positions)
        order = sorted(range(k), key=lambda i: -positions[i])
        t = np.transpose(np.reshape(t, (2,) * k), order)
        shape = [1] * nlow
        high = []
        for p in (positions[i] for i in order):
            if p < nlow:
                shape[nlow - 1 - p] = 2
            else:
                high.append(p - nlow)
        (cross if high else low).append((t, high, shape))
    dtype = np.result_type(ufunc.identity, *(t for t, _, _ in low + cross))
    base = np.full((2,) * nlow, ufunc.identity, dtype)
    for t, _, shape in low:
        ufunc(base, t.reshape(shape), out=base)
    for chunk in range(1 << (n - nlow)):
        out = base.copy() if cross else base
        for t, high, shape in cross:
            ufunc(out, t[tuple((chunk >> h) & 1 for h in high)].reshape(shape), out=out)
        yield out


def _log_sum_exp(n: int, log_tables) -> float:
    """log of the sum over all 2^n assignments of exp(sum of log tables)."""
    parts = []
    for e in _enumerate(n, log_tables, np.add):
        m = float(e.max())
        if m == -math.inf:
            parts.append(-math.inf)
        else:
            parts.append(m + math.log(float(np.exp(e - m).sum())))
    m = max(parts)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(p - m) for p in parts))


def exact_log_z(g: ForneyGraph) -> float:
    """log Z by exhaustive enumeration over the edge variables.

    Refuses graphs with more than 30 edges. The edges are the enumerated
    variables (edge i of g.edges is bit i) and each node's log table is a
    factor over its edges; degree-0 nodes add their constant. Accumulation
    is in log space, so huge and tiny weights are both safe.
    """
    E = g.num_edges
    if E > MAX_ENUM_VARIABLES:
        raise ModelError(f"exact enumeration capped at {MAX_ENUM_VARIABLES} edges, got {E}")
    edge_pos = {e: i for i, e in enumerate(g.edges)}
    base_log = 0.0
    log_tables = []
    for a in g.nodes:
        nbrs = g.neighbors[a]
        if nbrs:
            positions = [edge_pos[canon_edge(a, b)] for b in nbrs]
            log_tables.append((positions, _log_safe(g.tables[a])))
        else:
            base_log += float(np.log(g.tables[a][0]))  # _check_table: the one entry is > 0
    return base_log + _log_sum_exp(E, log_tables)


def exact_log_z_factor(fg: FactorGraph) -> float:
    """log Z of a factor graph by exhaustive enumeration over its variables.

    Capped at 30 variables. Variable i of fg.variables is bit i; each
    factor's log table is broadcast onto its variables' axes and added, one
    chunk of low variables at a time, with a log-sum-exp per chunk. Factors
    over low variables only are added once and reused by every chunk.
    """
    n = fg.num_variables
    if n > MAX_ENUM_VARIABLES:
        raise ModelError(f"exact enumeration capped at {MAX_ENUM_VARIABLES} variables, got {n}")
    var_pos = {v: i for i, v in enumerate(fg.variables)}
    return _log_sum_exp(
        n, [([var_pos[v] for v in f.scope], _log_safe(f.table)) for f in fg.factors]
    )
