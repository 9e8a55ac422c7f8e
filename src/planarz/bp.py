"""Loopy belief propagation on normal-form graphs.

Messages live on directed edges as normalized 2-vectors over the edge
variable (index 0 is -1, index 1 is +1), kept as two flat lists of floats
indexed by directed-edge slot. What depends on the graph's topology alone
(the slots, the slots each update feeds, where each update reads the
sender's table, the nodes grouped by degree) is one plan, built once per
topology and kept in the per-topology slot (model._kept) that the
series' layout shares. Each run only gathers its tables into one coefficient
tuple per slot and applies the updates in residual order, the largest
pending message change first, lowest slot on ties, taken from a binary
max-heap of residuals that is compacted to O(slots) entries; convergence
means no pending change reaches RESIDUAL_THRESHOLD. The threshold is
fixed: the loop series is exact only at a fixed point, and a looser one
would leave its error unreported. A sender whose table is zero but in its
first and last entry, an equality node as in every split variable, costs
two products per message at degree 3, not sixteen; each run decides this
per node from its own tables, so two models on one topology may differ.
Each update's last fresh candidate goes through one heappushpop, not a
push and a pop. Beliefs, free-energy style quantities and every node's
loop-weight table are evaluated from the log messages, all nodes of one
degree at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush, heappushpop
from operator import itemgetter, mul

import numpy as np

from .model import ForneyGraph, ModelError, _kept, _log_safe

MESSAGE_FLOOR = 1e-300
RESIDUAL_THRESHOLD = 1e-14  # a run converges once no pending change reaches it


class BPNumericError(RuntimeError):
    """Messages left the representable range (NaN, overflow, or all-zero)."""


@dataclass
class BPResult:
    converged: bool
    iterations: int
    final_residual: float
    node_beliefs: dict = field(repr=False)
    edge_beliefs: dict = field(repr=False)
    magnetizations: dict = field(repr=False)
    neighbor_order: dict = field(repr=False)
    loop_weights: dict = field(repr=False)  # node -> flat 2^k table, see _loop_weights
    log_z_bp: float = 0.0


@dataclass(frozen=True)
class _Plan:
    """What run_bp derives from a graph's topology alone (see _plan)."""

    dir_edges: list  # slot -> directed edge
    dependents: list  # slot -> the slots its message feeds
    gathers: list  # slot -> (kernel head, two-corner head, sender's position, getter of u, v)
    groups: list  # per degree: (nodes, slots into them, one row per node)


def _plan(g: ForneyGraph) -> _Plan:
    """run_bp's plan for g's topology, built in one pass over the slots.

    Slots 2e and 2e + 1 hold a -> b and b -> a for the e-th edge (a, b) of
    g.edges. run_bp's update of a -> b reads one kernel tuple: a's table
    with the outgoing variable first as two rows u, v over the other
    variables (a's neighbor order, first most significant), and the slots
    of the messages into a from those other neighbors, in the same order:
      degree 2: (2, s, u0, u1, v0, v1);
      degree 3: (3, paired, s1, s2, u0, .., u3, v0, .., v3), paired when
        b is a's middle neighbor;
      otherwise: (0, slots, u, v).
    At degree 2 or 3, a table zero but in its first entry c0 and last entry
    c1 (an equality node) gives every slot out of a the two-corner form
    (-k, s.., c0, c1): the message is c0 times the inputs' -1 entries and
    c1 times their +1 entries, and every term the full form adds is an
    exact zero times a finite message, so the bits do not change.
    The plan keeps each tuple as its head, the part before u, its
    two-corner head at degree 2 and 3, and a getter of u and v from a's
    table, one getter per degree and outgoing variable (_kernel fills them
    in, choosing the form from the run's own table); the slots each update
    feeds; and, for _finish, the nodes of each degree with the slots into
    them, in neighbor order.
    """
    dir_edges = [de for a, b in g.edges for de in ((a, b), (b, a))]
    slot = {de: j for j, de in enumerate(dir_edges)}
    position = {a: i for i, a in enumerate(g.nodes)}
    getters = {}  # (degree, bit of the outgoing variable) -> getter of u, v
    dependents, gathers = [], []
    for a, b in dir_edges:
        nbrs = g.neighbors[a]
        k = len(nbrs)
        shift = k - 1 - nbrs.index(b)
        get = getters.get((k, shift))
        if get is None:
            low = (1 << shift) - 1
            u = [((r & ~low) << 1) | (r & low) for r in range(1 << (k - 1))]
            v = [x | (1 << shift) for x in u]
            get = getters[k, shift] = itemgetter(*u, *v) if k in (2, 3) else _rows(u, v)
        ins = [slot[(c, a)] for c in nbrs if c != b]
        head = (2, *ins) if k == 2 else (3, shift == 1, *ins) if k == 3 else (0, ins)
        gathers.append((head, (-k, *ins) if k in (2, 3) else None, position[a], get))
        dependents.append([slot[(b, c)] for c in g.neighbors[b] if c != a])
    by_degree = {}
    for a in g.nodes:
        by_degree.setdefault(len(g.neighbors[a]), []).append(a)
    groups = []
    for k, nodes in by_degree.items():
        incoming = np.array(
            [[slot[(c, a)] for c in g.neighbors[a]] for a in nodes], dtype=np.intp
        ).reshape(len(nodes), k)
        groups.append((nodes, incoming))
    return _Plan(dir_edges, dependents, gathers, groups)


def _rows(u, v):
    """The generic kernel's getter: rows u and v of a table, as lists."""
    return lambda t: ([t[x] for x in u], [t[x] for x in v])


def _kernel(g: ForneyGraph, plan: _Plan) -> list:
    """Every slot's kernel tuple (see _plan), from g's tables: the
    two-corner form wherever the sender's table allows it. The choice is
    made here, per run, and never kept with the plan: a model that shares
    the topology may have another table on the same node."""
    tables = [g.tables[a].tolist() for a in g.nodes]
    corners = [None if any(t[1:-1]) else (t[0], t[-1]) for t in tables]
    return [
        two + corners[i] if two and corners[i] else head + get(tables[i])
        for head, two, i, get in plan.gathers
    ]


def run_bp(g: ForneyGraph, max_iterations: int = 10000) -> BPResult:
    """Residual belief propagation (Elidan, McGraw & Koller 2006) until no
    pending message change reaches RESIDUAL_THRESHOLD, or for at most
    max_iterations sweeps (at least 1, else ValueError).

    Messages start uniform and no damping is applied. Each slot keeps one
    candidate message and one residual, the largest change applying that
    candidate would make. Each update applies the slot with the largest
    residual, the lowest slot on ties, and recomputes the candidates of the
    messages it feeds. Updates come from a binary heap of (-residual, slot)
    entries with lazy deletion: an entry is live while its slot's residual
    still equals it, and zero residuals are never pushed. An update holds
    back its last candidate with a nonzero residual and puts it through
    one heappushpop, the same as pushing it and popping the top. Once the
    heap, the held candidate aside, holds four entries per slot it is
    rebuilt from the live residuals, so memory stays O(slots) however long
    the run. A sweep is one update per slot; a run that exhausts
    max_iterations sweeps still returns beliefs from its final messages,
    flagged as not converged.

    The slots and everything else that depends on g's topology alone come
    from one plan (_plan), built on the first run of a topology and kept
    (model._kept); a run that shares the kept topology, whatever its
    tables, only gathers them into the kernel tuples (_kernel).

    Degrees 2 and 3, all that a reduced graph has, are written out with the
    rounding of a numpy marginalization of the table (inputs multiplied in
    one at a time, in neighbor order; variables after the outgoing one
    summed first), so messages and sweep counts match that array form,
    tests/oracles.reference_run_bp, bit for bit. An equality sender's
    two-corner form drops only exact zeros from those sums, so it matches
    too. Other degrees contract a weight list of the inputs' products.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    plan = _kept(g, _plan)
    dir_edges, dependents = plan.dir_edges, plan.dependents
    n = len(dir_edges)
    lo = [0.5] * n  # slot j's message at -1 and +1
    hi = [0.5] * n
    if not n:
        return _finish(g, plan, lo, hi, True, 0, 0.0)
    kernel = _kernel(g, plan)
    new_lo, new_hi = lo[:], hi[:]  # candidates
    resid = [0.0] * n
    heap = []
    cap = 4 * n  # heap size at which it is rebuilt from the live residuals
    threshold, budget = RESIDUAL_THRESHOLD, max_iterations * n
    inf, floor = math.inf, MESSAGE_FLOOR
    updates = 0
    todo = range(n)  # every slot first, then the dependents of each update
    while True:
        # new candidate on each slot in todo: marginalize the sender's table
        # against its other inputs, normalize, floor
        held = None  # the last fresh candidate, kept out of the heap
        for d in todo:
            c = kernel[d]
            form = c[0]
            if form == -3:  # an equality sender's two corners (see _plan)
                _, i1, i2, a, b = c
                o0 = a * lo[i1] * lo[i2]
                o1 = b * hi[i1] * hi[i2]
            elif form == 2:
                _, i, u0, u1, v0, v1 = c
                l, h = lo[i], hi[i]
                o0 = u0 * l + u1 * h
                o1 = v0 * l + v1 * h
            elif form == -2:
                _, i, a, b = c
                o0 = a * lo[i]
                o1 = b * hi[i]
            elif form == 3:
                _, paired, i1, i2, u0, u1, u2, u3, v0, v1, v2, v3 = c
                l1, h1, l2, h2 = lo[i1], hi[i1], lo[i2], hi[i2]
                a0, a1, a2, a3 = u0 * l1 * l2, u1 * l1 * h2, u2 * h1 * l2, u3 * h1 * h2
                b0, b1, b2, b3 = v0 * l1 * l2, v1 * l1 * h2, v2 * h1 * l2, v3 * h1 * h2
                if paired:  # numpy sums these in pairs
                    o0, o1 = (a0 + a1) + (a2 + a3), (b0 + b1) + (b2 + b3)
                else:
                    o0, o1 = a0 + a1 + a2 + a3, b0 + b1 + b2 + b3
            else:
                _, ins, u, v = c
                w = [1.0]
                for i in ins:
                    l, h = lo[i], hi[i]
                    w = [x for y in w for x in (y * l, y * h)]
                o0 = sum(map(mul, u, w))
                o1 = sum(map(mul, v, w))
            s = o0 + o1
            if not 0.0 < s < inf:
                a, b = dir_edges[d]
                raise BPNumericError(f"message {a!r}->{b!r} is not normalizable (sum={s!r})")
            o0 = o0 / s
            if o0 < floor:
                o0 = floor
            o1 = o1 / s
            if o1 < floor:
                o1 = floor
            s = o0 + o1
            o0 = new_lo[d] = o0 / s
            o1 = new_hi[d] = o1 / s
            r = o0 - lo[d]
            if r < 0.0:
                r = -r
            o1 = o1 - hi[d]
            if o1 < 0.0:
                o1 = -o1
            if o1 > r:
                r = o1
            resid[d] = r
            if r:
                if held:
                    heappush(heap, held)
                held = (-r, d)
        if len(heap) >= cap:
            heap = [(-r, d) for d, r in enumerate(resid) if r]
            heapify(heap)
            held = None
        if held:
            # push and pop in one: held is live, so a dead entry popped
            # first leaves a live one in the heap
            r, j = heappushpop(heap, held)
            while resid[j] != -r:
                r, j = heappop(heap)
            residual = -r
        else:
            while heap:
                r, j = heappop(heap)
                if resid[j] == -r:  # live
                    residual = -r
                    break
            else:
                residual = 0.0  # every residual is zero
        if residual < threshold:
            return _finish(g, plan, lo, hi, True, max(1, -(-updates // n)), residual)
        if updates >= budget:
            return _finish(g, plan, lo, hi, False, max_iterations, residual)
        updates += 1
        lo[j], hi[j] = new_lo[j], new_hi[j]
        resid[j] = 0.0
        todo = dependents[j]


def _finish(g, plan, lo, hi, converged, iterations, residual):
    """Beliefs, magnetizations, loop weights and the Bethe free energy from
    the slots, with all nodes of one degree handled as one array."""
    msgs = np.array([lo, hi]).T
    log_msgs = np.log(msgs)  # the kernel floors every message, so all are > 0
    log_p = log_msgs[0::2] + log_msgs[1::2]  # per edge, unnormalized log (p-, p+)
    h = 0.5 * (log_p[:, 0] - log_p[:, 1])
    node_beliefs = {}
    node_energy = {}
    loop_weights = {}
    for nodes, incoming in plan.groups:
        k = incoming.shape[1]
        logf = _log_safe(np.array([g.tables[a] for a in nodes]))
        logb = logf.reshape((len(nodes),) + (2,) * k)
        for i in range(k):
            shape = [len(nodes)] + [1] * k
            shape[i + 1] = 2
            logb = logb + log_msgs[incoming[:, i]].reshape(shape)
        logb = logb.reshape(len(nodes), -1)
        top = logb.max(axis=1)
        ok = np.isfinite(top)
        if not ok.all():
            a = nodes[ok.argmin()]
            raise BPNumericError(f"belief of node {a!r} vanished or overflowed")
        b = np.exp(logb - top[:, None])
        b /= b.sum(axis=1, keepdims=True)
        gap = np.where(b > 0, _log_safe(b, 0.0) - logf, 0.0)
        node_beliefs.update(zip(nodes, b))
        node_energy.update(zip(nodes, (b * gap).sum(axis=1).tolist()))
        loop_weights.update(zip(nodes, _loop_weights(b, h[incoming // 2])))

    p = msgs[0::2] * msgs[1::2]
    s = p.sum(axis=1)
    ok = np.isfinite(s) & (s > 0.0)
    if not ok.all():
        a, b = g.edges[ok.argmin()]
        raise BPNumericError(f"edge belief {a!r}-{b!r} is not normalizable")
    p /= s[:, None]
    edge_beliefs = dict(zip(g.edges, p))
    magnetizations = dict(zip(g.edges, (p[:, 1] - p[:, 0]).tolist()))

    free_energy = 0.0
    for a in g.nodes:
        free_energy += node_energy[a]
    for h in (p * _log_safe(p, 0.0)).sum(axis=1).tolist():
        free_energy -= h

    return BPResult(
        converged=converged,
        iterations=iterations,
        final_residual=residual,
        node_beliefs={a: node_beliefs[a] for a in g.nodes},
        edge_beliefs=edge_beliefs,
        magnetizations=magnetizations,
        neighbor_order={a: g.neighbors[a] for a in g.nodes},
        loop_weights={a: loop_weights[a] for a in g.nodes},
        log_z_bp=-free_energy,
    )


def _loop_weights(b: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Loop-weight tables of n nodes of degree k from their beliefs b
    (n x 2^k) and the h of their edges (n x k, in neighbor order).

    Entry S of a node's table (bit set where the neighbor is in S, first
    neighbor most significant, as in its factor table) is the belief average
    of prod_{i in S} (sigma_i - m_i) / sqrt(1 - m_i^2). With p-, p+ the edge
    belief, 1 - m = 2p-, -1 - m = -2p+ and sqrt(1 - m^2) = 2 sqrt(p- p+), so
    factor i is -e^-h at sigma = -1 and e^h at sigma = +1, where
    h = (log p- - log p+) / 2 comes from the log messages and no 1 - m^2 is
    formed. Each belief axis is contracted with the rows (1, 1) for "not in
    S" and (-e^-h, e^h) for "in S". Entry 0, the empty subset, is exactly 1.
    """
    n, k = h.shape
    w = b
    for i in range(k):
        rows = np.ones((n, 1, 2, 2))
        rows[:, 0, 1, 0] = -np.exp(-h[:, i])
        rows[:, 0, 1, 1] = np.exp(h[:, i])
        w = rows @ w.reshape(n, 1 << i, 2, 1 << (k - 1 - i))
    w = w.reshape(n, 1 << k)
    w[:, 0] = 1.0
    return w


def mu_term(res: BPResult, a: str, subset) -> float:
    """Loop weight of node a against the neighbor subset S, |S| of 2 or 3.

    This is S's entry of a's table in res.loop_weights: the belief average
    of prod_{b in S} (sigma_ab - m_ab) over prod sqrt(1 - m_ab^2), built
    without cancellation when the run finished.
    """
    order = res.neighbor_order[a]
    subset = tuple(subset)
    if len(subset) not in (2, 3) or len(set(subset)) != len(subset):
        raise ModelError(f"subset must be 2 or 3 distinct neighbors, got {subset!r}")
    idx = 0
    for b in subset:
        if b not in order:
            raise ModelError(f"{b!r} is not a neighbor of {a!r}")
        idx |= 1 << (len(order) - 1 - order.index(b))
    return float(res.loop_weights[a][idx])
