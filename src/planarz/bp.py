"""Loopy belief propagation on normal-form graphs.

Messages live on directed edges as normalized 2-vectors over the edge
variable (index 0 is -1, index 1 is +1), kept as two flat lists of floats
indexed by directed-edge slot. Each run compiles the node tables into one
message kernel over those slots, and all four update schedules call it;
convergence means the largest absolute message change in a sweep dropped
below the threshold. Beliefs, free-energy style quantities and every node's
loop-weight table are evaluated from the log messages, all nodes of one
degree at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import mul

import numpy as np

from .model import ForneyGraph, ModelError, _log_safe

SCHEDULES = ("fixed", "random", "parallel", "residual")

MESSAGE_FLOOR = 1e-300


class BPNumericError(RuntimeError):
    """Messages left the representable range (NaN, overflow, or all-zero)."""


@dataclass(frozen=True)
class BPConfig:
    schedule: str = "fixed"
    threshold: float = 1e-14
    max_iterations: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}, pick one of {SCHEDULES}")
        if self.threshold <= 0 or self.max_iterations < 1:
            raise ValueError("threshold must be positive and max_iterations at least 1")


@dataclass
class BPResult:
    converged: bool
    iterations: int
    final_residual: float
    schedule: str
    node_beliefs: dict = field(repr=False)
    edge_beliefs: dict = field(repr=False)
    magnetizations: dict = field(repr=False)
    neighbor_order: dict = field(repr=False)
    loop_weights: dict = field(repr=False)  # node -> flat 2^k table, see _loop_weights
    log_z_bp: float = 0.0


def _compile(g: ForneyGraph):
    """Directed-edge slots, their {directed edge: slot} map, and the
    message kernel that updates them.

    Slots 2e and 2e + 1 hold a -> b and b -> a for the e-th edge (a, b) of
    g.edges; lo[j] and hi[j] are slot j's message at -1 and +1, uniform at
    the start. For a -> b the kernel keeps a's table with the outgoing
    variable first as two rows over the other variables (a's neighbor order,
    first most significant), and the slots of the messages into a from
    those other neighbors, in the same order.
    """
    dir_edges = [de for a, b in g.edges for de in ((a, b), (b, a))]
    slot = {de: j for j, de in enumerate(dir_edges)}
    flat = {a: g.tables[a].tolist() for a in g.nodes}
    rows0, rows1, ins, middle = [], [], [], []
    for a, b in dir_edges:
        nbrs = g.neighbors[a]
        shift = len(nbrs) - 1 - nbrs.index(b)  # bit of the outgoing variable
        low = (1 << shift) - 1
        rest = [((r & ~low) << 1) | (r & low) for r in range(1 << (len(nbrs) - 1))]
        t = flat[a]
        rows0.append([t[x] for x in rest])
        rows1.append([t[x | (1 << shift)] for x in rest])
        ins.append([slot[(c, a)] for c in nbrs if c != b])
        middle.append(len(nbrs) == 3 and shift == 1)  # numpy sums these in pairs
    lo = [0.5] * len(dir_edges)
    hi = [0.5] * len(dir_edges)

    def message(j: int) -> tuple[float, float]:
        """New message on slot j from the current messages: marginalize the
        sender's table against its other inputs, normalize, floor.

        Degrees 2 and 3, all that a reduced graph has, are written out with
        the rounding of a numpy marginalization of the table (inputs
        multiplied in one at a time, in neighbor order; variables after the
        outgoing one summed first), so messages and sweep counts match that
        array form, tests/oracles.reference_run_bp, bit for bit. Other
        degrees contract a weight list of the inputs' products.
        """
        x, r0, r1 = ins[j], rows0[j], rows1[j]
        if len(x) == 1:
            l, h = lo[x[0]], hi[x[0]]
            o0 = r0[0] * l + r0[1] * h
            o1 = r1[0] * l + r1[1] * h
        elif len(x) == 2:
            l1, h1, l2, h2 = lo[x[0]], hi[x[0]], lo[x[1]], hi[x[1]]
            a0, a1, a2, a3 = r0[0] * l1 * l2, r0[1] * l1 * h2, r0[2] * h1 * l2, r0[3] * h1 * h2
            b0, b1, b2, b3 = r1[0] * l1 * l2, r1[1] * l1 * h2, r1[2] * h1 * l2, r1[3] * h1 * h2
            if middle[j]:
                o0, o1 = (a0 + a1) + (a2 + a3), (b0 + b1) + (b2 + b3)
            else:
                o0, o1 = a0 + a1 + a2 + a3, b0 + b1 + b2 + b3
        else:
            w = [1.0]
            for s in x:
                l, h = lo[s], hi[s]
                w = [v for y in w for v in (y * l, y * h)]
            o0 = sum(map(mul, r0, w))
            o1 = sum(map(mul, r1, w))
        s = o0 + o1
        if not math.isfinite(s) or s <= 0.0:
            a, b = dir_edges[j]
            raise BPNumericError(f"message {a!r}->{b!r} is not normalizable (sum={s!r})")
        o0 = max(o0 / s, MESSAGE_FLOOR)
        o1 = max(o1 / s, MESSAGE_FLOOR)
        s = o0 + o1
        return o0 / s, o1 / s

    return dir_edges, slot, lo, hi, message


def run_bp(g: ForneyGraph, cfg: BPConfig = BPConfig()) -> BPResult:
    """Run loopy BP until the message residual falls below cfg.threshold.

    Messages start uniform and no damping is applied. A non-converged run
    still returns beliefs from the final messages so callers can compare
    residuals across schedules.
    """
    dir_edges, slot, lo, hi, message = _compile(g)
    n = len(dir_edges)

    iterations = 0
    residual = math.inf
    converged = False
    if not dir_edges:
        converged, residual = True, 0.0
    elif cfg.schedule == "residual":
        iterations, residual, converged = _run_residual(g, cfg, dir_edges, slot, lo, hi, message)
    else:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([cfg.seed])))
        order = range(n)
        for sweep in range(cfg.max_iterations):
            if cfg.schedule == "random":
                order = rng.permutation(n).tolist()
            fresh = [message(j) for j in order] if cfg.schedule == "parallel" else None
            residual = 0.0
            for t, j in enumerate(order):
                o0, o1 = message(j) if fresh is None else fresh[t]
                d = max(abs(o0 - lo[j]), abs(o1 - hi[j]))
                if d > residual:
                    residual = d
                lo[j] = o0
                hi[j] = o1
            iterations = sweep + 1
            if residual < cfg.threshold:
                converged = True
                break

    return _finish(g, cfg, slot, lo, hi, converged, iterations, residual)


def _run_residual(g, cfg, dir_edges, slot, lo, hi, message):
    """Largest-residual-first updates (Elidan, McGraw & Koller 2006).

    Each slot keeps one candidate message and one residual, the largest
    change applying that candidate would make, so memory is O(slots).
    Each update applies the slot with the largest residual, the lowest
    slot on ties, and recomputes the candidates of the messages it feeds.
    A sweep is n updates.
    """
    n = len(dir_edges)
    dependents = [[slot[(b, c)] for c in g.neighbors[b] if c != a] for a, b in dir_edges]
    cand = [message(j) for j in range(n)]
    resid = np.array([max(abs(o0 - lo[j]), abs(o1 - hi[j])) for j, (o0, o1) in enumerate(cand)])
    updates = 0
    budget = cfg.max_iterations * n
    while True:
        j = int(resid.argmax())
        residual = float(resid[j])
        if residual < cfg.threshold:
            return max(1, -(-updates // n)), residual, True
        if updates >= budget:
            return cfg.max_iterations, residual, False
        updates += 1
        lo[j], hi[j] = cand[j]
        resid[j] = 0.0
        for d in dependents[j]:
            o0, o1 = cand[d] = message(d)
            resid[d] = max(abs(o0 - lo[d]), abs(o1 - hi[d]))


def _finish(g, cfg, slot, lo, hi, converged, iterations, residual):
    """Beliefs, magnetizations, loop weights and the Bethe free energy from
    the slots, with all nodes of one degree handled as one array."""
    msgs = np.array([lo, hi]).T
    log_msgs = np.log(msgs)  # the kernel floors every message, so all are > 0
    log_p = log_msgs[0::2] + log_msgs[1::2]  # per edge, unnormalized log (p-, p+)
    h = 0.5 * (log_p[:, 0] - log_p[:, 1])
    by_degree = {}
    for a in g.nodes:
        by_degree.setdefault(g.degree(a), []).append(a)
    node_beliefs = {}
    node_energy = {}
    loop_weights = {}
    for k, nodes in by_degree.items():
        incoming = np.array(
            [[slot[(c, a)] for c in g.neighbors[a]] for a in nodes], dtype=np.intp
        ).reshape(len(nodes), k)
        logf = _log_safe(np.array([g.tables[a] for a in nodes]))
        logb = logf.reshape((len(nodes),) + (2,) * k)
        for i in range(k):
            shape = [len(nodes)] + [1] * k
            shape[i + 1] = 2
            logb = logb + log_msgs[incoming[:, i]].reshape(shape)
        logb = logb.reshape(len(nodes), -1)
        top = logb.max(axis=1)
        for a, ok in zip(nodes, np.isfinite(top)):
            if not ok:
                raise BPNumericError(f"belief of node {a!r} vanished or overflowed")
        b = np.exp(logb - top[:, None])
        b /= b.sum(axis=1, keepdims=True)
        gap = np.where(b > 0, _log_safe(b, 0.0) - logf, 0.0)
        node_beliefs.update(zip(nodes, b))
        node_energy.update(zip(nodes, (b * gap).sum(axis=1).tolist()))
        loop_weights.update(zip(nodes, _loop_weights(b, h[incoming // 2])))

    p = msgs[0::2] * msgs[1::2]
    s = p.sum(axis=1)
    for (a, b), ok in zip(g.edges, np.isfinite(s) & (s > 0.0)):
        if not ok:
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
        schedule=cfg.schedule,
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


def run_bp_multistart(g: ForneyGraph, cfg: BPConfig = BPConfig()) -> BPResult:
    """Try every schedule in a fixed cascade; first converged run wins.

    If none converges, the run with the smallest final residual is returned
    (earlier schedule on ties). The winning schedule is recorded on the
    result.
    """
    best = None
    for schedule in SCHEDULES:
        res = run_bp(g, replace(cfg, schedule=schedule))
        if res.converged:
            return res
        if best is None or res.final_residual < best.final_residual:
            best = res
    return best


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


def dump_beliefs(res: BPResult) -> str:
    """Text dump of all node and edge beliefs, 17 significant digits."""
    lines = []
    for a, b in res.node_beliefs.items():
        lines.append("node " + a + " " + " ".join(f"{v:.17g}" for v in b))
    for (a, b), p in res.edge_beliefs.items():
        lines.append(f"edge {a} {b} {p[0]:.17g} {p[1]:.17g}")
    return "\n".join(lines) + "\n"
