"""Independent references used across the test suite.

Deliberately naive implementations: they share no code with the path they
check, so agreement is evidence, not tautology. brute_log_z_factor sums
every spin assignment in linear space; the matching sums are recursive
brute force; the Kasteleyn matrix is the unit-weight form of the
Pfaffian path's matrix; reference_run_bp is belief propagation with one
numpy array update per message, the form planarz.bp replaced with its
slot kernel (it shares only the result type and the constants);
reference_pfaffian is the eager Parlett-Reid kernel, one rank-2 update
per pivot step, that planarz.pfaffian blocked into panels above its
crossover (it shares only the result type and the pivot threshold);
reference_mu_term is the loop weight of one (node, subset) pair straight
from the magnetizations, the formula planarz.bp replaced with its
cancellation-free tables.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from planarz.bp import MESSAGE_FLOOR, BPConfig, BPNumericError, BPResult
from planarz.pfaffian import PIVOT_THRESHOLD
from planarz.slog import SignedLog


def brute_log_z_factor(fg) -> float:
    """log Z of a FactorGraph, summing the product of factor entries over
    every +-1 assignment; a table index has the first scope variable most
    significant and -1 before +1. Exponential; keep graphs small."""
    total = 0.0
    for spins in itertools.product((-1, 1), repeat=fg.num_variables):
        value = dict(zip(fg.variables, spins))
        p = 1.0
        for f in fg.factors:
            idx = 0
            for v in f.scope:
                idx = 2 * idx + (value[v] > 0)
            p *= f.table[idx]
        total += p
    return math.log(total) if total > 0 else -math.inf


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


def kasteleyn_matrix(o) -> np.ndarray:
    """Unit-weight skew matrix of an oriented graph: with a Kasteleyn
    orientation |Pf| counts its perfect matchings."""
    a = np.zeros((o.ext.num_vertices, o.ext.num_vertices))
    for e in o.ext.edges:
        tail, head = o.orientation[e.key()]
        a[tail, head], a[head, tail] = 1.0, -1.0
    return a


def reference_pfaffian(a) -> SignedLog:
    """Signed log-magnitude Pfaffian by eager Parlett-Reid elimination:
    partial pivoting, one np.outer rank-2 update of the trailing matrix per
    step, and the same validation and singularity threshold as
    planarz.pfaffian."""
    m = np.array(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"need a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("entries must be finite")
    if not np.array_equal(m.T, -m):
        raise ValueError("matrix is not skew-symmetric")
    n = m.shape[0]
    if n == 0:
        return SignedLog.one()
    if n % 2 == 1:
        return SignedLog.zero()

    tol = PIVOT_THRESHOLD * max(1.0, float(np.abs(m).max()))
    sign = 1
    log_mag = 0.0
    for k in range(0, n - 1, 2):
        col = np.abs(m[k + 1 :, k])
        kp = k + 1 + int(col.argmax())
        if col[kp - k - 1] < tol:
            return SignedLog.zero()
        if kp != k + 1:
            m[[k + 1, kp], :] = m[[kp, k + 1], :]
            m[:, [k + 1, kp]] = m[:, [kp, k + 1]]
            sign = -sign
        piv = m[k, k + 1]
        sign = -sign if piv < 0 else sign
        log_mag += math.log(abs(piv))
        if k + 2 < n:
            tau = m[k, k + 2 :] / piv
            row = m[k + 1, k + 2 :]
            t = np.outer(row, tau)
            m[k + 2 :, k + 2 :] += t - t.T
    return SignedLog(sign, log_mag)


def _new_message(tables, neighbors, msgs, a: str, b: str) -> np.ndarray:
    """Outgoing message a -> b: marginalize a's table against other inputs."""
    nbrs = neighbors[a]
    k = len(nbrs)
    m = tables[a]
    for i, c in enumerate(nbrs):
        if c == b:
            out_axis = i
            continue
        shape = [1] * k
        shape[i] = 2
        m = m * msgs[(c, a)].reshape(shape)
    out = m.sum(axis=tuple(i for i in range(k) if i != out_axis))
    s = float(out.sum())
    if not math.isfinite(s) or s <= 0.0:
        raise BPNumericError(f"message {a!r}->{b!r} is not normalizable (sum={s!r})")
    out = np.maximum(out / s, MESSAGE_FLOOR)
    return out / out.sum()


def reference_run_bp(g, cfg: BPConfig = BPConfig()) -> BPResult:
    """Loopy BP with messages as a dict of 2-element numpy arrays and one
    numpy marginalization per update: the same schedules, checks and
    finish pass as planarz.bp.run_bp, written without its message kernel.
    """
    dir_edges = [de for a, b in g.edges for de in ((a, b), (b, a))]
    tables = {a: g.tables[a].reshape((2,) * g.degree(a)) for a in g.nodes}
    msgs = {de: np.array([0.5, 0.5]) for de in dir_edges}

    iterations = 0
    residual = math.inf
    converged = False
    if not dir_edges:
        converged, residual = True, 0.0
    elif cfg.schedule == "residual":
        iterations, residual, converged = _reference_residual(g, cfg, dir_edges, tables, msgs)
    else:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([cfg.seed])))
        for sweep in range(cfg.max_iterations):
            order = dir_edges
            if cfg.schedule == "random":
                order = [dir_edges[i] for i in rng.permutation(len(dir_edges))]
            if cfg.schedule == "parallel":
                fresh = {de: _new_message(tables, g.neighbors, msgs, *de) for de in order}
            residual = 0.0
            for de in order:
                new = fresh[de] if cfg.schedule == "parallel" else _new_message(
                    tables, g.neighbors, msgs, *de
                )
                residual = max(residual, float(np.abs(new - msgs[de]).max()))
                msgs[de] = new
            iterations = sweep + 1
            if residual < cfg.threshold:
                converged = True
                break

    return _reference_finish(g, cfg, tables, msgs, converged, iterations, residual)


def _reference_residual(g, cfg, dir_edges, tables, msgs):
    """Largest-residual-first updates; ties go to the lower edge index."""
    index = {de: i for i, de in enumerate(dir_edges)}
    dependents = {
        (a, b): [(b, c) for c in g.neighbors[b] if c != a] for (a, b) in dir_edges
    }
    version = {de: 0 for de in dir_edges}
    cand = {}
    heap = []
    for de in dir_edges:
        new = _new_message(tables, g.neighbors, msgs, *de)
        r = float(np.abs(new - msgs[de]).max())
        cand[de] = new
        heapq.heappush(heap, (-r, index[de], 0, de))
    pops = 0
    budget = cfg.max_iterations * len(dir_edges)
    residual = math.inf
    while heap:
        neg_r, _, ver, de = heap[0]
        if ver != version[de]:
            heapq.heappop(heap)
            continue
        residual = -neg_r
        if residual < cfg.threshold:
            return max(1, -(-pops // len(dir_edges))), residual, True
        if pops >= budget:
            return cfg.max_iterations, residual, False
        heapq.heappop(heap)
        pops += 1
        msgs[de] = cand[de]
        version[de] += 1
        cand[de] = msgs[de]
        heapq.heappush(heap, (0.0, index[de], version[de], de))
        for dep in dependents[de]:
            new = _new_message(tables, g.neighbors, msgs, *dep)
            r = float(np.abs(new - msgs[dep]).max())
            cand[dep] = new
            version[dep] += 1
            heapq.heappush(heap, (-r, index[dep], version[dep], dep))
    return max(1, -(-pops // len(dir_edges))), residual, True


def reference_mu_term(res: BPResult, a: str, subset) -> float:
    """Loop weight of node a against the neighbor subset S: the node-belief
    average of prod_{b in S} (sigma_ab - m_ab), divided by
    prod sqrt(1 - m_ab^2). Loses digits as |m| -> 1."""
    order = res.neighbor_order[a]
    k = len(order)
    ms = [res.magnetizations[tuple(sorted((a, b)))] for b in subset]
    belief = res.node_beliefs[a]
    num = 0.0
    for idx in range(belief.size):
        w = float(belief[idx])
        if w == 0.0:
            continue
        for b, m in zip(subset, ms):
            sigma = 1.0 if (idx >> (k - 1 - order.index(b))) & 1 else -1.0
            w *= sigma - m
        num += w
    den = 1.0
    for m in ms:
        den *= math.sqrt(1.0 - m * m)
    return num / den


def _log_safe(x: np.ndarray) -> np.ndarray:
    out = np.full(np.shape(x), -np.inf)
    np.log(x, out=out, where=np.asarray(x) > 0)
    return out


def _reference_finish(g, cfg, tables, msgs, converged, iterations, residual):
    node_beliefs = {}
    for a in g.nodes:
        nbrs = g.neighbors[a]
        k = len(nbrs)
        logb = _log_safe(tables[a])
        for i, c in enumerate(nbrs):
            shape = [1] * k
            shape[i] = 2
            logb = logb + _log_safe(msgs[(c, a)]).reshape(shape)
        flat = logb.reshape(-1)
        top = float(flat.max())
        if not math.isfinite(top):
            raise BPNumericError(f"belief of node {a!r} vanished or overflowed")
        b = np.exp(flat - top)
        node_beliefs[a] = b / b.sum()

    edge_beliefs = {}
    magnetizations = {}
    for a, b in g.edges:
        p = msgs[(a, b)] * msgs[(b, a)]
        s = float(p.sum())
        if not math.isfinite(s) or s <= 0.0:
            raise BPNumericError(f"edge belief {a!r}-{b!r} is not normalizable")
        p = p / s
        edge_beliefs[(a, b)] = p
        magnetizations[(a, b)] = float(p[1] - p[0])

    free_energy = 0.0
    for a in g.nodes:
        b = node_beliefs[a]
        logf = _log_safe(g.tables[a])
        mask = b > 0
        free_energy += float(np.sum(b[mask] * (_log_safe(b)[mask] - logf[mask])))
    for e, p in edge_beliefs.items():
        mask = p > 0
        free_energy -= float(np.sum(p[mask] * _log_safe(p)[mask]))

    res = BPResult(
        converged=converged,
        iterations=iterations,
        final_residual=residual,
        schedule=cfg.schedule,
        node_beliefs=node_beliefs,
        edge_beliefs=edge_beliefs,
        magnetizations=magnetizations,
        neighbor_order={a: g.neighbors[a] for a in g.nodes},
        loop_weights={},
        log_z_bp=-free_energy,
    )
    for a, nbrs in res.neighbor_order.items():
        k = len(nbrs)
        res.loop_weights[a] = np.array([
            reference_mu_term(res, a, [b for i, b in enumerate(nbrs) if s >> (k - 1 - i) & 1])
            for s in range(1 << k)
        ])
    return res
