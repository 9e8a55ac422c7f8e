"""Independent references used across the test suite.

Deliberately naive implementations: they share no code with the path they
check, so agreement is evidence, not tautology. brute_log_z_factor sums
every spin assignment in linear space; transfer_log_z eliminates the
variables one at a time in listed order, a row transfer matrix on a grid,
where planarz.model eliminates them in buckets in an order of its own;
enumerate_loops lists, as LoopTerms, the generalized loops whose weights
series.loop_correction sums by elimination, scanning every edge-subset
mask in numpy;
the matching sums are recursive brute force; the Kasteleyn matrix is the
unit-weight form of the Pfaffian path's matrix; reference_run_bp is
residual belief propagation with one numpy array update per message,
kept in a dict by directed edge, and a heap of residuals whose stale
entries are told apart by per-message version counters, where planarz.bp
inlines its arithmetic over flat slot lists and tests an entry against
the slot's current residual (it shares only the result type and the
constants);
reference_pfaffian is the eager Parlett-Reid kernel, one rank-2 update
of the whole trailing matrix per pivot step, that planarz.pfaffian
confines to each step's active window (it shares only the result type
and the pivot threshold);
exact_pfaffian is Parlett-Reid elimination in rational arithmetic, exact
for the floats a matrix stores, and log_abs the log of its result to the
last bit;
dense_minor_term is a series term the way it reads on paper: the removal
set's principal minor of the Tutte matrix with its defect lines negated,
sliced from the dense matrix, its Pfaffian, and the sign of a reference
matching (it shares pfaffian and matching_sign with the series, and none
of its bordering, choice of Pfaffian source or port renumbering);
reference_matching is one perfect matching of a removal set's graph, the
T-join inside a spanning forest of the whole kept graph, where the series
pairs T locally and signs its matching against the kept empty-set one;
reference_mu_term is the loop weight of one (node, subset) pair straight
from the magnetizations, the formula planarz.bp replaced with its
cancellation-free tables;
layout_tutte_matrix is the series' Tutte matrix placed entry by entry
from the oriented graph and the loop-weight tables, with none of the
pattern's index arrays; contracted_tutte_matrix contracts
contraction_clusters' trees out of a dense K by numeric Schur
complements, with none of the contraction's weight products or index
arrays (it shares model._level_order and matching_sign with the series).

lower is how a test array enters the Pfaffian kernel: its strict lower
triangle as a SparseSkew.

Two helpers are not references but views, for the tests that read them:
assignment_to_index and index_to_assignment convert a +-1 assignment to
and from its table index.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from planarz.bp import MESSAGE_FLOOR, RESIDUAL_THRESHOLD, BPNumericError, BPResult
from planarz.model import ForneyGraph, ModelError, _level_order, canon_edge
from planarz.pfaffian import PIVOT_THRESHOLD, SparseSkew, matching_sign, pfaffian
from planarz.series import CLUSTER
from planarz.slog import SignedLog


def lower(a) -> SparseSkew:
    """The nonzero entries of an array's strict lower triangle, as the
    SparseSkew that planarz.pfaffian takes; the rest of it is not read."""
    rows, cols = np.nonzero(a)
    low = cols < rows
    rows, cols = rows[low], cols[low]
    return SparseSkew(a.shape, rows, cols, a[rows, cols])


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


def transfer_log_z(fg) -> float:
    """log Z of a FactorGraph by eliminating its variables in listed order.

    One log table over the live variables grows a spin axis per variable
    entered; a factor is added once its last variable has entered, and a
    live variable is summed out, by logaddexp over its two spins, as soon
    as no factor still to come uses it. On the row-major variables of a
    grid this is the row transfer matrix over at most n + 1 live spins.
    Raises ValueError past 20 live variables.
    """
    rank = {v: i for i, v in enumerate(fg.variables)}
    due = {v: [] for v in fg.variables}
    left = dict.fromkeys(fg.variables, 0)
    log_z = 0.0
    for f in fg.factors:
        if not f.scope:
            log_z += float(_log_safe(f.table)[0])
            continue
        due[max(f.scope, key=rank.__getitem__)].append(f)
        for v in f.scope:
            left[v] += 1
    live = []  # axis i of acc belongs to live[i]
    acc = np.zeros(())
    for v in fg.variables:
        live.append(v)
        if len(live) > 20:
            raise ValueError("more than 20 live variables")
        acc = np.stack([acc, acc], axis=-1)
        for f in due[v]:
            k = len(f.scope)
            t = _log_safe(f.table).reshape((2,) * k + (1,) * (len(live) - k))
            acc = acc + np.moveaxis(t, range(k), [live.index(u) for u in f.scope])
            for u in f.scope:
                left[u] -= 1
        for u in [u for u in live if not left[u]]:
            acc = np.logaddexp(*np.moveaxis(acc, live.index(u), 0))
            live.remove(u)
    return log_z + float(acc)


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
        tail, head = o.orientation[e]
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


def exact_pfaffian(a) -> Fraction:
    """Pfaffian of a skew array, each float entry taken as the rational it
    stores: Parlett-Reid elimination in Fractions, pivoting on the first
    nonzero entry below the diagonal and skipping zero products, so no
    rounding enters anywhere."""
    m = [[Fraction(x) for x in row] for row in np.asarray(a, dtype=float).tolist()]
    n = len(m)
    if n % 2 == 1:
        return Fraction(0)
    pf = Fraction(1)
    for k in range(0, n - 1, 2):
        kp = next((i for i in range(k + 1, n) if m[i][k]), None)
        if kp is None:
            return Fraction(0)
        if kp != k + 1:
            m[k + 1], m[kp] = m[kp], m[k + 1]
            for row in m:
                row[k + 1], row[kp] = row[kp], row[k + 1]
            pf = -pf
        piv = m[k][k + 1]
        pf *= piv
        tau = {j: m[k][j] / piv for j in range(k + 2, n) if m[k][j]}
        row = {i: m[k + 1][i] for i in range(k + 2, n) if m[k + 1][i]}
        for i, r in row.items():
            for j, t in tau.items():
                m[i][j] += r * t
                m[j][i] -= r * t
    return pf


def log_abs(x: Fraction) -> float:
    """log |x| of a nonzero Fraction to the last bit: the log of its float
    after a power-of-two shift, plus the shift's log. Taking the logs of
    numerator and denominator apart loses about 1e-13 once they have
    thousands of digits."""
    shift = x.numerator.bit_length() - x.denominator.bit_length()
    return math.log(abs(float(x / Fraction(2) ** shift))) + shift * math.log(2)


def flipped_minor(o, K, removed, flip):
    """(minor, kept): K sliced to the ports of the nodes not in removed,
    with the entries of each edge in flip whose ends are both kept negated;
    kept lists the ports in minor order."""
    kept = [v for v, (a, _) in enumerate(o.ext.labels) if a not in removed]
    at = {v: i for i, v in enumerate(kept)}
    minor = K[np.ix_(kept, kept)]
    for u, v in flip:
        if u in at and v in at:
            minor[at[u], at[v]], minor[at[v], at[u]] = -minor[at[u], at[v]], -minor[at[v], at[u]]
    return minor, kept


def reference_matching(g, ext, removed=()):
    """One perfect matching of ext = fisher_extend(g) minus the ports
    of the removed nodes, as canonical port pairs of ext, or None when there
    is none.

    Perfect matchings are generalized loops through every removed node: the
    loop pairs ports inside gadgets, the other kept edges match externally.
    Its edges between kept nodes form a T-join, T the kept nodes with an odd
    number of removed neighbors, and every T-join is such a loop. One exists
    iff each component of g minus the removed nodes holds an even number of
    T; this one is the T-join inside a spanning forest of g minus the
    removed nodes, grown by its own breadth-first search over all of g.
    """
    removed = set(removed)
    kept = [a for a in g.nodes if a not in removed]
    port = ext.port
    odd = {a: sum(b in removed for b in g.neighbors[a]) % 2 == 1 for a in kept}
    loop = set()
    parent = dict.fromkeys(removed)
    for root in kept:
        if root in parent:
            continue
        parent[root] = None
        order = [root]
        for a in order:
            for b in g.neighbors[a]:
                if b not in parent:
                    parent[b] = a
                    order.append(b)
        for a in reversed(order[1:]):  # every node after its parent
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


def dense_minor_term(g, o, K, removed, flip) -> SignedLog:
    """Perfect-matching sum of o's graph minus the ports of the removed
    nodes: the flipped minor's Pfaffian times the sign of one reference
    matching in it (each edge in flip written head to tail); exactly zero
    without a reference matching."""
    matching = reference_matching(g, o.ext, removed)
    if matching is None:
        return SignedLog.zero()
    minor, kept = flipped_minor(o, K, removed, flip)
    at = {v: i for i, v in enumerate(kept)}
    pairs = [o.orientation[k][::-1] if k in flip else o.orientation[k] for k in matching]
    pf = pfaffian(lower(minor))
    return SignedLog(matching_sign([(at[t], at[h]) for t, h in pairs]) * pf.sign, pf.log_magnitude)


def layout_tutte_matrix(g, o, res: BPResult) -> np.ndarray:
    """The dense Tutte matrix of o = orient(fisher_extend(g)) for res: per
    port pair (u, v), a gadget edge of node a between its ports facing b
    and c weighs res.loop_weights[a] at the entry with b's and c's bits
    set (first neighbor most significant), an external edge weighs 1.0,
    placed at [tail, head] and negated at [head, tail]."""
    n = o.ext.num_vertices
    K = np.zeros((n, n))
    for u, v in o.ext.edges:
        (a, b), (a2, c) = o.ext.labels[u], o.ext.labels[v]
        if a == a2:
            nbrs = g.neighbors[a]
            k = len(nbrs)
            w = res.loop_weights[a][(1 << (k - 1 - nbrs.index(b))) | (1 << (k - 1 - nbrs.index(c)))]
        else:
            w = 1.0
        t, h = o.orientation[(u, v)]
        K[t, h] = w
        K[h, t] = -w
    return K


def contraction_clusters(g) -> list:
    """The clusters the series contracts out of K before Pf(K), as
    (members, tree edges (x, y), y joining through x). Each is seeded by
    the first node of model._level_order(g.neighbors) in no cluster yet
    and takes, breadth first, every neighbour of a member that is in no
    cluster and has no other neighbour among the members, up to
    series.CLUSTER nodes."""
    taken, out = set(), []
    for seed in _level_order(g.neighbors):
        if seed in taken:
            continue
        members, tree, i = [seed], [], 0
        while i < len(members):
            x = members[i]
            i += 1
            for y in g.neighbors[x]:
                others = [b for b in g.neighbors[y] if b in members]
                if len(members) < CLUSTER and y not in taken and y not in members and len(others) == 1:
                    members.append(y)
                    tree.append((x, y))
        taken.update(members)
        out.append((members, tree))
    return out


def contracted_tutte_matrix(g, ext, K) -> np.ndarray:
    """The dense K with contraction_clusters(g) contracted out, as the
    series keeps it for Pf(K): for each tree edge (x, y) in turn, the
    ports p = (x, y) and q = (y, x) are eliminated by a numeric Schur
    complement on their 2 x 2 block, K -= s (K[p]^T K[q] - K[q]^T K[p])
    over the other rows, s = K[p, q] asserted exactly +-1. The kept ports
    are numbered in model._level_order of the graph joining each to the
    other kept ports of its cluster and to its external partner, and the
    row and column of the first one are multiplied by the product of the
    pivots and the sign of the permutation that puts the pivot pairs, in
    elimination order, in front of the kept ports, so that its Pfaffian is
    Pf(K)."""
    K = np.array(K, dtype=float)
    clusters = contraction_clusters(g)
    home = {a: i for i, (members, _) in enumerate(clusters) for a in members}
    pivots, sign = [], 1.0
    for _, tree in clusters:
        for x, y in tree:
            p, q = ext.port[(x, y)], ext.port[(y, x)]
            s = K[p, q]
            assert s in (1.0, -1.0), (x, y, s)
            w = sorted(set(np.flatnonzero(K[p] != 0).tolist() + np.flatnonzero(K[q] != 0).tolist()) - {p, q})
            K[np.ix_(w, w)] -= s * (np.outer(K[p, w], K[q, w]) - np.outer(K[q, w], K[p, w]))
            K[[p, q], :] = K[:, [p, q]] = 0.0
            pivots.append((p, q))
            sign *= s
    dropped = {x for pair in pivots for x in pair}
    kept = [u for u in range(len(K)) if u not in dropped]
    nbrs = {}
    for u in kept:
        a, b = ext.labels[u]
        same = [v for v in kept if v != u and home[ext.labels[v][0]] == home[a]]
        nbrs[u] = sorted(same + [ext.port[(b, a)]])
    order = _level_order(nbrs)
    if order:
        sign *= matching_sign(pivots + list(zip(order[::2], order[1::2])))
        K[order[0]] *= sign
        K[:, order[0]] *= sign
    return K[np.ix_(order, order)]


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


def reference_run_bp(g, max_iterations: int = 10000) -> BPResult:
    """Residual BP with messages as a dict of 2-element numpy arrays, one
    numpy marginalization per update and a lazy heap of residuals: the
    same update order, checks and finish pass as planarz.bp.run_bp,
    written without its slot lists, coefficient tuples or inlined update.
    """
    dir_edges = [de for a, b in g.edges for de in ((a, b), (b, a))]
    tables = {a: g.tables[a].reshape((2,) * g.degree(a)) for a in g.nodes}
    msgs = {de: np.array([0.5, 0.5]) for de in dir_edges}

    iterations, residual, converged = 0, 0.0, True
    if dir_edges:
        iterations, residual, converged = _reference_residual(
            g, max_iterations, dir_edges, tables, msgs
        )
    return _reference_finish(g, tables, msgs, converged, iterations, residual)


def _reference_residual(g, max_iterations, dir_edges, tables, msgs):
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
    budget = max_iterations * len(dir_edges)
    residual = math.inf
    while heap:
        neg_r, _, ver, de = heap[0]
        if ver != version[de]:
            heapq.heappop(heap)
            continue
        residual = -neg_r
        if residual < RESIDUAL_THRESHOLD:
            return max(1, -(-pops // len(dir_edges))), residual, True
        if pops >= budget:
            return max_iterations, residual, False
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


def _reference_finish(g, tables, msgs, converged, iterations, residual):
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


@dataclass(frozen=True)
class LoopTerm:
    """A generalized loop: an edge subset with all induced degrees >= 2."""

    edges: tuple
    weight: float
    triplets: tuple  # nodes of degree 3 inside the loop


def enumerate_loops(g: ForneyGraph, res: BPResult, regular_only: bool = False) -> list:
    """All generalized loops, in ascending mask order, by a scan of every
    edge-subset mask, edge i of g.edges being bit i (<= 24 edges).

    A mask is a loop when no node has exactly one of its edges in it
    (nor three, with regular_only) and it is not empty. Its weight
    multiplies the loop weight of every covered node against its in-loop
    neighbor set, read from res.loop_weights by the table index whose bit
    for the node's neighbor i, first neighbor most significant, is edge
    (a, neighbor i)'s bit of the mask.
    """
    if any(len(nbrs) > 3 for nbrs in g.neighbors.values()):
        raise ModelError("loop enumeration needs degrees at most 3")
    if g.num_edges > 24:
        raise ModelError(f"loop enumeration capped at 24 edges, got {g.num_edges}")
    masks = np.arange(1, 1 << g.num_edges, dtype=np.int64)
    bit = {e: i for i, e in enumerate(g.edges)}
    ok = np.ones(masks.size, dtype=bool)
    weight = np.ones(masks.size)
    full = []
    for a, nbrs in g.neighbors.items():
        inside = [(masks >> bit[canon_edge(a, b)]) & 1 for b in nbrs]
        degree = sum(inside, np.zeros_like(masks))
        ok &= (degree != 1) & ~(regular_only & (degree == 3))
        index = sum((x << (len(nbrs) - 1 - i) for i, x in enumerate(inside)), np.zeros_like(masks))
        if nbrs:
            weight *= np.asarray(res.loop_weights[a])[index]
        if len(nbrs) == 3:
            full.append((a, degree == 3))
    out = []
    for j in np.flatnonzero(ok).tolist():
        edges = tuple(e for e, i in bit.items() if masks[j] >> i & 1)
        out.append(LoopTerm(edges, float(weight[j]), tuple(sorted(a for a, inc in full if inc[j]))))
    return out
