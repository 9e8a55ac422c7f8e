"""Loop corrections to the BP partition function estimate.

pfaffian_series sums the removal-set terms: every even subset of degree-3
nodes contributes its own matching problem times the loop weights of the
removed nodes. z_empty is its first term, the empty set's: the
even-degree (2-regular) correction. All of a model's matching problems
share one oriented gadget graph with Tutte matrix K, kept as its entries
(a SparseSkew): a removal set's problem is a principal minor of K, with
the defect lines of the removed nodes negated. Every term takes one
Pfaffian and the sign of one perfect matching of its minor. The empty
set's matching, every port matched externally, and its sign are kept in
the topology's layout, so its term, Pf(K) itself, does no matching
work; every other term finds its matching through a T-join near the
removed nodes and reads its sign off the ports where it differs from the
kept one (see _prepare). Pf(K) is one Pfaffian of K's fold (_fold):
a degree-2 node's two ports are eliminated in closed form, a Schur
complement on their 2 x 2 block with nothing divided, and folding about
half the degree-2 nodes leaves about 40% fewer ports. Past the empty
set, the series takes K^-1 once, and every other term is a small
Pfaffian over the minor's border; K, its inverse and every full minor
stay unfolded. The oriented graph, the TuttePatterns of K and of its
fold (each entry's place and sign), the empty set's matching and the
defect lines depend on the model's topology alone: they are one
_Layout, embedded, oriented and checked once per topology and kept in
the per-topology slot that also keeps BP's plan (model._kept). So does
everything a removal set's term needs but K's values: which sets
have no T-join, and each other set's sign parity, its border's indices
and its kept flipped edges' places among K's entries. They are one
_TermPlan per even cap on |psi|, over every set up to the cap, planned
on the topology's first series at that cap. The layout and the plans
carry no weight and need no BP result: every solve's K is the pattern
filled from its BPResult's loop weights, the one place they reach K (and
its fold, filled the same way), and a warm series only gathers K^-1 and
the flipped edges' weights into the planned borders: those of up to
BORDER_BATCH removal sets, of any sizes, take one
pfaffian.bordered_pfaffians call, one stacked elimination. A term whose
border cancels, or that flips an edge with no entry in K, takes the full
minor from the entries (pfaffian.minor_pfaffian) instead.
K is built dense only for that one inverse, so z_empty never builds an
n x n matrix, nor K's entries: only the fold's.

loop_correction is the exhaustive oracle for both: the edges are the
enumerated variables of the model's chunked enumeration kernel, which
multiplies one loop-weight table per node and ANDs one validity table per
node (no node of degree one inside a loop) over all edge subsets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bp import BPResult
from .model import ForneyGraph, ModelError, _enumerate, _kept, canon_edge
from .pfaffian import (
    OrientationError,
    TuttePattern,
    bordered_pfaffians,
    matching_sign,
    minor_pfaffian,
    skew_inverse,
    tutte_pattern,
)
from .planar import (
    OrientedPlanarGraph,
    _bfs,
    _weight_pool,
    face_parity_violations,
    fisher_extend,
    orient,
)
from .slog import SignedLog

MAX_LOOP_EDGES = 24
# removal sets per bordered_pfaffians call: a full stack of the widest
# borders, 26 in a 12x12 grid's |psi| <= 2 plan, 20 in a 4x4 grid's |psi|
# <= 4 and 30 in spiderweb(3, 6)'s, is 2.8, 1.6 and 3.7 MB
BORDER_BATCH = 512


@dataclass(frozen=True)
class PfaffianTerm:
    """One removal-set term of the series."""

    psi: tuple
    z_psi: SignedLog
    triplet_factor: SignedLog

    @property
    def contribution(self) -> SignedLog:
        return self.z_psi * self.triplet_factor


@dataclass(frozen=True)
class PfaffianSeriesResult:
    """The terms in evaluation order, their total, whether no cap cut the
    series, and how many terms took the full minor (see pfaffian_series)."""

    terms: tuple
    z_total: SignedLog
    complete: bool
    dense_terms: int


@dataclass(frozen=True, eq=False)
class _Layout:
    """What the series derives from a graph's topology alone (see _layout).

    o is the removal-free gadget graph, oriented with every bounded face
    checked odd, and pattern its tutte_pattern, whose edge indexes
    planar._weight_pool through o.ext.source, so that K for any BPResult
    res on the topology is pattern.entries(_weight_pool(g, res)). fold is
    the pattern of K with degree-2 gadgets folded out, indexing the same
    pool, and Pf(K) = fold_sign * Pf(fold.entries(pool)) (see _fold).
    partner is the empty removal set's matching M_0, every port x matched
    to its external partner partner[x], and sign is M_0's matching_sign
    over its o.orientation pairs. trips are the triplet nodes and lines
    their defect lines (see _defect_lines).
    """

    o: OrientedPlanarGraph
    pattern: TuttePattern
    fold: TuttePattern
    fold_sign: int
    partner: tuple
    sign: int
    trips: tuple
    lines: dict


def _layout(g: ForneyGraph) -> _Layout:
    """The _Layout of g's topology, checked: Euler's formula by the face
    tracing, then every bounded face's parity.

    It takes no BP result. pfaffian_series keeps it through model._kept, so
    it is built once per topology, kept only once both checks pass, and
    never mutated.
    """
    o = orient(fisher_extend(g))
    bad = face_parity_violations(o)
    if bad:
        raise OrientationError(f"bounded faces {bad} have an even clockwise count")
    port, partner, pairs = o.ext.port, [0] * o.ext.num_vertices, []
    for a, b in g.edges:
        u, v = port[(a, b)], port[(b, a)]
        partner[u], partner[v] = v, u
        pairs.append(o.orientation[(u, v) if u < v else (v, u)])
    pattern, trips = tutte_pattern(o), triplet_nodes(g)
    fold, fold_sign = _fold(g, o, pattern, partner)
    return _Layout(o, pattern, fold, fold_sign, tuple(partner), matching_sign(pairs), trips, _defect_lines(g, o, trips))


def _fold(g: ForneyGraph, o: OrientedPlanarGraph, pattern: TuttePattern, partner) -> tuple:
    """(fold, sign): the TuttePattern of K with degree-2 gadgets folded out,
    and the sign that takes its Pfaffian to Pf(K).

    Degree-2 nodes are folded greedily in g.nodes order, skipping any node
    adjacent to one already folded. Folding node a, with ports p and q
    facing its neighbours b and c and their external partners X = (b, a)
    and Y = (c, a), drops p and q, adds the entry K'[X, Y] = -K[p, X] *
    K[q, Y], and multiplies row and column X by K[p, q]. With the folded
    ports moved to the front, in (p, q) pairs, by a permutation of sign
    sign, the pairs' diagonal blocks [[0, K[p, q]], [-K[p, q], 0]] take a
    Schur complement, and the scaling of each X cancels its block's
    Pfaffian: Pf(K) = sign * Pf(K') exactly. Nothing is divided, so K[p, q]
    = 0 needs no special case.

    As matchings: the path X - p - q - Y carries either X - p and q - Y,
    which is the X - Y entry, or p - q with X matched inside b's gadget,
    which is X's entries scaled by K[p, q].

    No two folded nodes are adjacent, so every X is scaled by one fold and
    every entry of K' is a signed product of at most three pool weights:
    the fold's edge array is (m, 3), padded with the index of the pool's
    1.0, where the external edges' weight sits. The kept ports keep their
    order. The fold depends on the topology alone.
    """
    n, port = pattern.shape[0], o.ext.port
    rows, cols, sign, edge = pattern.rows, pattern.cols, pattern.sign, pattern.edge[:, 0]
    key = rows * n + cols
    one = o.ext.source[-1] if n else 0  # the external edges come last

    def entry(u, v):  # K[u, v] as (sign, pool index)
        i = np.searchsorted(key, max(u, v) * n + min(u, v))
        return (sign[i] if u > v else -sign[i]), edge[i]

    scale_sign, scale_edge = np.ones(n), np.full(n, one)  # K[p, q] per X, 1 elsewhere
    drop = np.zeros(n, dtype=bool)
    folded, front, joins = set(), [], []
    for a in g.nodes:
        nbrs = g.neighbors[a]
        if len(nbrs) != 2 or folded.intersection(nbrs):
            continue
        folded.add(a)
        p, q = port[(a, nbrs[0])], port[(a, nbrs[1])]
        x, y = partner[p], partner[q]
        drop[[p, q]] = True
        front.append((p, q))
        scale_sign[x], scale_edge[x] = entry(p, q)
        (s1, e1), (s2, e2) = entry(p, x), entry(q, y)
        # K'[x, y] = -s1 s2 w1 w2, stored below the diagonal
        joins.append((max(x, y), min(x, y), -s1 * s2 if x > y else s1 * s2, e1, e2, one))
    rest = np.flatnonzero(~drop).tolist()
    fold_sign = matching_sign(front + list(zip(rest[::2], rest[1::2])))
    live = ~drop[rows] & ~drop[cols]
    r, c = rows[live], cols[live]
    jr, jc, js, *je = np.array(joins, dtype=np.intp).reshape(-1, 6).T
    s = np.concatenate([sign[live] * scale_sign[r] * scale_sign[c], js])
    e = np.concatenate([np.stack([edge[live], scale_edge[r], scale_edge[c]], axis=1), np.stack(je, axis=1)])
    at = np.cumsum(~drop) - 1  # index of each kept port in K'
    r, c = np.concatenate([at[r], at[jr]]), np.concatenate([at[c], at[jc]])
    m = len(rest)
    order = np.argsort(r * m + c)
    return TuttePattern((m, m), r[order], c[order], s[order], e[order]), fold_sign


def _defect_lines(g: ForneyGraph, o: OrientedPlanarGraph, nodes) -> dict:
    """Per node, the edges crossed by the dual-tree path from a face at its
    last port to the root face of its component: a shortest dual path,
    since orient grows the forest breadth first.

    With every bounded face clockwise-odd, a cycle's clockwise count is one
    plus the number of vertices inside it, mod 2. Removing a gadget drops
    three vertices from one side of every remaining cycle, breaking the rule
    on the cycles around it: exactly those the line crosses an odd number of
    times, so negating the line's edges restores it.
    """
    face = {x: fi for fi, walk in enumerate(o.faces) for x, _ in walk}
    lines = {}
    for a in nodes:
        fi, lines[a] = face[o.ext.port[(a, g.neighbors[a][-1])]], set()
        while fi in o.dual_tree:
            fi, e = o.dual_tree[fi]
            lines[a].add(e)
    return lines


def z_empty(g: ForneyGraph, res: BPResult) -> SignedLog:
    """The 2-regular loop correction: 1 plus the sum over even-degree loops,
    the series' removal-free term: Pf(K) signed by the kept empty-set
    matching, taken as one Pfaffian of the layout's fold, with no inverse,
    no dense matrix and no entries of K itself.

    Multiply exp of its log against Z^BP to get the corrected estimate. An
    empty core (tree after absorption) gives exactly 1.
    """
    return pfaffian_series(g, res, max_psi_size=0).terms[0].z_psi


def _t_join(g: ForneyGraph, removed: dict):
    """(near, join) for the removal set removed (its nodes as keys), or None
    when g minus removed has no T-join.

    near maps each kept neighbour of a removed node to its number of removed
    neighbours; T is those with an odd one. Breadth-first searches in g
    minus removed pair each T node with its nearest unpaired one, and their
    paths XOR into join, each edge both ways. A search that exhausts its
    component leaves an odd number of T there, and no T-join exists.
    """
    nbrs = g.neighbors
    near = {}
    for a in removed:
        for b in nbrs[a]:
            if b not in removed:
                near[b] = near.get(b, 0) + 1
    odd = dict.fromkeys(b for b, k in near.items() if k % 2)  # T, unpaired
    join = set()
    while odd:
        t, _ = odd.popitem()
        parent = dict(removed)
        b = next((b for b in _bfs(nbrs, t, parent) if b in odd), None)
        if b is None:
            return None
        del odd[b]
        while b != t:
            join ^= {(b, parent[b]), (parent[b], b)}
            b = parent[b]
    return near, join


def _prepare(g: ForneyGraph, lay: _Layout, psi):
    """None when lay.o's graph minus the ports of the nodes in psi has no
    perfect matching, else (ports, kept, odd) for its term: the sorted
    removed ports, the kept edges of psi's defect lines, and the parity of
    its matching's sign against lay.sign, the empty set's.

    The term's z_psi is the perfect-matching sum of that graph: the minor
    of K without ports, kept's entries negated to keep it Kasteleyn,
    signed by one perfect matching M of that minor. A kept edge whose K
    entry is zero is in no matching and has no entry to negate.

    M is the generalized loop through psi and a T-join J (_t_join): each
    kept node that touches psi or J matches its two ports facing them, and
    every other port matches externally, as in lay's M_0. Without a
    T-join there is no perfect matching: the term is an exact zero and
    takes no Pfaffian. R pairs the sorted removed ports r0 < r1 < ...
    consecutively, tail first, so M + R is a perfect matching of all ports
    and differs from M_0 only at psi's ports and the ports M matches in
    gadgets. M's sign in the minor, kept edges written head to tail, is
    then M_0's times (-1) to the power of (Kasteleyn 1961)

        sum_i (r(2i+1) - r(2i) - 1)   the kept ports each pair of R spans
        + |M & kept|
        + sum over the alternating cycles C of M + R and M_0 of
          (1 + the pairs of C walked against their orientation),

    each read from those ports alone.
    """
    removed = dict.fromkeys(psi)
    found = _t_join(g, removed)
    if found is None:
        return None
    near, join = found
    flip = set()
    for a in psi:
        flip ^= lay.lines[a]
    o, partner = lay.o, lay.partner
    nbrs, port, orientation = g.neighbors, o.ext.port, o.orientation
    ports = sorted(port[(a, b)] for a in psi for b in nbrs[a])
    mate = {}  # M + R where it differs from M_0: port -> (its mate, whether it is the tail)
    for x, y in zip(ports[::2], ports[1::2]):
        mate[x], mate[y] = (y, True), (x, False)
    for a in near.keys() | {a for a, _ in join}:
        x, y = (port[(a, b)] for b in nbrs[a] if b in removed or (a, b) in join)
        t, h = orientation[(x, y)]
        mate[t], mate[h] = (h, True), (t, False)
    labels = o.ext.labels
    kept = [e for e in flip if labels[e[0]][0] not in removed and labels[e[1]][0] not in removed]
    odd = sum(ports[i + 1] - ports[i] - 1 for i in range(0, len(ports), 2))
    odd += sum(mate[u][0] == v if u in mate else partner[u] == v for u, v in kept)
    seen = set()
    for start in mate:
        if start in seen:
            continue
        odd += 1
        x = start
        while x not in seen:  # x -> y along M_0, y -> z along M + R
            y = partner[x]
            z, tail = mate[y]
            odd += (orientation[(x, y) if x < y else (y, x)][0] != x) + (not tail)
            seen.update((x, y))
            x = z
    return ports, kept, odd


@dataclass(frozen=True, eq=False)
class _TermPlan:
    """The weight-free part of some removal sets' terms, as arrays (see
    _plan_sets).

    sets are the removal sets, and live indexes those with a perfect
    matching; the others are exact zeros. Row j of the other fields is set
    live[j]'s: it removes removed[j] ports, and anchors holds its border
    indices T, those ports in order and then both ends (u, v), u < v, of
    each kept flipped edge, of which the first lengths[j] are its own;
    flips holds those edges' positions in the layout's pattern entries, the
    first (lengths[j] - removed[j]) // 2 its own; odd is the parity of its
    matching's sign against the empty set's.
    """

    sets: tuple
    live: np.ndarray
    anchors: np.ndarray
    flips: np.ndarray
    lengths: np.ndarray
    odd: np.ndarray
    removed: np.ndarray


def _term_plan(g: ForneyGraph, cap: int) -> _TermPlan:
    """The _TermPlan of every removal set of 2 to cap triplet nodes, cap
    even, in size order and lexicographic inside a size. pfaffian_series
    keeps it through model._kept, once per topology and cap, so a warm
    series finds no T-join."""
    lay = _kept(g, _layout)
    return _plan_sets(g, lay, [psi for size in range(2, cap + 1, 2) for psi in itertools.combinations(lay.trips, size)])


def _plan_sets(g: ForneyGraph, lay: _Layout, sets) -> _TermPlan:
    """The _TermPlan of the removal sets sets, of any even sizes: each
    set's _prepare, its kept edges found in lay.pattern's entries."""
    sets, live, ports, kept, odd = tuple(sets), [], [], [], []
    for i, psi in enumerate(sets):
        found = _prepare(g, lay, psi)
        if found is not None:
            live.append(i)
            ports.append(found[0])
            kept.append(found[1])
            odd.append(found[2] % 2)
    p, n = lay.pattern, lay.pattern.shape[0]
    removed = np.array([len(r) for r in ports], dtype=np.int32)
    count = np.array([len(k) for k in kept], dtype=np.int32)
    lengths = removed + 2 * count
    anchors = np.zeros((len(kept), lengths.max(initial=0)), dtype=np.int32)
    anchors[np.arange(anchors.shape[1]) < lengths[:, None]] = [x for r, k in zip(ports, kept) for x in r + [v for e in k for v in e]]
    edges = np.array([e for k in kept for e in k], dtype=np.intp).reshape(-1, 2)
    flips = np.zeros((len(kept), count.max(initial=0)), dtype=np.int32)
    flips[np.arange(flips.shape[1]) < count[:, None]] = np.searchsorted(p.rows * n + p.cols, edges[:, 1] * n + edges[:, 0])
    return _TermPlan(sets, np.array(live, dtype=np.int32), anchors, flips, lengths, np.array(odd, dtype=bool), removed)


def _evaluate(K, weight, pf: SignedLog, inverse, sign: int, plan: _TermPlan, start: int, stop: int):
    """{i: (z_psi, whether it took the full minor)} for the set i of each
    live row of plan from start to stop - 1.

    weight holds K[u, v], u < v, at each of the layout's pattern entries,
    0 where K has no entry. The borders of the rows take one
    bordered_pfaffians call; a term whose border declines, or that flips
    an edge K has no entry for (its border would divide by zero), takes
    the full minor from K's entries. z_psi is that Pfaffian signed by
    sign, the empty set's matching sign, and by the term's parity.
    """
    anchors, removed, lengths = plan.anchors[start:stop], plan.removed[start:stop], plan.lengths[start:stop]
    flip = weight[plan.flips[start:stop]]
    own = np.arange(flip.shape[1]) < ((lengths - removed) // 2)[:, None]
    empty = (own & (flip == 0)).any(axis=1)
    borders = bordered_pfaffians(pf, inverse, anchors, removed, lengths, np.where(empty[:, None], 1.0, flip))
    out = {}
    for j, (i, z, odd) in enumerate(zip(plan.live[start:stop].tolist(), borders, plan.odd[start:stop].tolist())):
        on_minor = z is None or bool(empty[j])
        if on_minor:
            t, m = anchors[j, : lengths[j]].tolist(), int(removed[j])
            z = minor_pfaffian(K, t[:m], {(u, v): w for u, v, w in zip(t[m::2], t[m + 1 :: 2], flip[j].tolist()) if w})
        s = sign * z.sign
        out[i] = (SignedLog(-s if odd else s, z.log_magnitude), on_minor)
    return out


def triplet_nodes(g: ForneyGraph) -> tuple:
    return tuple(sorted(a for a in g.nodes if g.degree(a) == 3))


def pfaffian_series(
    g: ForneyGraph, res: BPResult, max_psi_size: int | None = None
) -> PfaffianSeriesResult:
    """Evaluate removal-set terms in size order, lexicographic inside a size.

    max_psi_size, which must be non-negative, caps the removal-set
    cardinality; a cut marks the result incomplete. The empty set is always
    first, so terms[0] is the 2-regular correction. dense_terms counts the
    terms past the first with a perfect matching that took the full minor
    from the entries instead of the bordered Pfaffian: those whose border
    cancels, those that flip an edge with no entry in K, and every one of
    them when K is singular or its inverse not finite.
    """
    if max_psi_size is not None and max_psi_size < 0:
        raise ModelError(f"max_psi_size must be non-negative, got {max_psi_size!r}")
    lay = _kept(g, _layout)
    trips = lay.trips
    limit = len(trips) if max_psi_size is None else min(max_psi_size, len(trips))
    pool = _weight_pool(g, res)
    pf = minor_pfaffian(lay.fold.entries(pool), (), {})
    pf = SignedLog(lay.fold_sign * pf.sign, pf.log_magnitude)  # Pf(K)
    terms = [PfaffianTerm((), SignedLog(lay.sign * pf.sign, pf.log_magnitude), SignedLog.one())]
    dense = 0
    if limit >= 2:  # only removal sets take K itself, and K^-1 from the dense K
        K = lay.pattern.entries(pool)
        inverse = skew_inverse(K.dense()) if pf.sign else None
        weight = -(lay.pattern.sign * pool[lay.pattern.edge[:, 0]])  # K[u, v], u < v, per pattern entry
        removed_weight = {a: SignedLog.from_float(float(res.loop_weights[a][-1])) for a in trips}
        plan = _kept(g, _term_plan, limit - limit % 2)
        found = {}
        for start in range(0, len(plan.live), BORDER_BATCH):
            found |= _evaluate(K, weight, pf, inverse, lay.sign, plan, start, start + BORDER_BATCH)
        for i, psi in enumerate(plan.sets):
            zp, on_minor = found.get(i, (SignedLog.zero(), False))
            factor = SignedLog.one()
            for a in psi:
                factor = factor * removed_weight[a]
            dense += on_minor
            terms.append(PfaffianTerm(psi, zp, factor))
    total = SignedLog.sum(t.contribution for t in terms)
    complete = limit >= len(trips) - len(trips) % 2
    return PfaffianSeriesResult(tuple(terms), total, complete, dense)


def _loop_scan(g: ForneyGraph, res: BPResult, regular_only: bool):
    """(masks, weights) of every generalized loop, in ascending mask order.

    Edge i of g.edges is bit i of a mask. Each node is a weight table and a
    validity table over its edges: the empty subset and the allowed ones
    (size 2, or 3 unless regular_only) keep their entry of the node's
    res.loop_weights table, anything else is invalid with weight 0.
    """
    if any(g.degree(a) > 3 for a in g.nodes):
        raise ModelError("loop enumeration needs degrees at most 3")
    E = g.num_edges
    if E > MAX_LOOP_EDGES:
        raise ModelError(f"loop enumeration capped at {MAX_LOOP_EDGES} edges, got {E}")
    edge_pos = {e: i for i, e in enumerate(g.edges)}
    weights, valids = [], []
    for a in g.nodes:
        nbrs = g.neighbors[a]
        if not nbrs:
            continue
        positions = [edge_pos[canon_edge(a, b)] for b in nbrs]
        size = np.indices((2,) * len(nbrs)).sum(axis=0)
        ok = size != 1
        if regular_only:
            ok &= size != 3
        weights.append((positions, np.where(ok, res.loop_weights[a].reshape(ok.shape), 0.0)))
        valids.append((positions, ok))
    masks, out = [], []
    chunks = zip(_enumerate(E, weights, np.multiply), _enumerate(E, valids, np.logical_and))
    for chunk, (w, ok) in enumerate(chunks):
        idx = np.flatnonzero(ok)
        masks.append(chunk * ok.size + idx)
        out.append(w.reshape(-1)[idx])
    masks, out = np.concatenate(masks), np.concatenate(out)
    return masks[1:], out[1:]  # the empty subset is always valid: drop it


def loop_correction(g: ForneyGraph, res: BPResult, regular_only: bool = False):
    """(1 + sum of loop weights, loop count) without materializing terms."""
    _, weights = _loop_scan(g, res, regular_only)
    return 1.0 + float(weights.sum()), weights.size
