"""Loop corrections to the BP partition function estimate.

z_empty evaluates the even-degree (2-regular) correction through one
matching problem. pfaffian_series adds the remaining terms: every even
subset of degree-3 nodes contributes its own matching problem times the
loop weights of the removed nodes. All of a model's matching problems share
one oriented gadget graph: a removal set's problem is a principal minor of
its Tutte matrix, with the defect lines of the removed nodes negated.

enumerate_loops and loop_correction are the exhaustive oracle for both: the
edges are the enumerated variables of the model's chunked enumeration
kernel, which multiplies one loop-weight table per node and ANDs one
validity table per node (no node of degree one inside a loop) over all edge
subsets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bp import BPResult
from .model import ForneyGraph, ModelError, _enumerate, canon_edge
from .pfaffian import OrientationError, matching_sum, tutte_matrix
from .planar import (
    OrientedPlanarGraph,
    face_parity_violations,
    fisher_extend,
    orient,
    reference_matching,
)
from .slog import SignedLog

MAX_LOOP_EDGES = 24


@dataclass(frozen=True)
class LoopTerm:
    """A generalized loop: an edge subset with all induced degrees >= 2."""

    edges: tuple
    weight: float
    triplets: tuple  # nodes of degree 3 inside the loop


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
    terms: tuple
    z_total: SignedLog
    complete: bool


def _kasteleyn(g: ForneyGraph, res: BPResult):
    """(o, K): g's removal-free gadget graph oriented with every bounded face
    checked odd, and its Tutte matrix; (None, None) for an empty graph."""
    ext = fisher_extend(g, res)
    if ext.num_vertices == 0:
        return None, None
    o = orient(ext)
    bad = face_parity_violations(o)
    if bad:
        raise OrientationError(f"bounded faces {bad} have an even clockwise count")
    return o, tutte_matrix(o)


def _defect_lines(g: ForneyGraph, o: OrientedPlanarGraph, nodes) -> dict:
    """Per node, the edges crossed by the dual-tree path from a face at its
    last port to the root face of its component.

    With every bounded face clockwise-odd, a cycle's clockwise count is one
    plus the number of vertices inside it, mod 2. Removing a gadget drops
    three vertices from one side of every remaining cycle, breaking the rule
    on the cycles around it: exactly those the line crosses an odd number of
    times, so negating the line's edges restores it.
    """
    face = {x: fi for fi, walk in enumerate(o.embedding.faces) for x, _ in walk}
    lines = {}
    for a in nodes:
        fi, lines[a] = face[o.ext.port[(a, g.neighbors[a][-1])]], set()
        while fi in o.dual_tree:
            fi, e = o.dual_tree[fi]
            lines[a].add(e)
    return lines


def _matching_correction(g: ForneyGraph, o, K, removed=(), flip=frozenset()) -> SignedLog:
    """Perfect-matching sum of o's graph minus the ports of the removed nodes.

    That graph is induced on the kept ports, so its matrix is K's principal
    minor on them, with the entries on the edges in flip (which only
    removals bring) negated to keep it Kasteleyn; with nothing removed it is
    K itself, which pfaffian copies. An empty graph sums to one; one without
    perfect matchings sums to zero without a Pfaffian.
    """
    if o is None:
        return SignedLog.one()
    matching = reference_matching(g, o.ext, removed)
    if matching is None:
        return SignedLog.zero()
    kept = [v for v, (a, _) in enumerate(o.ext.labels) if a not in removed]
    at = dict(zip(kept, range(len(kept))))
    minor = K
    if removed:
        minor = K[np.ix_(kept, kept)]
        for u, v in flip:
            if u in at and v in at:
                minor[[at[u], at[v]], [at[v], at[u]]] *= -1
    pairs = [o.orientation[k][::-1] if k in flip else o.orientation[k] for k in matching]
    return matching_sum(minor, [(at[t], at[h]) for t, h in pairs])


def z_empty(g: ForneyGraph, res: BPResult) -> SignedLog:
    """The 2-regular loop correction: 1 plus the sum over even-degree loops.

    Multiply exp of its log against Z^BP to get the corrected estimate. An
    empty core (tree after absorption) gives exactly 1.
    """
    return _matching_correction(g, *_kasteleyn(g, res))


def triplet_nodes(g: ForneyGraph) -> tuple:
    return tuple(sorted(a for a in g.nodes if g.degree(a) == 3))


def pfaffian_series(
    g: ForneyGraph, res: BPResult, max_psi_size: int | None = None
) -> PfaffianSeriesResult:
    """Evaluate removal-set terms in size order, lexicographic inside a size.

    max_psi_size, which must be non-negative, caps the removal-set
    cardinality; a cut marks the result incomplete. The empty set is always
    first, so terms[0] is the 2-regular correction.
    """
    if max_psi_size is not None and max_psi_size < 0:
        raise ModelError(f"max_psi_size must be non-negative, got {max_psi_size!r}")
    if g.num_nodes and not g.is_reduced:
        raise ModelError("pfaffian_series needs a reduced graph")
    trips = triplet_nodes(g)
    limit = len(trips) if max_psi_size is None else min(max_psi_size, len(trips))
    o, K = _kasteleyn(g, res)
    removable = trips if limit >= 2 else ()
    removed_weight = {a: SignedLog.from_float(float(res.loop_weights[a][-1])) for a in removable}
    lines = _defect_lines(g, o, removable) if removable else {}
    terms = []
    total = SignedLog.zero()
    for size in range(0, limit + 1, 2):
        for psi in itertools.combinations(trips, size):
            flip = set()
            factor = SignedLog.one()
            for a in psi:
                flip ^= lines[a]
                factor = factor * removed_weight[a]
            zp = _matching_correction(g, o, K, psi, flip)
            term = PfaffianTerm(psi, zp, factor)
            terms.append(term)
            total = total + term.contribution
    complete = limit >= len(trips) - len(trips) % 2
    return PfaffianSeriesResult(tuple(terms), total, complete)


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


def enumerate_loops(g: ForneyGraph, res: BPResult, regular_only: bool = False) -> list:
    """All generalized loops by exhaustive edge-subset scan (<= 24 edges).

    With regular_only, keeps only loops where every induced degree is
    exactly 2. Weights multiply the loop weight of every covered node
    against its in-loop neighbor set.
    """
    masks, weights = _loop_scan(g, res, regular_only)
    edge_bit = {e: 1 << i for i, e in enumerate(g.edges)}
    full = [(a, sum(edge_bit[canon_edge(a, b)] for b in g.neighbors[a])) for a in triplet_nodes(g)]
    out = []
    for mask, w in zip(masks.tolist(), weights.tolist()):
        edges = tuple(e for e, bit in edge_bit.items() if mask & bit)
        out.append(LoopTerm(edges, w, tuple(a for a, inc in full if mask & inc == inc)))
    return out


def loop_correction(g: ForneyGraph, res: BPResult, regular_only: bool = False):
    """(1 + sum of loop weights, loop count) without materializing terms."""
    _, weights = _loop_scan(g, res, regular_only)
    return 1.0 + float(weights.sum()), weights.size


def term_ranking(terms) -> list:
    """Terms by descending contribution magnitude; ties keep input order."""
    return sorted(terms, key=lambda t: t.contribution.log_magnitude, reverse=True)


def format_term_log(terms) -> str:
    """One line per term: removal set, sign, log magnitude."""
    lines = []
    for t in terms:
        psi = ",".join(t.psi) if t.psi else "-"
        c = t.contribution
        lines.append(f"psi {psi} sign {c.sign:+d} log {c.log_magnitude:.17g}")
    return "\n".join(lines) + "\n"
