"""Loop corrections to the BP partition function estimate.

z_empty evaluates the even-degree (2-regular) correction through one
matching problem. pfaffian_series adds the remaining terms: every even
subset of degree-3 nodes contributes its own matching problem times the
loop weights of the removed nodes. enumerate_loops is the exhaustive
oracle for both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bp import BPResult, mu_term
from .model import ForneyGraph, ModelError, canon_edge
from .pfaffian import OrientationError, matching_sum, tutte_matrix
from .planar import (
    face_parity_violations,
    fisher_extend,
    gadget_weights,
    orient,
    reference_matching,
)
from .slog import SignedLog

MAX_LOOP_EDGES = 24
_CHUNK_BITS = 20


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


def _matching_correction(g: ForneyGraph, ext, parent=None):
    """(perfect-matching sum of ext, orient(ext, parent)); an empty ext sums
    to one and one without perfect matchings to zero, neither oriented (None).
    """
    if ext.num_vertices == 0:
        return SignedLog.one(), None
    matching = reference_matching(g, ext)
    if matching is None:
        return SignedLog.zero(), None
    o = orient(ext, parent)
    bad = face_parity_violations(o)
    if bad:
        raise OrientationError(f"bounded faces {bad} have an even clockwise count")
    return matching_sum(tutte_matrix(o), [o.orientation[k] for k in matching]), o


def z_empty(g: ForneyGraph, res: BPResult) -> SignedLog:
    """The 2-regular loop correction: 1 plus the sum over even-degree loops.

    Multiply exp of its log against Z^BP to get the corrected estimate. An
    empty core (tree after absorption) gives exactly 1.
    """
    return _matching_correction(g, fisher_extend(g, res))[0]


def triplet_nodes(g: ForneyGraph) -> tuple:
    return tuple(sorted(a for a in g.nodes if g.degree(a) == 3))


def pfaffian_series(
    g: ForneyGraph,
    res: BPResult,
    max_psi_size: int | None = None,
    budget: int | None = None,
) -> PfaffianSeriesResult:
    """Evaluate removal-set terms in size order, lexicographic inside a size.

    max_psi_size caps the removal-set cardinality, budget caps the number of
    evaluated terms; either cut marks the result incomplete. The empty set
    is always first, so terms[0] is the 2-regular correction.
    """
    if g.num_nodes and not g.is_reduced:
        raise ModelError("pfaffian_series needs a reduced graph")
    trips = triplet_nodes(g)
    limit = len(trips) if max_psi_size is None else min(max_psi_size, len(trips))
    weights = gadget_weights(g, res, g.nodes)
    removed_weight = {
        a: SignedLog.from_float(mu_term(res, a, res.neighbor_order[a]))
        for a in (trips if limit >= 2 else ())
    }
    terms = []
    total = SignedLog.zero()
    complete = True
    parent = None
    for size in range(0, limit + 1, 2):
        for psi in itertools.combinations(trips, size):
            if budget is not None and len(terms) >= budget:
                complete = False
                break
            zp, o = _matching_correction(g, fisher_extend(g, res, psi, weights), parent)
            parent = parent or o  # the empty set's embedding serves every later term
            factor = SignedLog.one()
            for a in psi:
                factor = factor * removed_weight[a]
            term = PfaffianTerm(psi, zp, factor)
            terms.append(term)
            total = total + term.contribution
        if not complete:
            break
    if limit < len(trips) - (1 if len(trips) % 2 else 0):
        complete = False
    return PfaffianSeriesResult(tuple(terms), total, complete)


def _loop_scan(g: ForneyGraph, res: BPResult, regular_only: bool):
    """Yield (mask, weight, triplet tuple) for every generalized loop."""
    if any(g.degree(a) > 3 for a in g.nodes):
        raise ModelError("loop enumeration needs degrees at most 3")
    E = g.num_edges
    if E > MAX_LOOP_EDGES:
        raise ModelError(f"loop enumeration capped at {MAX_LOOP_EDGES} edges, got {E}")
    edge_bit = {e: i for i, e in enumerate(g.edges)}
    node_bits = []  # (node, bit positions in neighbor order, value table, inc mask)
    for a in g.nodes:
        nbrs = g.neighbors[a]
        bits = [edge_bit[canon_edge(a, b)] for b in nbrs]
        vals = np.zeros(1 << len(bits))
        vals[0] = 1.0
        for i, j in itertools.combinations(range(len(bits)), 2):
            vals[(1 << i) | (1 << j)] = mu_term(res, a, (nbrs[i], nbrs[j]))
        if len(bits) == 3 and not regular_only:
            vals[7] = mu_term(res, a, nbrs)
        inc = 0
        for p in bits:
            inc |= 1 << p
        node_bits.append((a, bits, vals, inc))

    chunk = min(E, _CHUNK_BITS)
    low = np.arange(1 << chunk, dtype=np.uint32)
    for base in range(0, 1 << E, 1 << chunk):
        masks = low | np.uint32(base)
        valid = np.ones(masks.shape, dtype=bool)
        weight = np.ones(masks.shape)
        deg3 = []
        for a, bits, vals, inc in node_bits:
            cnt = np.bitwise_count(masks & np.uint32(inc))
            valid &= cnt != 1
            if len(bits) == 3:
                if regular_only:
                    valid &= cnt != 3
                else:
                    deg3.append((a, cnt))
            li = np.zeros(masks.shape, dtype=np.int64)
            for i, p in enumerate(bits):
                li |= ((masks >> np.uint32(p)) & np.uint32(1)).astype(np.int64) << i
            weight *= vals[li]
        valid[masks == 0] = False
        idxs = np.nonzero(valid)[0]
        trip_hits = [(a, cnt[idxs] == 3) for a, cnt in sorted(deg3)]
        for row, i in enumerate(idxs):
            mask = int(masks[i])
            trips = tuple(a for a, hits in trip_hits if hits[row])
            yield mask, float(weight[i]), trips


def enumerate_loops(g: ForneyGraph, res: BPResult, regular_only: bool = False) -> list:
    """All generalized loops by exhaustive edge-subset scan (<= 24 edges).

    With regular_only, keeps only loops where every induced degree is
    exactly 2. Weights multiply the loop weight of every covered node
    against its in-loop neighbor set.
    """
    out = []
    for mask, w, trips in _loop_scan(g, res, regular_only):
        edges = tuple(e for i, e in enumerate(g.edges) if (mask >> i) & 1)
        out.append(LoopTerm(edges, w, trips))
    return out


def loop_correction(g: ForneyGraph, res: BPResult, regular_only: bool = False):
    """(1 + sum of loop weights, loop count) without materializing terms."""
    total = 1.0
    count = 0
    for _, w, _ in _loop_scan(g, res, regular_only):
        total += w
        count += 1
    return total, count


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
