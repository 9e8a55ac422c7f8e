"""Signed log-space Pfaffians of skew-symmetric matrices.

There are two kernels, chosen by their input. pfaffian takes one large
banded matrix as a SparseSkew: its nonzero entries below the diagonal,
in row-major order. TuttePattern.entries reads one from a weight array:
a TuttePattern holds the entries' places and signs and, per entry, the
weights whose product it is; an oriented graph's (tutte_pattern) has one
weight per entry, its sign fixed by the orientation. SparseSkew.dense
spreads one into the array that skew_inverse takes. stacked_pfaffians
takes many small dense skew arrays at once, as one (B, d, d) stack.
pfaffian is the one place that checks a SparseSkew. It runs Parlett-Reid
skew-symmetric tridiagonalization with partial pivoting (congruence
transforms of determinant one, swaps tracked in the sign), so only pivot
magnitudes are multiplied and everything stays in log space.

Each pivot step is one eager rank-2 update, confined to the step's active
window: the rows and columns from the step's own up to the last nonzero
column of any pivot row so far. Everything outside it is an exact zero or
an untouched entry, so the pivots match the full eager elimination bit
for bit. A banded matrix, such as a Kasteleyn matrix in fisher_extend's
breadth-first port order, keeps the window about as wide as its band.

The elimination runs on a front (Irons 1970): a dense square buffer over
the rows and columns from some offset on, holding the window and the rows
loaded ahead of it a block at a time. It moves down past finished rows,
and doubles, when a window outgrows it, so its memory follows the window,
not n^2.

stacked_pfaffians runs the same eager elimination on every member of a
stack at once: each step's pivot searches, swaps and rank-2 updates are
one numpy call each for the whole stack, so a small matrix no longer
pays a whole call's fixed cost.

A principal minor's Pfaffian, some of its entries negated, comes one of
two ways. bordered_pfaffians takes the minors of many removal sets from
the full matrix's Pfaffian and inverse, each a small Pfaffian over its
border, all in one stack. minor_pfaffian takes one full minor, built
from the entries in O(E), on the windowed kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .planar import OrientedPlanarGraph
from .slog import SignedLog

PIVOT_THRESHOLD = 1e-12
# A border Pfaffian below this fraction of its Hadamard bound has lost its
# digits to cancellation in Z + G[T, T], and bordered_pfaffians declines it.
# Calibrated against the full minors of 4x4 beta 1 theta 1 grids (|psi| <=
# 4) and spiderweb(2, 3), (3, 6) and (1, 4) series: the worst term, at 2e-9
# of its bound, was off by 2.7e-9 in log; on those models, above 1e-6 of
# its bound no term was off by more than 2e-11. That is no accuracy
# guarantee for accepted terms elsewhere: on the 8x8 beta 1 theta 1 seed 0
# series with |psi| <= 2, term 4264, psi = (delta_x5_5_s0, delta_x5_7_s0),
# passes this test yet is off by 1.8e-7 in log against
# tests/oracles.dense_minor_term. It is e^-27.0 of z_total, so the total
# does not see it (no accepted term there is off by more than 1.4e-17 of
# z_total); ROADMAP item 2 replaces this per-term test with an error
# budget on the total
HADAMARD_FRACTION = 1e-6
# least side of a SparseSkew's front: it holds the windows of an 8x8
# grid's contracted K (15 wide on average, 29 at most) and the rows ahead
# of them, and a 32x32 grid's (55 to 59 on average, up to 112) after a
# doubling. Its size does not move the time
FRONT = 128


class OrientationError(RuntimeError):
    """An orientation is not Kasteleyn: some bounded face has an even
    clockwise count, so perfect matchings would not share one sign."""


@dataclass(frozen=True)
class SparseSkew:
    """An n x n skew-symmetric matrix by its nonzero entries below the
    diagonal: A[rows[i], cols[i]] = vals[i] = -A[cols[i], rows[i]], with
    cols[i] < rows[i] and the keys rows * n + cols strictly increasing.
    shape is (n, n), as an array's."""

    shape: tuple
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def dense(self) -> np.ndarray:
        """The n x n array, for the series' K^-1."""
        a = np.zeros(self.shape)
        a[self.rows, self.cols] = self.vals
        a[self.cols, self.rows] = -self.vals
        return a


def pfaffian(a: SparseSkew) -> SignedLog:
    """Signed log-magnitude Pfaffian of a SparseSkew.

    The input is left unchanged: elimination runs on a front of float
    copies. Odd dimension gives exactly zero. A best pivot below
    PIVOT_THRESHOLD * max(1, |A|_max) declares the matrix singular.

    Step k works on the window [k, hi), where hi only grows: past the last
    nonzero column of rows k and k + 1 (tracked through each pivot swap),
    and past k + 1. The Pfaffian is the product of the pivots, each negated
    when its step swapped rows. The front m holds rows and columns
    [off, top) of the working matrix; a window past top takes a new front.
    """
    if len(a.shape) != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    n, rows, cols, vals = a.shape[0], a.rows, a.cols, a.vals
    if not len(rows) == len(cols) == len(vals):
        raise ValueError("rows, cols and vals differ in length")
    key = rows * n + cols
    if (key[1:] <= key[:-1]).any():
        raise ValueError("entries are not in strictly increasing row-major order")
    # with the keys increasing, every row is below n when the last one is
    if len(key) and not (cols.min() >= 0 and (cols < rows).all() and rows[-1] < n):
        raise ValueError("an entry lies outside 0 <= col < row < n")
    big = float(np.abs(vals).max(initial=0.0))  # |A|_max, NaN if any entry is
    if not math.isfinite(big):
        raise ValueError("entries must be finite")
    if n % 2 == 1:
        return SignedLog.zero()

    tol = PIVOT_THRESHOLD * max(1.0, big)
    # per row, its last nonzero column past the diagonal, or -1: those
    # before the diagonal lie inside any window that holds the row
    last = np.full(n, -1, dtype=np.intp)
    np.maximum.at(last, cols, rows)
    last = last.tolist()
    m, top = np.zeros((0, 0)), 0
    sign = 1
    log_mag = 0.0
    hi = off = 0
    for k in range(0, n - 1, 2):
        hi = max(hi, last[k] + 1, last[k + 1] + 1, k + 2)
        if hi > top:
            m, off, top = _refill(a, m, off, top, k, hi)
        j, h = k - off, hi - off
        col = np.abs(m[j + 1 : h, j])
        kp = k + 1 + int(col.argmax())
        if col[kp - k - 1] < tol:
            return SignedLog.zero()
        if kp != k + 1:
            # the window must take in row kp's nonzeros before the swap
            last[k + 1], last[kp] = last[kp], last[k + 1]
            hi = max(hi, last[k + 1] + 1)
            if hi > top:
                m, off, top = _refill(a, m, off, top, k, hi)
            j, h, q = k - off, hi - off, kp - off
            row = m[j + 1, j:h].copy()
            m[j + 1, j:h] = m[q, j:h]
            m[q, j:h] = row
            col = m[j:h, j + 1].copy()
            m[j:h, j + 1] = m[j:h, q]
            m[j:h, q] = col
            sign = -sign
        piv = m[j, j + 1]
        sign = -sign if piv < 0 else sign
        log_mag += math.log(abs(piv))
        if j + 2 < h:
            tau = m[j, j + 2 : h] / piv
            t = m[j + 1, j + 2 : h, None] * tau
            m[j + 2 : h, j + 2 : h] += t - t.T
    return SignedLog(sign, log_mag)


def _refill(a: SparseSkew, m, off, top, k, hi):
    """(m, off, top) for a new front from step k on that holds the window
    [k, hi), with its rows and columns from off on loaded.

    The old front's live rows, k to top, move to its corner; it is at least
    FRONT wide, and twice as wide as the window. The rows from top to its
    end are loaded from a, their entries mirrored above the diagonal. A
    loaded row r, still past every window, holds a's own entries: its
    columns below top are those of untouched rows or exact zeros, since
    every pivot row and every swapped row has its last nonzero inside a
    window, below r.
    """
    size = max(len(m), FRONT)
    while size < 2 * (hi - k):
        size *= 2
    front = np.zeros((min(size, a.shape[0] - k),) * 2)
    front[: top - k, : top - k] = m[k - off : top - off, k - off : top - off]
    end = k + len(front)
    lo, up = np.searchsorted(a.rows, (top, end))
    r, c = a.rows[lo:up] - k, a.cols[lo:up] - k
    front[r, c] = a.vals[lo:up]
    front[c, r] = -a.vals[lo:up]
    return front, k, end


@dataclass(frozen=True)
class TuttePattern:
    """Where a skew matrix's entries sit, apart from the weights they are
    made of: entry i, at (rows[i], cols[i]) below the diagonal in row-major
    order, is sign[i] times the product of the weights that row i of the
    (m, k) array edge indexes, multiplied left to right.

    An oriented graph's Tutte matrix (tutte_pattern) has k = 1: sign is +1
    where entry i's edge points from the larger port to the smaller, and
    edge[i, 0] is where that edge's weight sits in the weight array, its
    ExtendedGraph.source. The series' contraction of small tree clusters
    out of it (series._contract) has k up to series.CLUSTER, each entry
    the gadget weights along a tree path, padded with the index of the
    weight array's 1.0."""

    shape: tuple
    rows: np.ndarray
    cols: np.ndarray
    sign: np.ndarray
    edge: np.ndarray

    def entries(self, weights: np.ndarray) -> SparseSkew:
        """The matrix for the weights that edge indexes, as a SparseSkew:
        zero products are dropped, and a loop edge of nonzero weight would
        sit on the diagonal, which is not skew."""
        w = weights[self.edge[:, 0]]
        for j in range(1, self.edge.shape[1]):
            w = w * weights[self.edge[:, j]]
        nz = w != 0
        rows, cols = self.rows[nz], self.cols[nz]
        if (rows == cols).any():
            raise ValueError("matrix is not skew-symmetric")
        return SparseSkew(self.shape, rows, cols, self.sign[nz] * w[nz])


def tutte_pattern(o: OrientedPlanarGraph) -> TuttePattern:
    """The TuttePattern of the oriented extended graph, read from its port
    pairs: A[t, h] = w and A[h, t] = -w for each edge directed t -> h, w
    its weight, at the edge's o.ext.source in the weight array. Parallel
    edges would share one entry, so they are rejected."""
    edges = o.ext.edges
    if len(set(edges)) != len(edges):
        raise ValueError("parallel edges: each port pair may carry one edge")
    tail, head = np.array([o.orientation[e] for e in edges], dtype=np.intp).reshape(-1, 2).T
    rows, cols = np.maximum(tail, head), np.minimum(tail, head)
    n = o.ext.num_vertices
    order = np.argsort(rows * n + cols)
    sign = np.where(tail > head, 1.0, -1.0)
    source = np.array(o.ext.source, dtype=np.intp)
    return TuttePattern((n, n), rows[order], cols[order], sign[order], source[order, None])


def matching_sign(pairs) -> int:
    """Sign of one perfect matching's term in the Pfaffian expansion.

    pairs are (tail, head) with the matched entry at [tail, head]; the sign
    is that of the permutation t1 h1 t2 h2 ... of the vertices.
    """
    perm = [v for pair in pairs for v in pair]
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("pairs do not cover every vertex exactly once")
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length and length % 2 == 0:  # an even cycle is an odd permutation
            sign = -sign
    return sign


def skew_inverse(a):
    """a^-1 made exactly skew as (G - G^T) / 2, or None when a is singular
    or its inverse is not finite."""
    try:
        g = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None
    return (g - g.T) * 0.5 if np.isfinite(g).all() else None


def stacked_pfaffians(m: np.ndarray) -> list:
    """Signed log-magnitude Pfaffians of a (B, d, d) stack of dense skew
    arrays, each bit for bit the eager Parlett-Reid elimination of its own
    array, pivot rule, threshold and all.

    The stack is eliminated in place, all members one step at a time: each
    step takes every member's pivot search, row and column swap and rank-2
    update of its trailing block in one numpy call. A member whose best
    pivot falls below PIVOT_THRESHOLD * max(1, its |A|_max) is an exact
    zero; its array becomes unit blocks [[0, 1], [-1, 0]], whose steps
    take pivot 1 and change nothing, so it never divides by its pivot.
    Each member's log magnitude is summed pivot by pivot in step order.
    """
    if not np.isfinite(m).all():
        raise ValueError("entries must be finite")
    b, d = m.shape[:2]
    if d % 2 == 1:
        return [SignedLog.zero()] * b
    tol = PIVOT_THRESHOLD * np.maximum(1.0, np.abs(m).max(axis=(1, 2), initial=0.0))
    unit = _unit_blocks(d)
    at = np.arange(b)
    dead = np.zeros(b, dtype=bool)
    swaps = np.zeros(b, dtype=np.intp)
    pivots = np.empty((b, d // 2))
    for k in range(0, d - 1, 2):
        col = np.abs(m[:, k + 1 :, k])
        kp = col.argmax(axis=1)
        low = col[at, kp] < tol
        if low.any():
            dead |= low
            m[low] = unit
            kp[low] = 0
        kp += k + 1
        if (kp != k + 1).any():  # swap rows, then columns, k + 1 and kp
            swaps += kp != k + 1
            r = m[at, k + 1, k:].copy()
            m[at, k + 1, k:] = m[at, kp, k:]
            m[at, kp, k:] = r
            c = m[at, k:, k + 1].copy()
            m[at, k:, k + 1] = m[at, k:, kp]
            m[at, k:, kp] = c
        piv = pivots[:, k // 2] = m[:, k, k + 1]
        if k + 2 < d:
            tau = m[:, k, k + 2 :] / piv[:, None]
            t = m[:, k + 1, k + 2 :, None] * tau[:, None, :]
            m[:, k + 2 :, k + 2 :] += t - t.transpose(0, 2, 1)
    odd = swaps + (pivots < 0).sum(axis=1)
    out = []
    for steps, flips, zero in zip(pivots.tolist(), odd.tolist(), dead.tolist()):
        if zero:
            out.append(SignedLog.zero())
            continue
        log_mag = 0.0
        for piv in steps:
            log_mag += math.log(abs(piv))
        out.append(SignedLog(-1 if flips % 2 else 1, log_mag))
    return out


def _unit_blocks(d: int) -> np.ndarray:
    """The d x d skew array of unit blocks [[0, 1], [-1, 0]] down the
    diagonal, d even: its Pfaffian is 1."""
    a = np.zeros((d, d))
    ev = np.arange(0, d - 1, 2)
    a[ev, ev + 1], a[ev + 1, ev] = 1.0, -1.0
    return a


def bordered_pfaffians(pf: SignedLog, inverse, anchors, removed, lengths, flip) -> list:
    """Per row of anchors, Pf of a matrix A's principal minor without some
    sorted indices, with the entries of some edges (u, v), u < v, negated.
    The first lengths[b] entries of row b are its border anchors T: the
    removed[b] indices it removes, then u and v of each flipped edge in
    turn, both kept; flip[b, i] is A[u, v] != 0 at its i-th flipped edge.
    pf is Pf(A) and inverse is skew_inverse(A).

    Border A with one unit column per removed index r, whose border vertex
    can only match r, and with two border vertices per flipped edge, joined
    to u and v by unit entries and to each other by z = 1 / (2 A[u, v]).
    Eliminating the border first gives the minor times z's product, with
    the sign of moving each (r, border) pair to the front; eliminating A
    first gives Pf(A) Pf(S), S = Z + G[T, T] with G = A^-1 (Wimmer 2012,
    arXiv:1102.3440). So only S takes a Pfaffian: every S of the call is
    gathered from G at once, padded to the widest with unit blocks, which
    have Pfaffian 1 and exact zeros in S's rows and columns, and the stack
    takes one stacked_pfaffians call. An entry is None when there is no
    inverse, or when its Pf(S) is below HADAMARD_FRACTION of the Hadamard
    bound over S's own rows.
    """
    if inverse is None or not len(lengths):
        return [None] * len(lengths)
    width = int(lengths.max())
    t = anchors[:, :width]
    inside = np.arange(width) < lengths[:, None]
    stack = inverse[t[:, :, None], t[:, None, :]]
    np.copyto(stack, _unit_blocks(width), where=~(inside[:, :, None] & inside[:, None, :]))
    scale = 2.0 * flip  # 1 / z per flipped edge
    flips = (lengths - removed) // 2
    own = np.arange(flip.shape[1]) < flips[:, None]
    b, e = np.nonzero(own)
    p = removed[b] + 2 * e
    stack[b, p, p + 1] += 1.0 / scale[b, e]
    stack[b, p + 1, p] = -stack[b, p, p + 1]
    # log of each S's Hadamard bound, its rows' norms summed over its own
    # columns alone, as numpy sums them for S by itself; a zero row makes
    # it -inf, but also Pf(S) zero, and that is tested first
    hadamard = np.empty(len(lengths))
    for d in set(lengths.tolist()):
        at = np.flatnonzero(lengths == d)
        norm = np.linalg.norm(stack[at, :d, :d].reshape(len(at) * d, d), axis=1)
        with np.errstate(divide="ignore"):
            hadamard[at] = np.log(norm).reshape(len(at), d).sum(axis=1)
    n, m = len(inverse), removed[:, None]
    # kept indices above each removed one, r the i-th smallest
    i = np.arange(int(removed.max()))
    crossings = np.where(i < m, n - m - t[:, : len(i)] + i, 0).sum(axis=1)
    negative = removed * (removed - 1) // 2 + crossings + ((scale < 0) & own).sum(axis=1)
    out = []
    rows = zip(stacked_pfaffians(stack), hadamard.tolist(), negative.tolist(), scale.tolist(), flips.tolist())
    for pf_s, bound, odd, row, k in rows:
        if pf_s.sign == 0 or pf_s.log_magnitude < math.log(HADAMARD_FRACTION) + 0.5 * bound:
            out.append(None)
            continue
        sign = pf.sign * pf_s.sign * (-1) ** odd
        log_mag = pf.log_magnitude + pf_s.log_magnitude + sum(math.log(abs(x)) for x in row[:k])
        out.append(SignedLog(sign, log_mag))
    return out


def minor_pfaffian(a: SparseSkew, removed, flip) -> SignedLog:
    """Pf of a's principal minor without the sorted indices removed, with
    the entries at each (u, v) in flip negated; flip maps each such pair,
    its ends kept, to a[u, v] != 0. A pair that is not one of a's entries
    raises ValueError.

    The minor is built from a's entries in O(E): the flipped ones negated,
    the removed indices' dropped and the kept indices renumbered in order.
    """
    n = a.shape[0]
    key, want = a.rows * n + a.cols, [max(e) * n + min(e) for e in flip]
    hit = np.searchsorted(key, want)
    if any(i == len(key) or key[i] != w for i, w in zip(hit.tolist(), want)):
        raise ValueError("a flipped pair is not an entry of the matrix")
    vals = a.vals.copy()
    vals[hit] *= -1
    keep = np.ones(n, dtype=bool)
    keep[list(removed)] = False
    at = np.cumsum(keep) - 1  # index of each kept row in the minor
    live = keep[a.rows] & keep[a.cols]
    return pfaffian(SparseSkew((int(keep.sum()),) * 2, at[a.rows[live]], at[a.cols[live]], vals[live]))
