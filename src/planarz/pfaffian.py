"""Signed log-space Pfaffians of skew-symmetric matrices, dense or sparse.

A matrix is a plain square array or a SparseSkew, its nonzero entries below
the diagonal; tutte_entries reads one from an oriented graph and
tutte_matrix spreads it into a dense array. pfaffian is the one place that
checks a matrix (finite, and for an array square and exactly skew). The
Pfaffian is computed by Parlett-Reid skew-symmetric tridiagonalization
with partial pivoting (congruence transforms of determinant one, row/column
swaps tracked in the sign), so only pivot magnitudes are multiplied and
everything stays in log space.

Each pivot step is one eager rank-2 update, confined to the step's active
window: the rows and columns from the step's own up to the last nonzero
column of any pivot row so far. Everything outside the window is an exact
zero or an untouched entry of the input, so the pivots match the full
eager elimination bit for bit. A banded matrix, such as a Kasteleyn matrix
in fisher_extend's breadth-first port order, keeps the window about as
wide as its band.

The elimination runs on a front (Irons 1970): a dense square buffer over
the rows and columns from some offset on, holding the window and the rows
loaded ahead of it. An array is copied into a front that holds all of it.
A SparseSkew starts from a small empty front and loads its entries a block
of rows at a time, moving the front down past finished rows, and doubling
it, when a window outgrows it; its Pfaffian takes memory in proportion to
the window, not to n^2.

minor_pfaffian is the one source of a principal minor's Pfaffian, some
of its entries negated. Given the full matrix's Pfaffian and inverse
(skew_inverse), it is bordered_pfaffian's: one small Pfaffian over a
border of the removed indices and the negated entries. Without the
inverse, or where that border cancels, it is the dense minor's, and with
nothing removed the full matrix's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .planar import OrientedPlanarGraph
from .slog import SignedLog

PIVOT_THRESHOLD = 1e-12
# A border Pfaffian below this fraction of its Hadamard bound has lost its
# digits to cancellation in Z + G[T, T], and bordered_pfaffian declines it.
# Calibrated against the dense minors of 4x4 beta 1 theta 1 grids (|psi| <=
# 4) and spiderweb(2, 3), (3, 6) and (1, 4) series: the worst term, at 3e-9
# of its bound, was off by 2.7e-9 in log; on those models, above 1e-6 of
# its bound no term was off by more than 2e-11. That is no accuracy
# guarantee for accepted terms elsewhere: on the 8x8 beta 1 theta 1 seed 0
# series with |psi| <= 2, term 4363, psi = (delta_x5_7_s0, delta_x6_6_s1),
# passes this test yet is off by 3.8e-7 in log against
# tests/oracles.dense_minor_term. It is e^-32.3 of z_total, so the total
# does not see it; ROADMAP item 3 replaces this per-term test with an error
# budget on the total
HADAMARD_FRACTION = 1e-6
# least side of a SparseSkew's front: it holds an 8x8 grid's windows
# (under 64 wide) and the rows ahead of them, and a 32x32 grid's (up to 198
# wide) after one or two doublings. Its size does not move the time
FRONT = 128


class OrientationError(RuntimeError):
    """An orientation is not Kasteleyn: some bounded face has an even
    clockwise count, so perfect matchings would not share one sign."""


@dataclass(frozen=True)
class SparseSkew:
    """An n x n skew-symmetric matrix by its nonzero entries below the
    diagonal: A[rows[i], cols[i]] = vals[i] = -A[cols[i], rows[i]], with
    cols[i] < rows[i] and rows ascending. shape is (n, n), as an array's."""

    shape: tuple
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def pfaffian(a) -> SignedLog:
    """Signed log-magnitude Pfaffian of a SparseSkew or of a square, finite,
    skew-symmetric array.

    The input is left unchanged: elimination runs on a front of float
    copies. Odd dimension gives exactly zero. A best pivot below
    PIVOT_THRESHOLD * max(1, |A|_max) declares the matrix singular.

    Step k works on the window [k, hi), where hi only grows: past the last
    nonzero column of rows k and k + 1 (tracked through each pivot swap),
    and past k + 1. The Pfaffian is the product of the pivots, each negated
    when its step swapped rows. The front m holds rows and columns
    [off, top) of the working matrix; a window past top takes a new front.
    """
    if isinstance(a, SparseSkew):
        n = a.shape[0]
        if not np.isfinite(a.vals).all():
            raise ValueError("entries must be finite")
        big = float(np.abs(a.vals).max(initial=0.0))
        last = np.full(n, -1, dtype=np.intp)
        np.maximum.at(last, a.rows, a.cols)
        np.maximum.at(last, a.cols, a.rows)
        zero = last < 0  # an all-zero row, which stays zero
        last[zero] = np.flatnonzero(zero)
        m, top = np.zeros((0, 0)), 0
    else:
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"need a square matrix, got shape {a.shape}")
        n = a.shape[0]
        if n == 0:
            return SignedLog.one()
        lo, big = float(a.min()), float(a.max())  # NaN if any entry is
        if not (math.isfinite(lo) and math.isfinite(big)):
            raise ValueError("entries must be finite")
        # the copy is -a^T, equal to a exactly when a is skew: no other
        # dense float array is needed to check it
        m, top = np.negative(a.T, order="C"), n
        if not np.array_equal(m, a):
            raise ValueError("matrix is not skew-symmetric")
        big = max(big, -lo)
        # last nonzero column per row; its own index for an all-zero row
        nz = m[:, ::-1] != 0
        last = np.where(nz.any(axis=1), n - 1 - nz.argmax(axis=1), np.arange(n))
    if n % 2 == 1:
        return SignedLog.zero()

    tol = PIVOT_THRESHOLD * max(1.0, big)  # |A|_max
    last = last.tolist()
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


def tutte_entries(o: OrientedPlanarGraph) -> SparseSkew:
    """The Tutte matrix of the oriented extended graph as a SparseSkew:
    A[t, h] = w and A[h, t] = -w for each edge directed t -> h.

    Parallel edges would share one entry, so they are rejected; a loop
    edge of nonzero weight would sit on the diagonal, which is not skew.
    Zero weights are dropped.
    """
    edges = o.ext.edges
    if len({e.key() for e in edges}) != len(edges):
        raise ValueError("parallel edges: each port pair may carry one edge")
    tail, head = np.array([o.orientation[e.key()] for e in edges], dtype=np.intp).reshape(-1, 2).T
    w = np.array([e.weight for e in edges], dtype=float)
    nz = w != 0
    tail, head, w = tail[nz], head[nz], w[nz]
    if (tail == head).any():
        raise ValueError("matrix is not skew-symmetric")
    rows, cols, vals = np.maximum(tail, head), np.minimum(tail, head), np.where(tail > head, w, -w)
    order = np.argsort(rows, kind="stable")
    n = o.ext.num_vertices
    return SparseSkew((n, n), rows[order], cols[order], vals[order])


def tutte_matrix(o: OrientedPlanarGraph) -> np.ndarray:
    """tutte_entries(o) as a dense n x n array, for the series' K^-1 and
    its dense minors; Pf(K) alone needs only the entries."""
    s = tutte_entries(o)
    a = np.zeros(s.shape)
    a[s.rows, s.cols] = s.vals
    a[s.cols, s.rows] = -s.vals
    return a


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


def bordered_pfaffian(a, pf: SignedLog, inverse, removed, flip):
    """Pf of a's principal minor without the sorted indices removed, with
    the entries at each (u, v) in flip negated; the ends of flip are kept
    and a[u, v] is nonzero. pf is Pf(a) and inverse is skew_inverse(a).

    Border a with one unit column per removed index r, whose border vertex
    can only match r, and with two border vertices per flipped edge, joined
    to u and v by unit entries and to each other by z = 1 / (2 a[u, v]).
    Eliminating the border first gives the minor times z's product, with
    the sign of moving each (r, border) pair to the front; eliminating a
    first gives Pf(a) Pf(S), S = Z + G[T, T] with G = a^-1 and T the
    border's anchors (Wimmer 2012, arXiv:1102.3440). So only S takes a
    Pfaffian. None when there is a border but no inverse, or when Pf(S) is
    below HADAMARD_FRACTION of its Hadamard bound.
    """
    m = len(removed)
    if not m and not flip:
        return pf
    if inverse is None:
        return None
    t = np.array([*removed, *(x for e in flip for x in e)], dtype=np.intp)
    s = inverse.take(t, 0).take(t, 1)
    scale = []  # 1 / z per flipped edge
    for p in range(m, len(t), 2):
        scale.append(2.0 * a[t[p], t[p + 1]])
        s[p, p + 1] += 1.0 / scale[-1]
        s[p + 1, p] = -s[p, p + 1]
    pf_s = pfaffian(s)
    if pf_s.sign == 0:
        return None
    bound = 0.5 * float(np.log(np.linalg.norm(s, axis=1)).sum())
    if pf_s.log_magnitude < math.log(HADAMARD_FRACTION) + bound:
        return None
    n = a.shape[0]
    # kept indices above each removed one, r the i-th smallest
    crossings = sum(n - m - r + i for i, r in enumerate(removed))
    negative = m * (m - 1) // 2 + crossings + sum(x < 0 for x in scale)
    sign = pf.sign * pf_s.sign * (-1) ** negative
    return SignedLog(sign, pf.log_magnitude + pf_s.log_magnitude + sum(math.log(abs(x)) for x in scale))


def minor_pfaffian(a, removed, flip, base=None):
    """(Pf of a's principal minor without the sorted indices removed, with
    the entries at each (u, v) in flip negated, whether it took the dense
    minor); the ends of flip are kept and a[u, v] is nonzero.

    With base = (Pf(a), skew_inverse(a) or None) it is bordered_pfaffian's
    minor unless that declines; otherwise it is the dense flipped minor,
    which is a itself when nothing is removed or negated. Only then may a
    be a SparseSkew; any other minor takes a dense a.
    """
    if base is not None:
        pf = bordered_pfaffian(a, *base, removed, flip)
        if pf is not None:
            return pf, False
    if not len(removed) and not flip:
        return pfaffian(a), True
    keep = np.ones(a.shape[0], dtype=bool)
    keep[removed] = False
    at = np.cumsum(keep) - 1  # index of each kept row in the minor
    minor = a[np.ix_(keep, keep)]
    for u, v in flip:
        minor[[at[u], at[v]], [at[v], at[u]]] *= -1
    return pfaffian(minor), True
