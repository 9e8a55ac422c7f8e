"""Signed log-space Pfaffians of dense skew-symmetric ndarrays.

Matrices are plain square arrays; pfaffian is the one place that checks
them (finite and exactly skew) and the one place that copies them. The
Pfaffian is computed by Parlett-Reid skew-symmetric tridiagonalization
with partial pivoting (congruence transforms of determinant one, row/column
swaps tracked in the sign), so only pivot magnitudes are multiplied and
everything stays in log space.

Each pivot step is one eager rank-2 update, confined to the step's active
window: the rows and columns from the step's own up to the last nonzero
column of any pivot row so far. Everything outside the window is an exact
zero that the update would leave unchanged, so the pivots match the full
eager elimination bit for bit. A banded matrix, such as a Kasteleyn matrix
in fisher_extend's breadth-first port order, keeps the window about as
wide as its band.
"""

from __future__ import annotations

import math

import numpy as np

from .planar import OrientedPlanarGraph
from .slog import SignedLog

PIVOT_THRESHOLD = 1e-12


class OrientationError(RuntimeError):
    """An orientation is not Kasteleyn: some bounded face has an even
    clockwise count, so perfect matchings would not share one sign."""


def pfaffian(a) -> SignedLog:
    """Signed log-magnitude Pfaffian of a square, finite, skew-symmetric array.

    The input is left unchanged: elimination runs on a float copy. Odd
    dimension gives exactly zero. A best pivot below
    PIVOT_THRESHOLD * max(1, |A|_max) declares the matrix singular.

    Step k works on the window [k, hi), where hi only grows: past the last
    nonzero column of rows k and k + 1 (tracked through each pivot swap),
    and past k + 1. The Pfaffian is the product of the pivots, each negated
    when its step swapped rows.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return SignedLog.one()
    lo, top = float(a.min()), float(a.max())  # NaN if any entry is
    if not (math.isfinite(lo) and math.isfinite(top)):
        raise ValueError("entries must be finite")
    # the copy is -a^T, equal to a exactly when a is skew: no other dense
    # float array is needed to check it
    m = np.negative(a.T, order="C")
    if not np.array_equal(m, a):
        raise ValueError("matrix is not skew-symmetric")
    if n % 2 == 1:
        return SignedLog.zero()

    tol = PIVOT_THRESHOLD * max(1.0, top, -lo)  # |A|_max
    # last nonzero column per row; n - 1 for an all-zero row, which stays zero
    last = (n - 1 - (m[:, ::-1] != 0).argmax(axis=1)).tolist()
    sign = 1
    log_mag = 0.0
    hi = 0
    for k in range(0, n - 1, 2):
        hi = max(hi, last[k] + 1, last[k + 1] + 1, k + 2)
        col = np.abs(m[k + 1 : hi, k])
        kp = k + 1 + int(col.argmax())
        if col[kp - k - 1] < tol:
            return SignedLog.zero()
        if kp != k + 1:
            # the window must take in row kp's nonzeros before the swap
            last[k + 1], last[kp] = last[kp], last[k + 1]
            hi = max(hi, last[k + 1] + 1)
            m[[k + 1, kp], k:hi] = m[[kp, k + 1], k:hi]
            m[k:hi, [k + 1, kp]] = m[k:hi, [kp, k + 1]]
            sign = -sign
        piv = m[k, k + 1]
        sign = -sign if piv < 0 else sign
        log_mag += math.log(abs(piv))
        if k + 2 < hi:
            tau = m[k, k + 2 : hi] / piv
            t = np.outer(m[k + 1, k + 2 : hi], tau)
            m[k + 2 : hi, k + 2 : hi] += t - t.T
    return SignedLog(sign, log_mag)


def tutte_matrix(o: OrientedPlanarGraph) -> np.ndarray:
    """Skew weighted adjacency of the oriented extended graph: A[t, h] = w and
    A[h, t] = -w for each edge directed t -> h.

    Parallel edges would share one entry, so they are rejected.
    """
    edges = o.ext.edges
    if len({e.key() for e in edges}) != len(edges):
        raise ValueError("parallel edges: each port pair may carry one edge")
    tail, head = np.array([o.orientation[e.key()] for e in edges]).T
    w = np.array([e.weight for e in edges])
    a = np.zeros((o.ext.num_vertices,) * 2)
    a[np.r_[tail, head], np.r_[head, tail]] = np.r_[w, -w]
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


def matching_sum(a, pairs) -> SignedLog:
    """Weighted perfect-matching sum of a Kasteleyn-oriented skew array.

    Every perfect matching then carries the same sign in Pf(a), so the sum
    is Pf(a) times the sign of any one of them: pairs, written (tail, head)
    as indices of a; a itself is not modified.
    """
    pf = pfaffian(a)
    return SignedLog(matching_sign(pairs) * pf.sign, pf.log_magnitude)
