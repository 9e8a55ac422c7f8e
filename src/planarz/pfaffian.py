"""Signed log-space Pfaffians of dense skew-symmetric ndarrays.

Matrices are plain square arrays; pfaffian is the one place that checks
them (finite and exactly skew) and the one place that copies them. The
Pfaffian is computed by skew-symmetric tridiagonalization with partial
pivoting (congruence transforms of determinant one, row/column swaps tracked
in the sign), so only pivot magnitudes are multiplied and everything stays
in log space.
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
    """
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


def tutte_matrix(o: OrientedPlanarGraph) -> np.ndarray:
    """Skew weighted adjacency of the oriented extended graph: A[t, h] = w and
    A[h, t] = -w for each edge directed t -> h; dummy edges weigh 0.

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
