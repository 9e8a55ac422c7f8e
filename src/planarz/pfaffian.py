"""Signed log-space Pfaffians of dense skew-symmetric ndarrays.

Matrices are plain square arrays; pfaffian is the one place that checks
them (finite and exactly skew) and the one place that copies them. The
Pfaffian is computed by Parlett-Reid skew-symmetric tridiagonalization
with partial pivoting (congruence transforms of determinant one, row/column
swaps tracked in the sign), so only pivot magnitudes are multiplied and
everything stays in log space.

Each pivot step is a rank-2 update of the trailing matrix. Applied one at
a time those updates are memory-bound, so above CROSSOVER the elimination
is blocked (Wimmer 2012, arXiv:1102.3440): the updates of up to PANEL
steps are held as pending columns U, V, only the two rows a step needs
are formed from them, and one matrix product applies the whole panel.
Trailing blocks of dimension at most CROSSOVER take the eager step, where
the panel bookkeeping costs more than it saves; every matrix of that size
gets exactly the eager results.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .planar import OrientedPlanarGraph
from .slog import SignedLog

PIVOT_THRESHOLD = 1e-12
PANEL = 32  # pivot steps whose rank-2 updates one flush applies
# trailing dimension at or below which steps are eager (measured break-even
# 80-90 on a 2-core box); even, so the eager steps start on a pivot pair
CROSSOVER = 80


class OrientationError(RuntimeError):
    """An orientation is not Kasteleyn: some bounded face has an even
    clockwise count, so perfect matchings would not share one sign."""


def pfaffian(a) -> SignedLog:
    """Signed log-magnitude Pfaffian of a square, finite, skew-symmetric array.

    The input is left unchanged: elimination runs on a float copy. Odd
    dimension gives exactly zero. A best pivot below
    PIVOT_THRESHOLD * max(1, |A|_max) declares the matrix singular.

    Pivot steps run in panels of PANEL while the trailing dimension exceeds
    CROSSOVER, then eagerly; the Pfaffian is the product of the pivots,
    each negated when its step swapped rows.
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
    for piv in itertools.chain(_blocked_pivots(m, tol), _eager_pivots(m, tol)):
        if piv == 0.0:
            return SignedLog.zero()
        sign = -sign if piv < 0 else sign
        log_mag += math.log(abs(piv))
    return SignedLog(sign, log_mag)


def _blocked_pivots(m: np.ndarray, tol: float):
    """Signed pivots of the steps that leave a trailing block above CROSSOVER.

    The true trailing matrix is m + U V^T - V U^T, with U = z[:, :p] and
    V = z[:, PANEL:PANEL + p] holding the p pending updates; rows of m and
    z are swapped together. Yields 0.0 and stops on a pivot below tol. m
    ends holding the trailing block with every update applied.
    """
    n = m.shape[0]
    stop = n - CROSSOVER
    z = np.zeros((n, 2 * PANEL))
    p = 0
    for k in range(0, stop, 2):
        u, v = z[:, :p], z[:, PANEL : PANEL + p]
        row = m[k, k + 1 :] + v[k + 1 :] @ u[k] - u[k + 1 :] @ v[k]
        j = int(np.abs(row).argmax())
        if abs(row[j]) < tol:
            yield 0.0
            return
        flip = 1
        if j:
            kp = k + 1 + j
            m[[k + 1, kp], k + 1 :] = m[[kp, k + 1], k + 1 :]
            m[k + 1 :, [k + 1, kp]] = m[k + 1 :, [kp, k + 1]]
            z[[k + 1, kp]] = z[[kp, k + 1]]
            row[[0, j]] = row[[j, 0]]
            flip = -1
        piv = row[0]
        z[k + 2 :, p] = m[k + 1, k + 2 :] + v[k + 2 :] @ u[k + 1] - u[k + 2 :] @ v[k + 1]
        z[k + 2 :, PANEL + p] = row[1:] / piv
        p += 1
        if p == PANEL or k + 2 == stop:
            t = z[k + 2 :, :p] @ z[k + 2 :, PANEL : PANEL + p].T
            m[k + 2 :, k + 2 :] += t - t.T
            p = 0
        yield flip * piv


def _eager_pivots(m: np.ndarray, tol: float):
    """Signed pivots of the last trailing block, of dimension at most
    CROSSOVER, one rank-2 update per step; yields 0.0 and stops on a pivot
    below tol."""
    n = m.shape[0]
    for k in range(max(0, n - CROSSOVER), n - 1, 2):
        col = np.abs(m[k + 1 :, k])
        kp = k + 1 + int(col.argmax())
        if col[kp - k - 1] < tol:
            yield 0.0
            return
        flip = 1
        if kp != k + 1:
            m[[k + 1, kp], :] = m[[kp, k + 1], :]
            m[:, [k + 1, kp]] = m[:, [kp, k + 1]]
            flip = -1
        piv = m[k, k + 1]
        if k + 2 < n:
            tau = m[k, k + 2 :] / piv
            row = m[k + 1, k + 2 :]
            t = np.outer(row, tau)
            m[k + 2 :, k + 2 :] += t - t.T
        yield flip * piv


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
