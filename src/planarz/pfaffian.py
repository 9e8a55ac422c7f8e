"""Skew-symmetric matrices and signed log-space Pfaffians.

The Pfaffian is computed by skew-symmetric tridiagonalization with partial
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


class SkewMatrix:
    """Dense skew-symmetric matrix with exact antisymmetry enforced."""

    def __init__(self, data):
        a = np.array(data, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"need a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("entries must be finite")
        if np.any(np.diagonal(a) != 0.0) or not np.array_equal(a.T, -a):
            raise ValueError("matrix is not skew-symmetric")
        self.data = a

    @classmethod
    def from_edges(cls, n: int, entries) -> "SkewMatrix":
        """Build from (i, j, w) triples meaning A[i, j] = w, A[j, i] = -w."""
        a = np.zeros((n, n))
        seen = set()
        for i, j, w in entries:
            if i == j:
                raise ValueError(f"diagonal entry ({i}, {j})")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate entry for pair {key}")
            seen.add(key)
            a[i, j] = w
            a[j, i] = -w
        return cls(a)


def pfaffian(a) -> SignedLog:
    """Signed log-magnitude Pfaffian of a skew-symmetric matrix.

    Odd dimension gives exactly zero. A best pivot below
    PIVOT_THRESHOLD * max(1, |A|_max) declares the matrix singular.
    """
    if isinstance(a, SkewMatrix):
        a = a.data
    m = np.array(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"need a square matrix, got shape {m.shape}")
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
            m[k + 2 :, k + 2 :] += np.outer(row, tau) - np.outer(tau, row)
    return SignedLog(sign, log_mag)


def tutte_matrix(o: OrientedPlanarGraph) -> SkewMatrix:
    """Weighted adjacency of the oriented extended graph; dummy edges are 0."""
    return SkewMatrix.from_edges(
        o.ext.num_vertices, ((*o.orientation[e.key()], e.weight) for e in o.ext.edges)
    )


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


def matching_sum(a: SkewMatrix, pairs) -> SignedLog:
    """Weighted perfect-matching sum of a Kasteleyn-oriented matrix.

    Every perfect matching then carries the same sign in Pf(a), so the sum
    is Pf(a) times the sign of any one of them: pairs, written (tail, head).
    """
    pf = pfaffian(a)
    return SignedLog(matching_sign(pairs) * pf.sign, pf.log_magnitude)
