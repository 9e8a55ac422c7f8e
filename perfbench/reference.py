"""Reference log Z values owned by the benchmark.

Both references read only the factor graph's data (variable order, factor
scopes and tables) and use numpy alone, so they stay independent of the
package's own exact oracles.
"""

from __future__ import annotations

import numpy as np

MAX_FRONTIER = 20
MAX_BRUTE_FORCE = 20


def _log_table(table, k: int) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(table, dtype=float)).reshape((2,) * k)


def transfer_log_z(fg) -> float:
    """log Z by sweeping the variables in their listed order.

    Each variable enters a frontier of live variables; every factor is added
    once its last variable has entered, and a variable is summed out once no
    pending factor touches it. For the row-major variables of
    ``grid_factor_graph`` this is the row transfer matrix, with a frontier of
    at most n + 1 spins. Raises ValueError if the frontier outgrows
    MAX_FRONTIER.
    """
    order = {v: i for i, v in enumerate(fg.variables)}
    by_last = {v: [] for v in fg.variables}
    pending = {v: 0 for v in fg.variables}
    for f in fg.factors:
        by_last[max(f.scope, key=order.__getitem__)].append(f)
        for v in f.scope:
            pending[v] += 1

    cells: list = []
    logv = np.zeros(())
    for v in fg.variables:
        cells.append(v)
        logv = np.broadcast_to(logv[..., None], logv.shape + (2,)).copy()
        if len(cells) > MAX_FRONTIER:
            raise ValueError(f"frontier exceeds {MAX_FRONTIER} variables")
        for f in by_last[v]:
            axes = [cells.index(u) for u in f.scope]
            perm = np.argsort(axes)
            shape = [1] * len(cells)
            for a in axes:
                shape[a] = 2
            logv = logv + _log_table(f.table, len(f.scope)).transpose(perm).reshape(shape)
            for u in f.scope:
                pending[u] -= 1
        for u in [u for u in cells if pending[u] == 0]:
            logv = np.logaddexp.reduce(logv, axis=cells.index(u))
            cells.remove(u)
    return _log_sum_exp(logv)


def brute_force_log_z(fg) -> float:
    """log Z by enumerating every joint assignment (at most 20 variables).

    Assignment index bit (n - 1 - i) holds variable i, +1 as 1, matching the
    package's first-most-significant table layout.
    """
    n = len(fg.variables)
    if n > MAX_BRUTE_FORCE:
        raise ValueError(f"brute force capped at {MAX_BRUTE_FORCE} variables, got {n}")
    pos = {v: i for i, v in enumerate(fg.variables)}
    states = np.arange(1 << n, dtype=np.int64)
    energy = np.zeros(states.shape)
    for f in fg.factors:
        idx = np.zeros(states.shape, dtype=np.int64)
        for v in f.scope:
            idx = (idx << 1) | ((states >> (n - 1 - pos[v])) & 1)
        energy += _log_table(f.table, len(f.scope)).reshape(-1)[idx]
    return _log_sum_exp(energy)


def _log_sum_exp(x: np.ndarray) -> float:
    top = float(np.max(x))
    return top + float(np.log(np.sum(np.exp(x - top))))
