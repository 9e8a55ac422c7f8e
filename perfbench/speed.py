"""Machine-speed probe: scales solve and set-up times to a reference speed.

On a shared host the speed of one core drifts by a factor of up to two
over seconds to minutes, while wall time equals CPU time, so the drift is
contention for the core and its caches, not descheduling. A fixed probe,
run between measurements, slows down and speeds up with it. Each measured
time is divided by the machine's slowdown: the mean of the probe readings
just before and just after the measurement, relative to the reference
readings. The result is the time the work would have taken at the speed at
which the probe reads ``REFERENCE_INTERPRETER_S`` and ``REFERENCE_ARRAY_S``.

The probe is the benchmark's own code and calls nothing in the package, so
a change to the package moves the measured times and leaves the probe alone.
It has a part for each of the two kinds of work the solver does, because the
drift hits them differently (the interpreter part swings by up to 1.9x, the
array part by up to 1.4x): a Python loop of tiny numpy operations, like a
belief-propagation message update, and rank-2 updates of a dense
skew-symmetric block, like the Pfaffian elimination. Each workload weighs
the two parts by how its own work behaves.
"""

from __future__ import annotations

import time

import numpy as np

# seconds each part of the probe takes at the reference speed; about their
# medians on the machine described in README.md
REFERENCE_INTERPRETER_S = 0.005
REFERENCE_ARRAY_S = 0.004
REPEATS = 3  # a probe reading is the best of this many runs of each part

_LOOP_STEPS = 500
_BLOCK = 128


def _interpreter_work() -> float:
    table = np.arange(8.0).reshape(2, 2, 2) + 1.0
    msgs = [np.array([0.5 + 0.01 * i, 0.5]) for i in range(16)]
    acc = 0.0
    for step in range(_LOOP_STEPS):
        m = table * msgs[step & 15].reshape(2, 1, 1)
        out = m.sum(axis=(0, 1))
        acc += float(out[1] / out.sum())
    return acc


def _array_work() -> float:
    idx = np.arange(_BLOCK, dtype=float)
    a = np.subtract.outer(idx, idx) * 1e-3
    for k in range(0, _BLOCK - 2, 2):
        tau = a[k, k + 2 :] / (1.0 + abs(a[k, k + 1]))
        row = a[k + 1, k + 2 :]
        a[k + 2 :, k + 2 :] += np.outer(row, tau) - np.outer(tau, row)
    return float(a[-1, -2])


def _best(work) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t0)
    return best


def probe() -> tuple[float, float]:
    """Seconds the interpreter and array parts of the probe take now."""
    return _best(_interpreter_work), _best(_array_work)


def slowdown(reading: tuple[float, float], array_share: float) -> float:
    """How much slower than the reference speed the machine ran.

    The slowdowns of the two parts are weighed by array_share, the share of
    the measured work that behaves like the array part.
    """
    interp_s, array_s = reading
    return (1.0 - array_share) * interp_s / REFERENCE_INTERPRETER_S + array_share * array_s / REFERENCE_ARRAY_S


def scaled(seconds: float, before, after, array_share: float) -> float:
    """Seconds at the reference speed, given the probe readings around a
    measurement."""
    return seconds * 2.0 / (slowdown(before, array_share) + slowdown(after, array_share))
