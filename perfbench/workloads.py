"""Benchmark workloads: instance pools, the timed loop and the traced run.

Every run draws its instances from its own seed, builds them through the
public generators, solves them one at a time with
``planarz.bench.solve_forney`` (a closed loop with one client) and checks
each estimate against a reference computed by the benchmark itself.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

import planarz
import speed
from planarz import bench

from reference import brute_force_log_z, transfer_log_z
from spans import Recorder, installed

# the acceptance suite's contractual tolerance on log Z for exact methods
EXACT_REL_TOL = 1e-8
FAILED_NOTES = ("bp-not-converged", "nonpositive-correction", "failed:")
# set-up is built at least SETUP_REPEATS times, and again until SETUP_SECONDS
# have passed or SETUP_REPEATS_MAX builds are made
SETUP_REPEATS = 5
SETUP_REPEATS_MAX = 25
SETUP_SECONDS = 1.0
# building instances is Python loops over small numpy tables, like BP
SETUP_ARRAY_SHARE = 0.5


@dataclass(frozen=True)
class Workload:
    generator: str  # "grid" or "spiderweb"
    size: tuple
    beta: float
    theta: float
    method: str
    exact: bool  # the method is exact on these instances
    pool: int  # distinct instances per run, solved round-robin
    traced: int  # leading pool instances solved in the traced run
    warmup_size: tuple
    probe_array_share: float  # weight of the probe's array part (speed.slowdown)


# Every run solves its whole pool at least once and weighs each instance
# equally, so a faster program that makes more passes sees the same mix.
# Instances are kept to under a second per solve so that the speed probes
# around a solve track the machine (see speed.py) and a run holds dozens of
# solves; at 8x8 the Pfaffians still take 82% of a zero-field solve.
# grid_field is 5x5 at theta=1 rather than 8x8 at theta=0.1: at 8x8 BP sweep
# counts vary threefold between instances and a solve takes seconds, so a
# run saw about ten instances and its median moved with the seed. The probe
# weights were chosen from the tracking each gave on one instance solved 30
# to 50 times (README.md): grid_zero_field is numpy elimination on a dense
# matrix and tracks the array part alone; BP and the planarity code are
# Python loops of small numpy calls and track an even mix of both parts.
WORKLOADS = {
    "grid_zero_field": Workload("grid", (8,), 1.0, 0.0, "z_empty", True, 8, 2, (3,), 1.0),
    "grid_field": Workload("grid", (5,), 1.0, 1.0, "z_empty", False, 64, 32, (3,), 0.5),
    "series_spiderweb": Workload("spiderweb", (1, 4), 0.5, 0.5, "pfaffian", True, 16, 4, (1, 3), 0.5),
}


@dataclass(frozen=True)
class Outcome:
    failed: bool
    wrong: bool  # an exact method missed the reference
    rel_err: float | None
    note: str


def instance_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def generate(w: Workload, size: tuple, seed: int):
    """(FactorGraph, reduced ForneyGraph) through the package generator."""
    params = planarz.ModelParams(beta=w.beta, theta=w.theta, seed=seed)
    gen = bench.gen_grid if w.generator == "grid" else bench.gen_spiderweb
    return gen(*size, params)


def reference_log_z(w: Workload, fg) -> float:
    return transfer_log_z(fg) if w.generator == "grid" else brute_force_log_z(fg)


def solve(w: Workload, g):
    """(result dict or None, failure note) for one solve_forney call."""
    try:
        return bench.solve_forney(g, method=w.method), ""
    except Exception as exc:  # a solve that raises counts as failed; the run goes on
        return None, f"failed:{type(exc).__name__}"


def judge(w: Workload, result, note: str, ref: float) -> Outcome:
    """Classify one solve; exact workloads must hit ref within EXACT_REL_TOL."""
    if result is None:
        return Outcome(True, False, None, note)
    note = result["note"]
    if result["log_z"] is None or any(bad in note for bad in FAILED_NOTES):
        return Outcome(True, False, None, note or "log_z-none")
    rel = abs(result["log_z"] - ref) / abs(ref)
    wrong = not math.isfinite(rel) or (w.exact and rel > EXACT_REL_TOL)
    return Outcome(wrong, wrong, rel, note)


def _warm_up(w: Workload) -> None:
    # loads lazily imported code paths (networkx planarity and friends)
    _, g = generate(w, w.warmup_size, 0)
    solve(w, g)


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


@dataclass
class Report:
    attempted: int
    failed: int
    correct: bool
    metrics: dict  # name -> (value, unit)
    lines: list  # human-readable report


def _build_pool(w: Workload, seeds) -> tuple[list, list, list]:
    """(pool, scaled set-up times, raw set-up times) over repeated builds."""
    scaled, raw = [], []
    started = time.perf_counter()
    while len(raw) < SETUP_REPEATS or (
        time.perf_counter() - started < SETUP_SECONDS and len(raw) < SETUP_REPEATS_MAX
    ):
        gc.collect()
        before = speed.probe()
        t0 = time.perf_counter()
        pool = [generate(w, w.size, s) for s in seeds]
        raw.append(time.perf_counter() - t0)
        scaled.append(speed.scaled(raw[-1], before, speed.probe(), SETUP_ARRAY_SHARE))
    return pool, scaled, raw


def run_timed(w: Workload, seed: int, seconds: float) -> Report:
    """End-to-end metrics; no wrappers are installed.

    The pool is solved round-robin until every instance has been solved once
    and ``seconds`` have passed. Each solve time is scaled to the reference
    speed (see speed.py); an instance's time is the median of its solves, so
    every instance weighs the same however many passes a run makes.
    """
    seeds = instance_seeds(seed, w.pool)
    pool, setup, setup_raw = _build_pool(w, seeds)
    refs = [reference_log_z(w, fg) for fg, _ in pool]
    _warm_up(w)

    per_instance = [[] for _ in pool]  # scaled solve times
    raw, outcomes = [], []
    before = speed.probe()
    start = time.perf_counter()
    while len(raw) < w.pool or time.perf_counter() - start < seconds:
        i = len(raw) % w.pool
        gc.collect()
        t0 = time.perf_counter()
        result, note = solve(w, pool[i][1])
        raw.append(time.perf_counter() - t0)
        after = speed.probe()
        per_instance[i].append(speed.scaled(raw[-1], before, after, w.probe_array_share))
        before = after
        outcomes.append(judge(w, result, note, refs[i]))

    attempted = len(raw)
    failed = sum(o.failed for o in outcomes)
    errs = [o.rel_err for o in outcomes if not o.failed]
    medians = [statistics.median(t) for t in per_instance]
    metrics = {
        "solves_per_s": ((attempted - failed) / attempted * w.pool / sum(medians), "1/s"),
        "solve_s_p50": (statistics.median(medians), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines = [
        f"solves {attempted} (pool {w.pool}, {attempted / w.pool:.3g} passes), failed {failed}, "
        f"failed_frac {failed / attempted:.6g}",
        f"solve_s_p50 {metrics['solve_s_p50'][0]:.6g} s, solves_per_s "
        f"{metrics['solves_per_s'][0]:.6g} (scaled to the reference speed); "
        f"unscaled: median solve {statistics.median(raw):.6g} s, "
        f"{attempted / sum(raw):.6g} solves/s",
        f"setup_s {metrics['setup_s'][0]:.6g} s (scaled; median of {len(setup)} pool builds, "
        f"unscaled {statistics.median(setup_raw):.6g} s), "
        f"peak_rss_mb {metrics['peak_rss_mb'][0]:.6g}",
        f"logz_rel_err mean {_mean(errs):.3e} max {max(errs, default=0.0):.3e}"
        + (" (exact method: per-solve gate)" if w.exact else ""),
    ]
    lines += [f"failed solve: {o.note}" for o in outcomes if o.failed][:5]
    return Report(attempted, failed, not any(o.wrong for o in outcomes), metrics, lines)


def dense_pfaffian_work(n: int) -> tuple[int, int]:
    """(flops, bytes) of the dense skew elimination at dimension n, computed.

    Each of the n/2 steps applies a rank-2 update to the trailing m x m block:
    two outer products, one subtraction and one addition (4 m^2 flops), and
    reads and writes every 8-byte entry once (16 m^2 bytes).
    """
    if n % 2:
        return 0, 0
    sq = sum((n - k - 2) ** 2 for k in range(0, n - 1, 2))
    return 4 * sq, 16 * sq


# span names each per-layer metric is measured from; with all of them
# absent, the metric reads 0 and is listed as absent
METRIC_SPANS = {
    "pfaffian.self_s": ("pfaffian.pfaffian", "pfaffian.corrected_z"),
    "pfaffian.calls": ("pfaffian.pfaffian",),
    "pfaffian.dim_max": ("pfaffian.pfaffian",),
    "pfaffian.gflop_computed": ("pfaffian.pfaffian",),
    "pfaffian.mb_computed": ("pfaffian.pfaffian",),
    "pfaffian.matrix_build_s": ("pfaffian.matrix_build",),
    "bp.self_s": ("bp.run_bp", "bp.multistart"),
    "bp.attempts": ("bp.run_bp",),
    "bp.sweeps": ("bp.run_bp",),
    "bp.updates": ("bp.run_bp",),
    "bp.us_per_update": ("bp.run_bp",),
    "bp.converged_frac": ("bp.run_bp",),
    "planar.fisher_extend_s": ("planar.fisher_extend",),
    "planar.biconnect_s": ("planar.biconnect",),
    "planar.embed_s": ("planar.embed",),
    "planar.orient_self_s": ("planar.orient",),
    "planar.ext_vertices": ("planar.fisher_extend",),
    "planar.dummy_edges": ("planar.biconnect",),
    "series.terms": ("series.z_empty", "series.pfaffian_series"),
    "series.ms_per_term": ("series.z_empty", "series.pfaffian_series"),
    "series.self_s": ("series.z_empty", "series.pfaffian_series"),
    "series.nonzero_frac": ("series.z_empty", "series.pfaffian_series"),
    "model.two_core_s": ("model.two_core",),
    "model.factor_to_forney_s": ("model.factor_to_forney",),
    "model.reduce_degree_s": ("model.reduce_degree",),
}


_SETUP_SPANS = ("bench.gen", "model.factor_to_forney", "model.reduce_degree")


def run_traced(w: Workload, seed: int) -> Report:
    """Per-layer metrics from the leading w.traced instances of the pool.

    Each instance is solved untraced, then traced; the ratio of the two
    times gives trace.overhead_frac. Counts are per solve and repeat exactly
    for a given seed.
    """
    seeds = instance_seeds(seed, w.pool)[: w.traced]
    _warm_up(w)
    rec = Recorder()
    untraced, traced, outcomes = [], [], []
    for s in seeds:
        fg, g = generate(w, w.size, s)
        ref = reference_log_z(w, fg)
        t0 = time.perf_counter()
        solve(w, g)
        untraced.append(time.perf_counter() - t0)
        with installed(rec) as absent_spans:
            with rec.span("bench.gen"):
                _, g = generate(w, w.size, s)
            t0 = time.perf_counter()
            with rec.span("bench.solve"):
                result, note = solve(w, g)
            traced.append(time.perf_counter() - t0)
        outcomes.append(judge(w, result, note, ref))

    n = len(seeds)
    st, tot, c = rec.self_times(), rec.total_times(), rec.counts
    work = [dense_pfaffian_work(d) for d in rec.pfaffian_dims]
    terms = c["series.terms"]
    series_total = tot.get("series.z_empty", 0.0) + tot.get("series.pfaffian_series", 0.0)
    errs = [o.rel_err for o in outcomes if not o.failed]
    values = {
        "pfaffian.self_s": (st.get("pfaffian.pfaffian", 0.0) + st.get("pfaffian.corrected_z", 0.0)) / n,
        "pfaffian.calls": len(rec.pfaffian_dims) / n,
        "pfaffian.dim_max": max(rec.pfaffian_dims, default=0),
        "pfaffian.gflop_computed": sum(f for f, _ in work) / n / 1e9,
        "pfaffian.mb_computed": sum(b for _, b in work) / n / 1e6,
        "pfaffian.matrix_build_s": st.get("pfaffian.matrix_build", 0.0) / n,
        "bp.self_s": (st.get("bp.run_bp", 0.0) + st.get("bp.multistart", 0.0)) / n,
        "bp.attempts": c["bp.attempts"] / n,
        "bp.sweeps": c["bp.sweeps"] / n,
        "bp.updates": c["bp.updates"] / n,
        "bp.us_per_update": st.get("bp.run_bp", 0.0) / c["bp.updates"] * 1e6 if c["bp.updates"] else 0.0,
        "bp.converged_frac": c["bp.converged"] / c["bp.attempts"] if c["bp.attempts"] else 0.0,
        "planar.fisher_extend_s": st.get("planar.fisher_extend", 0.0) / n,
        "planar.biconnect_s": st.get("planar.biconnect", 0.0) / n,
        "planar.embed_s": st.get("planar.embed", 0.0) / n,
        "planar.orient_self_s": st.get("planar.orient", 0.0) / n,
        "planar.ext_vertices": c["planar.ext_vertices"] / n,
        "planar.dummy_edges": c["planar.dummy_edges"] / n,
        "series.terms": terms / n,
        "series.ms_per_term": series_total / terms * 1e3 if terms else 0.0,
        "series.self_s": (st.get("series.z_empty", 0.0) + st.get("series.pfaffian_series", 0.0)) / n,
        "series.nonzero_frac": c["series.nonzero_terms"] / terms if terms else 0.0,
        "model.two_core_s": st.get("model.two_core", 0.0) / n,
        "model.factor_to_forney_s": st.get("model.factor_to_forney", 0.0) / n,
        "model.reduce_degree_s": st.get("model.reduce_degree", 0.0) / n,
        "bench.gen_s": st.get("bench.gen", 0.0) / n,
        "bench.solve_self_s": st.get("bench.solve", 0.0) / n,
        "trace.overhead_frac": sum(traced) / sum(untraced) - 1.0,
        "logz_rel_err": _mean(errs),
    }
    absent = sorted(m for m, names in METRIC_SPANS.items() if set(names) <= set(absent_spans))
    for m in absent:
        values[m] = 0.0
    metrics = {m: (float(v), _unit(m)) for m, v in values.items()}

    solve_self = sum(v for k, v in st.items() if k not in _SETUP_SPANS) / n
    lines = [
        f"traced {n} instances, failed {sum(o.failed for o in outcomes)}",
        f"self times sum {solve_self:.6g} s per solve; untraced solve {sum(untraced) / n:.6g} s, "
        f"traced {sum(traced) / n:.6g} s, trace.overhead_frac {values['trace.overhead_frac']:.4g}",
        "absent: " + (", ".join(absent) if absent else "none"),
    ]
    lines += [f"{m:26s} {v:.6g} {u}" for m, (v, u) in metrics.items()]
    return Report(n, sum(o.failed for o in outcomes), not any(o.wrong for o in outcomes), metrics, lines)


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac") or metric == "logz_rel_err":
        return "ratio"
    return {
        "pfaffian.gflop_computed": "GFLOP",
        "pfaffian.mb_computed": "MB",
        "bp.us_per_update": "us",
        "series.ms_per_term": "ms",
    }.get(metric, "count")
