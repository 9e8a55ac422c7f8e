"""Failure counting, traced counts and the span recorder on small workloads."""

import dataclasses

import pytest
from planarz import triplet_nodes, two_core

import spans
import speed
import workloads
from workloads import Workload

SMALL_GRID = Workload("grid", (3,), 1.0, 0.5, "z_empty", False, 4, 3, (2,), 0.5)
SMALL_SERIES = Workload("spiderweb", (1, 3), 0.5, 0.5, "pfaffian", True, 2, 2, (1, 3), 0.5)
SMALL_ZERO = Workload("grid", (4,), 1.0, 0.0, "z_empty", True, 3, 2, (2,), 0.5)


@pytest.mark.parametrize("w", [SMALL_GRID, SMALL_SERIES, SMALL_ZERO])
def test_timed_run_solves_without_failures(w):
    report = workloads.run_timed(w, seed=7, seconds=0.01)
    assert report.correct and report.failed == 0 and report.attempted >= w.pool
    assert set(report.metrics) == {"solves_per_s", "solve_s_p50", "setup_s", "peak_rss_mb"}
    assert all(v > 0 for v, _ in report.metrics.values())


COUNTS = (
    "bp.attempts", "bp.sweeps", "bp.updates", "bp.converged_frac", "pfaffian.calls",
    "pfaffian.dim_max", "pfaffian.gflop_computed", "pfaffian.mb_computed",
    "series.terms", "series.nonzero_frac", "planar.ext_vertices", "planar.dummy_edges",
)


@pytest.mark.parametrize("w", [SMALL_GRID, SMALL_SERIES])
def test_traced_counts_repeat_for_a_seed(w):
    a = workloads.run_traced(w, seed=3).metrics
    b = workloads.run_traced(w, seed=3).metrics
    assert {m: a[m] for m in COUNTS} == {m: b[m] for m in COUNTS}
    assert a["bp.attempts"][0] >= 1 and a["pfaffian.calls"][0] >= 1


def test_traced_series_counts_every_term():
    w = dataclasses.replace(SMALL_SERIES, traced=1)
    m = workloads.run_traced(w, seed=0).metrics
    _, g = workloads.generate(w, w.size, workloads.instance_seeds(0, w.pool)[0])
    core, _ = two_core(g)
    # every even subset of the degree-3 nodes is one term
    assert m["series.terms"][0] == 2 ** (len(triplet_nodes(core)) - 1)
    assert m["pfaffian.calls"][0] <= 2 * m["series.terms"][0]


def test_self_times_partition_the_solve():
    rec = spans.Recorder()
    _, g = workloads.generate(SMALL_SERIES, SMALL_SERIES.size, 1)
    with spans.installed(rec) as absent:
        with rec.span("bench.solve"):
            workloads.solve(SMALL_SERIES, g)
    assert absent == []
    root = sum(s.duration for s in rec.spans if s.name == "bench.solve")
    assert sum(rec.self_times().values()) == pytest.approx(root, rel=1e-9)
    assert {"planar.embed", "pfaffian.pfaffian", "bp.run_bp"} <= set(rec.self_times())


def test_wrappers_are_removed_after_the_traced_run():
    import planarz.series

    before = planarz.series.biconnect
    workloads.run_traced(SMALL_GRID, seed=0)
    assert planarz.series.biconnect is before


def test_missing_layer_function_is_reported_absent(monkeypatch):
    targets = tuple(
        (mod, "no_such_function" if attr == "biconnect" else attr, name, hook)
        for mod, attr, name, hook in spans.TARGETS
    )
    monkeypatch.setattr(spans, "TARGETS", targets)
    report = workloads.run_traced(SMALL_GRID, seed=0)
    assert report.metrics["planar.biconnect_s"][0] == 0.0
    assert report.metrics["planar.dummy_edges"][0] == 0.0
    assert any("planar.biconnect_s" in line for line in report.lines if line.startswith("absent"))
    assert report.metrics["planar.embed_s"][0] > 0.0


def test_perturbed_reference_counts_as_failed(monkeypatch):
    real = workloads.reference_log_z
    monkeypatch.setattr(workloads, "reference_log_z", lambda w, fg: real(w, fg) * (1 + 1e-6))
    report = workloads.run_timed(SMALL_SERIES, seed=0, seconds=0.01)
    assert report.failed == report.attempted >= 1
    assert not report.correct


def test_judge_flags_failure_notes():
    w = SMALL_GRID
    ok = {"log_z": 2.0, "bp_iterations": 3, "converged": True, "note": ""}
    assert not workloads.judge(w, ok, "", 2.0).failed
    for note in ("bp-not-converged", "nonpositive-correction", "failed:ValueError"):
        assert workloads.judge(w, dict(ok, note=note), "", 2.0).failed
    assert workloads.judge(w, dict(ok, log_z=None), "", 2.0).failed
    assert workloads.judge(w, None, "failed:RuntimeError", 2.0).failed
    exact = dataclasses.replace(w, exact=True)
    assert workloads.judge(exact, dict(ok, log_z=2.0 * (1 + 2e-8)), "", 2.0).wrong
    assert not workloads.judge(w, dict(ok, log_z=2.0 * (1 + 2e-8)), "", 2.0).failed


def test_dense_pfaffian_work_counts_the_rank_two_updates():
    assert workloads.dense_pfaffian_work(3) == (0, 0)
    assert workloads.dense_pfaffian_work(2) == (0, 0)
    # n = 6: trailing blocks of 4 and 2, so 4 * (16 + 4) flops
    assert workloads.dense_pfaffian_work(6) == (80, 320)


def test_scaled_times_are_relative_to_the_reference_probe():
    ref = (speed.REFERENCE_INTERPRETER_S, speed.REFERENCE_ARRAY_S)
    slow = (2 * ref[0], 2 * ref[1])
    assert speed.scaled(2.0, ref, ref, 0.5) == pytest.approx(2.0)
    # the machine ran at half the reference speed: the work takes half as long there
    assert speed.scaled(2.0, slow, slow, 0.5) == pytest.approx(1.0)
    assert speed.scaled(2.0, ref, (3 * ref[0], 3 * ref[1]), 0.5) == pytest.approx(1.0)
    # only the interpreter part slowed: an array-only workload is not scaled
    assert speed.scaled(2.0, (2 * ref[0], ref[1]), (2 * ref[0], ref[1]), 1.0) == pytest.approx(2.0)
    assert speed.slowdown((2 * ref[0], ref[1]), 0.5) == pytest.approx(1.5)
    assert min(speed.probe()) > 0
