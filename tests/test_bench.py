"""Generators, drivers, config parsing, CSV output, frozen regressions.

The regression block pins exact literals computed once from the current
implementation; any drift in RNG consumption, table layout, conversion, or
the correction pipeline will trip them.
"""

import math
import time

import numpy as np
import pytest

from planarz import (
    ModelError,
    ModelParams,
    error_metric,
    exact_log_z_factor,
    gen_grid,
    gen_spiderweb,
    grid_factor_graph,
    parse_config,
    rows_to_csv,
    run_bp,
    run_experiment,
    solve_forney,
    spiderweb_factor_graph,
    two_core,
)
from planarz import bench
from planarz.bench import normal_draws, _rng


# ---------------------------------------------------------------- generators


def test_generator_determinism():
    p = ModelParams(beta=1.2, theta=0.3, attractive=False, seed=9)
    a = grid_factor_graph(3, p)
    b = grid_factor_graph(3, p)
    for fa, fb in zip(a.factors, b.factors):
        assert fa.id == fb.id
        np.testing.assert_array_equal(fa.table, fb.table)


def test_different_seeds_differ():
    a = grid_factor_graph(3, ModelParams(beta=1.0, seed=0))
    b = grid_factor_graph(3, ModelParams(beta=1.0, seed=1))
    assert not np.allclose(a.factors[0].table, b.factors[0].table)


def test_grid_structure():
    p = ModelParams(beta=1.0, theta=0.5, seed=0)
    fg = grid_factor_graph(4, p)
    assert fg.num_variables == 16
    pair = [f for f in fg.factors if len(f.scope) == 2]
    field = [f for f in fg.factors if len(f.scope) == 1]
    assert len(pair) == 2 * 4 * 3
    assert len(field) == 16


def test_grid_zero_theta_has_no_fields():
    fg = grid_factor_graph(3, ModelParams(beta=1.0, theta=0.0, seed=0))
    assert all(len(f.scope) == 2 for f in fg.factors)


def test_overflowing_tables_name_the_factor():
    # exp past ~709 is not a float; the first factor drawn that far is named
    with pytest.raises(ModelError, match="table of 'J0_0_h' overflows"):
        grid_factor_graph(2, ModelParams(beta=1e7))
    with pytest.raises(ModelError, match="table of 'h_hub' overflows"):
        spiderweb_factor_graph(1, 3, ModelParams(beta=1.0, theta=1e8))


def test_attractive_tables_favor_agreement():
    fg = grid_factor_graph(3, ModelParams(beta=2.0, theta=0.4, attractive=True, seed=5))
    for f in fg.factors:
        t = f.table
        if len(f.scope) == 2:
            assert t[0] == t[3] and t[1] == t[2]
            assert t[0] >= t[1]
        else:
            assert t[1] >= t[0]  # positive field favors +1


def test_pair_table_symmetry():
    fg = grid_factor_graph(3, ModelParams(beta=1.0, seed=3))
    for f in fg.factors:
        assert f.table[0] == pytest.approx(1.0 / f.table[1], rel=1e-12)


def test_spiderweb_structure():
    fg = spiderweb_factor_graph(2, 4, ModelParams(beta=1.0, theta=0.1, seed=0))
    assert fg.num_variables == 1 + 8
    pair = [f for f in fg.factors if len(f.scope) == 2]
    # 4 spokes + 4 + 4 ring edges + 4 radials
    assert len(pair) == 16
    assert len(fg.factors) - len(pair) == 9


def test_spiderweb_k4_case():
    fg = spiderweb_factor_graph(1, 3, ModelParams(beta=1.0, seed=0))
    assert fg.num_variables == 4
    assert len(fg.factors) == 6  # complete graph on 4 vertices


def test_generated_forney_is_planar_pipeline_ready():
    for seed in range(3):
        _, g = gen_grid(3, ModelParams(beta=1.0, theta=0.2, seed=seed))
        core, _ = two_core(g)
        assert core.is_reduced
        r = solve_forney(g, method="z_empty")
        assert r["log_z"] is not None


def test_solve_runs_bp_once(monkeypatch):
    # spiderweb(2,6), beta 1, theta 0.1, seed 0 does not converge in 20
    # sweeps; the solve reports that after one BP run, with no retries
    _, g = gen_spiderweb(2, 6, ModelParams(beta=1.0, theta=0.1, seed=0))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return run_bp(*args, **kwargs)

    monkeypatch.setattr(bench, "run_bp", counted)
    r = solve_forney(g, method="bp", max_iterations=20)
    assert len(calls) == 1
    assert (r["bp_iterations"], r["converged"], r["note"]) == (20, False, "bp-not-converged")
    assert math.isfinite(r["log_z"])


def test_solve_takes_either_model_kind():
    # every method but exact reduces a factor graph to the normal form the
    # generator returns; exact enumerates each kind as given
    fg, g = gen_grid(2, ModelParams(beta=1.0, theta=0.1, seed=3))
    for method in ("bp", "z_empty", "pfaffian", "loop_oracle"):
        assert solve_forney(fg, method=method) == solve_forney(g, method=method), method
    by_factor = solve_forney(fg, method="exact")
    assert by_factor["log_z"] == exact_log_z_factor(fg)
    assert by_factor["log_z"] == pytest.approx(solve_forney(g, method="exact")["log_z"], rel=1e-12)


def test_beta_zero_grid_counts_states():
    fg, g = gen_grid(3, ModelParams(beta=0.0, theta=0.0, seed=0))
    assert exact_log_z_factor(fg) == pytest.approx(9 * math.log(2.0), rel=1e-12)
    r = solve_forney(g, method="z_empty")
    assert r["log_z"] == pytest.approx(9 * math.log(2.0), rel=1e-10)


def test_normal_draws_deterministic_and_scaled():
    g1 = _rng(3, 0)
    g2 = _rng(3, 0)
    a = normal_draws(g1, 5, 2.0)
    b = normal_draws(g2, 5, 1.0)
    np.testing.assert_allclose(a, 2.0 * b, rtol=1e-15)
    assert np.all(np.isfinite(a))


# ---------------------------------------------------------------- metric


def test_error_metric():
    assert error_metric(11.0, 10.0) == pytest.approx(0.1)
    assert error_metric(-9.0, -10.0) == pytest.approx(0.1)
    assert math.isnan(error_metric(1.0, 0.0))


# ---------------------------------------------------------------- config


def test_parse_config_full():
    cfg = parse_config(
        """
        generator = grid
        sizes = 4 5
        betas = 0.5 1
        thetas = 0 0.1
        seeds = 0..2 7
        methods = bp z_empty
        attractive = true
        max_psi = 2
        """
    )
    assert cfg["sizes"] == [4, 5]
    assert cfg["seeds"] == [0, 1, 2, 7]
    assert cfg["attractive"] is True
    assert cfg["max_psi"] == 2


def test_parse_config_spiderweb_sizes():
    cfg = parse_config("generator = spiderweb\nsizes = 1:3 2:4\nbetas = 1\n")
    assert cfg["sizes"] == [(1, 3), (2, 4)]


def test_parse_config_rejections():
    for text in (
        "generator = grid\nsizes = 3\n",  # missing betas
        "generator = grid\nsizes = 3\nbetas = 1\nbogus = 2\n",
        "generator = torus\nsizes = 3\nbetas = 1\n",
        "generator = grid\nsizes = 3\nbetas = 1\nmethods = magic\n",
        "generator = spiderweb\nsizes = 3\nbetas = 1\n",
        "generator = grid\nsizes = 3\nbetas = one\n",
        "generator = grid\nsizes = 3\nbetas = 1\nseeds = 0..x\n",
        "generator = grid\nsizes = 3.5\nbetas = 1\n",
        "generator = grid\nsizes = 3\nbetas = 1\nmax_iterations = 0\n",
        "generator = grid\nsizes = 3\nbetas = 1\nmax_psi = -1\n",
        "generator = grid\nsizes = 3\nbetas = nan\n",
        "generator = grid\nsizes = 3\nbetas = 1\nthetas = inf\n",
    ):
        with pytest.raises(ModelError):
            parse_config(text)
    for key in ("schedule", "threshold"):  # BP's threshold is a constant, not a setting
        with pytest.raises(ModelError, match=f"unknown key '{key}'"):
            parse_config(f"generator = grid\nsizes = 3\nbetas = 1\n{key} = 1e-3\n")


def test_parse_config_names_the_key_of_a_bad_number():
    for key, text in (
        ("betas", "generator = grid\nsizes = 3\nbetas = one\n"),
        ("seeds", "generator = grid\nsizes = 3\nbetas = 1\nseeds = 0..x\n"),
        ("sizes", "generator = spiderweb\nsizes = 1:x\nbetas = 1\n"),
    ):
        with pytest.raises(ModelError, match=repr(key)):
            parse_config(text)


def test_parse_config_rejects_a_sweep_that_computes_nothing():
    # an empty list, or a seed range that ends below its start, would leave
    # nothing to solve: an error naming the key, not a header-only CSV
    base = {"generator": "grid", "sizes": "3", "betas": "1"}
    for key, value in (
        ("sizes", ""),
        ("betas", ""),
        ("thetas", ""),
        ("methods", ""),
        ("seeds", ""),
        ("seeds", "4..2"),
        ("seeds", "0 4..2"),
    ):
        text = "".join(f"{k} = {v}\n" for k, v in {**base, key: value}.items())
        with pytest.raises(ModelError, match=repr(key)):
            parse_config(text)
    # a range of one seed is fine
    assert parse_config("generator = grid\nsizes = 3\nbetas = 1\nseeds = 2..2 0\n")["seeds"] == [2, 0]


# ---------------------------------------------------------------- experiment


def _small_cfg():
    return parse_config(
        """
        generator = grid
        sizes = 3
        betas = 1
        thetas = 0.1
        seeds = 0 1
        methods = bp z_empty exact
        """
    )


def test_run_experiment_rows_and_summaries():
    rows = run_experiment(_small_cfg())
    data = [r for r in rows if r["row"] == "data"]
    assert len(data) == 2 * 3
    means = [r for r in rows if r["row"] == "mean"]
    medians = [r for r in rows if r["row"] == "median"]
    assert len(means) == 3 and len(medians) == 3
    for r in data:
        assert r["logz_exact"] is not None
        if r["method"] == "exact":
            assert r["error"] == 0.0


def test_correction_beats_bp_in_summary():
    rows = run_experiment(_small_cfg())
    mean = {r["method"]: r["error"] for r in rows if r["row"] == "mean"}
    assert mean["z_empty"] < mean["bp"]


def test_exact_row_times_its_enumeration(monkeypatch):
    # the exact row's wall_ms is the enumeration that produced logz_exact
    real = bench.exact_log_z_factor

    def slow(fg):
        time.sleep(0.05)
        return real(fg)

    monkeypatch.setattr(bench, "exact_log_z_factor", slow)
    rows = run_experiment(_small_cfg())
    exact = [r for r in rows if r["row"] == "data" and r["method"] == "exact"]
    assert len(exact) == 2
    assert all(r["wall_ms"] >= 50.0 for r in exact), [r["wall_ms"] for r in exact]


def test_csv_deterministic_excluding_wall():
    def strip_wall(text):
        out = []
        for line in text.splitlines():
            cells = line.split(",")
            del cells[13]
            out.append(",".join(cells))
        return "\n".join(out)

    a = rows_to_csv(run_experiment(_small_cfg()))
    b = rows_to_csv(run_experiment(_small_cfg()))
    assert strip_wall(a) == strip_wall(b)
    header = a.splitlines()[0].split(",")
    assert header[13] == "wall_ms"


# ---------------------------------------------------------------- regressions


def test_frozen_grid_regression():
    # literals computed once and pinned; drift means RNG or pipeline change
    params = ModelParams(beta=1.0, theta=0.01, attractive=False, seed=42)
    fg, g = gen_grid(4, params)
    assert float(fg.factors[0].table[0]) == pytest.approx(0.38082291371793137, rel=1e-14)
    assert exact_log_z_factor(fg) == pytest.approx(15.512074573187636, rel=1e-12)
    assert solve_forney(g, method="bp")["log_z"] == pytest.approx(
        15.26571720337542, rel=1e-9
    )
    assert solve_forney(g, method="z_empty")["log_z"] == pytest.approx(
        15.512397966615643, rel=1e-9
    )


def test_frozen_spiderweb_regression():
    params = ModelParams(beta=1.0, theta=0.01, attractive=False, seed=7)
    fg, g = gen_spiderweb(2, 4, params)
    assert exact_log_z_factor(fg) == pytest.approx(10.490008589582468, rel=1e-12)
    assert solve_forney(g, method="z_empty")["log_z"] == pytest.approx(
        10.509695645331359, rel=1e-9
    )
    r = solve_forney(g, method="pfaffian", max_psi_size=2)
    assert r["log_z"] == pytest.approx(10.490538047559188, rel=1e-9)
    assert "series-truncated-92-terms" in r["note"]
