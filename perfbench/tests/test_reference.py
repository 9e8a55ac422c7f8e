"""The benchmark's references against the package's enumeration oracle."""

import pytest

from planarz import ModelParams, exact_log_z_factor, grid_factor_graph, spiderweb_factor_graph

from reference import brute_force_log_z, transfer_log_z

REL = 1e-13


@pytest.mark.parametrize(
    "n, theta, attractive, seed",
    [(4, 0.0, False, 0), (4, 0.5, False, 1), (4, 1.0, True, 2), (5, 0.0, False, 3), (5, 1.0, False, 4)],
)
def test_transfer_matches_enumeration_on_grids(n, theta, attractive, seed):
    fg = grid_factor_graph(n, ModelParams(beta=1.0, theta=theta, attractive=attractive, seed=seed))
    exact = exact_log_z_factor(fg)
    assert transfer_log_z(fg) == pytest.approx(exact, rel=REL)


@pytest.mark.parametrize("rings, spokes, theta, seed", [(2, 3, 0.5, 0), (2, 3, 0.0, 1), (3, 5, 0.5, 2)])
def test_brute_force_matches_enumeration_on_spiderwebs(rings, spokes, theta, seed):
    fg = spiderweb_factor_graph(rings, spokes, ModelParams(beta=0.5, theta=theta, seed=seed))
    exact = exact_log_z_factor(fg)
    assert brute_force_log_z(fg) == pytest.approx(exact, rel=REL)
    assert transfer_log_z(fg) == pytest.approx(exact, rel=REL)


def test_brute_force_matches_transfer_on_a_grid():
    fg = grid_factor_graph(4, ModelParams(beta=1.3, theta=0.2, seed=5))
    assert brute_force_log_z(fg) == pytest.approx(transfer_log_z(fg), rel=REL)


def test_brute_force_refuses_large_models():
    fg = grid_factor_graph(5, ModelParams(beta=1.0, seed=0))
    with pytest.raises(ValueError):
        brute_force_log_z(fg)
