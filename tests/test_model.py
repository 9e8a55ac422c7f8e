"""Model containers, conversions, reductions, and the exact oracles.

The exact enumerators are the ground truth for everything downstream, so
they get the most paranoid checks here: closed-form cases, agreement
between the edge-level and factor-level enumerations, and invariance of Z
under every structural transformation.
"""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from planarz import (
    FactorGraph,
    ForneyGraph,
    ModelError,
    ModelParams,
    exact_log_z,
    exact_log_z_factor,
    factor_to_forney,
    grid_factor_graph,
    reduce_degree,
    two_core,
)
from planarz.model import assignment_to_index, index_to_assignment

from builders import cycle_forney, ladder_graph, random_planar_forney, random_tree_forney
from oracles import brute_log_z_factor

model_module = importlib.import_module("planarz.model")


# ---------------------------------------------------------------- indexing


def test_assignment_index_convention():
    # first neighbor is the most significant bit; -1 sorts before +1
    assert assignment_to_index((-1, -1)) == 0
    assert assignment_to_index((-1, 1)) == 1
    assert assignment_to_index((1, -1)) == 2
    assert assignment_to_index((1, 1)) == 3
    assert index_to_assignment(5, 3) == (1, -1, 1)


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=8, max_value=10))
def test_index_round_trip(idx, k):
    assert assignment_to_index(index_to_assignment(idx, k)) == idx


# ---------------------------------------------------------------- containers


def test_forney_rejects_asymmetry():
    with pytest.raises(ModelError):
        ForneyGraph({"a": ("b",), "b": ()}, {"a": [1, 1], "b": [1]})


def test_forney_rejects_self_loop():
    with pytest.raises(ModelError):
        ForneyGraph({"a": ("a",)}, {"a": [1, 1]})


def test_forney_rejects_bad_table_shape():
    with pytest.raises(ModelError):
        ForneyGraph({"a": ("b",), "b": ("a",)}, {"a": [1, 1, 1], "b": [1, 1]})


def test_forney_rejects_negative_entries():
    with pytest.raises(ModelError):
        ForneyGraph({"a": ("b",), "b": ("a",)}, {"a": [1, -1], "b": [1, 1]})


def test_factor_graph_rejects_unused_variable():
    with pytest.raises(ModelError):
        FactorGraph(["x", "y"], [("f", ("x",), [1, 2])])


def test_factor_graph_rejects_repeated_scope():
    with pytest.raises(ModelError):
        FactorGraph(["x"], [("f", ("x", "x"), [1, 2, 3, 4])])


# ---------------------------------------------------------------- exact oracle


def test_exact_z_single_edge_equality():
    # two equality nodes on one shared edge: Z = 1 + 1
    g = ForneyGraph({"a": ("b",), "b": ("a",)}, {"a": [1, 1], "b": [1, 1]})
    assert exact_log_z(g) == pytest.approx(math.log(2.0))


def test_exact_z_all_ones_counts_states():
    g = ladder_graph()
    ones = ForneyGraph(
        g.neighbors, {a: np.ones(2 ** g.degree(a)) for a in g.nodes}
    )
    assert exact_log_z(ones) == pytest.approx(g.num_edges * np.log(2.0))


def test_exact_matches_direct_sum_small():
    g = cycle_forney(4, seed=1)
    total = 0.0
    for mask in range(2 ** g.num_edges):
        spins = {e: 1 if (mask >> i) & 1 else -1 for i, e in enumerate(g.edges)}
        p = 1.0
        for a in g.nodes:
            idx = assignment_to_index(
                tuple(spins[tuple(sorted((a, b)))] for b in g.neighbors[a])
            )
            p *= g.tables[a][idx]
        total += p
    assert exact_log_z(g) == pytest.approx(math.log(total), rel=1e-12)


def test_factor_oracle_matches_independent_spins():
    fg = FactorGraph(
        ["x", "y"],
        [("f", ("x",), [1.0, 3.0]), ("g", ("y",), [2.0, 5.0])],
    )
    assert np.exp(exact_log_z_factor(fg)) == pytest.approx(4.0 * 7.0)


def test_factor_oracle_matches_forney_oracle():
    fg = FactorGraph(
        ["x", "y", "z"],
        [
            ("A", ("x", "y"), [2.0, 0.5, 0.5, 2.0]),
            ("B", ("y", "z"), [1.5, 0.7, 0.7, 1.5]),
            ("C", ("z", "x"), [1.1, 0.9, 0.9, 1.1]),
            ("hx", ("x",), [0.8, 1.2]),
        ],
    )
    g = factor_to_forney(fg)
    assert exact_log_z(g) == pytest.approx(exact_log_z_factor(fg), rel=1e-12)


def test_factor_oracle_matches_brute_force_on_random_scopes():
    # scopes of size 0-3 list their variables in random order, so the
    # oracle must transpose every table onto its variables' axes
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 11))
        variables = [f"v{i}" for i in rng.permutation(n)]
        factors = []
        for k in range(int(rng.integers(1, 13))):
            size = int(rng.integers(0, min(n, 3) + 1))
            scope = tuple(variables[i] for i in rng.choice(n, size, replace=False))
            table = rng.uniform(0.2, 2.0, 2 ** len(scope))
            if scope and rng.random() < 0.25:
                table[rng.integers(table.size)] = 0.0
            factors.append((f"f{k}", scope, table))
        used = {v for _, scope, _ in factors for v in scope}
        factors += [(f"h{v}", (v,), rng.uniform(0.2, 2.0, 2)) for v in variables if v not in used]
        fg = FactorGraph(variables, factors)
        want = brute_log_z_factor(fg)
        assert exact_log_z_factor(fg) == pytest.approx(want, rel=1e-12), f"seed {seed}"


def test_factor_oracle_spans_the_chunk_split():
    # 25 variables: the top ones are enumerated chunk by chunk, and reversing
    # the variable order changes which factors cross the split
    fg = grid_factor_graph(5, ModelParams(1.0, 1.0, seed=3))
    rev = FactorGraph(fg.variables[::-1], [(f.id, f.scope, f.table) for f in fg.factors])
    assert exact_log_z_factor(rev) == pytest.approx(exact_log_z_factor(fg), rel=1e-12)


def test_oracles_do_not_depend_on_chunk_size(monkeypatch):
    graphs = [ladder_graph(seed=3), random_planar_forney(5)]
    fg = grid_factor_graph(3, ModelParams(1.0, 1.0, seed=1))
    want = [exact_log_z(g) for g in graphs] + [exact_log_z_factor(fg)]
    monkeypatch.setattr(model_module, "_CHUNK_BITS", 4)
    got = [exact_log_z(g) for g in graphs] + [exact_log_z_factor(fg)]
    assert got == pytest.approx(want, rel=1e-12)


def test_enumeration_cap():
    g = random_tree_forney(40, seed=2)
    with pytest.raises(ModelError):
        exact_log_z(g)


# ---------------------------------------------------------------- conversion


def test_factor_to_forney_structure():
    # x1 in three factors -> equality node; x2 in three -> equality node;
    # x3 in two -> direct edge D-E. One unary factor is marginalized away
    # only if degree stays positive; here all factors keep at least 1 port.
    fg = FactorGraph(
        ["x1", "x2", "x3"],
        [
            ("A", ("x1",), [1.0, 2.0]),
            ("B", ("x2",), [3.0, 1.0]),
            ("C", ("x1", "x2"), [1.0, 2.0, 3.0, 4.0]),
            ("D", ("x1", "x3"), [2.0, 2.0, 1.0, 1.0]),
            ("E", ("x2", "x3"), [1.0, 1.0, 5.0, 5.0]),
        ],
    )
    g = factor_to_forney(fg)
    assert set(g.nodes) == {"A", "B", "C", "D", "E", "delta_x1", "delta_x2"}
    assert g.degree("delta_x1") == 3
    assert g.degree("delta_x2") == 3
    assert ("D", "E") in g.edges  # x3 became a direct edge
    assert g.num_edges == 7


def test_factor_to_forney_marginalizes_single_occurrence():
    # y appears once: summed out of the factor table
    fg = FactorGraph(
        ["x", "y"],
        [("f", ("x", "y"), [1.0, 2.0, 3.0, 4.0]), ("g", ("x",), [1.0, 1.0])],
    )
    g = factor_to_forney(fg)
    assert g.degree("f") == 1
    np.testing.assert_allclose(g.tables["f"], [3.0, 7.0])


def test_conversion_preserves_z():
    rng = np.random.default_rng(7)
    variables = [f"v{i}" for i in range(8)]
    factors = []
    for i in range(8):
        factors.append((f"P{i}", (f"v{i}", f"v{(i + 1) % 8}"), rng.uniform(0.2, 2.0, 4)))
    for i in range(0, 8, 2):
        factors.append((f"H{i}", (f"v{i}",), rng.uniform(0.5, 1.5, 2)))
    fg = FactorGraph(variables, factors)
    g = factor_to_forney(fg)
    assert exact_log_z(g) == pytest.approx(exact_log_z_factor(fg), rel=1e-12)


def test_reduce_degree_splits_high_degree():
    rng = np.random.default_rng(3)
    # star: center degree 5, but equality-like table so the split is legal
    nbrs = {"c": tuple(f"l{i}" for i in range(5))}
    tabs = {"c": np.zeros(32)}
    tabs["c"][0] = 2.0
    tabs["c"][31] = 3.0
    for i in range(5):
        nbrs[f"l{i}"] = ("c",)
        tabs[f"l{i}"] = rng.uniform(0.3, 1.5, 2)
    g = ForneyGraph(nbrs, tabs)
    r = reduce_degree(g)
    assert all(r.degree(a) <= 3 for a in r.nodes)
    assert exact_log_z(r) == pytest.approx(exact_log_z(g), rel=1e-12)


def test_reduce_degree_rejects_general_tables():
    rng = np.random.default_rng(4)
    nbrs = {"c": ("a", "b", "d", "e")}
    tabs = {"c": rng.uniform(0.5, 1.5, 16)}
    for x in "abde":
        nbrs[x] = ("c",)
        tabs[x] = rng.uniform(0.5, 1.5, 2)
    with pytest.raises(ModelError):
        reduce_degree(ForneyGraph(nbrs, tabs))


def test_reduce_degree_identity_when_low_degree():
    g = ladder_graph()
    assert reduce_degree(g) is g


def test_two_core_absorbs_trees():
    # cycle with a pendant path: core is the cycle, Z unchanged
    rng = np.random.default_rng(5)
    nbrs = {
        "a": ("b", "c"),
        "b": ("a", "c"),
        "c": ("a", "b", "p"),
        "p": ("c", "q"),
        "q": ("p",),
    }
    tabs = {k: rng.uniform(0.4, 1.6, 2 ** len(v)) for k, v in nbrs.items()}
    g = ForneyGraph(nbrs, tabs)
    core, log_const = two_core(g)
    assert set(core.nodes) == {"a", "b", "c"}
    assert log_const + exact_log_z(core) == pytest.approx(exact_log_z(g), rel=1e-12)


def test_two_core_of_tree_is_empty():
    g = random_tree_forney(12, seed=6)
    core, log_const = two_core(g)
    assert core.num_nodes == 0
    assert log_const == pytest.approx(exact_log_z(g), rel=1e-12)


def test_full_chain_preserves_z():
    # factor graph -> forney -> reduce -> two_core keeps Z to near machine
    rng = np.random.default_rng(8)
    variables = [f"v{i}" for i in range(5)]
    factors = []
    k = 0
    for i in range(5):
        for j in range(i + 1, 5):
            if rng.random() < 0.5:
                factors.append((f"P{k}", (f"v{i}", f"v{j}"), rng.uniform(0.3, 1.8, 4)))
                k += 1
    for i in range(5):
        factors.append((f"H{i}", (f"v{i}",), rng.uniform(0.5, 1.5, 2)))
    fg = FactorGraph(variables, factors)
    g = reduce_degree(factor_to_forney(fg))
    core, log_const = two_core(g)
    assert core.num_edges <= 30
    want = exact_log_z_factor(fg)
    got = log_const + (exact_log_z(core) if core.num_nodes else 0.0)
    assert got == pytest.approx(want, rel=1e-12)
