"""Model containers, conversions, reductions, and the exact oracles.

The exact enumerators are the ground truth for everything downstream, so
they get the most paranoid checks here: closed-form cases, agreement
between the edge-level and factor-level enumerations, and invariance of Z
under every structural transformation.
"""

import importlib
import itertools
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
    gen_grid,
    grid_factor_graph,
    reduce_degree,
    solve_forney,
    two_core,
)
from planarz.model import canon_edge

from builders import cycle_forney, ladder_graph, random_planar_forney, random_tree_forney
from oracles import assignment_to_index, brute_log_z_factor, index_to_assignment, transfer_log_z

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


def test_model_params_rejects_a_negative_seed():
    # numpy's SeedSequence would reject it later, without naming it
    with pytest.raises(ModelError, match="seed must be non-negative, got -1"):
        ModelParams(beta=1.0, seed=-1)


def test_model_params_rejects_a_non_finite_beta_or_theta():
    # nan < 0 is false, so the sign check alone lets nan through
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ModelError, match="beta must be finite"):
            ModelParams(beta=bad)
        with pytest.raises(ModelError, match="theta must be finite"):
            ModelParams(beta=1.0, theta=bad)


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


def test_exact_z_degree_zero_node_is_a_constant():
    # a degree-0 node is a factor with an empty scope: its one entry
    # multiplies the sum over the other nodes' edges
    tri = cycle_forney(3, seed=2)
    g = ForneyGraph({**tri.neighbors, "d": ()}, {**tri.tables, "d": [2.5]})
    total = 0.0
    for spins in itertools.product((-1, 1), repeat=3):
        value = dict(zip(tri.edges, spins))
        p = 2.5
        for a in tri.nodes:
            idx = assignment_to_index(tuple(value[canon_edge(a, b)] for b in tri.neighbors[a]))
            p *= tri.tables[a][idx]
        total += p
    assert exact_log_z(g) == pytest.approx(math.log(total), rel=1e-12)
    alone = ForneyGraph({"d": ()}, {"d": [2.5]})
    assert exact_log_z(alone) == pytest.approx(math.log(2.5), rel=1e-15)


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
        assert transfer_log_z(fg) == pytest.approx(want, rel=1e-12), f"seed {seed}"


def test_transfer_oracle_matches_enumeration_on_grids():
    # the grid acceptance tests take their exact values from it
    for n, theta, attractive, seed in ((3, 1.0, False, 1), (4, 0.0, False, 0), (4, 1.0, True, 3)):
        fg = grid_factor_graph(n, ModelParams(1.0, theta, attractive, seed))
        assert transfer_log_z(fg) == pytest.approx(exact_log_z_factor(fg), rel=1e-12), n


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


def test_kept_builds_once_per_topology():
    # each builder runs once per topology, whatever the tables; another
    # topology drops everything kept, and a build that raises keeps nothing
    calls = []

    def builder(name):
        def build(g):
            calls.append(name)
            return object()

        return build

    first, second = builder("first"), builder("second")
    g, retabled = ladder_graph(seed=0), ladder_graph(seed=1)
    a, b = model_module._kept(g, first), model_module._kept(g, second)
    assert model_module._kept(g, first) is a and model_module._kept(g, second) is b
    assert model_module._kept(retabled, first) is a and model_module._kept(retabled, second) is b
    assert calls == ["first", "second"]
    model_module._kept(cycle_forney(3, seed=0), first)  # another topology takes the slot
    a2, b2 = model_module._kept(g, first), model_module._kept(g, second)
    assert a2 is not a and b2 is not b
    assert calls == ["first", "second", "first", "first", "second"]
    outcomes = iter([ModelError("first build fails"), "built"])

    def flaky(g):
        calls.append("flaky")
        out = next(outcomes)
        if isinstance(out, Exception):
            raise out
        return out

    with pytest.raises(ModelError, match="first build fails"):
        model_module._kept(g, flaky)
    assert model_module._kept(g, flaky) == "built"
    assert model_module._kept(g, flaky) == "built"
    assert model_module._kept(g, first) is a2
    assert calls[-2:] == ["flaky", "flaky"]


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


def test_factor_to_forney_second_shared_variable_gets_an_equality_node():
    # A and B share x and y: x is the direct edge, y goes through eq_y so
    # the edges stay simple, and Z is kept
    rng = np.random.default_rng(4)
    fg = FactorGraph(
        ["x", "y"],
        [("A", ("x", "y"), rng.uniform(0.2, 2.0, 4)), ("B", ("y", "x"), rng.uniform(0.2, 2.0, 4))],
    )
    g = factor_to_forney(fg)
    assert g.neighbors == {"A": ("B", "eq_y"), "B": ("eq_y", "A"), "eq_y": ("A", "B")}
    assert exact_log_z(g) == pytest.approx(exact_log_z_factor(fg), rel=1e-12)


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


def test_two_core_of_a_core_is_itself():
    # nothing to strip: the input itself comes back, with no constant; the
    # field nodes hanging off a theta = 1 grid are still absorbed
    flat = gen_grid(4, ModelParams(beta=1.0, theta=0.0, seed=0))[1]
    core, log_const = two_core(flat)
    assert core is flat and log_const == 0.0
    g = gen_grid(4, ModelParams(beta=1.0, theta=1.0, seed=0))[1]
    core, _ = two_core(g)
    assert core is not g and core.num_nodes == g.num_nodes - 16
    assert two_core(core)[0] is core


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


# ---------------------------------------------------------------- checks


def test_each_table_is_checked_once(monkeypatch):
    # FactorGraph checks the 65 factor tables of a 5x5 field grid; the
    # stages after it copy those tables or build equality tables, and
    # check nothing again. The solve's two_core checks only the 25 tables
    # it recomputes, those of the nodes that absorb a field node
    real = model_module._check_table
    owners = []
    monkeypatch.setattr(
        model_module, "_check_table", lambda owner, *a: owners.append(owner) or real(owner, *a)
    )
    _, g = gen_grid(5, ModelParams(1.0, 1.0, seed=0))
    assert len(owners) == 65
    owners.clear()
    solve_forney(g, method="z_empty")
    absorbing = {a for a in g.nodes if any(b.startswith("h") for b in g.neighbors[a])}
    assert len(absorbing) == 25
    assert sorted(owners) == sorted(absorbing)


def _absorbed_overflow():
    # y occurs only in f: summing it out of f overflows
    return factor_to_forney(
        FactorGraph(
            ["x", "y", "z"],
            [
                ("f", ("x", "y"), [1e308] * 4),
                ("g", ("x", "z"), [1.0, 2.0, 3.0, 4.0]),
                ("h", ("z", "x"), [1.0, 1.0, 1.0, 1.0]),
            ],
        )
    )


def _two_core_of(a, b):
    # leaf a hangs off b, which stays in the core with c and d
    nbrs = {"a": ("b",), "b": ("a", "c", "d"), "c": ("b", "d"), "d": ("b", "c")}
    tabs = {"a": a, "b": b, "c": [1.0, 2.0, 3.0, 4.0], "d": [1.0, 2.0, 3.0, 4.0]}
    return two_core(ForneyGraph(nbrs, tabs))


def _tree_overflow():
    # b absorbs a, overflows, and is left alone: no core, an infinite constant
    return two_core(ForneyGraph({"a": ("b",), "b": ("a",)}, {"a": [1e308] * 2, "b": [1e308] * 2}))


@pytest.mark.parametrize(
    "build, message",
    [
        (_absorbed_overflow, "table of 'f' has non-finite entries"),
        (lambda: _two_core_of([1e308] * 2, [1e308] * 8), "table of 'b' has non-finite entries"),
        (lambda: _two_core_of([1e-200] * 2, [1e-200] * 8), "table of 'b' is identically zero"),
        (_tree_overflow, "table of 'b' has non-finite entries"),
    ],
)
def test_computed_tables_are_checked(build, message):
    # valid input tables whose sum or product leaves the float range; no
    # RuntimeWarning comes first (tier-1 turns one into an error)
    with pytest.raises(ModelError) as err:
        build()
    assert str(err.value) == message


def test_derived_graphs_pass_the_public_checks():
    # each stage's unchecked output is what the checking constructor
    # builds from the same neighbors and tables
    fg = grid_factor_graph(4, ModelParams(1.0, 1.0, seed=2))
    forney = factor_to_forney(fg)
    reduced = reduce_degree(forney)
    core, _ = two_core(reduced)
    for h in (forney, reduced, core):
        again = ForneyGraph(h.neighbors, h.tables)
        assert again.nodes == h.nodes and again.neighbors == h.neighbors
        assert again.edges == h.edges
        assert all(again.tables[a] is h.tables[a] for a in h.nodes)
