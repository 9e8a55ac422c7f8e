"""Signed log-space Pfaffian and the two matrices built from orientations.

The windowed kernel takes a SparseSkew only; a test array enters through
oracles.lower, its strict lower triangle. The stacked kernel takes a dense
stack of small skew arrays, the series' borders.

Pf(A)^2 = det(A) pins magnitude; hand cases pin the sign convention; the
matching counts tie the all-ones matrix to combinatorics the Pfaffian code
knows nothing about.
"""

import importlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from planarz import (
    ForneyGraph,
    ModelParams,
    OrientationError,
    SignedLog,
    SparseSkew,
    fisher_extend,
    gen_grid,
    gen_spiderweb,
    matching_sign,
    orient,
    pfaffian,
    run_bp,
    two_core,
)
from planarz.pfaffian import (
    bordered_pfaffians,
    minor_pfaffian,
    skew_inverse,
    stacked_pfaffians,
    tutte_pattern,
)
from planarz.planar import _weight_pool
from planarz.series import _layout
from builders import ladder_graph, plain_extended, random_planar_vertex_graph
from oracles import kasteleyn_matrix, lower, matching_count, reference_pfaffian

pfaffian_module = importlib.import_module("planarz.pfaffian")


def _random_skew(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    return m - m.T


def _tutte(g):
    # the Tutte matrix K that the series takes on model g, as its entries
    return _layout(g).pattern.entries(_weight_pool(g, run_bp(g)))


def _grid_entries(n, theta, seed=0):
    # the K that z_empty takes the Pfaffian of on an n x n grid
    return _tutte(two_core(gen_grid(n, ModelParams(beta=1.0, theta=theta, seed=seed))[1])[0])


def _grid_tutte(n, theta):
    return _grid_entries(n, theta).dense()


def _pf(a):
    return pfaffian(lower(a))


def _pf_one_front(s):
    # the same elimination on one front that holds all of s from the start
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pfaffian_module, "FRONT", max(s.shape[0], 1))
        return pfaffian(s)


def test_two_by_two():
    a = np.array([[0.0, 3.5], [-3.5, 0.0]])
    pf = _pf(a)
    assert pf.sign == 1
    assert pf.to_float() == pytest.approx(3.5)
    assert _pf(-a).to_float() == pytest.approx(-3.5)


def test_four_by_four_identity():
    # closed form: a12 a34 - a13 a24 + a14 a23
    rng = np.random.default_rng(1)
    v = rng.normal(size=6)
    a12, a13, a14, a23, a24, a34 = v
    a = np.array(
        [
            [0, a12, a13, a14],
            [-a12, 0, a23, a24],
            [-a13, -a23, 0, a34],
            [-a14, -a24, -a34, 0],
        ]
    )
    want = a12 * a34 - a13 * a24 + a14 * a23
    assert _pf(a).to_float() == pytest.approx(want, rel=1e-12)


def test_odd_dimension_is_exactly_zero():
    for n in (1, 3, 5, 9):
        pf = _pf(_random_skew(n, n))
        assert pf.sign == 0


def test_empty_matrix_is_one():
    assert _pf(np.zeros((0, 0))).to_float() == 1.0


def test_pf_squared_is_det():
    for n in (2, 4, 6, 8, 12, 20, 130, 200, 300):
        a = _random_skew(n, seed=n)
        pf = _pf(a)
        sign, logdet = np.linalg.slogdet(a)
        assert sign == pytest.approx(1.0)
        assert 2.0 * pf.log_magnitude == pytest.approx(logdet, rel=1e-9)


def test_pf_squared_is_det_on_a_16x16_grid():
    # and on a 24 x 24 one, the V ~ 10^4 scale: 5376 ports, zero field
    for n, dim in ((16, 2304), (24, 5376)):
        a = _grid_tutte(n, 0.0)
        assert a.shape == (dim, dim)
        pf = _pf(a)
        sign, logdet = np.linalg.slogdet(a)
        assert sign == 1.0 and pf.sign != 0
        assert 2.0 * pf.log_magnitude == pytest.approx(logdet, rel=1e-10)


def test_edge_pfaffian_peaks_at_its_front():
    # Pf(K) from the edges holds a front a few windows wide and per-row
    # state, never an n x n array: under 3% of one dense copy on 16x16
    # grids (2,304 and 2,816 ports)
    for theta in (0.0, 1.0):
        s = _grid_entries(16, theta)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pfaffian(s)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.03 * s.shape[0] ** 2 * 8


def test_zero_row_keeps_the_front_small():
    # an all-zero row ends its own window: isolating vertex 1 of a band-5
    # matrix gives an exact zero from a front as small as the band's
    rng = np.random.default_rng(3)
    m = np.triu(rng.normal(size=(2000, 2000)), 1)
    m[np.triu_indices(2000, 6)] = 0.0
    m[1, :] = m[:, 1] = 0.0
    band = m - m.T
    s = lower(band)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pf = pfaffian(s)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert pf == SignedLog.zero() and np.linalg.slogdet(band)[0] == 0
    assert peak < 2e6


def test_pfaffian_matches_reference_kernel():
    # the window holds every entry the full eager step could change, so
    # each pivot and each updated float is the reference's, bit for bit
    rng = np.random.default_rng(11)
    cases = [_random_skew(n, seed=n + 1) for n in (2, 4, 78, 80, 82, 142, 146, 300)]
    cases += [_grid_tutte(n, theta) for n in (8, 12) for theta in (0.0, 1.0)]
    for n in (40, 120, 300):
        # sparse, then symmetrically permuted: rows reach far past the band
        m = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.06)
        p = rng.permutation(n)
        cases.append((m - m.T)[np.ix_(p, p)])
    for b in range(1, 6):
        m = np.triu(rng.normal(size=(100, 100)), 1)
        m[np.triu_indices(100, b + 1)] = 0.0
        cases.append(m - m.T)
    for a in cases:
        assert _pf(a) == reference_pfaffian(a) != SignedLog.zero()
    # singular: B J B^T of rank n/2, and a block-diagonal matrix whose rows
    # 14-19, 34-43 and 58-59 are all zero
    singular = []
    for n, r in ((130, 64), (300, 150)):
        b, j = rng.normal(size=(n, r)), rng.normal(size=(r, r))
        m = b @ (j - j.T) @ b.T
        singular.append((m - m.T) / 2)
    m = np.zeros((60, 60))
    for lo in (0, 20, 44):
        m[lo : lo + 14, lo : lo + 14] = _random_skew(14, seed=lo)
    singular.append(m)
    for a in singular:
        assert _pf(a) == reference_pfaffian(a) == SignedLog.zero()


def _pool(size, gen, beta, theta):
    # the Tutte matrices of a benchmark pool at seed 0: one model per
    # instance seed drawn from the pool's seed
    for s in np.random.SeedSequence(0).generate_state(size):
        yield _tutte(two_core(gen(ModelParams(beta=beta, theta=theta, seed=int(s)))[1])[0])


def test_edge_pfaffian_matches_the_dense_kernel():
    # the front loads K's entries from the oriented edges a block of rows at
    # a time, so every pivot is the eager dense elimination's, bit for bit
    pools = [
        (8, lambda p: gen_grid(8, p), 1.0, 0.0),  # grid_zero_field
        (64, lambda p: gen_grid(5, p), 1.0, 1.0),  # grid_field
        (16, lambda p: gen_spiderweb(1, 4, p), 0.5, 0.5),  # series_spiderweb
    ]
    checked = 0
    for pool in pools:
        for s in _pool(*pool):
            assert pfaffian(s) == reference_pfaffian(s.dense()) != SignedLog.zero()
            checked += 1
    assert checked == 88
    # grids whose windows move the front down 12 to 31 times, against one
    # front that holds all of K, as on the 8x8 and 12x12 grids of
    # test_pfaffian_matches_reference_kernel
    for n in (12, 16):
        for theta in (0.0, 1.0):
            s = _grid_entries(n, theta)
            assert pfaffian(s) == _pf_one_front(s) != SignedLog.zero()


def test_edge_pfaffian_moves_and_grows_its_front():
    # a long band moves the front down many times, against one front that
    # holds all of it; a dense matrix outgrows the front at once. Rounded
    # entries make ties and exact zeros
    rng = np.random.default_rng(3)
    m = np.triu(rng.normal(size=(2000, 2000)), 1)
    m[np.triu_indices(2000, 6)] = 0.0
    band = lower(m - m.T)
    assert pfaffian(band) == _pf_one_front(band) != SignedLog.zero()
    m = np.round(rng.normal(size=(300, 300)), 1)
    dense = np.triu(m, 1) - np.triu(m, 1).T
    assert (dense == 0).sum() > 300 + 2 * 300
    assert _pf(dense) == reference_pfaffian(dense) != SignedLog.zero()
    assert _pf(np.zeros((0, 0))) == SignedLog.one()
    assert _pf(_random_skew(5, seed=5)) == SignedLog.zero()


def test_bordered_pfaffian_matches_the_minor():
    # any even set of removed indices and any flipped pairs among the kept
    # ones: the border's Pfaffian, signed and scaled, is the minor's. Each
    # border takes the same bits alone and in one stack with the border
    # that removes every index, which pads it with unit blocks to n wide
    rng = np.random.default_rng(5)
    compared = 0
    for trial in range(40):
        n = int(rng.integers(4, 24)) // 2 * 2
        a = _random_skew(n, seed=trial)
        pf, inverse = _pf(a), skew_inverse(a)
        removed = sorted(rng.choice(n, size=int(rng.integers(0, n // 2)) * 2, replace=False).tolist())
        kept = [v for v in range(n) if v not in removed]
        flip = [tuple(sorted(rng.choice(kept, size=2, replace=False).tolist())) for _ in range(3)]
        flip = list(dict.fromkeys(flip))[: int(rng.integers(0, 4))]
        flip = {e: a[e] for e in flip}
        minor = a.copy()
        for u, v in flip:
            minor[u, v], minor[v, u] = -minor[u, v], -minor[v, u]
        want = _pf(minor[np.ix_(kept, kept)])
        assert minor_pfaffian(lower(a), removed, flip) == want
        [got] = _bordered(pf, inverse, [(removed, flip)])
        assert _bordered(pf, inverse, [(removed, flip), (list(range(n)), {})])[0] == got
        if got is None:  # the border cancelled
            continue
        assert got.sign == want.sign
        assert got.log_magnitude == pytest.approx(want.log_magnitude, abs=1e-12)
        compared += 1
    assert compared >= 30
    assert _bordered(pf, inverse, [([], {})]) == [pf]
    assert _bordered(pf, None, [([0, 1], {})]) == [None]
    assert _bordered(pf, inverse, []) == []


def test_minor_rejects_a_flipped_pair_that_is_no_entry():
    # a pair with no entry has nothing to negate; a search for its key
    # would land on a neighbouring entry and negate that one instead
    a = SparseSkew((4, 4), np.array([1, 2, 3]), np.array([0, 1, 2]), np.array([1.0, 2.0, 3.0]))
    assert minor_pfaffian(a, [], {(2, 3): 3.0}) == SignedLog(-1, math.log(3.0))
    for flip in ({(0, 3): 0.0}, {(0, 2): 0.0}, {(1, 1): 0.0}, {(0, 1): 1.0, (2, 3): 3.0, (1, 3): 0.0}):
        with pytest.raises(ValueError, match="not an entry"):
            minor_pfaffian(a, [], flip)
    empty = SparseSkew((2, 2), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))
    with pytest.raises(ValueError, match="not an entry"):
        minor_pfaffian(empty, [], {(0, 1): 0.0})


def _bordered(pf, inverse, borders):
    # bordered_pfaffians of (removed, flip) pairs, flip mapping each flipped
    # edge to its entry, packed into the padded rows it takes
    lengths = np.array([len(removed) + 2 * len(flip) for removed, flip in borders], dtype=np.intp)
    anchors = np.zeros((len(borders), lengths.max(initial=0)), dtype=np.intp)
    weights = np.zeros((len(borders), max((len(flip) for _, flip in borders), default=0)))
    for row, w, (removed, flip) in zip(anchors, weights, borders):
        t = [*removed, *(x for e in flip for x in e)]
        row[: len(t)] = t
        w[: len(flip)] = list(flip.values())
    counts = np.array([len(removed) for removed, _ in borders], dtype=np.intp)
    return bordered_pfaffians(pf, inverse, anchors, counts, lengths, weights)


def _padded(members):
    # one stack of the members, each padded to the widest with unit blocks
    # [[0, 1], [-1, 0]] down the diagonal
    d = max(len(a) for a in members)
    stack = np.tile(np.kron(np.eye(d // 2), [[0.0, 1.0], [-1.0, 0.0]]), (len(members), 1, 1))
    for s, a in zip(stack, members):
        s[: len(a), : len(a)] = a
    return stack


def test_stacked_pfaffians_match_the_reference_kernel():
    # one stack of mixed widths, each member the reference kernel's bit for
    # bit: dense ones, one that swaps rows on every step but the last,
    # one whose rounded entries tie and vanish, and singular ones, which
    # are exact zeros and leave every other member's bits as they are
    rng = np.random.default_rng(13)
    members = [_random_skew(n, seed=n) for n in (2, 4, 6, 10, 16, 24, 40)]
    # pairs (0, 2), (1, 4), (3, 6), ..., plus a little noise: each step's
    # largest entry below the pivot is its partner's, two rows down
    n = 20
    chain = np.zeros((n, n))
    pairs = [(0, 2)] + [(i, i + 3) for i in range(1, n - 4, 2)] + [(n - 3, n - 1)]
    for u, v in pairs:
        chain[u, v] = rng.uniform(1.0, 2.0)
    chain += 1e-3 * np.triu(rng.normal(size=(n, n)), 1)
    members.append(chain - chain.T)
    m = np.triu(rng.integers(-2, 3, size=(14, 14)), 1).astype(float)
    ties = m - m.T
    col = np.abs(ties[1:, 0])
    assert (col == col.max()).sum() > 1 and (ties == 0).sum() > 14
    members.append(ties)
    for a in members:
        assert reference_pfaffian(a) != SignedLog.zero()
    b, j = rng.normal(size=(12, 6)), _random_skew(6, seed=6)
    low_rank = b @ j @ b.T
    zero_col = _random_skew(8, seed=8)
    zero_col[:, 3] = zero_col[3, :] = 0.0
    singular = [(low_rank - low_rank.T) / 2, zero_col]
    for a in singular:
        assert reference_pfaffian(a) == SignedLog.zero()
    mixed = members[:3] + singular[:1] + members[3:7] + singular[1:] + members[7:]
    got = stacked_pfaffians(_padded(mixed))
    assert got == [reference_pfaffian(a) for a in mixed]
    assert [g for g, a in zip(got, mixed) if not any(a is s for s in singular)] == stacked_pfaffians(_padded(members))
    assert got[3] == got[8] == SignedLog.zero()


def test_singular_matrix_has_no_inverse():
    a = np.zeros((4, 4))
    a[0, 1], a[1, 0] = 1.0, -1.0
    assert _pf(a).sign == 0 and skew_inverse(a) is None
    b = _random_skew(6, seed=1)
    inverse = skew_inverse(b)
    assert _pf(b).sign != 0 and np.array_equal(inverse, -inverse.T)
    assert np.allclose(inverse @ b, np.eye(6))


def test_row_col_swap_flips_sign():
    a = _random_skew(6, seed=3)
    p = list(range(6))
    p[1], p[4] = p[4], p[1]
    b = a[np.ix_(p, p)]
    pa, pb = _pf(a), _pf(b)
    assert pb.sign == -pa.sign
    assert pb.log_magnitude == pytest.approx(pa.log_magnitude, rel=1e-12)


def test_zero_matrix_pf_zero():
    assert _pf(np.zeros((4, 4))).sign == 0


def test_extreme_scale_stability():
    # blocks of hugely different scales stay finite in log space
    a = np.zeros((4, 4))
    a[0, 1], a[2, 3] = 1e160, 1e160
    a -= a.T
    pf = _pf(a)
    assert pf.sign == 1
    assert pf.log_magnitude == pytest.approx(2 * math.log(1e160), rel=1e-12)


def test_skew_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        _pf(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        _pf(np.array([[0.0, np.inf], [-np.inf, 0.0]]))


def test_malformed_entries_are_rejected():
    # a 600 x 600 band-5 matrix whose entries list rows 300-599 first would
    # load as an exact zero, though its log |Pf| is 155.8; a repeated
    # entry would overwrite the first
    rng = np.random.default_rng(3)
    m = np.triu(rng.normal(size=(600, 600)), 1)
    m[np.triu_indices(600, 6)] = 0.0
    band = lower(m - m.T)
    assert pfaffian(band).log_magnitude == pytest.approx(0.5 * np.linalg.slogdet(m - m.T)[1], rel=1e-10)
    half = int(np.searchsorted(band.rows, 300))
    order = np.r_[half : len(band.rows), 0:half]
    late_first = SparseSkew(band.shape, band.rows[order], band.cols[order], band.vals[order])
    pair = SparseSkew((2, 2), np.array([1, 1]), np.array([0, 0]), np.array([2.0, 3.0]))
    for bad in (late_first, pair):
        with pytest.raises(ValueError, match="strictly increasing row-major order"):
            pfaffian(bad)
    one = np.array([1])
    with pytest.raises(ValueError, match="differ in length"):
        pfaffian(SparseSkew((2, 2), one, np.array([0, 0]), np.array([1.0])))
    for rows, cols in ((one, one), (np.array([2]), np.array([0])), (one, -one)):
        with pytest.raises(ValueError, match="outside 0 <= col < row < n"):
            pfaffian(SparseSkew((2, 2), rows, cols, np.array([1.0])))
    with pytest.raises(ValueError, match="need a square matrix"):
        pfaffian(SparseSkew((2, 3), one, np.array([0]), np.array([1.0])))


def test_pfaffian_rejects_non_finite_entries():
    # +-inf must not become an infinite Pfaffian or, through an infinite
    # pivot tolerance, an exact zero; NaN is not a skew-symmetry failure
    big = _random_skew(4, seed=5)
    big[0, 3], big[3, 0] = np.inf, -np.inf
    nan = _random_skew(4, seed=6)
    nan[1, 2] = nan[2, 1] = np.nan
    for bad in (np.array([[0, np.inf], [-np.inf, 0]]), big, nan):
        with pytest.raises(ValueError, match="entries must be finite"):
            _pf(bad)


def test_pfaffian_leaves_input_unchanged():
    # and so does a minor built from the entries
    a = _random_skew(8, seed=7)
    s = lower(a)
    kept = [x.copy() for x in (s.rows, s.cols, s.vals)]
    first = pfaffian(s)
    minor_pfaffian(s, [0, 5], {(1, 2): a[1, 2]})
    assert all(np.array_equal(x, y) for x, y in zip((s.rows, s.cols, s.vals), kept))
    assert pfaffian(s) == first


def test_tutte_matrix_of_the_empty_graph_is_0x0():
    a = tutte_pattern(orient(fisher_extend(ForneyGraph({}, {})))).entries(np.ones(0)).dense()
    assert a.shape == (0, 0)
    assert _pf(a) == SignedLog.one()


def _weighted_square(weights, extra=()):
    # the Tutte matrix of the 4-cycle 0-1-2-3 with the given edge weights,
    # plus extra (port pair, weight) edges, each oriented as written
    o = orient(plain_extended(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    edges = o.ext.edges + tuple(e for e, _ in extra)
    orientation = {**o.orientation, **{e: e for e, _ in extra}}
    o = replace(o, ext=replace(o.ext, edges=edges, source=tuple(range(len(edges)))), orientation=orientation)
    return tutte_pattern(o).entries(np.array([*weights, *(w for _, w in extra)], dtype=float))


def test_tutte_matrix_rejects_duplicate_port_pairs():
    o = orient(plain_extended(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert tutte_pattern(o).entries(np.ones(4)).dense().shape == (4, 4)
    doubled = replace(o, ext=replace(o.ext, edges=o.ext.edges + (o.ext.edges[0],)))
    with pytest.raises(ValueError, match="parallel"):
        tutte_pattern(doubled)


def test_edge_pfaffian_rejects_non_finite_weights():
    for bad in (np.inf, -np.inf, np.nan):
        s = _weighted_square([1.0, bad, 1.0, 1.0])
        for a in (s, lower(s.dense())):
            with pytest.raises(ValueError, match="entries must be finite"):
                pfaffian(a)


def test_edge_pfaffian_rejects_a_loop_edge():
    # a loop's entry would sit on the diagonal; one of weight zero has none
    loop = (2, 2)
    with pytest.raises(ValueError, match="skew"):
        _weighted_square([1.0] * 4, [(loop, 0.5)])
    s = _weighted_square([1.0] * 4, [(loop, 0.0)])
    assert pfaffian(s) == _pf(s.dense()) != SignedLog.zero()


def test_edge_pfaffian_threshold_is_relative_to_the_largest_weight():
    # the second pivot is w23 + w12 w30 / w01, about 1e-7, against a
    # threshold of PIVOT_THRESHOLD (1e-12) times max(1, w01): 1e-8, then
    # 1e-6; weights all 1e-13 fall below the floor of 1e-12
    for w, zero in (([1e4] + [1e-7] * 3, False), ([1e6] + [1e-7] * 3, True), ([1e-13] * 4, True)):
        s = _weighted_square(w)
        pf = pfaffian(s)
        assert pf == _pf(s.dense()) and (pf.sign == 0) == zero
    # a zero weight is no entry, as in the dense matrix
    s = _weighted_square([2.0, 0.0, 3.0, 0.5])
    assert 0.0 not in s.vals and len(s.vals) == 3
    assert pfaffian(s) == _pf(s.dense())
    assert abs(pfaffian(s).to_float()) == pytest.approx(6.0)


# ------------------------------------------------------- matching counts


def test_kasteleyn_pf_counts_matchings():
    for seed in range(25):
        n, edges = random_planar_vertex_graph(seed)
        if n > 14:
            continue
        ext = plain_extended(n, edges)
        o = orient(ext)
        pf = _pf(kasteleyn_matrix(o))
        want = matching_count(ext.num_vertices, ext.edges)
        if want == 0:
            assert pf.sign == 0
        else:
            got = math.exp(pf.log_magnitude)
            assert got == pytest.approx(want, rel=1e-10)


def test_ladder_gadget_matrices():
    g = ladder_graph(seed=0)
    res = run_bp(g)
    lay = _layout(g)
    o, pattern = lay.o, lay.pattern
    b_hat = kasteleyn_matrix(o)
    assert math.exp(_pf(b_hat).log_magnitude) == pytest.approx(8.0, rel=1e-12)
    a_hat = pattern.entries(_weight_pool(g, res)).dense()
    # internal weights present, externals 1: matrices differ only there
    assert a_hat.shape == b_hat.shape


def test_matching_sign_rules():
    # a pair written head first flips the sign: sign(t1 h1 t2 h2 ...)
    assert matching_sign([(0, 1)]) == 1
    assert matching_sign([(1, 0)]) == -1
    assert matching_sign([]) == 1
    # closed form a12 a34 - a13 a24 + a14 a23 gives the pairing signs
    assert matching_sign([(0, 1), (2, 3)]) == 1
    assert matching_sign([(0, 2), (1, 3)]) == -1
    assert matching_sign([(0, 3), (1, 2)]) == 1
    assert matching_sign([(3, 0), (1, 2)]) == -1
    # the reference must cover every vertex exactly once
    for bad in ([(0, 1), (1, 2)], [(0, 1), (2, 4)], [(1, 2)]):
        with pytest.raises(ValueError):
            matching_sign(bad)
