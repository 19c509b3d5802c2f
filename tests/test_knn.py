import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from meshseg import knn
from meshseg.knn import (
    FeatureValueError,
    GatherIndexError,
    GraphConfigError,
    KnnGraph,
    build_block_knn_graph,
    build_knn_graph,
)
from meshseg.layers import GraphAttentionLayer, GraphMaxPoolLayer
from meshseg.mesh import build_cell_features
from meshseg.synth import generate
from meshseg.tensor import (
    BatchNormState,
    DimensionError,
    Tensor,
    _toposort,
    attend,
    concat_channels,
    gradient_check,
    no_tape,
    shared_mlp,
    sum_all,
)
from meshseg.verify import desk_arch_spec
from reference import (
    affine_last_axis,
    attention_pool,
    batch_norm,
    edge_affine,
    edge_tensors,
    folded_mlp,
    gather_neighbors,
    leaky_relu,
    max_pool_mlp,
    mul,
    relative_gap,
)


def brute_force_knn(features, k, include_self=False):
    # independent O(M^2) oracle: explicit float64 differences row by row,
    # ties by index
    features = np.asarray(features, dtype=np.float64)
    m = features.shape[0]
    out = np.empty((m, k), dtype=np.int64)
    for i in range(m):
        d = ((features - features[i]) ** 2).sum(axis=1)
        if not include_self:
            d[i] = np.inf
        out[i] = np.lexsort((np.arange(m), d))[:k]
    return out


def test_line_features_hand_example():
    graph = build_knn_graph(np.array([[0.0], [1.0], [3.0], [7.0]]), k=2)
    assert graph.indices[0].tolist() == [1, 2]


def test_complete_graph_when_k_is_m_minus_one():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(6, 3))
    graph = build_knn_graph(feats, k=5)
    for i in range(6):
        assert sorted(graph.indices[i].tolist()) == sorted(set(range(6)) - {i})
        d = np.sum((feats[graph.indices[i]] - feats[i]) ** 2, axis=1)
        assert np.all(np.diff(d) >= -1e-12)


def test_duplicate_rows_tie_break_to_lower_index():
    feats = np.array([[0.0], [1.0], [1.0], [1.0]])
    a = build_knn_graph(feats, k=2)
    b = build_knn_graph(feats, k=2)
    assert a.indices[0].tolist() == [1, 2]  # equal distances -> lower ids first
    assert np.array_equal(a.indices, b.indices)


def test_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(42)
    for _ in range(10):
        m = int(rng.integers(10, 120))
        k = int(rng.integers(1, min(m - 1, 9)))
        feats = rng.normal(size=(m, int(rng.integers(1, 6))))
        graph = build_knn_graph(feats, k)
        assert np.array_equal(graph.indices, brute_force_knn(feats, k))


def test_matches_brute_force_with_exact_ties():
    # integer grid features produce exactly representable tied distances
    rng = np.random.default_rng(1)
    feats = rng.integers(0, 4, size=(40, 2)).astype(np.float64)
    graph = build_knn_graph(feats, k=6)
    assert np.array_equal(graph.indices, brute_force_knn(feats, 6))


def test_self_excluded_by_default_and_included_on_request():
    feats = np.array([[0.0], [5.0], [9.0]])
    g = build_knn_graph(feats, k=2)
    assert not any(i in g.indices[i] for i in range(3))
    g_self = build_knn_graph(feats, k=2, include_self=True)
    assert all(g_self.indices[i, 0] == i for i in range(3))


def test_k_bounds_error():
    with pytest.raises(GraphConfigError):
        build_knn_graph(np.zeros((4, 2)), k=4)


def test_permutation_consistency():
    rng = np.random.default_rng(17)
    feats = rng.normal(size=(30, 3))  # continuous: tie-free
    perm = rng.permutation(30)
    g = build_knn_graph(feats, k=4)
    g_perm = build_knn_graph(feats[perm], k=4)
    inv = np.argsort(perm)
    assert np.array_equal(g_perm.indices, inv[g.indices[perm]])


def test_block_knn_stays_inside_blocks():
    rng = np.random.default_rng(8)
    feats = np.concatenate([rng.normal(size=(10, 2)), rng.normal(size=(10, 2))])
    graph = build_block_knn_graph(feats, block_size=10, k=3)
    assert np.all(graph.indices[:10] < 10)
    assert np.all(graph.indices[10:] >= 10)
    single = build_knn_graph(feats[10:], k=3)
    assert np.array_equal(graph.indices[10:] - 10, single.indices)


@pytest.mark.parametrize("block_size", [0, -3])
def test_block_size_below_one_rejected(block_size):
    with pytest.raises(DimensionError) as exc:
        build_block_knn_graph(np.arange(9.0)[:, None], block_size, k=3)
    assert str(block_size) in str(exc.value)


def test_non_finite_or_float32_overflowing_values_raise_typed_error():
    for bad in (np.nan, np.inf, 1e30):
        feats = np.zeros((6, 2))
        feats[3, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FeatureValueError):
                build_knn_graph(feats, k=2)


# ---------------------------------------------------------------------------
# exact where float32 rounding bites, in bounded memory
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def arch_coords():
    # the float32 coordinate block of one 1200-cell desk arch
    mesh = generate(dataclasses.replace(desk_arch_spec(), seed=3))
    return build_cell_features(mesh).as_array()[:, :12].astype(np.float32)


def rotated(coords):
    a, b = 0.7, 1.9
    rz = np.array([[np.cos(a), -np.sin(a), 0], [np.sin(a), np.cos(a), 0], [0, 0, 1]])
    rx = np.array([[1, 0, 0], [0, np.cos(b), -np.sin(b)], [0, np.sin(b), np.cos(b)]])
    pts = coords.astype(np.float64).reshape(-1, 4, 3) @ (rx @ rz).T
    return pts.reshape(-1, 12).astype(np.float32)


@pytest.mark.parametrize("include_self", [False, True])
@pytest.mark.parametrize("move", ["shift-10", "shift-100", "shift-1000", "rotate"])
def test_moved_arch_matches_brute_force(arch_coords, move, include_self):
    m = arch_coords.shape[0]
    assert m % knn._ROWS  # the last row chunk is a short one
    if move == "rotate":
        feats = rotated(arch_coords)
    else:
        feats = arch_coords + np.float32(move.split("-")[1])
    assert feats.dtype == np.float32
    graph = build_knn_graph(feats, 12, include_self)
    assert np.array_equal(graph.indices, brute_force_knn(feats, 12, include_self))


@pytest.mark.parametrize("include_self", [False, True])
def test_offset_integer_grid_ties_match_brute_force(include_self):
    # exact distance ties that uncentred float32 |a|^2 + |b|^2 - 2ab loses
    rng = np.random.default_rng(12)
    feats = rng.integers(0, 6, size=(400, 3)).astype(np.float32) + np.float32(4096)
    graph = build_knn_graph(feats, 8, include_self)
    assert np.array_equal(graph.indices, brute_force_knn(feats, 8, include_self))


def _clustered_by_residue(m, g):
    # column c sits in cluster c % g, clusters 100 apart: each row's k
    # nearest share its residue mod g, so a bound from the minima of
    # groups of strided columns would be loose
    c = np.arange(m)
    return np.stack([(c % g) * 100.0 + (c // g) * 1.5, (c // g) ** 2 * 0.25], axis=1)


# name: (features, k); layouts once chosen to defeat a group-minimum bound,
# kept as oracle cases: ties, widths near 8 (k + 1), huge values
ADVERSARIAL = {
    "all-rows-identical": (np.full((96, 3), 2.5), 6),
    "neighbours-share-a-residue": (_clustered_by_residue(96, 12), 5),
    "m-just-below-8(k+1)": (np.random.default_rng(21).normal(size=(47, 3)), 5),
    "m-at-8(k+1)": (np.random.default_rng(22).normal(size=(48, 3)), 5),
    "m-just-above-8(k+1)": (np.random.default_rng(23).normal(size=(49, 3)), 5),
    "m-not-a-multiple-of-s": (np.random.default_rng(24).normal(size=(101, 4)), 4),
    "padding-beside-huge-values": (
        np.random.default_rng(25).normal(size=(49, 3)) * 2e18, 5),
}


@pytest.mark.parametrize("include_self", [False, True])
@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
def test_group_bound_adversarial_layouts_match_brute_force(case, include_self):
    feats, k = ADVERSARIAL[case]
    m = len(feats)
    graph = build_knn_graph(feats, k, include_self)
    assert graph.indices.max() < m  # never a column past M
    assert np.array_equal(graph.indices, brute_force_knn(feats, k, include_self))


def test_tiny_chunk_budget_stays_exact(monkeypatch):
    # one row per chunk and one row per re-rank step, wide tied candidate sets
    monkeypatch.setattr(knn, "_CHUNK_ELEMS", 50)
    rng = np.random.default_rng(13)
    for feats in (rng.integers(0, 3, size=(97, 3)).astype(np.float64),
                  rng.normal(size=(61, 5)) + 100.0):
        for include_self in (False, True):
            graph = build_knn_graph(feats, 5, include_self)
            assert np.array_equal(graph.indices, brute_force_knn(feats, 5, include_self))


def test_peak_memory_is_bounded_by_the_row_chunk():
    feats = np.random.default_rng(14).normal(size=(8000, 32)).astype(np.float32)
    tracemalloc.start()
    try:
        build_knn_graph(feats, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, f"{peak / 2**20:.1f} MB"


# ---------------------------------------------------------------------------
# tied and clustered rows: exact, in bounded work and memory
# ---------------------------------------------------------------------------

def _duplicate_groups(seed):
    # distinct rows beside groups of 2 to 40 copies (some of them on an
    # integer grid, so distances tie across groups), shuffled
    rng = np.random.default_rng(seed)
    rows = [rng.normal(size=(int(rng.integers(50, 300)), 4))]
    for _ in range(int(rng.integers(1, 8))):
        row = rng.integers(0, 3, size=4) if rng.random() < 0.5 else rng.normal(size=4)
        rows.append(np.repeat(row[None].astype(np.float64), int(rng.integers(2, 41)), axis=0))
    feats = np.concatenate(rows)
    return feats[rng.permutation(len(feats))]


@pytest.mark.parametrize("include_self", [False, True])
@pytest.mark.parametrize("seed", range(40, 50))
def test_duplicate_groups_match_brute_force(seed, include_self):
    feats = _duplicate_groups(seed)
    k = int(np.random.default_rng(seed).integers(1, 13))
    graph = build_knn_graph(feats, k, include_self)
    assert np.array_equal(graph.indices, brute_force_knn(feats, k, include_self))


@pytest.mark.parametrize("include_self", [False, True])
def test_equal_rows_rerank_at_most_k_plus_one_candidates(monkeypatch, include_self):
    m, k = 8000, 12
    real, widest = knn._rerank, []

    def counting(x64, rows, hits, k):
        widest.append(np.bincount(np.concatenate(hits) // m, minlength=len(rows)).max())
        return real(x64, rows, hits, k)

    monkeypatch.setattr(knn, "_rerank", counting)
    graph = build_knn_graph(np.ones((m, 12)), k, include_self)
    assert max(widest) <= k + 1
    # all distances tie: the k lowest ids, the row itself only if allowed
    ids = np.arange(k + 1)
    for i in (0, k - 1, k, m - 1):
        want = ids[:k] if include_self else ids[ids != i][:k]
        assert graph.indices[i].tolist() == want.tolist()
    assert np.array_equal(graph.indices[k + 1:], np.broadcast_to(ids[:k], (m - k - 1, k)))


@pytest.mark.parametrize("include_self", [False, True])
def test_tight_cluster_matches_brute_force_in_bounded_memory(include_self):
    # half the rows 1e-9 apart, 5 units from the rest: every cluster row is
    # a candidate of every other, so the re-rank budget bounds the memory
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(4000, 12))
    feats[:2000] = 5.0 / np.sqrt(12) + rng.normal(size=(2000, 12)) * 1e-9
    tracemalloc.start()
    try:
        graph = build_knn_graph(feats, 12, include_self)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20, f"{peak / 2**20:.1f} MB"
    assert np.array_equal(graph.indices, brute_force_knn(feats, 12, include_self))


# ---------------------------------------------------------------------------
# the principal-axis bound: layouts that defeat it, and proof that it prunes
# ---------------------------------------------------------------------------

def _two_clusters():
    rng = np.random.default_rng(31)
    return np.concatenate([rng.normal(size=(300, 3)) * 1e-3,
                           rng.normal(size=(300, 3)) * 1e-3 + 1e3])


def _one_line():
    # two rows at each of 300 unit-spaced points of one line, shuffled: the
    # k-th neighbour lies along the axis, so the bound is tight, and
    # projections and distances tie exactly
    t = np.random.default_rng(32).permutation(np.arange(600.0) // 2)
    return t[:, None] * np.array([[1.0, 2.0, -2.0]])


def _isotropic_grid():
    # a full 9 x 9 x 9 integer grid: all three eigenvalues are equal
    return np.stack(np.meshgrid(*[np.arange(9.0)] * 3, indexing="ij"), -1).reshape(-1, 3)


BOUND_ADVERSARIAL = {
    "two-tight-clusters-far-apart": _two_clusters,
    "points-on-one-line": _one_line,
    "offset-1e6-unit-spread": lambda: (
        np.random.default_rng(33).normal(size=(700, 4)) + 1e6).astype(np.float32),
    "integer-grid-without-a-unique-top-axis": _isotropic_grid,
    "rows-at-1e-22": lambda: np.random.default_rng(34).normal(size=(600, 3)) * 1e-22,
}


@pytest.mark.parametrize("include_self", [False, True])
@pytest.mark.parametrize("case", sorted(BOUND_ADVERSARIAL))
def test_bound_adversarial_layouts_match_brute_force(case, include_self):
    feats = BOUND_ADVERSARIAL[case]()
    assert len(feats) > 2 * knn._ROWS  # several row chunks
    graph = build_knn_graph(feats, 7, include_self)
    assert np.array_equal(graph.indices, brute_force_knn(feats, 7, include_self))


@pytest.mark.parametrize("include_self", [False, True])
def test_sign_flipped_axis_gives_the_same_graph(monkeypatch, include_self):
    feats = np.random.default_rng(35).integers(0, 5, size=(500, 3)).astype(np.float64)
    want = build_knn_graph(feats, 6, include_self).indices
    assert np.array_equal(want, brute_force_knn(feats, 6, include_self))
    axis = knn._principal_axis
    monkeypatch.setattr(knn, "_principal_axis", lambda c: -axis(c))
    assert np.array_equal(build_knn_graph(feats, 6, include_self).indices, want)


@pytest.mark.parametrize("include_self", [False, True])
@pytest.mark.parametrize("case", ["points-on-one-line", "integer-grid-without-a-unique-top-axis"])
def test_kept_columns_hold_every_neighbour_and_tie(monkeypatch, case, include_self):
    # the bound itself, not only the graph: a product wider than the kept
    # run would hide a bound that is too tight
    feats, k = BOUND_ADVERSARIAL[case](), 7
    axis, kept = knn._principal_axis, knn._kept_columns
    seen, runs = [], []

    def recording(p, lo, hi, reach):
        runs.append((lo, hi, kept(p, lo, hi, reach)))
        return runs[-1][2]

    monkeypatch.setattr(knn, "_principal_axis", lambda c: seen.append(c) or axis(c))
    monkeypatch.setattr(knn, "_kept_columns", recording)
    build_knn_graph(feats, k, include_self)
    order = np.argsort(seen[0] @ axis(seen[0]), kind="stable")
    position = np.argsort(order)  # sorted position of each original row
    assert len(runs) > 2
    for lo, hi, (need0, need1) in runs:
        for i in order[lo:hi]:
            d = ((feats - feats[i]) ** 2).sum(axis=1)
            if not include_self:
                d[i] = np.inf
            near = np.flatnonzero(d <= np.partition(d, k - 1)[k - 1])
            assert need0 <= position[near].min() and position[near].max() < need1


@pytest.fixture(scope="module")
def large_arch_graphs():
    """(features, k, the model's graph) of each KNN call of a desk-model
    predict on one 3,996-cell arch: the coordinate block and two layers'
    features."""
    import meshseg.model as model_mod
    from meshseg.training import inference_features
    from meshseg.verify import desk_model_config

    mesh = generate(dataclasses.replace(desk_arch_spec(), cells_target=4000, seed=3))
    calls, real = [], model_mod.build_block_knn_graph

    def spy(features, block_size, k, include_self=False):
        graph = real(features, block_size, k, include_self)
        calls.append((np.array(features), k, graph.indices))
        return graph

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_mod, "build_block_knn_graph", spy)
        model_mod.build_variant(desk_model_config()).predict(inference_features(mesh))
    assert len(calls) == 3 and len(calls[0][0]) == 3996
    return calls


@pytest.mark.parametrize("include_self", [False, True])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_large_arch_graphs_match_brute_force(large_arch_graphs, depth, include_self):
    feats, k, table = large_arch_graphs[depth]
    want = brute_force_knn(feats, k, include_self)
    if not include_self:
        assert np.array_equal(table, want)  # the graph the model built
    assert np.array_equal(build_knn_graph(feats, k, include_self).indices, want)


def test_bound_skips_most_distances_on_a_large_arch(large_arch_graphs, monkeypatch):
    real = knn._distances
    for feats, k, _ in large_arch_graphs:
        products = []

        def counting(rows, at, sq_col, c0, c1, *args):
            products.append(len(rows) * (c1 - c0))
            return real(rows, at, sq_col, c0, c1, *args)

        monkeypatch.setattr(knn, "_distances", counting)
        build_knn_graph(feats, k)
        m = len(feats)
        assert products, "the product helper was never called"
        assert sum(products) <= 0.2 * m * m, f"{sum(products) / m**2:.3f} of M^2"


# ---------------------------------------------------------------------------
# edge tensors (the composed reference in tests/reference.py)
# ---------------------------------------------------------------------------

def test_edge_tensor_hand_values():
    feats = Tensor(np.array([[1.0], [4.0]]), dtype=np.float64)
    graph = KnnGraph(indices=np.array([[1], [0]]))
    concat, diff = edge_tensors(feats, graph)
    assert concat.data[0, 0].tolist() == [1.0, 4.0]
    assert diff.data[0, 0].tolist() == [-3.0]


def test_edge_tensor_identical_rows_zero_diff():
    feats = Tensor(np.ones((3, 2)), dtype=np.float64)
    graph = build_knn_graph(feats.data, k=2)
    _, diff = edge_tensors(feats, graph)
    assert np.all(diff.data == 0)


def test_edge_tensors_match_index_by_index_construction():
    rng = np.random.default_rng(23)
    raw = rng.normal(size=(6, 3))
    feats = Tensor(raw, dtype=np.float64)
    graph = build_knn_graph(raw, k=2)
    concat, diff = edge_tensors(feats, graph)
    for i in range(6):
        for j in range(2):
            nb = graph.indices[i, j]
            assert np.array_equal(concat.data[i, j], np.concatenate([raw[i], raw[nb]]))
            assert np.array_equal(diff.data[i, j], raw[i] - raw[nb])


def test_edge_tensor_gradients_match_fd():
    rng = np.random.default_rng(29)
    raw = rng.normal(size=(5, 3))
    graph = build_knn_graph(raw, k=2)
    w1 = Tensor(rng.normal(size=(5, 2, 6)), dtype=np.float64)
    w2 = Tensor(rng.normal(size=(5, 2, 3)), dtype=np.float64)

    def f(feats):
        concat, diff = edge_tensors(feats, graph)
        return sum_all(concat_channels([mul(concat, w1), mul(diff, w2)]))

    err = gradient_check(f, [Tensor(raw, requires_grad=True, dtype=np.float64)])
    assert err <= 1e-4


# ---------------------------------------------------------------------------
# immutable graphs and the shared scatter
# ---------------------------------------------------------------------------

def test_graph_is_frozen_and_indices_read_only():
    table = np.array([[1, 2], [0, 2], [0, 1]])
    graph = KnnGraph(indices=table)
    with pytest.raises(dataclasses.FrozenInstanceError):
        graph.indices = table
    with pytest.raises(ValueError):
        graph.indices[0, 0] = 2
    table[0, 0] = 0  # the graph holds its own copy
    assert graph.indices[0].tolist() == [1, 2]
    assert graph.indices.dtype == np.int64


def test_k_is_the_table_width():
    assert KnnGraph(np.zeros((3, 2), dtype=np.int64)).k == 2
    assert build_block_knn_graph(np.arange(8.0)[:, None], 4, k=3).k == 3
    with pytest.raises(TypeError):
        KnnGraph(indices=np.zeros((3, 2), dtype=np.int64), k=3)
    with pytest.raises(DimensionError):
        KnnGraph(np.zeros(3, dtype=np.int64))


@pytest.mark.parametrize("layer_cls", [GraphAttentionLayer, GraphMaxPoolLayer])
@pytest.mark.parametrize("bad", [-1, 6])
def test_bad_neighbor_id_raises_one_error_taped_and_tape_free(layer_cls, bad):
    # the tape-free forward gathers row chunks straight from the table; a -1
    # must not wrap to the last row there
    rng = np.random.default_rng(4)
    layer = layer_cls("g", 3, 4, rng, dtype=np.float64)
    x = Tensor(rng.normal(size=(6, 3)), requires_grad=True, dtype=np.float64)
    table = np.tile(np.arange(2), (6, 1))
    table[4, 1] = bad

    def forward():
        return layer.forward(x, KnnGraph(table))

    with pytest.raises(GatherIndexError) as taped:
        forward()
    with no_tape(), pytest.raises(GatherIndexError) as tape_free:
        forward()
    assert str(taped.value) == str(tape_free.value)
    assert f"{bad} at (4, 1) outside [0, 6)" in str(tape_free.value)


def test_features_not_over_the_graph_cells_rejected_taped_and_tape_free():
    rng = np.random.default_rng(4)
    layer = GraphMaxPoolLayer("g", 3, 4, rng, dtype=np.float64)
    graph = build_knn_graph(rng.normal(size=(6, 3)), k=2)
    for rows in (5, 7):
        x = Tensor(rng.normal(size=(rows, 3)), requires_grad=True, dtype=np.float64)
        with pytest.raises(DimensionError):
            layer.forward(x, graph)
        with no_tape(), pytest.raises(DimensionError):
            layer.forward(x, graph)


def test_permuted_neighbors_returns_new_graph_with_own_scatter():
    rng = np.random.default_rng(5)
    graph = build_knn_graph(rng.normal(size=(20, 3)), k=4)
    before = graph.indices.copy()
    permuted = graph.permuted_neighbors(np.random.default_rng(6))
    assert permuted is not graph and permuted.scatter is not graph.scatter
    assert np.array_equal(graph.indices, before)
    assert np.array_equal(np.sort(permuted.indices, axis=1), np.sort(before, axis=1))


def sequential_scatter(table, g):
    # per cell, its edges' rows added one at a time in row-major edge order
    out = np.zeros((table.shape[0], g.shape[-1]))
    for cell in range(table.shape[0]):
        rows, cols = np.nonzero(table == cell)  # row-major
        if len(rows):
            acc = g[rows[0], cols[0]].copy()
            for i, j in zip(rows[1:], cols[1:]):
                acc += g[i, j]
            out[cell] = acc
    return out


def scatter_tables():
    rng = np.random.default_rng(70)
    hub = rng.integers(0, 9, size=(9, 3))
    hub[:, 1] = 4  # cell 4 named by every row
    return {
        "hub": hub,
        "unnamed": np.array([[1, 2], [2, 1], [1, 2], [2, 2], [1, 1]]),  # 0, 3, 4 never
        "k1": np.array([[3], [0], [0], [1]]),
        "include_self": build_knn_graph(rng.normal(size=(40, 3)), 5,
                                        include_self=True).indices,
        "block": build_block_knn_graph(rng.normal(size=(4 * 50, 12)), 50, 6).indices,
    }


@pytest.mark.parametrize("case", sorted(scatter_tables()))
def test_scatter_sum_is_the_row_major_sequential_sum(case):
    table = scatter_tables()[case]
    graph = KnnGraph(table)
    g = np.random.default_rng(71).normal(size=table.shape + (5,))
    got = graph.scatter_sum(g)
    assert got.dtype == np.float64 and got.shape == (table.shape[0], 5)
    want = np.zeros_like(got)
    np.add.at(want, table.reshape(-1), g.reshape(-1, 5))
    assert np.array_equal(got, want)
    assert np.array_equal(got, sequential_scatter(table, g))
    unnamed = np.setdiff1d(np.arange(table.shape[0]), table)
    assert np.all(got[unnamed] == 0)


@pytest.mark.parametrize("case", sorted(scatter_tables()))
def test_in_degree_counts_each_cells_namings(case):
    table = scatter_tables()[case]
    graph = KnnGraph(table)
    assert graph.in_degree.dtype == np.int64
    assert np.array_equal(graph.in_degree, np.bincount(table.reshape(-1),
                                                        minlength=table.shape[0]))


def test_scatter_levels_order_cells_by_falling_in_degree():
    graph = KnnGraph(np.array([[1, 2], [2, 1], [1, 2], [2, 2], [1, 3], [4, 1]]))
    cells, levels = graph.scatter
    assert cells.tolist() == [1, 2, 3, 4]  # in-degrees 5, 5, 1, 1; ties by id
    assert [ids.tolist() for ids in levels] == [[0, 1, 9, 10], [3, 2], [4, 5],
                                                [8, 6], [11, 7]]


def test_scatter_matches_add_at_with_unreferenced_cells():
    # a random 12-D block graph leaves some cells out of every neighborhood;
    # their gradient rows must stay zero rather than take a neighbor's sum
    rng = np.random.default_rng(50)
    feats = rng.normal(size=(4 * 300, 12))
    graph = build_block_knn_graph(feats, block_size=300, k=12)
    unreferenced = np.setdiff1d(np.arange(1200), graph.indices)
    assert unreferenced.size > 0

    src = Tensor(feats, requires_grad=True, dtype=np.float64)
    upstream = rng.normal(size=(1200, 12, 12))
    mul(gather_neighbors(src, graph), Tensor(upstream, dtype=np.float64)).sum().backward()
    want = np.zeros_like(feats)
    np.add.at(want, graph.indices.reshape(-1), upstream.reshape(-1, 12))
    assert np.abs(src.grad - want).max() <= 1e-12
    assert np.all(src.grad[unreferenced] == 0)


# ---------------------------------------------------------------------------
# split edge path against the edge tensors
# ---------------------------------------------------------------------------

def edge_case(seed, m=12, d=3, k=4, out=5):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(m, d))
    graph = build_knn_graph(raw, k)
    w = rng.normal(size=(2 * d, out))
    b = rng.normal(size=out)
    upstream = Tensor(rng.normal(size=(m, k, out)), dtype=np.float64)
    return raw, graph, w, b, upstream


def t64(a):
    return Tensor(np.array(a, dtype=np.float64), requires_grad=True)


@pytest.mark.parametrize("diff", [False, True])
def test_edge_affine_matches_edge_tensors_then_affine(diff):
    raw, graph, w, b, upstream = edge_case(60)
    x, wt, bt = t64(raw), t64(w), t64(b)
    x2, wt2, bt2 = t64(raw), t64(w), t64(b)

    split = edge_affine(x, graph, wt, bt, diff=diff)
    concat, delta = edge_tensors(x2, graph)
    # the attention score input: (center - neighbor) (+) neighbor
    pair = concat_channels([delta, gather_neighbors(x2, graph)]) if diff else concat
    ref = affine_last_axis(pair, wt2, bt2)
    assert np.abs(split.data - ref.data).max() <= 1e-10
    mul(split, upstream).sum().backward()
    mul(ref, upstream).sum().backward()
    for got, want in ((x, x2), (wt, wt2), (bt, bt2)):
        assert np.abs(got.grad - want.grad).max() <= 1e-10


@pytest.mark.parametrize("diff", [False, True])
def test_edge_affine_gradient_matches_fd(diff):
    raw, graph, w, b, upstream = edge_case(61, m=8, k=3)

    def f(x, wt, bt):
        return mul(edge_affine(x, graph, wt, bt, diff), upstream).sum()

    assert gradient_check(f, [t64(raw), t64(w), t64(b)]) <= 1e-6


def edge_state(out, seed):
    rng = np.random.default_rng(seed)
    state = BatchNormState(out, dtype=np.float64)
    state.gamma.data = rng.uniform(0.5, 1.5, size=out)
    state.beta.data = rng.normal(size=out) * 0.3
    state.running_mean = rng.normal(size=out) * 0.2
    state.running_var = rng.uniform(0.5, 2.0, size=out)
    return state


@pytest.mark.parametrize("train", [True, False])
def test_edge_shared_mlp_matches_composed_ops_on_edge_tensors(train):
    raw, graph, w, b, upstream = edge_case(62)
    x, wt, bt, state = t64(raw), t64(w), t64(b), edge_state(5, 63)
    x2, wt2, bt2, state2 = t64(raw), t64(w), t64(b), edge_state(5, 63)

    fused = shared_mlp(x, wt, bt, state, train, graph=graph)
    concat, _ = edge_tensors(x2, graph)
    ref = leaky_relu(batch_norm(affine_last_axis(concat, wt2, bt2), state2, train), 0.2)
    assert np.abs(fused.data - ref.data).max() <= 1e-10
    mul(fused, upstream).sum().backward()
    mul(ref, upstream).sum().backward()
    for got, want in ((x, x2), (wt, wt2), (bt, bt2), (state.gamma, state2.gamma),
                      (state.beta, state2.beta)):
        assert np.abs(got.grad - want.grad).max() <= 1e-10
    assert np.abs(state.running_mean - state2.running_mean).max() <= 1e-10
    assert np.abs(state.running_var - state2.running_var).max() <= 1e-10


@pytest.mark.parametrize("train", [True, False])
def test_edge_shared_mlp_gradient_matches_fd(train):
    raw, graph, w, b, upstream = edge_case(64, m=8, k=3)
    state = edge_state(5, 65)

    def f(x, wt, bt, gamma, beta):
        state.gamma, state.beta = gamma, beta
        out = shared_mlp(x, wt, bt, state, train, graph=graph)
        return mul(out, upstream).sum()

    inputs = [t64(raw), t64(w), t64(b), t64(state.gamma.data), t64(state.beta.data)]
    assert gradient_check(f, inputs) <= 1e-6


# ---------------------------------------------------------------------------
# the max-pool layer's pooled node against the composed reference
# ---------------------------------------------------------------------------

# mixed signs, both zeros: the pooled node takes the min where gamma < 0
POOL_GAMMA = [1.3, -0.7, 0.0, -0.0, 2.0, -1e-3]
# no zero: there the max over K is a kink in gamma, where finite differences
# fail and the pooled node takes the one-sided derivative (the largest
# centred edge) while max_axis takes edge 0 of K equal outputs
GRAD_GAMMA = [1.3, -0.7, 0.4, -1.1, 2.0, -0.2]


def pool_case(seed, dtype, m=40, d=3, k=5, gamma=POOL_GAMMA):
    """(features, graph, weight, bias, bn state) with hand-set BN values."""
    rng = np.random.default_rng(seed)
    out = len(gamma)
    x = rng.normal(size=(m, d))
    graph = KnnGraph(rng.integers(0, m, size=(m, k)))
    w, b = rng.normal(size=(2 * d, out)), rng.normal(size=out)
    state = BatchNormState(out, dtype=dtype)
    state.gamma.data = np.array(gamma, dtype=dtype)
    state.beta.data = (rng.normal(size=out) * 0.3).astype(dtype)
    state.running_mean = (rng.normal(size=out) * 0.2).astype(dtype)
    state.running_var = rng.uniform(0.5, 2.0, size=out).astype(dtype)
    return x, graph, w, b, state


def pool_tensors(x, w, b, state, dtype):
    """Fresh leaves and a copy of the BN state, so two runs never share."""
    twin = BatchNormState(state.channels, dtype=dtype)
    twin.gamma = Tensor(state.gamma.data.copy(), requires_grad=True)
    twin.beta = Tensor(state.beta.data.copy(), requires_grad=True)
    twin.running_mean = state.running_mean.copy()
    twin.running_var = state.running_var.copy()
    return (Tensor(x, requires_grad=True, dtype=dtype), Tensor(w, requires_grad=True, dtype=dtype),
            Tensor(b, requires_grad=True, dtype=dtype), twin)


def pool_layer(w, b, state, dtype):
    layer = GraphMaxPoolLayer("n", w.shape[0] // 2, w.shape[1], np.random.default_rng(0),
                              slope=0.2, dtype=dtype)
    _, layer.calibrate.weight, layer.calibrate.bias, layer.calibrate.bn = pool_tensors(
        np.zeros((1, 1)), w, b, state, dtype)
    return layer


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [0.0, 0.2, 0.99])
@pytest.mark.parametrize("train", [True, False])
def test_pooled_mlp_is_bit_identical_to_the_max_of_the_edge_mlp(train, slope, dtype):
    raw, graph, w, b, state = pool_case(80, dtype)
    x, wt, bt, st = pool_tensors(raw, w, b, state, dtype)
    x2, wt2, bt2, st2 = pool_tensors(raw, w, b, state, dtype)
    got = shared_mlp(x, wt, bt, st, train, slope, graph, pool=True)
    want = max_pool_mlp(x2, wt2, bt2, st2, train, slope, graph)
    assert got.data.dtype == dtype and got.data.shape == (40, len(POOL_GAMMA))
    assert np.array_equal(got.data, want.data)
    assert np.array_equal(st.running_mean, st2.running_mean)
    assert np.array_equal(st.running_var, st2.running_var)
    with no_tape():
        free = shared_mlp(x, wt, bt, pool_tensors(raw, w, b, state, dtype)[3], train,
                          slope, graph, pool=True)
        edges = shared_mlp(x, wt, bt, pool_tensors(raw, w, b, state, dtype)[3], train,
                           slope, graph)
    assert np.array_equal(free.data, edges.data.max(axis=1)) and not free.requires_grad
    assert np.array_equal(free.data, want.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_chunked_max_pool_layer_is_bit_identical_to_the_reference(dtype):
    raw, graph, w, b, state = pool_case(81, dtype)
    layer = pool_layer(w, b, state, dtype)
    one, calls = chunked_forward(layer, raw, graph, dtype, 1 << 30)
    assert calls == 1
    got, calls = chunked_forward(layer, raw, graph, dtype, 64)
    assert calls >= 3
    assert np.array_equal(got, one)
    x, wt, bt, st = pool_tensors(raw, w, b, state, dtype)
    assert np.array_equal(got, folded_mlp(x, wt, bt, st, 0.2, graph, pool=True))
    want = max_pool_mlp(x, wt, bt, st, False, 0.2, graph)
    assert np.array_equal(got, want.data)


def chunked_forward(layer, raw, graph, dtype, budget):
    """(output, calibration calls) of a tape-free eval forward with
    `_CHUNK_ELEMS` set to `budget`; the calls count the chunks."""
    import meshseg.layers as layers_mod

    calls = []
    real = layers_mod.SharedMLP.__call__

    def counting(block, *args, **kwargs):
        calls.append(1)
        return real(block, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp, no_tape():
        mp.setattr(layers_mod.SharedMLP, "__call__", counting)
        mp.setattr(layers_mod, "_CHUNK_ELEMS", budget)
        out = layer.forward(Tensor(raw, dtype=dtype), graph)
    return out.data, len(calls)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("form", ["rows", "edges", "pooled"])
def test_tape_free_mlp_is_the_written_out_fold_bit_for_bit(form, dtype):
    # gamma of both signs and both zeros, running statistics away from (0, 1)
    raw, graph, w, b, state = pool_case(87, dtype)
    x, wt, bt, st = pool_tensors(raw, w, b, state, dtype)
    if form == "rows":
        wt, graph = Tensor(w[:3], dtype=dtype), None  # rows of x, no pairs
    with no_tape():
        got = shared_mlp(x, wt, bt, st, False, 0.2, graph, pool=form == "pooled")
    want = folded_mlp(x, wt, bt, st, 0.2, graph, pool=form == "pooled")
    assert got.data.dtype == dtype and not got.requires_grad
    assert np.array_equal(got.data, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tape_free_aggregation_is_invariant_to_neighbour_order(dtype):
    raw, graph, w, b, state, w_att, b_att = attention_case(96, dtype)
    permuted = graph.permuted_neighbors(np.random.default_rng(97))
    assert not np.array_equal(permuted.indices, graph.indices)
    pool = pool_layer(w, b, state, dtype)
    att = attention_layer(w, b, state, w_att, b_att, dtype)
    assert (state.gamma.data < 0).any()
    for budget in (1 << 30, 64):
        p1, p2 = (chunked_forward(pool, raw, g, dtype, budget)[0] for g in (graph, permuted))
        assert np.array_equal(p1, p2)
        a1, a2 = (chunked_forward(att, raw, g, dtype, budget)[0] for g in (graph, permuted))
        assert np.abs(a1 - a2).max() <= 1e-6


@pytest.mark.parametrize("train", [True, False])
def test_pooled_mlp_gradients_match_the_reference_and_fd(train):
    raw, graph, w, b, state = pool_case(82, np.float64, m=10, k=3, gamma=GRAD_GAMMA)
    upstream = Tensor(np.random.default_rng(83).normal(size=(10, len(POOL_GAMMA))))
    layer = pool_layer(w, b, state, np.float64)
    cal = layer.calibrate

    def f(feats, weight, bias, gamma, beta):
        cal.weight, cal.bias, cal.bn.gamma, cal.bn.beta = weight, bias, gamma, beta
        return mul(layer.forward(feats, graph, train), upstream).sum()

    x, wt, bt, st = pool_tensors(raw, w, b, state, np.float64)
    inputs = [x, wt, bt, st.gamma, st.beta]
    assert gradient_check(f, inputs) <= 1e-4
    x2, wt2, bt2, st2 = pool_tensors(raw, w, b, state, np.float64)
    mul(max_pool_mlp(x2, wt2, bt2, st2, train, 0.2, graph), upstream).sum().backward()
    for got, want in zip(inputs, (x2, wt2, bt2, st2.gamma, st2.beta)):
        assert relative_gap(got.grad, want.grad) <= 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("train", [True, False])
def test_pooled_mlp_routes_a_tie_to_its_first_column(train, dtype):
    # cells 1 and 2 are equal rows, so every edge to them ties exactly: row 0
    # names 1 before 2 and row 3 names 2 before 1; row 5 names cell 4 twice
    raw, _, w, b, state = pool_case(84, dtype, m=8, k=3, gamma=GRAD_GAMMA)
    raw[2] = raw[1]
    table = np.random.default_rng(85).integers(0, 8, size=(8, 3))
    table[0], table[3], table[5] = [1, 2, 6], [7, 2, 1], [4, 4, 0]
    graph = KnnGraph(table)
    upstream = Tensor(np.random.default_rng(86).normal(size=(8, len(POOL_GAMMA))),
                      dtype=dtype)
    x, wt, bt, st = pool_tensors(raw, w, b, state, dtype)
    x2, wt2, bt2, st2 = pool_tensors(raw, w, b, state, dtype)
    mul(shared_mlp(x, wt, bt, st, train, 0.2, graph, pool=True), upstream).sum().backward()
    mul(max_pool_mlp(x2, wt2, bt2, st2, train, 0.2, graph), upstream).sum().backward()
    tol = 1e-5 if dtype == np.float32 else 1e-12
    for got, want in ((x, x2), (wt, wt2), (bt, bt2), (st.gamma, st2.gamma),
                      (st.beta, st2.beta)):
        assert relative_gap(got.grad, want.grad) <= tol
    # the tie is real and decides the rows of cells 1 and 2
    assert not np.allclose(x.grad[1], x.grad[2])


def test_first_hits_keep_the_lowest_index_as_argmax_does():
    from meshseg.tensor import _first_hits

    centred = np.array([[[1.0, 5.0, np.nan], [3.0, 5.0, 2.0], [3.0, 1.0, np.nan]],
                        [[0.0, 2.0, 1.0], [1.0, 3.0, 0.0], [2.0, 1.0, 4.0]]])
    top = centred.max(axis=1)
    hit = _first_hits(centred, top)
    want = np.zeros_like(hit)
    np.put_along_axis(want, np.argmax(centred, axis=1)[:, None, :], True, axis=1)
    assert np.array_equal(hit, want)
    assert hit[0, :, 2].tolist() == [True, False, False]  # the first NaN
    assert hit[1].sum() == 3  # one hit per (row, channel), no fallback needed


# ---------------------------------------------------------------------------
# the attention layer's pooling node against the composed reference
# ---------------------------------------------------------------------------

def attention_case(seed, dtype, m=40, d=3, k=5, out=6):
    """(features, graph, calibration weight, bias and bn state, attention
    weight and bias)."""
    raw, graph, w, b, state = pool_case(seed, dtype, m, d, k, gamma=GRAD_GAMMA[:out])
    rng = np.random.default_rng(seed + 1)
    return raw, graph, w, b, state, rng.normal(size=(2 * d, out)), rng.normal(size=out)


def attention_run(pooling, raw, graph, w, b, state, w_att, b_att, train, dtype, upstream):
    """Output and input gradients of `pooling` over the calibrated edges."""
    x, wt, bt, st = pool_tensors(raw, w, b, state, dtype)
    wa = Tensor(w_att, requires_grad=True, dtype=dtype)
    ba = Tensor(b_att, requires_grad=True, dtype=dtype)
    values = shared_mlp(x, wt, bt, st, train, 0.2, graph)
    out = pooling(x, graph, wa, ba, values)
    mul(out, Tensor(upstream, dtype=dtype)).sum().backward()
    return out.data, [t.grad for t in (x, wt, bt, st.gamma, st.beta, wa, ba)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("train", [True, False])
def test_attend_is_bit_identical_to_the_composed_reference(train, dtype):
    raw, graph, w, b, state, w_att, b_att = attention_case(90, dtype)
    upstream = np.random.default_rng(91).normal(size=(40, 6))
    got, got_grads = attention_run(attend, raw, graph, w, b, state, w_att, b_att,
                                   train, dtype, upstream)
    want, want_grads = attention_run(attention_pool, raw, graph, w, b, state, w_att,
                                     b_att, train, dtype, upstream)
    assert got.dtype == dtype and got.shape == (40, 6)
    assert np.array_equal(got, want)
    for g, h in zip(got_grads, want_grads):
        assert g.dtype == dtype and np.array_equal(g, h)


def attention_layer(w, b, state, w_att, b_att, dtype):
    layer = GraphAttentionLayer("c", w.shape[0] // 2, w.shape[1], np.random.default_rng(0),
                                dtype=dtype)
    _, layer.calibrate.weight, layer.calibrate.bias, layer.calibrate.bn = pool_tensors(
        np.zeros((1, 1)), w, b, state, dtype)
    layer.att_weight = Tensor(w_att, requires_grad=True, dtype=dtype)
    layer.att_bias = Tensor(b_att, requires_grad=True, dtype=dtype)
    return layer


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_chunked_attention_layer_is_bit_identical_to_one_chunk(dtype):
    raw, graph, w, b, state, w_att, b_att = attention_case(92, dtype)
    layer = attention_layer(w, b, state, w_att, b_att, dtype)
    taped = layer.forward(Tensor(raw, dtype=dtype), graph)
    assert taped.requires_grad  # the parameters put the call on the tape
    one, calls = chunked_forward(layer, raw, graph, dtype, 1 << 30)
    assert calls == 1
    got, calls = chunked_forward(layer, raw, graph, dtype, 64)
    assert calls >= 3
    assert np.array_equal(got, one)
    assert np.array_equal(got, taped.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_chunked_attention_layer_is_bit_identical_to_taped_eval(dtype):
    # taped and tape-free eval both fold batch norm into the affine
    raw, graph, w, b, state, w_att, b_att = attention_case(92, dtype)
    assert (state.gamma.data < 0).any() and (state.gamma.data > 0).any()
    layer = attention_layer(w, b, state, w_att, b_att, dtype)
    taped = layer.forward(Tensor(raw, dtype=dtype), graph)
    assert taped.requires_grad
    got, calls = chunked_forward(layer, raw, graph, dtype, 64)
    assert calls >= 3
    assert np.array_equal(got, taped.data)


def test_tape_free_layer_folds_once_for_all_its_chunks(monkeypatch):
    import meshseg.tensor as tensor_mod

    raw, graph, w, b, state, w_att, b_att = attention_case(98, np.float32)
    layer = attention_layer(w, b, state, w_att, b_att, np.float32)
    folds, real = [], tensor_mod._centre
    monkeypatch.setattr(tensor_mod, "_centre", lambda *args: folds.append(1) or real(*args))
    _, calls = chunked_forward(layer, raw, graph, np.float32, 64)
    assert calls >= 3 and len(folds) == 1


def test_attend_gradient_matches_fd():
    raw, graph, _, _, _, w_att, b_att = attention_case(93, np.float64, m=8, k=3, out=4)
    rng = np.random.default_rng(94)
    values = rng.normal(size=(8, 3, 4))
    upstream = Tensor(rng.normal(size=(8, 4)))

    def f(x, wt, bt, v):
        return mul(attend(x, graph, wt, bt, v), upstream).sum()

    assert gradient_check(f, [t64(raw), t64(w_att), t64(b_att), t64(values)]) <= 1e-4


def test_attention_layer_puts_two_nodes_on_the_tape():
    raw, graph = attention_case(95, np.float32)[:2]
    layer = GraphAttentionLayer("c", 3, 6, np.random.default_rng(0))
    x = Tensor(raw, requires_grad=True)
    out = layer.forward(x, graph, train=True)
    nodes = [n for n in _toposort(out) if n._backward is not None]
    assert len(nodes) == 2
    # attend over (x, att weight, att bias, calibrated edges); calibrate over x
    calibrated = out._parents[3]
    assert nodes == [calibrated, out]
    assert out._parents[:3] == (x, layer.att_weight, layer.att_bias)
    assert calibrated._parents[:3] == (x, layer.calibrate.weight, layer.calibrate.bias)
