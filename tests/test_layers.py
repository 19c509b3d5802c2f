import tracemalloc

import numpy as np
import pytest

from meshseg.knn import build_knn_graph
from meshseg.layers import GraphAttentionLayer, GraphMaxPoolLayer, SharedMLP
from meshseg.tensor import BN_EPS, Tensor, gradient_check


def leaky(x, slope=0.2):
    return np.where(x >= 0, x, slope * x)


def attention_weights(layer, features, graph):
    return layer.weights(Tensor(features, dtype=np.float64), graph)


def scripted_layer(features, idx, w_cal, b_cal, bn, w_att, b_att, mode):
    """Independent step-by-step evaluation of one aggregation layer.

    Explicit loops over cells/neighbors: calibrate center(+)neighbor through
    affine + eval-mode batch norm + LeakyReLU, then either softmax-weighted
    sum (weights from an affine over (center-neighbor)(+)neighbor) or a
    channel-wise max.
    """
    gamma, beta, rmean, rvar, eps = bn
    m, k = idx.shape
    out_dim = w_cal.shape[1]
    out = np.zeros((m, out_dim))
    for i in range(m):
        f_i = features[i]
        fhat = np.zeros((k, out_dim))
        scores = np.zeros((k, out_dim))
        for j in range(k):
            f_ij = features[idx[i, j]]
            pre = np.concatenate([f_i, f_ij]) @ w_cal + b_cal
            normed = gamma * (pre - rmean) / np.sqrt(rvar + eps) + beta
            fhat[j] = leaky(normed)
            scores[j] = np.concatenate([f_i - f_ij, f_ij]) @ w_att + b_att
        if mode == "attention":
            e = np.exp(scores - scores.max(axis=0, keepdims=True))
            alpha = e / e.sum(axis=0, keepdims=True)
            out[i] = (alpha * fhat).sum(axis=0)
        else:
            out[i] = fhat.max(axis=0)
    return out


def hand_layer(kind, m=4, d=2, k_out=3, k_nbr=2, seed=0):
    rng = np.random.default_rng(seed)
    cls = GraphAttentionLayer if kind == "attention" else GraphMaxPoolLayer
    layer = cls("t", d, k_out, np.random.default_rng(1), dtype=np.float64)
    # hand-set every weight and non-trivial bn statistics
    layer.calibrate.weight.data = rng.normal(size=(2 * d, k_out))
    layer.calibrate.bias.data = rng.normal(size=k_out)
    layer.calibrate.bn.gamma.data = rng.uniform(0.5, 1.5, size=k_out)
    layer.calibrate.bn.beta.data = rng.normal(size=k_out) * 0.3
    layer.calibrate.bn.running_mean = rng.normal(size=k_out) * 0.2
    layer.calibrate.bn.running_var = rng.uniform(0.5, 2.0, size=k_out)
    if kind == "attention":
        layer.att_weight.data = rng.normal(size=(2 * d, k_out))
        layer.att_bias.data = rng.normal(size=k_out)
    features = rng.normal(size=(m, d))
    graph = build_knn_graph(features, k_nbr)
    return layer, features, graph


def run_scripted(layer, features, graph, mode):
    bn = (layer.calibrate.bn.gamma.data, layer.calibrate.bn.beta.data,
          layer.calibrate.bn.running_mean, layer.calibrate.bn.running_var,
          BN_EPS)
    if mode == "attention":
        w_att, b_att = layer.att_weight.data, layer.att_bias.data
    else:
        w_att = np.zeros_like(layer.calibrate.weight.data)
        b_att = np.zeros(layer.calibrate.weight.data.shape[1])
    return scripted_layer(features, graph.indices, layer.calibrate.weight.data,
                          layer.calibrate.bias.data, bn, w_att, b_att, mode)


# ---------------------------------------------------------------------------
# attention layer
# ---------------------------------------------------------------------------

def test_attention_matches_scripted_evaluator():
    layer, features, graph = hand_layer("attention")
    out = layer.forward(Tensor(features, dtype=np.float64), graph)
    expected = run_scripted(layer, features, graph, "attention")
    assert np.allclose(out.data, expected, atol=1e-6)


def test_attention_identical_neighbors_uniform_weights():
    layer, _, _ = hand_layer("attention", m=5, d=2, k_out=3, k_nbr=3)
    features = np.tile([[0.4, -1.2]], (5, 1))
    graph = build_knn_graph(features, 3)
    out = layer.forward(Tensor(features, dtype=np.float64), graph)
    assert np.allclose(attention_weights(layer, features, graph), 1.0 / 3.0, atol=1e-7)
    # output equals the calibrated common feature
    expected = run_scripted(layer, features, graph, "attention")
    assert np.allclose(out.data, expected, atol=1e-9)
    assert np.allclose(out.data, out.data[0], atol=1e-9)


def test_attention_k1_ignores_attention_weights():
    layer, features, _ = hand_layer("attention", k_nbr=1)
    graph = build_knn_graph(features, 1)
    out1 = layer.forward(Tensor(features, dtype=np.float64), graph)
    layer.att_weight.data = layer.att_weight.data * 100.0 + 3.0
    out2 = layer.forward(Tensor(features, dtype=np.float64), graph)
    assert np.allclose(out1.data, out2.data)
    assert np.allclose(attention_weights(layer, features, graph), 1.0)


def test_attention_weights_sum_to_one_per_channel():
    rng = np.random.default_rng(33)
    for trial in range(5):
        layer, features, graph = hand_layer("attention", m=8, k_nbr=4,
                                            seed=100 + trial)
        weights = attention_weights(layer, features, graph)
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-5)
        assert (weights >= 0).all()


def test_attention_neighbor_permutation_invariance():
    layer, features, graph = hand_layer("attention", m=6, k_nbr=3)
    rng = np.random.default_rng(2)
    out = layer.forward(Tensor(features, dtype=np.float64), graph)
    out_p = layer.forward(Tensor(features, dtype=np.float64),
                          graph.permuted_neighbors(rng))
    assert np.allclose(out.data, out_p.data, atol=1e-6)


def test_attention_gradient_check():
    layer, features, graph = hand_layer("attention", m=8, d=2, k_out=3, k_nbr=3)

    def f(feats, w_cal, b_cal, gamma, beta, w_att, b_att):
        layer.calibrate.weight = w_cal
        layer.calibrate.bias = b_cal
        layer.calibrate.bn.gamma = gamma
        layer.calibrate.bn.beta = beta
        layer.att_weight = w_att
        layer.att_bias = b_att
        return layer.forward(feats, graph, train=False).sum()

    inputs = [Tensor(features, requires_grad=True, dtype=np.float64)]
    for arr in (layer.calibrate.weight.data, layer.calibrate.bias.data,
                layer.calibrate.bn.gamma.data, layer.calibrate.bn.beta.data,
                layer.att_weight.data, layer.att_bias.data):
        inputs.append(Tensor(arr.copy(), requires_grad=True, dtype=np.float64))
    assert gradient_check(f, inputs) <= 1e-4


# ---------------------------------------------------------------------------
# max-pool layer
# ---------------------------------------------------------------------------

def test_maxpool_matches_scripted_evaluator():
    layer, features, graph = hand_layer("maxpool")
    out = layer.forward(Tensor(features, dtype=np.float64), graph)
    expected = run_scripted(layer, features, graph, "maxpool")
    assert np.allclose(out.data, expected, atol=1e-6)


def test_maxpool_identical_neighbors():
    layer, _, _ = hand_layer("maxpool", m=4, k_nbr=2)
    features = np.tile([[1.0, 2.0]], (4, 1))
    graph = build_knn_graph(features, 2)
    out = layer.forward(Tensor(features, dtype=np.float64), graph)
    assert np.allclose(out.data, out.data[0])


def test_maxpool_neighbor_permutation_bit_identical():
    layer, features, graph = hand_layer("maxpool", m=6, k_nbr=3)
    rng = np.random.default_rng(4)
    out = layer.forward(Tensor(features, dtype=np.float64), graph)
    out_p = layer.forward(Tensor(features, dtype=np.float64),
                          graph.permuted_neighbors(rng))
    assert np.array_equal(out.data, out_p.data)


def test_maxpool_gradient_check():
    layer, features, graph = hand_layer("maxpool", m=8, d=2, k_out=3, k_nbr=3)

    def f(feats, w_cal, b_cal, gamma, beta):
        layer.calibrate.weight = w_cal
        layer.calibrate.bias = b_cal
        layer.calibrate.bn.gamma = gamma
        layer.calibrate.bn.beta = beta
        return layer.forward(feats, graph, train=False).sum()

    inputs = [Tensor(features, requires_grad=True, dtype=np.float64)]
    for arr in (layer.calibrate.weight.data, layer.calibrate.bias.data,
                layer.calibrate.bn.gamma.data, layer.calibrate.bn.beta.data):
        inputs.append(Tensor(arr.copy(), requires_grad=True, dtype=np.float64))
    assert gradient_check(f, inputs) <= 1e-4


# ---------------------------------------------------------------------------
# shared mlp
# ---------------------------------------------------------------------------

def test_shared_mlp_identical_rows():
    mlp = SharedMLP("m", 3, 4, np.random.default_rng(0), dtype=np.float64)
    x = np.tile([[0.3, -0.7, 1.1]], (5, 1))
    out = mlp(Tensor(x, dtype=np.float64), train=False)
    assert np.allclose(out.data, out.data[0])


def test_shared_mlp_rowwise_equals_batch_eval():
    mlp = SharedMLP("m", 4, 3, np.random.default_rng(5), dtype=np.float64)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, 4))
    batch = mlp(Tensor(x, dtype=np.float64), train=False).data
    rows = np.concatenate([
        mlp(Tensor(x[i:i + 1], dtype=np.float64), train=False).data
        for i in range(5)
    ])
    assert np.array_equal(batch, rows)


def test_shared_mlp_parameters_named():
    mlp = SharedMLP("block", 2, 3, np.random.default_rng(0))
    names = [p.name for p in mlp.parameters()]
    assert names == ["block.weight", "block.bias", "block.bn.gamma", "block.bn.beta"]


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

# whole-array intermediates gave 6.50 and 6.34 (attention), 2.79 and 2.45
# (max-pool, which row blocks do not lower)
@pytest.mark.parametrize("cls, m, k, d, c, ceiling", [
    (GraphAttentionLayer, 4800, 12, 32, 64, 6.0),
    (GraphAttentionLayer, 1200, 32, 128, 256, 6.0),
    (GraphMaxPoolLayer, 4800, 12, 32, 64, 2.8),
    (GraphMaxPoolLayer, 1200, 32, 128, 256, 2.46),
])
def test_train_step_peak_is_at_most_a_few_per_edge_arrays(cls, m, k, d, c, ceiling):
    # only node outputs, handed-on gradients and arrays kept for backward
    # are per-edge; every other intermediate is formed in row blocks
    rng = np.random.default_rng(60)
    layer = cls("c1", d, c, rng)
    graph = build_knn_graph(rng.normal(size=(m, 3)).astype(np.float32), k)
    graph.scatter, graph.in_degree  # built once per graph, before any layer
    x = Tensor(rng.normal(size=(m, d)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        layer.forward(x, graph, train=True).sum().backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_edge = m * k * c * 4  # bytes of one (M, K, c) float32 array
    assert peak / per_edge <= ceiling
