"""Composed reference ops that the fused ops are checked against.

The model runs `shared_mlp`, `attend` and `log_softmax_nll`, which fuse
several steps into one tape node.  These are the unfused steps, each its
own node with the plain textbook backward: `leaky_relu(batch_norm(
affine_last_axis(...)))` is `shared_mlp` (in eval mode up to the rounding
of the fold), and `edge_tensors` builds the
(centre, neighbour) pairs that the edge path never materialises, from the
neighbour rows that `gather_neighbors` gathers.  `affine_last_axis` maps
those (M, K, in) pairs, which `tensor.affine` does not take.  `edge_affine`
is the affine map of every pair as its own node, projected and gathered as
the model's edge path does.  `max_pool_mlp` is `shared_mlp(..., pool=True)`
composed: the edge MLP, then `max_axis` over the K edges.
`attention_pool` is `attend` composed: `edge_affine`, `softmax_axis` over
the K edges, `mul` by the values and `sum_axis`.  `composed_cross_entropy`
is `model.cross_entropy` composed: `log_softmax_axis`, `mul` by a one-hot
leaf and by -1, the total sum and, for the mean, `mul` by 1/m.
`folded_mlp` is the eval-mode `shared_mlp`, batch norm folded into the
affine, written out on arrays.  `relative_gap` is the error measure of the
comparisons that are not bit for bit.
"""

from __future__ import annotations

import numpy as np

from meshseg.tensor import (
    BN_EPS,
    DimensionError,
    Tensor,
    UsageError,
    _accumulate,
    _centre,
    _check_edges,
    _check_weights,
    _edge_backward,
    _edge_sums,
    _linear,
    _make,
    _matmul,
    concat_channels,
    shared_mlp,
)


def relative_gap(got, want):
    """Largest |got - want|, relative to the largest |want| or to 1."""
    return np.abs(got - want).max() / max(1.0, np.abs(want).max())


class EmptyReductionError(ValueError):
    """Reduction requested over an axis of extent zero."""


def _check_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise DimensionError(f"{op}: shape mismatch: {a.data.shape} vs {b.data.shape}")


def _check_axis(x, axis, op):
    if not -x.data.ndim <= axis < x.data.ndim:
        raise UsageError(f"{op}: axis {axis} invalid for shape {x.data.shape}")
    axis = axis % x.data.ndim
    if x.data.shape[axis] == 0:
        raise EmptyReductionError(f"{op}: axis {axis} of shape {x.data.shape} is empty")
    return axis


def mul(a, b):
    """Elementwise product; `b` may be a python scalar."""
    if np.isscalar(b):
        s = a.dtype.type(b)

        def backward_scalar(g):
            if a.requires_grad:
                _accumulate(a, g * s, owned=True)

        return _make(a.data * s, (a,), backward_scalar)

    _check_same_shape(a, b, "mul")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * b.data, owned=True)
        if b.requires_grad:
            _accumulate(b, g * a.data, owned=True)

    return _make(a.data * b.data, (a, b), backward)


def log_softmax_axis(x, axis):
    """Numerically stable log softmax along an axis."""
    axis = _check_axis(x, axis, "log_softmax_axis")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g - np.exp(ls) * g.sum(axis=axis, keepdims=True), owned=True)

    return _make(ls, (x,), backward)


def composed_cross_entropy(logits, labels, reduction="sum"):
    """model.cross_entropy as five nodes over a one-hot leaf: log softmax,
    times the one-hot, times -1, summed, and for "mean" times 1/m."""
    m, c = logits.data.shape
    onehot = np.zeros((m, c), dtype=logits.data.dtype)
    onehot[np.arange(m), labels] = 1.0
    total = mul(mul(log_softmax_axis(logits, axis=1), Tensor(onehot)), -1.0).sum()
    return mul(total, 1.0 / m) if reduction == "mean" else total


def sub(a, b):
    if a.data.shape != b.data.shape:
        raise DimensionError(f"sub: shape mismatch: {a.data.shape} vs {b.data.shape}")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, -g, owned=True)

    return _make(a.data - b.data, (a, b), backward)


def leaky_relu(x, slope=0.2):
    mask = x.data >= 0

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g * np.where(mask, x.dtype.type(1), x.dtype.type(slope)),
                        owned=True)

    return _make(np.where(mask, x.data, x.dtype.type(slope) * x.data), (x,), backward)


def _repeat_rows(x, k):
    """(M, d) -> (M, k, d), each row repeated k times; backward sums over k."""
    if x.data.ndim != 2:
        raise DimensionError(f"_repeat_rows: x must be 2-D, got {x.data.shape}")

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g.sum(axis=1), owned=True)

    m, d = x.data.shape
    return _make(np.broadcast_to(x.data[:, None, :], (m, k, d)), (x,), backward)


def normalize(x, state, train):
    """(xhat, inv_std): the array x normalized per channel over all leading
    axes, as shared_mlp does before gamma and beta; x itself is unchanged."""
    xhat, inv_std = _centre(x.copy(), state, train)
    xhat *= inv_std
    return xhat, inv_std


def batch_norm(x, state, train):
    """Normalize per channel over all leading axes.

    Train mode uses batch statistics and updates the running estimates;
    eval mode uses the stored running statistics and is side-effect free.
    """
    c = x.data.shape[-1]
    xhat, inv_std = normalize(x.data, state, train)
    gamma, beta = state.gamma, state.beta

    def backward(g):
        gf = g.reshape(-1, c)
        xh = xhat.reshape(-1, c)
        if gamma.requires_grad:
            _accumulate(gamma, (gf * xh).sum(axis=0), owned=True)
        if beta.requires_grad:
            _accumulate(beta, gf.sum(axis=0), owned=True)
        if not x.requires_grad:
            return
        if train:
            # Gradient through the batch statistics themselves.
            gxhat = gf * gamma.data
            gx = (gxhat - gxhat.mean(axis=0) - xh * (gxhat * xh).mean(axis=0)) * inv_std
            _accumulate(x, gx.reshape(x.data.shape), owned=True)
        else:
            _accumulate(x, g * (gamma.data * inv_std), owned=True)

    return _make(xhat * gamma.data + beta.data, (x, gamma, beta), backward)


def gather_neighbors(features, graph):
    """(M, K, d) neighbor rows of the (M, d) tensor `features`; backward
    sums each cell's gathered copies with the graph's scatter_sum."""

    def backward(g):
        _accumulate(features, graph.scatter_sum(g), owned=True)

    return _make(graph.gather(features.data), (features,), backward)


def edge_tensors(features, graph):
    """Edge inputs for one layer: (center (+) neighbor, center - neighbor)."""
    neighbors = gather_neighbors(features, graph)
    centers = _repeat_rows(features, graph.k)
    return concat_channels([centers, neighbors]), sub(centers, neighbors)


def max_axis(x, axis):
    """Maximum along an axis; backward routes to the argmax (lowest index on ties)."""
    axis = _check_axis(x, axis, "max_axis")

    def backward(g):
        if x.requires_grad:
            arg = np.argmax(x.data, axis=axis)
            gx = np.zeros_like(x.data)
            np.put_along_axis(
                gx, np.expand_dims(arg, axis), np.expand_dims(g, axis), axis=axis
            )
            _accumulate(x, gx, owned=True)

    return _make(np.max(x.data, axis=axis), (x,), backward)


def max_pool_mlp(x, w, b, state, train, slope, graph):
    """The max-pool layer's calibration and pooling as two nodes: shared_mlp
    over every edge of `graph`, then the maximum over each row's K edges."""
    return max_axis(shared_mlp(x, w, b, state, train, slope, graph), axis=1)


def affine_last_axis(x, w, b):
    """x @ w + b over the last axis of an x of any rank, such as the (M, K, in)
    pairs of edge_tensors; `tensor.affine` takes (M, in) rows only."""
    _check_weights("affine_last_axis", x.data.shape[-1], w, b)

    def backward(g):
        if x.requires_grad:
            _accumulate(x, _matmul(g, w.data.T), owned=True)
        gflat = g.reshape(-1, g.shape[-1])
        if w.requires_grad:
            xflat = x.data.reshape(-1, x.data.shape[-1])
            _accumulate(w, _matmul(xflat.T, gflat), owned=True)
        if b.requires_grad:
            _accumulate(b, gflat.sum(axis=0), owned=True)

    return _make(_matmul(x.data, w.data) + b.data, (x, w, b), backward)


def folded_mlp(x, w, b, state, slope, graph=None, pool=False):
    """shared_mlp's eval-mode forward written out on arrays: batch norm's
    running statistics folded into the affine, w * scale and
    (b - mean) * scale + beta with scale = gamma / sqrt(var + eps), then
    LeakyReLU.  With a graph the rows are the pairs [x_i (+) x_j]: the
    neighbour half projects the cells and is gathered, the centre half is
    added per row; with `pool` as well, the maximum over the K edges."""
    scale = state.gamma.data * (1.0 / np.sqrt(state.running_var + b.dtype.type(BN_EPS)))
    w, b = w.data * scale, (b.data - state.running_mean) * scale + state.beta.data
    if graph is None:
        y = _matmul(x.data, w) + b
    else:
        d = x.data.shape[1]
        y = graph.gather(_matmul(x.data, w[d:])) + (_matmul(x.data, w[:d]) + b)[:, None, :]
    if pool:
        y = y.max(axis=1)
    return np.maximum(y, y * y.dtype.type(slope))


def edge_affine(x, graph, w, b, diff=False):
    """Affine map of every (centre, neighbour) pair of a KnnGraph, (M, K, out).

    Row (i, k) of the input is [x_i (+) x_j], or [x_i - x_j (+) x_j] with
    `diff`, where j is row i's k-th neighbour and x is (M, d).  The pair is
    never built: the cells are projected, then gathered (tensor._linear).
    """
    d = _check_edges("edge_affine", x, graph)
    _check_weights("edge_affine", 2 * d, w, b)

    def backward(g):
        _edge_backward(*_edge_sums(g, graph), x, w, b, diff)

    return _make(_linear(x.data, w.data, b.data, graph, diff), (x, w, b), backward)


def sum_axis(x, axis):
    axis = _check_axis(x, axis, "sum_axis")

    def backward(g):
        if x.requires_grad:
            _accumulate(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape))

    return _make(x.data.sum(axis=axis), (x,), backward)


def softmax_axis(x, axis):
    axis = _check_axis(x, axis, "softmax_axis")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if x.requires_grad:
            _accumulate(x, y * (g - (g * y).sum(axis=axis, keepdims=True)), owned=True)

    return _make(y, (x,), backward)


def attention_pool(x, graph, w, b, values):
    """The attention layer's pooling as four nodes: scores of every
    [x_i - x_j (+) x_j], their softmax over K, times `values`, summed over K."""
    weights = softmax_axis(edge_affine(x, graph, w, b, diff=True), axis=1)
    return sum_axis(mul(weights, values), axis=1)
