"""Composed reference ops that the fused ops are checked against.

The model runs `shared_mlp` and `edge_affine`, which fuse several steps
into one tape node.  These are the unfused steps, each its own node with
the plain textbook backward: `leaky_relu(batch_norm(affine(...)))` is
`shared_mlp`, and `edge_tensors` builds the (centre, neighbour) pairs that
`edge_affine` never materialises, from the neighbour rows that
`gather_neighbors` gathers.  `max_pool_mlp` is `shared_mlp(..., pool=True)`
composed: the edge MLP, then `max_axis` over the K edges.
"""

from __future__ import annotations

import numpy as np

from meshseg.tensor import (
    DimensionError,
    _accumulate,
    _check_axis,
    _centre,
    _make,
    concat_channels,
    shared_mlp,
)


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


def repeat_rows(x, k):
    """(M, d) -> (M, k, d), each row repeated k times; backward sums over k."""
    if x.data.ndim != 2:
        raise DimensionError(f"repeat_rows: x must be 2-D, got {x.data.shape}")

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g.sum(axis=1), owned=True)

    m, d = x.data.shape
    return _make(np.broadcast_to(x.data[:, None, :], (m, k, d)), (x,), backward)


def normalize(x, state, train):
    """(xhat, inv_std): the array x normalized per channel over all leading
    axes, as shared_mlp does before gamma and beta."""
    xhat, inv_std = _centre(x, state, train)
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
    centers = repeat_rows(features, graph.k)
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
