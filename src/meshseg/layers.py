"""Graph feature-aggregation layers and the shared per-cell MLP block.

Both aggregation layers first calibrate each neighbor against its center
through a shared MLP on the concatenated pair.  The attention layer then
takes a convex combination of calibrated neighbors, with per-channel
weights normalized over the neighborhood, in one tape node
(tensor.attend).  The max-pool layer's MLP pools instead
(`SharedMLP(..., pool=True)`, one tape node): batch statistics come from
every edge, the pre-activation is max-pooled over the K edges, and batch
norm's affine and LeakyReLU run on the pooled rows only, which equals the
channel-wise maximum of the calibrated neighbors bit for bit.  So a layer
puts two nodes on the tape either way.  Neither layer builds the
(M, K, 2d) pair or gathers neighbor features: each affine map over a pair
projects the cells and gathers the projections (tensor._linear).

In eval mode the MLPs fold batch norm's running statistics into their
affine (tensor.shared_mlp).  A tape-free eval-mode call aggregates
balanced chunks of rows in turn, so it never holds more than about
_CHUNK_ELEMS per-edge values of one array; each fold, and each edge
weight's projection of every cell, is made once per call, not once per
chunk.  A cell's output depends only on its own row and its neighbours'
rows, so the chunked result is bit-identical to the whole batch in one
chunk, and so to the taped eval-mode forward.  Training (batch norm needs
whole-batch statistics) and taped calls (the backward sums over the whole
neighbor table) aggregate the whole batch at once.  The graph checks its
table when built and the feature rows at every edge op, so a chunk's
gather is in range by construction.
"""

from __future__ import annotations

import numpy as np

from meshseg import tensor  # weights() looks up tensor.edge_softmax as attend does
from meshseg.tensor import BatchNormState, Parameter, Tensor, attend, shared_mlp, taping

_CHUNK_ELEMS = 1 << 21  # per-edge values of the widest array in one eval chunk


def _init_affine(rng, in_dim, out_dim, dtype):
    # fan-in scaled uniform weights, zero bias
    bound = 1.0 / np.sqrt(in_dim)
    w = rng.uniform(-bound, bound, size=(in_dim, out_dim)).astype(dtype)
    b = np.zeros(out_dim, dtype=dtype)
    return (Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))


class SharedMLP:
    """Per-row affine + batch norm + LeakyReLU as one tape node; rows never mix.

    Called with a `graph`, the rows are the graph's (centre, neighbour)
    pairs: input width in_dim is the two halves together.  With `pool` as
    well, the output is the maximum over each row's K pairs, (M, out_dim).
    """

    def __init__(self, name, in_dim, out_dim, rng, slope=0.2, dtype=np.float32):
        self.name = name
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.slope = slope
        self.weight, self.bias = _init_affine(rng, in_dim, out_dim, dtype)
        self.bn = BatchNormState(out_dim, dtype=dtype)

    def __call__(self, x, train=False, graph=None, chunk=None, pool=False):
        return shared_mlp(x, self.weight, self.bias, self.bn, train, self.slope,
                          graph, chunk, pool)

    def parameters(self):
        return [Parameter(f"{self.name}.weight", self.weight),
                Parameter(f"{self.name}.bias", self.bias),
                Parameter(f"{self.name}.bn.gamma", self.bn.gamma),
                Parameter(f"{self.name}.bn.beta", self.bn.beta)]

    def bn_states(self):
        return {f"{self.name}.bn": self.bn}


class _GraphLayer:
    """What both aggregation layers share: the calibration MLP over each
    (centre, neighbour) pair, drawn from the RNG before anything else."""

    def __init__(self, name, in_dim, out_dim, rng, slope=0.2, dtype=np.float32):
        self.name = name
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.calibrate = SharedMLP(f"{name}.calibrate", 2 * in_dim, out_dim, rng,
                                   slope=slope, dtype=dtype)

    def parameters(self):
        return self.calibrate.parameters()

    def bn_states(self):
        return self.calibrate.bn_states()

    def _apply(self, features, graph, train):
        """Run the subclass's `_aggregate`, over row chunks when tape-free eval."""
        if train or taping():
            return self._aggregate(features, graph, train)
        m = graph.num_cells
        # balanced chunks, none of a single row: a one-row float32 product
        # takes BLAS's matrix-vector path, which rounds differently
        chunks = max(1, min(-(-m * graph.k * self.out_dim // _CHUNK_ELEMS), m // 2))
        bounds = np.linspace(0, m, chunks + 1).round().astype(np.int64)
        cells = {}  # every chunk reads one cell projection per edge weight
        return Tensor(np.concatenate([
            self._aggregate(features, graph, train, (slice(lo, hi), cells)).data
            for lo, hi in zip(bounds[:-1], bounds[1:])]))


class GraphAttentionLayer(_GraphLayer):
    """Attention aggregation over a KNN neighborhood (coordinate stream).

    A single affine map scores (center - neighbor) (+) neighbor per channel,
    and a softmax across the K neighbors turns the scores into convex
    weights over the calibrated neighbors.
    """

    def __init__(self, name, in_dim, out_dim, rng, slope=0.2, dtype=np.float32):
        super().__init__(name, in_dim, out_dim, rng, slope, dtype)
        self.att_weight, self.att_bias = _init_affine(rng, 2 * in_dim, out_dim, dtype)

    def weights(self, features, graph):
        """(M, K, out_dim) array of the attention weights that `attend` pools
        with; each channel sums to 1 over K."""
        return tensor.edge_softmax(features, graph, self.att_weight, self.att_bias)

    def _aggregate(self, features, graph, train, chunk=None):
        return attend(features, graph, self.att_weight, self.att_bias,
                      self.calibrate(features, train, graph, chunk), chunk)

    def forward(self, features, graph, train=False):
        return self._apply(features, graph, train)

    def parameters(self):
        return super().parameters() + [
            Parameter(f"{self.name}.att.weight", self.att_weight),
            Parameter(f"{self.name}.att.bias", self.att_bias)]


class GraphMaxPoolLayer(_GraphLayer):
    """Max-pool aggregation over a KNN neighborhood (normal stream)."""

    def _aggregate(self, features, graph, train, chunk=None):
        return self.calibrate(features, train, graph, chunk, pool=True)

    def forward(self, features, graph, train=False):
        return self._apply(features, graph, train)


# aggregation name (the config's c_stream_agg / n_stream_agg) -> layer class
AGGREGATIONS = {"attention": GraphAttentionLayer, "maxpool": GraphMaxPoolLayer}
