# The two aggregation layers, step by step: KNN graph construction, the
# split edge affine, attention weights, and max-pooling on a toy feature set.

import numpy as np

from meshseg.knn import build_knn_graph
from meshseg.layers import GraphAttentionLayer, GraphMaxPoolLayer
from meshseg.tensor import Tensor, edge_affine

rng = np.random.default_rng(3)
features = rng.normal(size=(10, 4)).astype(np.float32)

graph = build_knn_graph(features, k=3)
print("neighbor table (cell -> 3 nearest in feature space):")
for i, row in enumerate(graph.indices[:5]):
    print(f"  cell {i}: {row.tolist()}")

# an affine map over a (center, neighbor) pair is split into a center half
# and a neighbor half; each half projects every cell once, and the neighbor
# projections are gathered along the edges, so the (M, K, 2d) pair is never
# built
x = Tensor(features)
w = Tensor(rng.normal(size=(8, 5)).astype(np.float32))
b = Tensor(np.zeros(5, dtype=np.float32))
edges = edge_affine(x, graph, w, b)
i, j = 0, graph.indices[0, 0]
pair = np.concatenate([features[i], features[j]]) @ w.data + b.data
print("edge affine:", edges.data.shape)
print(f"edge (0, 0) against [x_0 (+) x_{j}] @ W: "
      f"max diff {np.abs(edges.data[0, 0] - pair).max():.1e}")

# attention layer: neighbors are calibrated against their center, scored,
# softmax-normalized per channel, and summed
att = GraphAttentionLayer("att", in_dim=4, out_dim=6, rng=np.random.default_rng(0))
out = att.forward(x, graph)
print("attention output:", out.data.shape)
weights = att.weights(x, graph)
print("per-channel weight sums for cell 0:",
      np.round(weights.data[0].sum(axis=0), 6), "(each is 1)")

# max-pool layer: channel-wise maximum over the same calibrated neighbors,
# the boundary-sensitive aggregation of the normal stream
pool = GraphMaxPoolLayer("pool", in_dim=4, out_dim=6, rng=np.random.default_rng(1))
out_pool = pool.forward(x, graph)
print("max-pool output:", out_pool.data.shape)
# it pools inside the calibration MLP's node, before batch norm's affine and
# LeakyReLU, which are monotone per channel: the max over K of the
# calibrated edges, bit for bit
calibrated = pool.calibrate(x, False, graph)
print("equals the max over K of the calibrated edges:",
      np.array_equal(out_pool.data, calibrated.data.max(axis=1)))

# permuting each row's neighbor order changes nothing: both aggregations
# are symmetric in the neighborhood
perm = graph.permuted_neighbors(np.random.default_rng(7))
same_att = np.abs(att.forward(x, perm).data - out.data).max()
same_pool = np.array_equal(pool.forward(x, perm).data, out_pool.data)
print(f"neighbor-order invariance: attention diff {same_att:.1e}, "
      f"max-pool identical {same_pool}")
