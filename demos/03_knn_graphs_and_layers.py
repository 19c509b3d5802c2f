# The two aggregation layers, step by step: KNN graph construction,
# attention weights from a split edge affine, and max-pooling on a toy
# feature set.

import numpy as np

from meshseg.knn import build_knn_graph
from meshseg.layers import GraphAttentionLayer, GraphMaxPoolLayer
from meshseg.tensor import Tensor

rng = np.random.default_rng(3)
features = rng.normal(size=(10, 4)).astype(np.float32)

graph = build_knn_graph(features, k=3)
print("neighbor table (cell -> 3 nearest in feature space):")
for i, row in enumerate(graph.indices[:5]):
    print(f"  cell {i}: {row.tolist()}")

# attention layer: an affine map scores each (center, neighbor) pair
# [x_i - x_j (+) x_j] per channel, and a softmax over the K neighbors turns
# the scores into weights.  The map is split into a center half and a
# neighbor half; each half projects every cell once, and the neighbor
# projections are gathered along the edges, so the (M, K, 2d) pair is never
# built (here row 0's pairs are built by hand, only to check one row)
x = Tensor(features)
att = GraphAttentionLayer("att", in_dim=4, out_dim=6, rng=np.random.default_rng(0))
weights = att.weights(x, graph)
nbrs = features[graph.indices[0]]
scores = (np.concatenate([features[0] - nbrs, nbrs], axis=1) @ att.att_weight.data
          + att.att_bias.data)
by_hand = np.exp(scores - scores.max(axis=0))
by_hand /= by_hand.sum(axis=0)
print("attention weights:", weights.shape)
print(f"row 0 against softmax over k of [x_0 - x_j (+) x_j] @ W + b: "
      f"max diff {np.abs(weights[0] - by_hand).max():.1e}")
print("per-channel weight sums for cell 0:",
      np.round(weights[0].sum(axis=0), 6), "(each is 1)")

# the layer sums the calibrated neighbors (each calibrated against its
# center) with these weights, in one tape node
out = att.forward(x, graph)
print("attention output:", out.data.shape)

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
