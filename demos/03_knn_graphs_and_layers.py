# The two aggregation layers, step by step: KNN graph construction, edge
# tensors, attention weights, and max-pooling on a toy feature set.

import numpy as np

from meshseg.knn import build_knn_graph, edge_tensors, gather_neighbors
from meshseg.layers import GraphAttentionLayer, GraphMaxPoolLayer
from meshseg.tensor import Tensor

rng = np.random.default_rng(3)
features = rng.normal(size=(10, 4)).astype(np.float32)

graph = build_knn_graph(features, k=3)
print("neighbor table (cell -> 3 nearest in feature space):")
for i, row in enumerate(graph.indices[:5]):
    print(f"  cell {i}: {row.tolist()}")

concat, diff = edge_tensors(Tensor(features), graph)
print("edge tensors: concat", concat.data.shape, "diff", diff.data.shape)

# attention layer: neighbors are calibrated against their center, scored,
# softmax-normalized per channel, and summed
att = GraphAttentionLayer("att", in_dim=4, out_dim=6, rng=np.random.default_rng(0))
out = att.forward(Tensor(features), graph)
print("attention output:", out.data.shape)
x = Tensor(features)
weights = att.weights(x, gather_neighbors(x, graph))
print("per-channel weight sums for cell 0:",
      np.round(weights.data[0].sum(axis=0), 6), "(each is 1)")

# max-pool layer: channel-wise maximum over the same calibrated neighbors,
# the boundary-sensitive aggregation of the normal stream
pool = GraphMaxPoolLayer("pool", in_dim=4, out_dim=6, rng=np.random.default_rng(1))
out_pool = pool.forward(Tensor(features), graph)
print("max-pool output:", out_pool.data.shape)

# permuting each row's neighbor order changes nothing: both aggregations
# are symmetric in the neighborhood
perm = graph.permuted_neighbors(np.random.default_rng(7))
same_att = np.abs(att.forward(Tensor(features), perm).data - out.data).max()
same_pool = np.array_equal(pool.forward(Tensor(features), perm).data, out_pool.data)
print(f"neighbor-order invariance: attention diff {same_att:.1e}, "
      f"max-pool identical {same_pool}")
