"""Exact k-nearest-neighbor graphs in feature space and the neighbor gather.

Graph construction is non-differentiable structure: neighbor indices are
computed from raw feature values and gradients never flow through the
selection.  Neighbor rows, by contrast, are gathered with gather_rows and
are fully differentiable; every gather over one graph shares the graph's
RowScatter, built once when the graph is made.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from meshseg.tensor import DimensionError, RowScatter, gather_rows


class GraphConfigError(ValueError):
    """Neighborhood size incompatible with the cell count."""


@dataclass(frozen=True)
class KnnGraph:
    """M x K table of neighbor cell ids, nearest first; immutable.

    `indices` is a read-only int64 copy of the table passed in, and
    `scatter` its RowScatter, so the sort can never go stale.  K is the
    table's width.
    """

    indices: np.ndarray  # (M, K) int64
    scatter: RowScatter = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        indices = np.array(self.indices, dtype=np.int64)
        if indices.ndim != 2:
            raise DimensionError(f"neighbor table must be (M, K), got {indices.shape}")
        indices.flags.writeable = False
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "scatter", RowScatter(indices))

    @property
    def num_cells(self):
        return self.indices.shape[0]

    @property
    def k(self):
        return self.indices.shape[1]

    def permuted_neighbors(self, rng):
        """Same graph with each row's neighbor order shuffled (for tests)."""
        idx = self.indices.copy()
        for row in idx:
            rng.shuffle(row)
        return KnnGraph(idx)


def _pairwise_sq_dists(features):
    # ||a-b||^2 expanded; cheap at desk scale and exact enough for ranking.
    sq = np.einsum("ij,ij->i", features, features)
    d = sq[:, None] + sq[None, :] - 2.0 * (features @ features.T)
    np.maximum(d, 0.0, out=d)
    return d


def build_knn_graph(features, k, include_self=False):
    """Rows list the k cells nearest in Euclidean feature distance.

    The center itself is excluded unless include_self is set; distance ties
    break toward the lower cell index.
    """
    return KnnGraph(_knn_indices(features, k, include_self))


def _knn_indices(features, k, include_self):
    features = np.asarray(features)
    m = features.shape[0]
    if k < 1 or k >= m:
        raise GraphConfigError(f"k={k} must satisfy 1 <= k < M={m}")
    if not np.isfinite(features).all():
        raise ValueError("non-finite feature values")
    d = _pairwise_sq_dists(features)
    if not include_self:
        np.fill_diagonal(d, np.inf)

    # Partition to the k smallest per row, then order those by distance with
    # ties kept in index order (candidates pre-sorted by index + stable sort).
    part = np.argpartition(d, k - 1, axis=1)[:, :k]
    cand = np.sort(part, axis=1)
    d_cand = np.take_along_axis(d, cand, axis=1)
    order = np.argsort(d_cand, axis=1, kind="stable")
    idx = np.take_along_axis(cand, order, axis=1)

    # Ties straddling the partition boundary need the full candidate set.
    kth = d_cand.max(axis=1)
    counts = (d <= kth[:, None]).sum(axis=1)
    for i in np.nonzero(counts > k)[0]:
        tied = np.nonzero(d[i] <= kth[i])[0]  # ascending index already
        tied = tied[np.argsort(d[i][tied], kind="stable")]
        idx[i] = tied[:k]
    return idx


def build_block_knn_graph(features, block_size, k, include_self=False):
    """Per-block KNN for a batch of equally sized meshes stacked along rows.

    Neighbors never cross block boundaries; indices are global row ids.
    """
    features = np.asarray(features)
    total = features.shape[0]
    if total % block_size:
        raise DimensionError(
            f"{total} rows do not divide into blocks of {block_size}"
        )
    blocks = []
    for start in range(0, total, block_size):
        blocks.append(_knn_indices(features[start:start + block_size], k,
                                   include_self) + start)
    return KnnGraph(np.concatenate(blocks, axis=0))


def gather_neighbors(features, graph):
    """(M, K, d) neighbor rows of `features`, scattered back through graph.scatter."""
    m = features.data.shape[0]
    if graph.num_cells != m:
        raise DimensionError(
            f"graph over {graph.num_cells} cells applied to {m} feature rows"
        )
    return gather_rows(features, graph.indices, graph.scatter)

