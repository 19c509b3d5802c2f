"""Output checks: KNN rows against a float64 brute force, and tape size.

The probe records every KNN graph and every logits tensor the model builds
during one op, so the checks can look at them after the op's clock stops.
"""

from __future__ import annotations

import numpy as np

F32_EPS = float(np.finfo(np.float32).eps)


class Probe:
    """Keeps the KNN graphs and logits of the current op."""

    def __init__(self, ms):
        self._ms = ms
        self._saved = []
        self.graphs = []  # (features, block_size, k, include_self, indices)
        self.logits = None

    def install(self):
        model = self._ms.model
        build, forward = model.build_block_knn_graph, model.TwoStreamNet.forward
        probe = self

        def build_block_knn_graph(features, block_size, k, include_self=False):
            graph = build(features, block_size, k, include_self)
            probe.graphs.append((features, block_size, k, include_self, graph.indices))
            return graph

        def forward_(net, *args, **kwargs):
            out = forward(net, *args, **kwargs)
            probe.logits = out[0] if isinstance(out, tuple) else out
            return out

        self._saved = [(model, "build_block_knn_graph", build),
                       (model.TwoStreamNet, "forward", forward)]
        model.build_block_knn_graph = build_block_knn_graph
        model.TwoStreamNet.forward = forward_

    def uninstall(self):
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        self._saved = []

    def clear(self):
        self.graphs = []
        self.logits = None

    def knn_counts(self):
        """(calls, computed bytes): 12 bytes per block cell pair, i.e. the
        float32 distance matrix plus the int64 partition of each block."""
        computed = sum((len(f) // b) * 12 * b * b for f, b, _, _, _ in self.graphs)
        return len(self.graphs), computed


def check_knn_rows(features, block_size, k, include_self, indices, rows):
    """(bad rows, rows equal to the exact oracle) over `rows`.

    The oracle is a float64 brute force with distance ties broken toward
    the lower index, as in acceptance criterion 4.  The program ranks
    float32 distances computed as |a|^2 + |b|^2 - 2ab, so near-ties can
    swap.  A row whose order differs from the oracle is still correct when
    each returned neighbour's float64 distance matches the oracle's at the
    same rank within the rounding-error bound of that float32 formula,
    (d + 2) * eps * (|a|^2 + max |b|^2).  Rows equal to the oracle are
    counted apart so the share of exact rows stays visible.
    """
    feats = np.asarray(features, dtype=np.float64)
    dim = feats.shape[1]
    bad = exact = 0
    for r in rows:
        start = r - r % block_size
        block = feats[start:start + block_size]
        i = r - start
        d = ((block - block[i]) ** 2).sum(axis=1)
        if not include_self:
            d[i] = np.inf
        want = np.lexsort((np.arange(block_size), d))[:k]
        got = np.asarray(indices[r]) - start
        if np.array_equal(got, want):
            exact += 1
            continue
        in_block = (got.shape == (k,) and got.min() >= 0
                    and got.max() < block_size and len(set(got.tolist())) == k)
        if not in_block or (not include_self and i in got):
            bad += 1
            continue
        sq = (block ** 2).sum(axis=1)
        tol = (dim + 2) * F32_EPS * (sq[i] + max(sq[got].max(), sq[want].max()))
        if np.abs(d[got] - d[want]).max() > tol:
            bad += 1
    return bad, exact


def tape_stats(root):
    """(nodes, bytes) of the autodiff tape below `root`.

    Bytes count each distinct buffer once: node outputs plus the arrays the
    backward closures keep alive.
    """
    seen_nodes, buffers = set(), {}
    stack = [root]

    def add(arr):
        base = arr
        while isinstance(base.base, np.ndarray):
            base = base.base
        buffers[id(base)] = base.nbytes

    while stack:
        node = stack.pop()
        if id(node) in seen_nodes:
            continue
        seen_nodes.add(id(node))
        add(node.data)
        backward = getattr(node, "_backward", None)
        for cell in getattr(backward, "__closure__", None) or ():
            try:
                value = cell.cell_contents
            except ValueError:  # empty cell
                continue
            if isinstance(value, np.ndarray):
                add(value)
        stack.extend(getattr(node, "_parents", ()))
    return len(seen_nodes), sum(buffers.values())
