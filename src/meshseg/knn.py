"""Exact k-nearest-neighbor graphs in feature space, their gather and scatter.

A graph equals the float64 brute force over the caller's values, ties
broken toward the lower index, and is built in bounded memory.  Each block
is centred on its float64 column mean and cast to float32, so float32
rounding does not grow with the block's distance from the origin.  Rows
and columns are sorted by their projection p onto the block's top
principal axis, and rows are taken in chunks of about _ROWS.  |p_i - p_j|
never exceeds the distance between rows i and j, so a column whose
projection lies farther from every row of a chunk than that row's k-th
distance bound is neither a neighbour of any of them nor tied with one;
the columns left form one contiguous run of the sorted order.  This is the
bounding test of k-d trees (Friedman, Bentley & Finkel 1977) on one axis.
BLAS writes a chunk's float32 distances |b|^2 - 2ab to a window of sorted
columns around its own, and one np.partition finds each row's exact k-th
value t_i on that window, an upper bound of its k-th distance.  Every
column within twice the rounding bound of t_i is a candidate, and the
candidates are ranked by exact float64 distances, in one re-rank for as
many chunks as keep rows x widest candidate list within _RERANK.  Of a
group of equal rows only the k + 1 of lowest index can be anyone's
neighbour, so the others are never candidates.  Peak memory is
O(_CHUNK_ELEMS + _RERANK + M d) per call, never M x M; a chunk that passes
_RERANK on its own is re-ranked alone, in chunk x M at most.

Graph construction is non-differentiable structure: neighbor indices are
computed from raw feature values and gradients never flow through the
selection.  A KnnGraph checks its table once, when built: an integer
table of ids in [0, M), so every gather over it, taped or chunked, is in
range.  `gather` reads per-cell rows out along the edges; `scatter_sum`,
the transpose, adds per-edge rows back onto the cells they name, over the
jagged diagonals of the transposed table.  The first `scatter_sum`, in a
backward pass, builds them; every later edge op over the graph shares them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from meshseg.tensor import DimensionError


_CHUNK_ELEMS = 1 << 20  # float32 distances held per row chunk (4 MB)
_F32_EPS = float(np.finfo(np.float32).eps)
_SQ_LIMIT = float(np.finfo(np.float32).max) / 4  # keeps every e_ij finite
_F32_TINY = float(np.finfo(np.float32).tiny)  # smallest normal float32
_F64_EPS = float(np.finfo(np.float64).eps)
_ROWS = 96  # rows per chunk, fewer when it would pass max(_CHUNK_ELEMS, M) distances
_RERANK = 1 << 14  # rows x widest candidate list per re-rank, unless one chunk has more


class GraphConfigError(ValueError):
    """Neighborhood size incompatible with the cell count."""


class FeatureValueError(ValueError):
    """KNN input that is non-finite or too large for float32 distances."""


class GatherIndexError(IndexError):
    """Neighbor table not of an integer dtype, or an id outside [0, M)."""


@dataclass(frozen=True)
class KnnGraph:
    """M x K table of neighbor cell ids, nearest first; immutable.

    `indices` is a read-only int64 copy of the table passed in, checked
    once here: integer ids in [0, M), else GatherIndexError.  Its `scatter`,
    sorted on first access, can therefore never go stale.  K is the table's
    width.
    """

    indices: np.ndarray  # (M, K) int64

    def __post_init__(self):
        table = np.asarray(self.indices)
        if table.ndim != 2:
            raise DimensionError(f"neighbor table must be (M, K), got {table.shape}")
        if not np.issubdtype(table.dtype, np.integer):  # bool would index as a mask
            raise GatherIndexError(
                f"neighbor table dtype {table.dtype} is not an integer type")
        m = table.shape[0]
        bad = (table < 0) | (table >= m)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise GatherIndexError(
                f"neighbor id {table[i, j]} at ({i}, {j}) outside [0, {m})")
        indices = table.astype(np.int64)
        indices.flags.writeable = False
        object.__setattr__(self, "indices", indices)

    @cached_property
    def scatter(self):
        """(cells, levels): the jagged diagonals of the transposed table.

        `cells` lists the named cells by falling in-degree, ties by id.
        Level j holds, for the first len(levels[j]) of them, the flat edge
        id (row * K + column) of the cell's j-th naming in row-major order.
        """
        flat = self.indices.reshape(-1)
        order = np.argsort(flat, kind="stable")  # edges grouped by cell, row-major
        counts = self.in_degree
        cells = np.argsort(-counts, kind="stable")[:np.count_nonzero(counts)]
        starts = (np.cumsum(counts) - counts)[cells]
        depth = counts[cells]
        levels = tuple(order[starts[:np.count_nonzero(depth > j)] + j]
                       for j in range(counts.max(initial=0)))
        return cells, levels

    @cached_property
    def in_degree(self):
        """(M,) int64 number of edges naming each cell."""
        return np.bincount(self.indices.reshape(-1), minlength=self.num_cells)

    def scatter_sum(self, g):
        """(M, c) sums of the per-edge rows g (M, K, c) onto the cells their
        edges name; cells no row names get zero.

        Each cell adds its edges one level at a time, so in row-major edge
        order: a fixed order that depends on nothing but the table.  Every
        level's rows are taken into one reused scratch; the edge ids are in
        range by construction, and mode="clip" spares np.take the copy of
        `out` that its default mode makes.
        """
        cells, levels = self.scatter
        c = g.shape[-1]
        flat = g.reshape(-1, c)
        out = np.zeros((self.num_cells, c), dtype=g.dtype)
        if levels:
            acc = flat[levels[0]]
            scratch = np.empty_like(acc)
            for ids in levels[1:]:
                acc[:len(ids)] += np.take(flat, ids, axis=0, out=scratch[:len(ids)],
                                          mode="clip")
            out[cells] = acc
        return out

    def gather(self, x, rows=slice(None)):
        """x[indices[rows]]: neighbor rows of the (M, d) array x, (rows, K, d)."""
        if x.ndim != 2 or x.shape[0] != self.num_cells:
            raise DimensionError(
                f"graph over {self.num_cells} cells applied to features {x.shape}")
        return np.take(x, self.indices[rows], axis=0)  # faster than x[...] here

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


def build_knn_graph(features, k, include_self=False):
    """Rows list the k cells nearest in Euclidean feature distance.

    The center itself is excluded unless include_self is set; distance ties
    break toward the lower cell index.
    """
    return build_block_knn_graph(features, len(features), k, include_self)


def _knn_indices(features, k, include_self):
    """The (M, k) table of one build_block_knn_graph block.  A row chunk
    holds at most max(_CHUNK_ELEMS, M) float32 distances.

    Bound.  v is the top eigenvector of the centred block's Gram matrix,
    p = c v the float64 projections of the centred rows c, sorted.  A row
    chunk is a run of sorted rows.  Its first product covers the run's own
    columns, widened on each side by 5/4 of the last chunk's reach in
    columns plus k + 1; the exact k-th value t_i on it gives U_i = t_i +
    |a_i|^2 + E_i >= row i's k-th oracle distance (E_i is the candidate
    margin below, so k columns have D <= U_i).  A column j with |p_i - p_j| > ||v|| (1 +
    (d + 4) eps64) sqrt(U_i) + delta then has D_ij > U_i, so it is neither a
    neighbour of row i nor tied with its k-th.  delta = (d + 16) eps64
    sqrt(d) max|c| + 2^-500 covers float64 rounding, with u = eps64 / 2:
    centring moves each row by <= u |c_i|, the d-term dot product moves p_i
    by <= d u |c_i| ||v||, the oracle's d differences, squares and sums
    shrink D_ij by a factor >= 1 - (d + 2) u, and forming the test's own
    bounds costs a few u of |p| and of the reach (the factor on sqrt(U_i));
    2^-500 exceeds what an underflowing product or square root can lose.
    Columns outside the hull of the chunk's intervals p_i -+ reach_i are
    skipped, and the rest, one searchsorted run, get a second product only
    if the first did not cover them; t_i is then taken again on it.
    Candidates map back to original ids and are sorted, so the stable
    float64 re-rank breaks ties toward the lower index as the oracle does.
    Chunks' candidates wait for one re-rank until the next chunk would take
    rows x widest candidate list past _RERANK.
    """
    x = np.asarray(features)
    m, dim = x.shape
    if k < 1 or k >= m:
        raise GraphConfigError(f"k={k} must satisfy 1 <= k < M={m}")
    x64 = x.astype(np.float64, copy=False)
    with np.errstate(all="ignore"):  # NaN, inf and overflow are rejected below
        c = x64 - x64.mean(axis=0)
        a = c.astype(np.float32)
        sq = np.einsum("ij,ij->i", a, a)
        top = sq.max()
    if not top <= _SQ_LIMIT:
        raise FeatureValueError(
            "KNN input has non-finite feature values or values too large for "
            "float32 distances")
    # Candidate margin.  Let D_ij be the oracle's float64 distance between
    # the caller's rows and e_ij = |a_j|^2 - 2 a_i.a_j its float32 stand-in
    # on the centred rows a, short of the row constant |a_i|^2, which ranks
    # nothing.  Then |e_ij + |a_i|^2 - D_ij| <= E_i with
    # E_i = (dim + 5) * (eps32 * (|a_i|^2 + max_j |a_j|^2) + tiny32), the sum of:
    #   (dim + 2) * eps32 * (...)  the expanded formula in float32: dim-term
    #                              norm and dot product (the factor -2 is a
    #                              power of two, so exact) plus one addition;
    #   2 * eps32 * (...)          the float64 -> float32 cast of a_i and a_j,
    #                              each off by <= eps32/2 of its norm, which
    #                              moves |a_i - a_j|^2 by <= 2 eps32 (..);
    #   1 * eps32 * (...)          spare for the oracle's own float64 rounding
    #                              and the float32 norms that scale the bound;
    #   (dim + 5) * tiny32         the smallest normal float32 per step, more
    #                              than a result lost to underflow is off by.
    # If t_i is the k-th smallest e_ij of any k columns, k columns have
    # D <= t_i + E_i, so every oracle neighbour, and every column tied with
    # the k-th, has e_ij <= t_i + 2 E_i: those columns, with the limit
    # rounded up to float32, are the candidates.
    margin = (2 * (dim + 5)) * (_F32_EPS * (sq.astype(np.float64) + float(top)) + _F32_TINY)
    v = _principal_axis(c)
    p = c @ v
    scale = float(np.linalg.norm(v)) * (1 + (dim + 4) * _F64_EPS)
    delta = (dim + 16) * _F64_EPS * np.sqrt(dim) * max(c.max(), -c.min()) + 2.0 ** -500
    del c  # the rows stay as x64 and, sorted, as a
    order = np.argsort(p, kind="stable")
    p, a, sq, margin = p[order], a[order], sq[order], margin[order]
    at = np.empty((dim, m), dtype=np.float32)
    np.multiply(a.T, -2, out=at)
    sq_col = _column_norms(x64, order, p, sq, k)
    out = np.empty((m, k), dtype=np.int64)
    start, hits, width = 0, [], 0  # candidates of sorted rows start:lo, widest row
    lo, left, right = 0, k + 1, k + 1
    cap = max(_CHUNK_ELEMS, m)  # float32 distances per row chunk
    while lo < m:
        n = max(1, min(_ROWS, m - lo, cap // min(m, _ROWS + left + right)))
        hi = lo + n
        c0, c1 = max(lo - left, 0), min(hi + right, m)
        e, kth = _distances(a[lo:hi], at, sq_col, c0, c1, k, lo, include_self)
        reach = scale * np.sqrt(np.maximum(kth + sq[lo:hi] + margin[lo:hi] / 2, 0)) + delta
        need0, need1 = _kept_columns(p, lo, hi, reach)
        left, right = (lo - need0) * 5 // 4 + k + 1, (need1 - hi) * 5 // 4 + k + 1
        if need0 < c0 or need1 > c1:
            c0, c1 = need0, need1
            hi = min(hi, lo + cap // (c1 - c0))
            e, kth = _distances(a[lo:hi], at, sq_col, c0, c1, k, lo, include_self)
        # flatnonzero: several times faster than a 2-d nonzero
        r, col = np.divmod(np.flatnonzero(
            e <= _f32_above(kth + margin[lo:hi])[:, None]), c1 - c0)
        wide = int(np.bincount(r).max())
        if (hi - start) * max(width, wide) > _RERANK and start < lo:
            out[order[start:lo]] = _rerank(x64, order[start:lo], hits, k)
            start, hits, width = lo, [], 0
        hits.append((lo - start + r) * m + order[c0 + col])
        width = max(width, wide)
        lo = hi
    out[order[start:]] = _rerank(x64, order[start:], hits, k)
    return out


def _principal_axis(c):
    """Top eigenvector of the (d, d) Gram matrix of the centred rows c."""
    return np.linalg.eigh(c.T @ c)[1][:, -1]


def _kept_columns(p, lo, hi, reach):
    """need0, need1: the sorted columns whose projection p lies within
    reach[i] of p[lo + i] for some row of the chunk lo:hi."""
    return (int(np.searchsorted(p, (p[lo:hi] - reach).min(), "left")),
            int(np.searchsorted(p, (p[lo:hi] + reach).max(), "right")))


def _column_norms(x64, order, p, sq, k):
    """The sorted column norms sq, +inf where a column equals k + 1 rows of
    lower index.  Such a column ties each of them in every row's distances
    and loses every tie, so it is no row's neighbour (one of the k + 1 may
    be the row itself) and need never be a candidate.  The groups of equal
    rows are found only when two rows adjacent in p are equal, so rows
    without duplicates pay one pass over p; a group this misses costs time,
    never exactness."""
    tie = np.flatnonzero(p[1:] == p[:-1])
    if not (x64[order[tie]] == x64[order[tie + 1]]).all(axis=1).any():
        return sq
    rows = np.lexsort((np.arange(len(x64)), *x64.T))  # equal rows adjacent, by index
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (x64[rows[1:]] != x64[rows[:-1]]).any(axis=1)
    first = np.maximum.accumulate(np.where(new, np.arange(len(rows)), 0))
    spare = np.zeros(len(rows), dtype=bool)
    spare[rows[np.arange(len(rows)) - first > k]] = True
    return np.where(spare[order], np.float32(np.inf), sq)


def _distances(rows, at, sq_col, c0, c1, k, lo, include_self):
    """(e, each row's k-th smallest e) of `rows`, sorted from lo: e, (n, c1 -
    c0), holds the float32 |b|^2 - 2ab to sorted columns c0:c1, +inf at a
    row's own column unless include_self."""
    n = len(rows)
    e = rows @ at[:, c0:c1]
    e += sq_col[c0:c1]
    if not include_self:
        e[np.arange(n), np.arange(lo - c0, lo - c0 + n)] = np.inf
    return e, np.partition(e, k - 1, axis=1)[:, k - 1]


def _f32_above(x):
    """x rounded to float32, then one step up: a float32 never below x."""
    return np.nextafter(x.astype(np.float32), np.float32(np.inf))


def _rerank(x64, rows, hits, k):
    """The graph's `rows` from arrays of their candidates' flat ids
    i * M + j, i counted in `rows` and j an original column.

    Distances are the oracle's own float64 ((x_j - x_i) ** 2).sum(); each
    row's candidates are sorted into index order, so a stable sort breaks
    ties toward the lower index.  Rows are padded with -1 to the widest
    candidate list and gathered in steps of about _CHUNK_ELEMS / 16
    float64 values, small enough to stay in cache.
    """
    m, dim = x64.shape
    r, c = np.divmod(np.sort(np.concatenate(hits)), m)
    counts = np.bincount(r, minlength=len(rows))
    width = int(counts.max())
    cand = np.full((len(rows), width), -1)
    cand[r, np.arange(len(r)) - (np.cumsum(counts) - counts)[r]] = c
    dist = np.empty(cand.shape)
    centres = x64[rows, None, :]
    step = max(1, (_CHUNK_ELEMS >> 4) // (width * max(dim, 1)))
    for s in range(0, len(rows), step):
        diff = np.take(x64, cand[s:s + step], axis=0)
        diff -= centres[s:s + step]
        np.square(diff, out=diff)
        dist[s:s + step] = diff.sum(axis=2)
    dist[cand < 0] = np.inf
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(cand, order, axis=1)


def build_block_knn_graph(features, block_size, k, include_self=False):
    """Per-block KNN for a batch of equally sized meshes stacked along rows.

    Neighbors never cross block boundaries; indices are global row ids.
    """
    features = np.asarray(features)
    total = features.shape[0]
    if block_size < 1:
        raise DimensionError(f"block size must be >= 1, got {block_size}")
    if total % block_size:
        raise DimensionError(
            f"{total} rows do not divide into blocks of {block_size}"
        )
    blocks = []
    for start in range(0, total, block_size):
        blocks.append(_knn_indices(features[start:start + block_size], k,
                                   include_self) + start)
    return KnnGraph(np.concatenate(blocks, axis=0))

