"""Dense tensors with reverse-mode automatic differentiation.

Covers exactly the operations the segmentation network runs:

- channel concatenation, the per-row `affine` and the total sum;
- the loss, `log_softmax_nll`: each row's negative log softmax at its
  label, summed and scaled, one node with a hand-written backward;
- the edge path of the graph layers, over the (centre, neighbour) pairs
  [x_i (+) x_j] or [x_i - x_j (+) x_j] of a KnnGraph: `shared_mlp`, affine
  -> batch norm (`BatchNormState`, with running statistics) -> LeakyReLU,
  and `attend`, per-edge values weighted by a softmax over each row's K
  edges (`edge_softmax`) and summed, each one node with a hand-written
  backward.  An edge affine never builds the pair: it projects the cells,
  then gathers the projections along the edges, and its backward sums the
  edge gradients back onto the cells with the graph's scatter, so neither
  direction runs a product with M * K rows.  `shared_mlp(..., pool=True)`
  also max-pools over each row's K edges, and its backward routes each
  pooled gradient to its edge with an equality mask.  Eval mode folds
  batch norm's running statistics into the affine, so there `shared_mlp`
  is one affine and LeakyReLU per edge; train mode pools the centred
  pre-activation and normalises only the pooled rows.

Two precisions are supported: float32 for training and float64 for
gradient verification.

Per-edge arrays are the bulk of a training step's memory traffic, so one
rule holds: an (M, K, c) array is allocated only as a node's output, as a
gradient the node hands on, or as an array the node keeps for backward.
Every other per-edge intermediate is formed in row blocks of about _BLOCK
values through one scratch array per call (`_blocks`), and batch norm
centres the affine's fresh output in place (`_centre`).  The arithmetic
and its order are those of the whole-array expressions, so results are
bit-identical to them.

Tensors are immutable once created except for gradient accumulation.
Backward runs over a tape in reverse topological order; only first-order
derivatives are supported.  Inside `no_tape()` no op extends the tape, so
an inference pass keeps nothing alive for a backward that never comes.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

DEFAULT_DTYPE = np.float32
_BLOCK = 1 << 17  # values per row block of an intermediate: 512 KB in float32

_taping = True  # False inside no_tape()


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class UsageError(ValueError):
    """Operation called outside its contract (non-scalar output, ...)."""


class StatisticsError(ValueError):
    """Batch statistics undefined (train-mode batch norm with < 2 rows)."""


class Tensor:
    """N-dimensional array node in the autodiff graph.

    `data` is a numpy float32/float64 array and must not be mutated after
    construction.  `grad` is allocated lazily during backward and has the
    same shape as `data`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{req})"

    def item(self):
        if self.data.size != 1:
            raise UsageError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def backward(self):
        """Backpropagate from a scalar output to every reachable leaf."""
        if self.data.size != 1:
            raise UsageError(
                f"backward() requires a scalar output, got shape {self.data.shape}"
            )
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def sum(self):
        return sum_all(self)


def _toposort(root):
    """Iterative DFS topological order of the tape below `root`."""
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _accumulate(tensor, grad, owned=False):
    """Add `grad` into tensor.grad.

    An op passes owned=True for a fresh C-contiguous array that nothing else
    references; the first such gradient is taken over as tensor.grad.  Views
    and arrays handed to several inputs are copied, so every .grad has one
    owner and later gradients can be added in place.
    """
    if tensor.grad is None:
        tensor.grad = grad if owned else grad.copy()
    else:
        tensor.grad += grad


@contextlib.contextmanager
def no_tape():
    """Ops run inside record no parents and no backward closure: results
    never require grad.  Nests, and restores the previous state on exit."""
    global _taping
    saved, _taping = _taping, False
    try:
        yield
    finally:
        _taping = saved


def taping():
    """Whether ops currently extend the tape (False inside no_tape())."""
    return _taping


def _make(data, parents, backward):
    """Wrap an op result; the tape is only extended when a parent needs grad."""
    track = _taping and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=track)
    if track:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _blocks(a):
    """(rows, scratch) for each block of about _BLOCK values along the
    leading axis of `a`: `rows` slices that axis, and `scratch` is an
    uninitialised array of the block's shape and a's dtype.  Every block of
    one call shares one scratch, so each is used up before the next."""
    step = max(1, _BLOCK // (math.prod(a.shape[1:]) or 1))
    scratch = np.empty((min(step, len(a)),) + a.shape[1:], a.dtype)
    for lo in range(0, len(a), step):
        yield slice(lo, lo + step), scratch[:min(step, len(a) - lo)]


def _leaky_relu(y, slope):
    """LeakyReLU of the owned `y` in place, max(y, y * slope), which for a
    slope in [0, 1) is y * _leaky_factor(y < 0, slope) bit for bit."""
    for rows, t in _blocks(y):
        np.maximum(y[rows], np.multiply(y[rows], slope, out=t), out=y[rows])


def _product_sum(a, b):
    """(a * b).sum(axis=1), bit for bit, without the full-size product."""
    out = np.empty(a.shape[:1] + a.shape[2:], a.dtype)
    for rows, t in _blocks(a):
        np.multiply(a[rows], b[rows], out=t).sum(axis=1, out=out[rows])
    return out


def _subtract_product(out, a, v):
    """out -= a * v in place, bit for bit, without the full-size product."""
    for rows, t in _blocks(out):
        out[rows] -= np.multiply(a[rows], v, out=t)


# ---------------------------------------------------------------------------
# Channel, linear and edge ops
# ---------------------------------------------------------------------------

def concat_channels(tensors):
    """Concatenate along the channel (last) axis."""
    tensors = list(tensors)
    if not tensors:
        raise UsageError("concat_channels: empty input list")
    ndim = tensors[0].data.ndim
    lead = tensors[0].data.shape[:-1]
    for t in tensors[1:]:
        if t.data.ndim != ndim or t.data.shape[:-1] != lead:
            raise DimensionError(
                f"concat_channels: shape mismatch: {tensors[0].data.shape} vs {t.data.shape}"
            )
    widths = [t.data.shape[-1] for t in tensors]
    offsets = np.cumsum([0] + widths)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                _accumulate(t, g[..., lo:hi])

    return _make(np.concatenate([t.data for t in tensors], axis=-1), tensors, backward)


def _matmul(a, b):
    """a @ b over the last axis of `a`.

    float64 is the verification mode: einsum accumulates each output row
    independently in a fixed order, so results never depend on batch shape.
    float32 keeps the fast BLAS path, which runs faster on a C-ordered `b`
    (weights arrive transposed in backward).
    """
    if a.dtype == np.float64:
        flat = np.einsum("ij,jk->ik", a.reshape(-1, a.shape[-1]), b, optimize=False)
        return flat.reshape(*a.shape[:-1], b.shape[-1])
    return a @ np.ascontiguousarray(b)


def _check_weights(op, in_dim, w, b):
    if w.data.ndim != 2 or w.data.shape[0] != in_dim:
        raise DimensionError(
            f"{op}: input width {in_dim} does not match weight {w.data.shape}"
        )
    if b.data.shape != (w.data.shape[1],):
        raise DimensionError(
            f"{op}: bias shape {b.data.shape} does not match weight {w.data.shape}"
        )


def _check_edges(op, x, graph):
    """Width d of the (M, d) centre rows x of a graph over M cells."""
    if x.data.ndim != 2 or x.data.shape[0] != graph.num_cells:
        raise DimensionError(
            f"{op}: graph over {graph.num_cells} cells applied to features {x.data.shape}")
    return x.data.shape[1]


def _edge_halves(w, d, diff):
    """Centre and neighbour blocks of an edge weight, see _linear."""
    top, bottom = w[:d], w[d:]
    return top, (bottom - top if diff else bottom)


def _linear(x, w, b, graph=None, diff=False, chunk=None):
    """Forward of affine (graph None) and of the edge affine, on arrays.

    The edge form maps each pair [x_i (+) x_j], or [x_i - x_j (+) x_j] with
    `diff`, of `graph` without building it: x @ bottom is made once per
    cell and read out along the edges, x @ top + b once per centre row.
    With `chunk` (rows, cells), which tape-free eval passes, only the edges
    of centre rows `rows` are formed; `cells` keeps each weight's cell
    projection, and each fold of _folded_mlp, for the other chunks of the
    same pass.
    """
    if graph is None:
        return _matmul(x, w) + b
    rows, cells = chunk or (slice(None), {})
    top, bottom = _edge_halves(w, x.shape[1], diff)
    if id(w) not in cells:
        cells[id(w)] = _matmul(x, bottom)
    out = graph.gather(cells[id(w)], rows)
    out += (_matmul(x[rows], top) + b)[:, None, :]
    return out


def _linear_backward(g, x, w, b):
    """Accumulate the gradients of affine's tensor inputs; `g` is owned."""
    if x.requires_grad:
        _accumulate(x, _matmul(g, w.data.T), owned=True)
    if w.requires_grad:
        _accumulate(w, _matmul(x.data.T, g), owned=True)
    if b.requires_grad:
        _accumulate(b, g.sum(axis=0), owned=True)


def _edge_sums(g, graph):
    """(g_centre, g_cells) of the per-edge gradients g (M, K, c): each centre
    row feeds all K of its edges, each cell the edges naming it."""
    return g.sum(axis=1), graph.scatter_sum(g)


def _edge_backward(g_centre, g_cells, x, w, b, diff=False):
    """Accumulate the gradients of the edge form of _linear's tensor inputs
    from the (M, out) sums of its edge gradients, see _edge_sums; both are
    owned.  No product has M * K rows."""
    top, bottom = _edge_halves(w.data, x.data.shape[1], diff)
    if x.requires_grad:
        gx = _matmul(g_centre, top.T)
        gx += _matmul(g_cells, bottom.T)
        _accumulate(x, gx, owned=True)
    if w.requires_grad:
        g_bottom = _matmul(x.data.T, g_cells)
        g_top = _matmul(x.data.T, g_centre)
        if diff:
            g_top -= g_bottom
        _accumulate(w, np.concatenate([g_top, g_bottom]), owned=True)
    if b.requires_grad:
        _accumulate(b, g_centre.sum(axis=0), owned=True)


def affine(x, w, b):
    """x @ w + b for (M, in) rows x and an (in, out) weight w."""
    if x.data.ndim != 2:
        raise DimensionError(f"affine: expected 2-D input, got {x.data.shape}")
    _check_weights("affine", x.data.shape[1], w, b)

    def backward(g):
        _linear_backward(g, x, w, b)

    return _make(_linear(x.data, w.data, b.data), (x, w, b), backward)


def edge_softmax(x, graph, w, b, chunk=None):
    """(M, K, out) array of attention weights: the edge affine of each pair
    [x_i - x_j (+) x_j] (see _linear, `chunk` included), softmaxed over K."""
    d = _check_edges("edge_softmax", x, graph)
    _check_weights("edge_softmax", 2 * d, w, b)
    p = _linear(x.data, w.data, b.data, graph, True, chunk)
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def attend(x, graph, w, b, values, chunk=None):
    """(M, out) sum over K of the (M, K, out) `values` weighted by
    edge_softmax(x, graph, w, b), one node.  It keeps the weights as its one
    per-edge array; backward reads `values` from its parent."""
    p = edge_softmax(x, graph, w, b, chunk)
    if values.data.shape != p.shape:
        raise DimensionError(f"attend: values {values.data.shape} vs weights {p.shape}")

    def backward(g):
        g = g[:, None, :]
        if values.requires_grad:
            _accumulate(values, g * p, owned=True)
        gs = g * values.data
        gs -= _product_sum(gs, p)[:, None, :]
        gs *= p
        _edge_backward(*_edge_sums(gs, graph), x, w, b, diff=True)

    return _make(_product_sum(p, values.data), (x, w, b, values), backward)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def log_softmax_nll(logits, labels, scale):
    """scale * -sum_i log softmax(logits_i)[labels_i] over (M, C) logits and
    M integer labels in [0, C), one node: the classification loss.

    Each -log p goes into a +0.0 (M, C) array that is summed whole, then
    scaled: the rounding of a sum over the full one-hot product, which a sum
    of the M picked values alone would change.  The node keeps the log
    softmax; backward is softmax * gs less gs at the labels, gs = g * scale."""
    x = logits.data
    scale = x.dtype.type(scale)
    shifted = x - x.max(axis=1, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    picked = (np.arange(len(labels)), labels)
    nll = np.zeros_like(ls)
    nll[picked] = -ls[picked]

    def backward(g):
        if logits.requires_grad:
            gs = g * scale
            gx = np.exp(ls) * gs
            gx[picked] -= gs
            _accumulate(logits, gx, owned=True)

    return _make(nll.sum() * scale, (logits,), backward)


def sum_all(x):
    """Sum of every element, as a scalar tensor."""

    def backward(g):
        if x.requires_grad:
            _accumulate(x, np.broadcast_to(g, x.data.shape))

    return _make(x.data.sum(), (x,), backward)


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

BN_EPS = 1e-5  # added to every variance before its square root
BN_MOMENTUM = 0.1  # weight of the batch in each running-statistics update


class BatchNormState:
    """Per-channel scale/shift parameters plus running statistics.

    Channels are the last axis; leading axes are flattened into the batch.
    Running variance stores the unbiased estimate; normalization uses the
    biased (1/N) batch variance.
    """

    def __init__(self, channels, dtype=DEFAULT_DTYPE):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    @property
    def channels(self):
        return self.gamma.data.shape[0]


def _centre(x, state, train):
    """(x - mean, inv_std) per channel over all leading axes.

    `x` is centred in place and returned, so the caller passes an array it
    owns, such as a fresh affine output, never a tensor's `.data`.  Train
    mode uses the batch statistics and updates the running estimates; eval
    mode uses the stored running statistics.
    """
    c = x.shape[-1]
    if c != state.channels:
        raise DimensionError(
            f"batch_norm: {c} channels vs state with {state.channels}"
        )
    eps = x.dtype.type(BN_EPS)
    if not train:
        x -= state.running_mean
        return x, 1.0 / np.sqrt(state.running_var + eps)

    n = x.size // c
    if n < 2:
        raise StatisticsError(f"batch_norm: train mode needs >= 2 rows, got {n}")
    mean = x.reshape(-1, c).mean(axis=0)
    x -= mean
    flat = x.reshape(-1, c)
    var = np.einsum("ij,ij->j", flat, flat) / n  # biased
    inv_std = 1.0 / np.sqrt(var + eps)
    m = BN_MOMENTUM
    state.running_mean = ((1 - m) * state.running_mean + m * mean).astype(
        state.running_mean.dtype
    )
    unbiased = var * (n / (n - 1))
    state.running_var = ((1 - m) * state.running_var + m * unbiased).astype(
        state.running_var.dtype
    )
    return x, inv_std


def _leaky_factor(negative, slope):
    """LeakyReLU's derivative, slope where `negative` and 1 elsewhere: a
    fresh array that the caller owns, so a backward can multiply the
    upstream gradient into it in place and hand it on.

    Built with arithmetic rather than np.where, which branches per element
    and runs several times slower on the random signs of activations.
    """
    factor = negative * slope
    for rows, t in _blocks(negative):
        factor[rows] += np.logical_not(negative[rows], out=t)
    return factor


def _pool_edges(centred, gamma):
    """(M, c) pooled over the K edges of the centred (M, K, c): the max where
    gamma >= 0, the min where gamma < 0, so the channel's largest output."""
    top = centred.max(axis=1)
    flip = gamma < 0
    if flip.any():
        top[:, flip] = centred[:, :, flip].min(axis=1)
    return top


def _first_hits(centred, top):
    """(M, K, c) mask of the edge each pooled value came from: the lowest k
    where `centred` equals it, or is NaN when it is NaN, as np.argmax picks.

    The equality mask alone holds one hit per (row, channel) unless values
    tie or are NaN; only then are later hits cleared.
    """
    hit = centred == top[:, None, :]
    nan = np.isnan(top).any()
    if nan or np.count_nonzero(hit) != top.size:
        if nan:
            hit |= np.isnan(centred)
        seen = np.logical_or.accumulate(hit, axis=1)
        hit[:, 1:] = seen[:, 1:] & ~seen[:, :-1]
    return hit


def _folded_mlp(x, w, b, state, slope, graph, chunk, pool):
    """shared_mlp in eval mode, one node.  The running statistics are folded
    into the affine, w' = w * s and b' = (b - mean) * s + beta with
    s = gamma * inv_std, so each edge sees one affine and LeakyReLU.  The
    fold absorbs gamma's sign, so pooling is a plain max over K.  The chunks
    of one tape-free layer call share one fold, kept in `cells` under the
    batch-norm state, and its cell projection.

    The node keeps the fold and no per-edge array.  Backward recomputes the
    pre-activation z = x @ w' + b', routes the gradient through LeakyReLU
    and, with `pool`, to the lowest-index edge holding each row's maximum
    of z (where gamma is zero every edge ties, so edge 0), then chains the
    gradients of w' and b' through the fold.
    """
    gamma, beta = state.gamma, state.beta
    rows, cells = chunk or (slice(None), {})
    if state not in cells:
        b_centred, inv_std = _centre(b.data.copy(), state, False)
        scale = gamma.data * inv_std
        cells[state] = (w.data * scale, b_centred * scale + beta.data, b_centred, inv_std)
    wf, bf, b_centred, inv_std = cells[state]
    y = _linear(x.data, wf, bf, graph, chunk=(rows, cells))
    if pool:
        y = y.max(axis=1)
    slope = y.dtype.type(slope)
    _leaky_relu(y, slope)

    def backward(g):
        z = _linear(x.data, wf, bf, graph)
        if pool:
            top = z.max(axis=1)
            gz = _leaky_factor(top < 0, slope)
            gz *= g
            gz = np.where(_first_hits(z, top), gz[:, None, :], gz.dtype.type(0))
        else:
            gz = _leaky_factor(z < 0, slope)
            gz *= g
        fold = Tensor(wf, requires_grad=True), Tensor(bf, requires_grad=True)
        if graph is None:
            _linear_backward(gz, x, *fold)
        else:
            _edge_backward(*_edge_sums(gz, graph), x, *fold)
        g_wf, g_bf = fold[0].grad, fold[1].grad
        scale = gamma.data * inv_std
        if w.requires_grad:
            _accumulate(w, g_wf * scale, owned=True)
        if b.requires_grad:
            _accumulate(b, g_bf * scale, owned=True)
        if gamma.requires_grad:
            g_gamma = np.einsum("ij,ij->j", w.data, g_wf)
            g_gamma += b_centred * g_bf
            g_gamma *= inv_std
            _accumulate(gamma, g_gamma, owned=True)
        if beta.requires_grad:
            _accumulate(beta, g_bf, owned=True)

    return _make(y, (x, w, b, gamma, beta), backward)


def shared_mlp(x, w, b, state, train, slope=0.2, graph=None, chunk=None, pool=False):
    """leaky_relu(batch_norm(affine(x, w, b), state, train), slope), one node.

    With a KnnGraph `graph` the rows are the graph's (centre, neighbour)
    pairs [x_i (+) x_j] and the affine is split as in _linear.  With `pool`
    (and a graph) the node returns the (M, out) maximum over each row's K
    edges.  Eval mode (not `train`), taped or not, folds the running
    statistics into the affine (_folded_mlp); `chunk` is for its tape-free
    row chunks.

    Train mode normalises with batch statistics from every edge.  The node
    keeps only the normalized pre-activation and the sign mask; its
    backward reuses the gamma/beta gradient sums for the batch-statistics
    term.  With `pool` the pooling runs on the centred pre-activation and
    the rest on the pooled rows only: centring, scaling by inv_std > 0, the
    gamma affine and LeakyReLU (slope in [0, 1)) are each monotone per
    channel under rounding, so pooling first (the min where gamma < 0) is
    bit-identical.  The gradient goes to the lowest-index edge holding the
    pooled value, and the batch-statistics term is summed in closed form per
    centre row and per cell, so backward forms no (M, K, out) gradient
    chain; the node keeps the centred pre-activation as its one per-edge
    array.  Where gamma is zero every edge gives the same output, and the
    gamma gradient is the one-sided one of the largest centred edge.
    """
    if graph is None:
        if x.data.ndim != 2:
            raise DimensionError(f"shared_mlp: expected 2-D input, got {x.data.shape}")
        in_dim = x.data.shape[1]
    else:
        in_dim = 2 * _check_edges("shared_mlp", x, graph)
    _check_weights("shared_mlp", in_dim, w, b)
    if not train:
        return _folded_mlp(x, w, b, state, slope, graph, chunk, pool)
    gamma, beta = state.gamma, state.beta
    centred, inv_std = _centre(_linear(x.data, w.data, b.data, graph), state, True)
    if pool:
        top = _pool_edges(centred, gamma.data)
        xhat = top * inv_std
    else:
        xhat = centred
        xhat *= inv_std
    y = xhat * gamma.data
    y += beta.data
    negative = y < 0
    slope = y.dtype.type(slope)
    _leaky_relu(y, slope)

    def backward(g):
        gy = _leaky_factor(negative, slope)
        gy *= g
        c = gy.shape[-1]
        gflat = gy.reshape(-1, c)
        g_gamma = np.einsum("ij,ij->j", gflat, xhat.reshape(-1, c))
        g_beta = gflat.sum(axis=0)
        if gamma.requires_grad:
            _accumulate(gamma, g_gamma, owned=True)
        if beta.requires_grad:
            _accumulate(beta, g_beta, owned=True)
        n = centred.size // c  # rows (edges) behind the batch statistics
        scale = gamma.data * inv_std
        if not pool:
            _subtract_product(gy, xhat, g_gamma / n)
            gy -= g_beta / n
            gy *= scale
            if graph is None:
                _linear_backward(gy, x, w, b)
            else:
                _edge_backward(*_edge_sums(gy, graph), x, w, b)
            return
        # Edge (i, k) gets scale * gy_i where it holds row i's pooled value,
        # less scale * (xhat_ik * g_gamma + g_beta) / n.  The g_beta term is
        # equal on every edge, so it is summed in closed form: K times per
        # centre row, in-degree times per cell.
        edge = centred * (-(scale * inv_std) * (g_gamma / n))
        np.add(edge, (gy * scale)[:, None, :], out=edge, where=_first_hits(centred, top))
        g_centre, g_cells = _edge_sums(edge, graph)
        shift = scale * (g_beta / n)
        g_centre -= graph.k * shift
        g_cells -= graph.in_degree[:, None].astype(shift.dtype) * shift
        _edge_backward(g_centre, g_cells, x, w, b)

    return _make(y, (x, w, b, gamma, beta), backward)


# ---------------------------------------------------------------------------
# Parameters and gradient checking
# ---------------------------------------------------------------------------

class Parameter:
    """A named leaf tensor with requires_grad set."""

    __slots__ = ("name", "tensor")

    def __init__(self, name, tensor):
        if not tensor.requires_grad:
            raise UsageError(f"parameter {name!r} must require grad")
        self.name = name
        self.tensor = tensor

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.tensor.data.shape})"


def gradient_check(f, inputs, step=1e-5):
    """Max relative error between analytic and central-difference gradients.

    `f` maps the given tensors to a scalar tensor.  Inputs must be float64
    and sit away from LeakyReLU kinks and max-pool ties by more than `step`.
    Returns max over all elements of |analytic - fd| / max(1, |fd|).
    """
    inputs = list(inputs)
    for t in inputs:
        if t.data.dtype != np.float64:
            raise UsageError("gradient_check requires float64 inputs")
        t.grad = None
    out = f(*inputs)
    if out.data.size != 1:
        raise UsageError(f"gradient_check: f returned shape {out.data.shape}")
    out.backward()
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in inputs
    ]

    worst = 0.0
    for t, an in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        an_flat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f(*inputs).item()
            flat[i] = orig - step
            lo = f(*inputs).item()
            flat[i] = orig
            fd = (hi - lo) / (2 * step)
            err = abs(an_flat[i] - fd) / max(1.0, abs(fd))
            worst = max(worst, err)
    return worst
