"""The two-stream segmentation network, its ablation variants, and loss.

The network is described by data: `STREAM_LAYOUTS` lists, for each
`streams` setting, the streams that exist, the feature columns each one
reads and the config field naming its aggregation.  By default the
coordinate stream aggregates with graph attention, the normal stream with
graph max-pooling, and every stream uses the first stream's per-layer KNN
graph.  Multi-scale outputs of each stream are skip-concatenated, lifted by
a fusion MLP, and a shared prediction head maps the fused features to
per-cell class logits.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from meshseg.knn import build_block_knn_graph
from meshseg.layers import AGGREGATIONS, SharedMLP, _init_affine
from meshseg.tensor import (
    DimensionError,
    Parameter,
    Tensor,
    affine,
    concat_channels,
    log_softmax_nll,
    no_tape,
)

FEATURE_WIDTH = 24  # 12 coordinate columns, then 12 normal columns

# streams setting -> its streams, each (layer-name prefix, input columns,
# config field naming the stream's aggregation).
STREAM_LAYOUTS = {
    "both": (("c", slice(0, 12), "c_stream_agg"), ("n", slice(12, 24), "n_stream_agg")),
    "coords_only": (("c", slice(0, 12), "c_stream_agg"),),
    "normals_only": (("n", slice(12, 24), "n_stream_agg"),),
    "single_concat": (("c", slice(0, 24), "c_stream_agg"),),
}
AGGREGATION_FIELDS = ("c_stream_agg", "n_stream_agg")

CHECKPOINT_MAGIC = b"TSGC"
CHECKPOINT_VERSION = 1
OPTIMIZER_PREFIX = "optimizer."
COUNTER_LIMIT = 2 ** 24  # float32 holds every integer below this exactly
MAX_WIDTH = 1 << 12  # widest layer: 8 times full.cfg's widest, 512
MAX_CLASSES = 1 << 10  # most classes; a full dentition needs 17


class ConfigError(ValueError):
    """Contradictory or out-of-range model configuration."""


class DataError(ValueError):
    """Labels or inputs violate the data contract."""


class CheckpointError(ValueError):
    """Unreadable or incompatible checkpoint file."""


@dataclass
class ModelConfig:
    """Hyperparameters and ablation axes; defaults give the full network."""

    num_classes: int = 8
    k_neighbors: int = 32
    stream_widths: tuple = (64, 128, 256)
    fusion_width: int = 512
    head_widths: tuple = (512, 256, 128)  # hidden stages; a final C-wide affine follows
    leaky_slope: float = 0.2
    c_stream_agg: str = "attention"
    n_stream_agg: str = "maxpool"
    streams: str = "both"  # a STREAM_LAYOUTS key
    fusion_level: str = "high"  # high | low
    include_self: bool = False
    seed: int = 0

    def __post_init__(self):
        self.stream_widths = tuple(self.stream_widths)
        self.head_widths = tuple(self.head_widths)

    def validate(self):
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.k_neighbors < 1:
            raise ConfigError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if not self.stream_widths:
            raise ConfigError("stream_widths must name at least one layer")
        widths = (*self.stream_widths, self.fusion_width, *self.head_widths)
        if not 1 <= min(widths) <= max(widths) <= MAX_WIDTH:
            raise ConfigError(f"every layer width must be in [1, {MAX_WIDTH}], got {widths}")
        if self.num_classes > MAX_CLASSES:
            raise ConfigError(
                f"num_classes must be at most {MAX_CLASSES}, got {self.num_classes}")
        if not (math.isfinite(self.leaky_slope) and 0 <= self.leaky_slope < 1):
            raise ConfigError(
                f"leaky_slope must be finite and in [0, 1), got {self.leaky_slope}")
        if self.seed < 0:  # np.random.default_rng rejects it
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.streams not in STREAM_LAYOUTS:
            raise ConfigError(f"unknown streams setting: {self.streams!r}")
        if self.fusion_level not in ("high", "low"):
            raise ConfigError(f"unknown fusion_level: {self.fusion_level!r}")
        layout = STREAM_LAYOUTS[self.streams]
        if self.fusion_level == "low" and len(layout) < 2:
            raise ConfigError("low fusion requires two streams")
        used = {field for _, _, field in layout}
        for field in AGGREGATION_FIELDS:
            agg = getattr(self, field)
            if agg not in AGGREGATIONS:
                raise ConfigError(
                    f"{field} must be {' or '.join(AGGREGATIONS)}, got {agg!r}")
            # An aggregation override for a stream that does not exist is a
            # contradiction rather than a silent no-op.
            if field not in used and agg != getattr(ModelConfig, field):
                raise ConfigError(f"{self.streams} contradicts a {field} override")
        return self

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        raw = json.loads(text)
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw).validate()


class TwoStreamNet:
    """Full network; use build_variant() to construct from a config.

    `streams` holds one (input columns, aggregation layers, fusion MLP)
    triple per stream of the config's layout.
    """

    def __init__(self, config, dtype=np.float32):
        config.validate()
        self.config = config
        self.dtype = dtype
        rng = np.random.default_rng(config.seed)
        slope = config.leaky_slope
        layout = STREAM_LAYOUTS[config.streams]
        widths = config.stream_widths
        # with low fusion every layer after the first reads all streams' outputs
        grow = len(layout) if config.fusion_level == "low" else 1

        stacks = []
        for prefix, cols, field in layout:
            make = AGGREGATIONS[getattr(config, field)]
            d_in, stack = cols.stop - cols.start, []
            for i, width in enumerate(widths, start=1):
                stack.append(make(f"{prefix}{i}", d_in, width, rng, slope, dtype))
                d_in = grow * width
            stacks.append(stack)
        # fusions draw from the RNG after every stream's layers
        self.streams = tuple(
            (cols, stack, SharedMLP(f"fuse_{prefix}", sum(widths), config.fusion_width,
                                    rng, slope=slope, dtype=dtype))
            for (prefix, cols, _), stack in zip(layout, stacks))

        head_in = config.fusion_width * len(self.streams)
        self.head = []
        for i, width in enumerate(config.head_widths, start=1):
            self.head.append(SharedMLP(f"head{i}", head_in, width, rng,
                                       slope=slope, dtype=dtype))
            head_in = width
        self.out_weight, self.out_bias = _init_affine(
            rng, head_in, config.num_classes, dtype)

        names = [p.name for p in self.parameters()]
        if len(names) != len(set(names)):
            raise ConfigError("duplicate parameter names in model")

    # -- registry ----------------------------------------------------------

    def _blocks(self):
        """Every layer and MLP in parameter order: stream layers, fusions, head."""
        layers = [layer for _, stack, _ in self.streams for layer in stack]
        return layers + [fuse for _, _, fuse in self.streams] + self.head

    def parameters(self):
        params = [p for block in self._blocks() for p in block.parameters()]
        return params + [Parameter("out.weight", self.out_weight),
                         Parameter("out.bias", self.out_bias)]

    def bn_states(self):
        states = {}
        for block in self._blocks():
            states.update(block.bn_states())
        return states

    def zero_grad(self):
        for p in self.parameters():
            p.tensor.grad = None

    def num_parameters(self):
        return sum(p.tensor.data.size for p in self.parameters())

    # -- forward -----------------------------------------------------------

    def _as_batch(self, features):
        if isinstance(features, np.ndarray):
            blocks = [features]
        elif isinstance(features, (list, tuple)):
            blocks = [np.asarray(f) for f in features]
        else:
            raise DimensionError(
                f"expected an (M, {FEATURE_WIDTH}) array or a list of them, "
                f"got {type(features).__name__}")
        if not blocks:
            raise DimensionError("empty batch")
        for b in blocks:
            if b.ndim != 2 or b.shape[1] != FEATURE_WIDTH:
                raise DimensionError(
                    f"expected (M, {FEATURE_WIDTH}) features, got {b.shape}")
        sizes = {b.shape[0] for b in blocks}
        if len(sizes) != 1:
            raise DimensionError(
                f"cells per mesh differ across the batch: {sorted(sizes)}"
            )
        m = sizes.pop()
        check_cells(m, self.config.k_neighbors)
        with np.errstate(over="ignore"):  # an overflow is caught as non-finite
            x = np.concatenate(blocks, axis=0).astype(self.dtype)
        if not np.isfinite(x).all():
            raise DataError("non-finite feature values")
        return x, m

    def forward(self, features, train=False):
        """Per-cell logits, (total cells) x C.

        `features` is one M x 24 array or a list of equally sized ones; a
        batch is stacked along rows with KNN graphs kept inside each mesh.
        """
        x, m = self._as_batch(features)
        cfg = self.config
        feats = [Tensor(x[:, cols]) for cols, _, _ in self.streams]
        outs = []  # per layer, every stream's output
        for depth, layers in enumerate(zip(*(stack for _, stack, _ in self.streams))):
            if depth and cfg.fusion_level == "low":
                feats = [concat_channels(feats)] * len(feats)
            graph = build_block_knn_graph(feats[0].data, m, cfg.k_neighbors,
                                          cfg.include_self)
            feats = [layer.forward(f, graph, train) for layer, f in zip(layers, feats)]
            outs.append(feats)

        fused = [fuse(concat_channels(taps), train)
                 for (_, _, fuse), taps in zip(self.streams, zip(*outs))]
        h = fused[0] if len(fused) == 1 else concat_channels(fused)
        for block in self.head:
            h = block(h, train)
        return affine(h, self.out_weight, self.out_bias)

    def predict(self, features):
        """Argmax class per cell, eval mode, recording no tape; the graph
        layers then aggregate in bounded row chunks."""
        with no_tape():
            logits = self.forward(features, train=False)
        return np.argmax(logits.data, axis=1)


def build_variant(config, dtype=np.float32):
    """Construct the network described by a (validated) ModelConfig."""
    return TwoStreamNet(config, dtype=dtype)


# Ablation vocabulary: variant name -> config overrides relative to defaults.
VARIANT_OVERRIDES = {
    "full": {},
    "coords-only": {"streams": "coords_only"},
    "normals-only": {"streams": "normals_only"},
    "single-stream": {"streams": "single_concat"},
    "max-max": {"c_stream_agg": "maxpool", "n_stream_agg": "maxpool"},
    "att-att": {"c_stream_agg": "attention", "n_stream_agg": "attention"},
    "max-att": {"c_stream_agg": "maxpool", "n_stream_agg": "attention"},
    "low-fusion": {"fusion_level": "low"},
}


def variant_config(base, name):
    if name not in VARIANT_OVERRIDES:
        raise ConfigError(
            f"unknown variant {name!r}; valid: {', '.join(sorted(VARIANT_OVERRIDES))}"
        )
    raw = asdict(base)
    raw.update(VARIANT_OVERRIDES[name])
    return ModelConfig(**raw).validate()


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def check_cells(m, k):
    """Raise DataError unless a mesh of `m` cells has more than k, as every
    cell's k-neighbour graph needs."""
    if m <= k:
        raise DataError(f"mesh with {m} cells cannot support k={k}")


def check_labels(labels, m, c):
    """`labels` as an array, once it holds one class in [0, c) per cell of m."""
    labels = np.asarray(labels)
    if labels.shape != (m,):
        raise DataError(f"{labels.shape} labels for {m} cells")
    bad = (labels < 0) | (labels >= c)
    if bad.any():
        i = int(np.nonzero(bad)[0][0])
        raise DataError(f"cell {i} label {labels[i]} outside [0, {c})")
    return labels


def cross_entropy(logits, labels, reduction="sum"):
    """Cross-entropy of per-cell logits against integer labels, one tape
    node (tensor.log_softmax_nll).

    Default reduction sums over cells; "mean" divides by the cell count,
    which keeps learning-rate behavior independent of mesh size.
    """
    m, c = logits.data.shape
    labels = check_labels(labels, m, c)
    if reduction not in ("sum", "mean"):
        raise ValueError(f"unknown reduction {reduction!r}")
    return log_softmax_nll(logits, labels, 1.0 / m if reduction == "mean" else 1.0)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _record_table(model, adam=None):
    """{record name: array} of everything a checkpoint holds, in file order.

    Model records come first, so a checkpoint without `adam` is exactly the
    inference checkpoint.  Optimizer records are `optimizer.counters`, a
    fresh float32 [Adam step, epochs finished], and one `optimizer.m.<param>`
    and `optimizer.v.<param>` moment per parameter.  Every other entry is the
    live array itself: a parameter's data, a batch norm's running
    statistics or an Adam moment.
    """
    table = {p.name: p.tensor.data for p in model.parameters()}
    for name, st in model.bn_states().items():
        table[f"{name}.running_mean"] = st.running_mean
        table[f"{name}.running_var"] = st.running_var
    if adam is not None:
        table[OPTIMIZER_PREFIX + "counters"] = np.array(
            [adam.state.step, adam.state.epoch], dtype=np.float32)
        for moment in ("m", "v"):
            table.update((f"{OPTIMIZER_PREFIX}{moment}.{p.name}",
                          getattr(adam.state, moment)[p.name]) for p in adam.parameters)
    return table


def save_checkpoint(model, path, adam=None):
    """Versioned binary container: config plus every named array, float32 LE.

    With `adam` the file also holds the optimizer state training resumes
    from.  The file is written to `<path>.tmp` and then renamed over `path`,
    so an interrupted write never leaves a damaged checkpoint behind.
    """
    records = _record_table(model, adam)
    counters = records.get(OPTIMIZER_PREFIX + "counters")
    if counters is not None and counters.max() >= COUNTER_LIMIT:
        raise CheckpointError(
            f"{path}: optimizer counters {counters.tolist()} reach "
            f"{COUNTER_LIMIT}, beyond exact float32 integers")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<H", CHECKPOINT_VERSION))
    cfg = model.config.to_json().encode()
    buf.write(struct.pack("<I", len(cfg)))
    buf.write(cfg)
    buf.write(struct.pack("<I", len(records)))
    for name, arr in records.items():
        enc = name.encode()
        buf.write(struct.pack("<H", len(enc)))
        buf.write(enc)
        buf.write(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            buf.write(struct.pack("<I", d))
        buf.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(buf.getvalue())
    os.replace(tmp, path)


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelConfig, {name: float32 array}).

    Every length is checked before it is read, so a truncated or corrupt
    file raises CheckpointError naming the path.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"{path}: bad magic {data[:4]!r}, expected {CHECKPOINT_MAGIC!r}"
        )
    off = 4

    def take(n, what):
        nonlocal off
        if off + n > len(data):
            raise CheckpointError(
                f"{path}: truncated: {what} needs {n} bytes at offset {off}, "
                f"file has {len(data)}"
            )
        off += n
        return data[off - n:off]

    def unpack(fmt, what):
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    (version,) = unpack("<H", "version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (cfg_len,) = unpack("<I", "config length")
    cfg_text = take(cfg_len, "config")
    try:
        config = ModelConfig.from_json(cfg_text.decode())
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"{path}: unreadable config: {exc}") from None
    (n_records,) = unpack("<I", "record count")
    arrays = {}
    for r in range(n_records):
        (name_len,) = unpack("<H", f"record {r} name length")
        try:
            name = take(name_len, f"record {r} name").decode()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: record {r} name: {exc}") from None
        (ndim,) = unpack("<B", f"{name} rank")
        shape = unpack(f"<{ndim}I", f"{name} shape")
        raw = take(4 * math.prod(shape), f"{name} values")
        try:  # numpy refuses some empty shapes: too many or too large dims
            arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        except ValueError as exc:
            raise CheckpointError(f"{path}: {name}: shape {shape}: {exc}") from None
    if off != len(data):
        raise CheckpointError(f"{path}: {len(data) - off} trailing bytes in checkpoint")
    return config, arrays


def restore_state(path, arrays, model, adam=None):
    """Copy checkpoint arrays into `model` and, if given, `adam`.

    Every record the pair needs must be present with its exact shape and
    finite values, and no other record may appear, except that optimizer
    records are skipped when no `adam` is given.  `path` only names the
    file in errors.  Nothing changes unless every check passes; then Adam's
    step and epoch are set from `optimizer.counters`, and every other record
    is copied into its live array in place.  That is the one write to a
    Tensor's data after construction, so call it on a model fresh from
    build_variant, before any forward, as load_model and training.resume do.
    """
    table = _record_table(model, adam)
    if adam is not None and OPTIMIZER_PREFIX + "counters" not in arrays:
        raise CheckpointError(
            f"{path}: no optimizer state; an inference-only checkpoint cannot "
            f"resume training")
    missing = sorted(table.keys() - arrays.keys())
    if missing:
        raise CheckpointError(f"{path}: checkpoint missing arrays: {missing[:3]} ...")
    for name in arrays:
        if name not in table and (adam is not None or
                                  not name.startswith(OPTIMIZER_PREFIX)):
            raise CheckpointError(f"{path}: unexpected array {name!r} in checkpoint")
    for name, live in table.items():
        want = live.shape
        if arrays[name].shape != want:
            raise CheckpointError(
                f"{path}: {name}: checkpoint shape {arrays[name].shape} vs model {want}")
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(f"{path}: {name}: non-finite values in checkpoint")
    if adam is not None:
        counters = arrays[OPTIMIZER_PREFIX + "counters"]
        if not np.array_equal(counters, np.clip(np.floor(counters), 0, COUNTER_LIMIT - 1)):
            raise CheckpointError(
                f"{path}: optimizer.counters {counters.tolist()} are not step and "
                f"epoch counts")
        adam.state.step, adam.state.epoch = (int(v) for v in counters)
        del table[OPTIMIZER_PREFIX + "counters"]
    for name, live in table.items():
        np.copyto(live, arrays[name])


def load_model(path):
    """Rebuild a float32 model from a checkpoint, restoring parameters and BN stats."""
    config, arrays = load_checkpoint(path)
    model = build_variant(config)
    restore_state(path, arrays, model)
    return model
