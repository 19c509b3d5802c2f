"""Adam optimization, learning-rate schedule, augmentation, and the train loop.

Everything is seed-deterministic: per-epoch RNG streams are derived from
(seed, epoch), so a run resumed from an epoch-boundary checkpoint replays
exactly the same trajectory as an uninterrupted run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from meshseg.mesh import (build_cell_features, cell_centroid_mean, read_table,
                          transform_mesh)
from meshseg.model import (
    ConfigError,
    DataError,
    build_variant,
    check_cells,
    check_labels,
    cross_entropy,
    load_checkpoint,
    restore_state,
    save_checkpoint,
)


class TrainingError(RuntimeError):
    """Training contract violation (missing grads, NaN loss, bad batch)."""


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 4
    lr0: float = 1e-3
    decay_factor: float = 0.5
    decay_every: int = 20
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    translation_range: float = 10.0
    rotation_range: float = math.pi / 6
    augment: bool = True
    seed: int = 0

    def validate(self):
        for name, least in (("epochs", 0), ("batch_size", 1), ("decay_every", 1),
                            ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        # Adam divides by 1 - beta ** t and by sqrt(v) + eps; lr0 <= 0 climbs the
        # loss; augmentation draws from uniform(-r, r), whose span 2r must be finite
        span = "in [0, max float / 2]", lambda v: v >= 0 and math.isfinite(2 * v)
        for name, want, ok in (("lr0", "> 0", lambda v: v > 0),
                               ("beta1", "in [0, 1)", lambda v: 0 <= v < 1),
                               ("beta2", "in [0, 1)", lambda v: 0 <= v < 1),
                               ("eps", "> 0", lambda v: v > 0),
                               ("decay_factor", "> 0", lambda v: v > 0),
                               ("translation_range", *span),
                               ("rotation_range", *span)):
            value = getattr(self, name)
            if not (math.isfinite(value) and ok(value)):
                raise ConfigError(f"{name} must be finite and {want}, got {value}")
        return self


def lr_at_epoch(config, epoch):
    """Closed-form schedule: lr0 * factor^(epoch // interval)."""
    return config.lr0 * config.decay_factor ** (epoch // config.decay_every)


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0
    epoch: int = 0  # epochs finished, i.e. the epoch training resumes at


class Adam:
    """Standard Adam with bias correction; clears gradients after each step."""

    def __init__(self, parameters, beta1=0.9, beta2=0.999, eps=1e-8):
        self.parameters = list(parameters)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.state = AdamState(
            m={p.name: np.zeros_like(p.tensor.data) for p in self.parameters},
            v={p.name: np.zeros_like(p.tensor.data) for p in self.parameters},
        )

    def step(self, lr):
        self.state.step += 1
        t = self.state.step
        b1, b2 = self.beta1, self.beta2
        for p in self.parameters:
            g = p.tensor.grad
            if g is None:
                raise TrainingError(f"parameter {p.name} has no gradient")
            m = self.state.m[p.name] = b1 * self.state.m[p.name] + (1 - b1) * g
            v = self.state.v[p.name] = b2 * self.state.v[p.name] + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            p.tensor.data = p.tensor.data - lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.tensor.grad = None


def resume(path, train_cfg):
    """(model, adam) restored from a checkpoint `train` wrote; training
    continues at `adam.state.epoch`, the epochs the checkpoint holds.

    `train_cfg` is the TrainConfig to continue with; it supplies Adam's
    hyperparameters, while the model config comes from the checkpoint.
    """
    model_cfg, arrays = load_checkpoint(path)
    model = build_variant(model_cfg)
    adam = Adam(model.parameters(), train_cfg.beta1, train_cfg.beta2, train_cfg.eps)
    restore_state(path, arrays, model, adam)
    return model, adam


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

def rotation_y(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def augment_mesh(mesh, rng, translation_range, rotation_range):
    """Random rigid jitter: y-rotation about the centroid, then translation.

    Labels, face count, and face order are untouched; normals follow from
    the transformed vertices when features are recomputed.
    """
    translation = rng.uniform(-translation_range, translation_range, size=3)
    angle = rng.uniform(-rotation_range, rotation_range)
    rotation = rotation_y(angle) if angle != 0.0 else None
    return transform_mesh(
        mesh,
        rotation=rotation,
        translation=translation if np.any(translation) else None,
        pivot=cell_centroid_mean(mesh) if rotation is not None else None,
    )


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class EpochRecord:
    epoch: int
    lr: float
    mean_loss: float
    train_oa: float


LOG_COLUMNS = (("epoch", int), ("lr", float), ("mean_loss", float), ("train_oa", float))
LOG_HEADER = "\t".join(name for name, _ in LOG_COLUMNS)


def format_log_row(rec):
    return f"{rec.epoch}\t{rec.lr:.8g}\t{rec.mean_loss:.6f}\t{rec.train_oa:.6f}"


def parse_log(path):
    """The EpochRecords of a training log, read by mesh.read_table: a
    malformed row raises DataError as `path:line: ...`."""
    return [EpochRecord(*row) for row in read_table(path, LOG_COLUMNS, DataError)]


MAX_TRANSLATION_RADII = 4096  # see prepare_training_meshes


def _epoch_rng(seed, epoch):
    return np.random.default_rng([seed, epoch])


def prepare_training_meshes(meshes, config, model_config=None):
    """Centred copies of the meshes, in input order, once the config and the
    meshes pass every check `train` makes before it touches the model.

    The meshes must be a non-empty, labelled set; with batch_size > 1 they
    must also share one cell count, as any of them may meet in a batch.
    With augmentation on, `config.translation_range` may be at most
    MAX_TRANSLATION_RADII times the smallest mesh radius.  There float32
    still spaces coordinates less than a 2000th of that radius apart; far
    beyond it a translated mesh's faces collapse to zero area.  With a
    `model_config`, each mesh must also have more cells than its k and
    labels in [0, num_classes), the checks a training step would fail.
    """
    config.validate()
    if not meshes:
        raise TrainingError("empty training set")
    for i, m in enumerate(meshes):
        if m.labels is None:
            raise TrainingError(f"mesh {i} has no labels")
        if model_config is not None:
            check_cells(m.num_cells, model_config.k_neighbors)
            check_labels(m.labels, m.num_cells, model_config.num_classes)
    cell_counts = {m.num_cells for m in meshes}
    if config.batch_size > 1 and len(cell_counts) != 1:
        raise TrainingError(
            f"with batch_size > 1 every mesh must share a cell count, got "
            f"{sorted(cell_counts)}"
        )
    dataset = [transform_mesh(m, translation=-cell_centroid_mean(m)) for m in meshes]
    if config.augment:
        radius = min(float(np.linalg.norm(m.vertices, axis=1).max()) for m in dataset)
        limit = MAX_TRANSLATION_RADII * radius
        if config.translation_range > limit:
            raise ConfigError(
                f"translation_range must be at most {limit:.4g} ({MAX_TRANSLATION_RADII} "
                f"radii of the smallest training mesh), got {config.translation_range}")
    return dataset


def train(model, meshes, config, checkpoint_path=None, log_fh=None, adam=None):
    """Mini-batch training; returns (per-epoch records, adam).

    `meshes`, `config` and the model's config must pass
    prepare_training_meshes' checks.  With `checkpoint_path`, model and
    optimizer state are written there after every epoch.  Training runs
    from `adam.state.epoch`, 0 for a new optimizer, to `config.epochs`; to
    resume, pass the `adam` that `resume` returns, and the per-epoch RNG
    streams make the continuation identical to an uninterrupted run.
    """
    dataset = prepare_training_meshes(meshes, config, model.config)
    if adam is None:
        adam = Adam(model.parameters(), config.beta1, config.beta2, config.eps)
    records = []

    for epoch in range(adam.state.epoch, config.epochs):
        rng = _epoch_rng(config.seed, epoch)
        order = rng.permutation(len(dataset))
        lr = lr_at_epoch(config, epoch)
        loss_sum = 0.0
        n_batches = 0
        correct = 0
        total = 0

        for b_start in range(0, len(order), config.batch_size):
            batch_ids = order[b_start:b_start + config.batch_size]
            feats, labels = [], []
            for mi in batch_ids:
                mesh = dataset[mi]
                if config.augment:
                    mesh = augment_mesh(mesh, rng, config.translation_range,
                                        config.rotation_range)
                feats.append(build_cell_features(mesh, center=False).as_array())
                labels.append(dataset[mi].labels)
            labels = np.concatenate(labels)

            logits = model.forward(feats, train=True)
            loss = cross_entropy(logits, labels, reduction="mean")
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch meshes {batch_ids.tolist()}"
                )
            model.zero_grad()
            loss.backward()
            adam.step(lr)

            loss_sum += value
            n_batches += 1
            pred = np.argmax(logits.data, axis=1)
            correct += int((pred == labels).sum())
            total += len(labels)

        rec = EpochRecord(epoch, lr, loss_sum / max(n_batches, 1),
                          correct / max(total, 1))
        records.append(rec)
        if log_fh is not None:
            log_fh.write(format_log_row(rec) + "\n")
            log_fh.flush()
        adam.state.epoch = epoch + 1
        if checkpoint_path is not None:
            save_checkpoint(model, checkpoint_path, adam)

    return records, adam


def inference_features(mesh):
    """Centered features for evaluation and prediction."""
    return build_cell_features(mesh, center=True).as_array()
