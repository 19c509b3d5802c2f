"""Segmentation metrics: overall accuracy, per-class IoU, mean IoU."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from meshseg.model import DataError, build_variant, variant_config
from meshseg.training import inference_features, train


class MetricsUsageError(ValueError):
    """Metrics requested from an empty confusion matrix."""


@dataclass
class ConfusionMatrix:
    """C x C counts; rows are ground truth, columns are prediction."""

    num_classes: int
    counts: np.ndarray = field(init=False)  # filled only by `accumulate`

    def __post_init__(self):
        self.counts = np.zeros((self.num_classes, self.num_classes), dtype=np.int64)

    @property
    def total(self):
        return int(self.counts.sum())


def accumulate(cm, pred, truth):
    """Add one mesh worth of per-cell predictions; accumulation is additive."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise DataError(f"{pred.shape} predictions vs {truth.shape} labels")
    c = cm.num_classes
    for name, arr in (("prediction", pred), ("truth", truth)):
        bad = (arr < 0) | (arr >= c)
        if bad.any():
            i = int(np.nonzero(bad)[0][0])
            raise DataError(f"{name} {arr[i]} at cell {i} outside [0, {c})")
    np.add.at(cm.counts, (truth, pred), 1)
    return cm


@dataclass
class MetricsResult:
    oa: float
    per_class_iou: np.ndarray  # NaN where undefined
    miou: float
    undefined_classes: tuple  # absent from both truth and prediction


def metrics(cm):
    """OA, per-class IoU and their mean over the defined classes.

    A class absent from both truth and prediction has no defined IoU; it is
    reported as NaN and excluded from the mean, with its id flagged.
    """
    total = cm.total
    if total == 0:
        raise MetricsUsageError("empty confusion matrix")
    counts = cm.counts
    tp = np.diag(counts).astype(np.float64)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    denom = tp + fp + fn
    iou = np.full(cm.num_classes, np.nan)
    defined = denom > 0
    iou[defined] = tp[defined] / denom[defined]
    return MetricsResult(
        oa=float(tp.sum() / total),
        per_class_iou=iou,
        miou=float(iou[defined].mean()),
        undefined_classes=tuple(int(i) for i in np.nonzero(~defined)[0]),
    )


def format_report(result):
    """Tab-separated table: one row per class, then OA and mIoU summary lines."""
    lines = ["class\tname\tiou"]
    for i, iou in enumerate(result.per_class_iou):
        name = f"tooth_{i}" if i else "background"
        value = "undefined" if np.isnan(iou) else f"{iou:.4f}"
        lines.append(f"{i}\t{name}\t{value}")
    lines.append(f"OA\t\t{result.oa:.4f}")
    lines.append(f"mIoU\t\t{result.miou:.4f}")
    if result.undefined_classes:
        ids = ",".join(str(i) for i in result.undefined_classes)
        lines.append(f"# classes excluded from mIoU (absent everywhere): {ids}")
    return "\n".join(lines)


def evaluate_model(model, meshes):
    """Confusion matrix and metrics of a model over labeled meshes."""
    cm = ConfusionMatrix(model.config.num_classes)
    for mesh in meshes:
        if mesh.labels is None:
            raise DataError("evaluation mesh has no labels")
        pred = model.predict(inference_features(mesh))
        accumulate(cm, pred, mesh.labels)
    return cm, metrics(cm)


def train_variants(base_cfg, names, train_cfg, train_meshes, test_meshes):
    """Train each named variant of `base_cfg` in turn and score it on
    `test_meshes`; yields (name, trained model, MetricsResult)."""
    for name in names:
        model = build_variant(variant_config(base_cfg, name))
        train(model, train_meshes, train_cfg)
        _, result = evaluate_model(model, test_meshes)
        yield name, model, result
