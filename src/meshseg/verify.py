"""Acceptance checks: gradient correctness, invariants, oracles, and the
synthetic-data training gates.

Each check returns a CheckResult; run_checks() executes them in order and
reports one line per check.  The training-backed checks (overfit,
generalization, ablation ordering) dominate the runtime; --quick mode in
the CLI skips them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from meshseg.evaluation import ConfusionMatrix, accumulate, metrics, train_variants
from meshseg.knn import build_knn_graph
from meshseg.layers import AGGREGATIONS, GraphAttentionLayer, GraphMaxPoolLayer
from meshseg.mesh import build_cell_features, transform_mesh
from meshseg.model import (
    ModelConfig,
    build_variant,
    cross_entropy,
    load_model,
    save_checkpoint,
)
from meshseg.synth import ArchSpec, _derived_seed, generate
from meshseg.tensor import Tensor, gradient_check, no_tape
from meshseg.training import (
    TrainConfig,
    augment_mesh,
    resume,
    rotation_y,
    train,
)

DESK_SEED = 7
BASELINE_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "baselines",
    "generalization.json")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# Frozen desk-scale setup
# ---------------------------------------------------------------------------

def desk_arch_spec():
    return ArchSpec(num_teeth=7, cells_target=1200)


def desk_split(n_train=20, n_test=5):
    """The frozen-seed 20/5 synthetic split used by the acceptance gates."""
    spec = desk_arch_spec()
    train_meshes = [generate(replace(spec, seed=_derived_seed(DESK_SEED, 0, i)))
                    for i in range(n_train)]
    test_meshes = [generate(replace(spec, seed=_derived_seed(DESK_SEED, 1, i)))
                   for i in range(n_test)]
    return train_meshes, test_meshes


def desk_model_config():
    return ModelConfig(num_classes=8, k_neighbors=12, stream_widths=(16, 32, 64),
                       fusion_width=128, head_widths=(128, 64, 32),
                       seed=0).validate()


def desk_train_config():
    return TrainConfig(epochs=50, batch_size=4, lr0=1e-3, decay_every=20,
                       augment=True, seed=0)


def overfit_setup():
    mesh = generate(ArchSpec(num_teeth=4, cells_target=1200, seed=3))
    cfg = ModelConfig(num_classes=5, k_neighbors=8, stream_widths=(8, 16, 32),
                      fusion_width=64, head_widths=(64, 32), seed=0).validate()
    tcfg = TrainConfig(epochs=300, batch_size=1, lr0=1e-3, decay_every=100,
                       augment=False, seed=0)
    return mesh, cfg, tcfg


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness
# ---------------------------------------------------------------------------

def _random_layer(kind, seed):
    rng = np.random.default_rng(seed)
    layer = AGGREGATIONS[kind]("v", 2, 3, np.random.default_rng(seed + 1),
                               dtype=np.float64)
    layer.calibrate.bn.running_mean = rng.normal(size=3) * 0.2
    layer.calibrate.bn.running_var = rng.uniform(0.5, 2.0, size=3)
    features = rng.normal(size=(8, 2))
    graph = build_knn_graph(features, 3)
    return layer, features, graph


def _layer_gradient_error(kind, train, seed=101):
    layer, features, graph = _random_layer(kind, seed)
    tensors = [Tensor(features, requires_grad=True, dtype=np.float64)]
    tensors += [p.tensor for p in layer.parameters()]

    def f(feats, *_):
        return layer.forward(feats, graph, train=train).sum()

    return gradient_check(f, tensors)


def _random_cell_features(m, seed):
    # spread coords and unit normals: keeps KNN distances and max-pool
    # choices well separated so finite differences stay on one branch
    rng = np.random.default_rng(seed)
    coords = rng.normal(size=(m, 12)) * 5
    normals = rng.normal(size=(m, 4, 3))
    normals /= np.linalg.norm(normals, axis=2, keepdims=True)
    return np.concatenate([coords, normals.reshape(m, 12)], axis=1)


def _end_to_end_gradient_error(train):
    cfg = ModelConfig(num_classes=3, k_neighbors=3, stream_widths=(4, 8, 8),
                      fusion_width=8, head_widths=(8, 4), seed=5).validate()
    model = build_variant(cfg, dtype=np.float64)
    feats = _random_cell_features(16, seed=77)
    labels = np.random.default_rng(78).integers(0, 3, size=16)

    def f(*_):
        return cross_entropy(model.forward(feats, train=train), labels)

    return gradient_check(f, [p.tensor for p in model.parameters()])


def check_gradient_correctness():
    """Finite differences against backward for both layers and the whole
    model, in the folded eval mode and in train mode's batch statistics."""
    errors = {mode: (_layer_gradient_error("attention", train),
                     _layer_gradient_error("maxpool", train),
                     _end_to_end_gradient_error(train))
              for mode, train in (("eval", False), ("train", True))}
    worst = max(max(errs) for errs in errors.values())
    return CheckResult(
        "gradient correctness",
        worst <= 1e-4,
        "; ".join(f"{mode}: attention {att:.2e}, maxpool {pool:.2e}, end-to-end {e2e:.2e}"
                  for mode, (att, pool, e2e) in errors.items()) + " (tolerance 1e-4)",
    )


# ---------------------------------------------------------------------------
# Criterion 2: attention normalization
# ---------------------------------------------------------------------------

def check_attention_normalization():
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(100):
        m = int(rng.integers(8, 32))
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, min(m - 1, 7)))
        layer = GraphAttentionLayer("a", d, int(rng.integers(2, 6)),
                                    np.random.default_rng(trial))
        features = rng.normal(size=(m, d)).astype(np.float32)
        graph = build_knn_graph(features, k)
        weights = layer.weights(Tensor(features), graph)
        if weights.min() < 0:
            return CheckResult("attention normalization", False,
                               f"negative weight in trial {trial}")
        worst = max(worst, float(np.abs(weights.sum(axis=1) - 1.0).max()))
    return CheckResult("attention normalization", worst <= 1e-5,
                       f"max |sum - 1| = {worst:.2e} over 100 passes "
                       "(tolerance 1e-5)")


# ---------------------------------------------------------------------------
# Criterion 3: aggregation invariance under neighbor permutation
# ---------------------------------------------------------------------------

def _trained_batch_norm(layer, rng):
    """Give a layer's calibration batch norm what training leaves behind:
    gamma of both signs and running statistics away from (0, 1)."""
    bn = layer.calibrate.bn
    c = bn.channels
    bn.gamma.data = (rng.uniform(0.5, 1.5, size=c) * rng.choice([-1, 1], size=c)
                     ).astype(np.float32)
    bn.beta.data = rng.normal(scale=0.3, size=c).astype(np.float32)
    bn.running_mean = rng.normal(scale=0.5, size=c).astype(np.float32)
    bn.running_var = rng.uniform(0.5, 2.0, size=c).astype(np.float32)


def _permutation_gaps(att, pool, features, graph, permuted):
    """(attention max diff, max-pool bit-identical) between the two graphs."""
    a1, a2, p1, p2 = (layer.forward(Tensor(features), g).data
                      for layer in (att, pool) for g in (graph, permuted))
    return float(np.abs(a1 - a2).max()), bool(np.array_equal(p1, p2))


def check_aggregation_invariance():
    """Eval-mode layers (batch norm folded into the affine): taped as
    built, then tape-free with trained-looking batch norm."""
    rng = np.random.default_rng(21)
    att_worst, pool_exact = 0.0, True
    for trial in range(20):
        m, d, k = 12, 3, 4
        features = rng.normal(size=(m, d)).astype(np.float32)
        graph = build_knn_graph(features, k)
        permuted = graph.permuted_neighbors(np.random.default_rng(trial))
        att = GraphAttentionLayer("a", d, 5, np.random.default_rng(trial + 50))
        pool = GraphMaxPoolLayer("p", d, 5, np.random.default_rng(trial + 90))
        gaps = [_permutation_gaps(att, pool, features, graph, permuted)]
        bn_rng = np.random.default_rng(trial + 130)
        _trained_batch_norm(att, bn_rng)
        _trained_batch_norm(pool, bn_rng)
        with no_tape():
            gaps.append(_permutation_gaps(att, pool, features, graph, permuted))
        for att_gap, exact in gaps:
            att_worst = max(att_worst, att_gap)
            pool_exact = pool_exact and exact
    passed = pool_exact and att_worst <= 1e-6
    return CheckResult(
        "aggregation invariance",
        passed,
        f"max-pool bit-identical: {pool_exact}; attention max diff "
        f"{att_worst:.2e} (tolerance 1e-6); taped and tape-free",
    )


# ---------------------------------------------------------------------------
# Criterion 4: KNN brute-force equivalence
# ---------------------------------------------------------------------------

def _oracle_knn(features, k):
    # row-by-row explicit differences + lexsort, independent of the
    # partition-based production path
    features = np.asarray(features, dtype=np.float64)
    m = features.shape[0]
    out = np.empty((m, k), dtype=np.int64)
    for i in range(m):
        d = ((features - features[i]) ** 2).sum(axis=1)
        d[i] = np.inf
        order = np.lexsort((np.arange(m), d))
        out[i] = order[:k]
    return out


def check_knn_oracle():
    rng = np.random.default_rng(31)
    sizes = [int(rng.integers(20, 400)) for _ in range(38)]
    sizes += [int(rng.integers(500, 1200)) for _ in range(8)]
    sizes += [2000] * 4
    mismatches = 0
    tie_sets = 0
    for trial, m in enumerate(sizes):
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, 12))
        if trial % 3 == 0:  # integer grids force exact distance ties
            features = rng.integers(0, 5, size=(m, d)).astype(np.float64)
            tie_sets += 1
        else:
            features = rng.normal(size=(m, d))
        got = build_knn_graph(features, k).indices
        want = _oracle_knn(features, k)
        if not np.array_equal(got, want):
            mismatches += 1
    return CheckResult(
        "knn oracle equivalence",
        mismatches == 0,
        f"{len(sizes)} random sets up to M=2000 ({tie_sets} with exact ties), "
        f"{mismatches} mismatches",
    )


# ---------------------------------------------------------------------------
# Criterion 5: loss sanity
# ---------------------------------------------------------------------------

def check_loss_sanity():
    m, c = 12, 8
    uniform = cross_entropy(Tensor(np.zeros((m, c))), np.zeros(m, dtype=int),
                            reduction="mean").item()
    uniform_err = abs(uniform - np.log(8))
    forced = cross_entropy(
        Tensor(np.eye(c, dtype=np.float32) * 1000.0), np.arange(c)
    ).item()
    passed = uniform_err <= 1e-5 and forced <= 1e-6
    return CheckResult(
        "loss sanity",
        passed,
        f"uniform per-cell loss ln8 err {uniform_err:.2e} (tol 1e-5); "
        f"forced one-hot loss {forced:.2e} (tol 1e-6)",
    )


# ---------------------------------------------------------------------------
# Criterion 6: metric oracle
# ---------------------------------------------------------------------------

def _oracle_metrics(pred, truth, c):
    oa = float(np.mean(pred == truth))
    ious = {}
    for cls in range(c):
        p = set(np.nonzero(pred == cls)[0].tolist())
        t = set(np.nonzero(truth == cls)[0].tolist())
        if p | t:
            ious[cls] = len(p & t) / len(p | t)
    miou = sum(ious.values()) / len(ious)
    return oa, ious, miou


def check_metric_oracle():
    rng = np.random.default_rng(41)
    for trial in range(100):
        m = int(rng.integers(5, 2000))
        c = int(rng.integers(2, 9))
        truth = rng.integers(0, c, m)
        pred = rng.integers(0, c, m)
        r = metrics(accumulate(ConfusionMatrix(c), pred, truth))
        oa, ious, miou = _oracle_metrics(pred, truth, c)
        if abs(r.oa - oa) > 1e-12 or abs(r.miou - miou) > 1e-12:
            return CheckResult("metric oracle", False, f"trial {trial} mismatch")
        for cls in range(c):
            got = r.per_class_iou[cls]
            if cls in ious:
                if abs(got - ious[cls]) > 1e-12:
                    return CheckResult("metric oracle", False,
                                       f"trial {trial} class {cls} IoU mismatch")
            elif not np.isnan(got):
                return CheckResult("metric oracle", False,
                                   f"trial {trial} class {cls} should be undefined")
    hand = metrics(accumulate(ConfusionMatrix(2), [0, 1, 1, 1], [0, 0, 1, 1]))
    hand_ok = abs(hand.oa - 0.75) < 1e-12 and abs(hand.miou - 0.5833333333) < 1e-6
    return CheckResult(
        "metric oracle",
        hand_ok,
        "100 random prediction/truth pairs exact; hand example OA "
        f"{hand.oa:.4f}, mIoU {hand.miou:.4f}",
    )


# ---------------------------------------------------------------------------
# Criterion 7: overfit gate
# ---------------------------------------------------------------------------

def run_overfit():
    mesh, cfg, tcfg = overfit_setup()
    model = build_variant(cfg)
    records, _ = train(model, [mesh], tcfg)
    best = max(r.train_oa for r in records)
    first = next((r.epoch + 1 for r in records if r.train_oa >= 0.99), None)
    # loss must keep descending: over 50-step windows past step 50, at most
    # 5 may fail to decrease
    losses = [r.mean_loss for r in records]
    flat_windows = sum(
        1 for s in range(50, len(losses) - 50) if losses[s + 50] >= losses[s]
    )
    passed = best >= 0.99 and flat_windows <= 5
    return CheckResult(
        "overfit single arch",
        passed,
        f"best train OA {best:.4f} (gate 0.99), first reached at step {first} "
        f"of {tcfg.epochs}; non-decreasing 50-step loss windows: "
        f"{flat_windows} (allowed 5)",
    )


# ---------------------------------------------------------------------------
# Criteria 8 + 9: generalization and ablation ordering
# ---------------------------------------------------------------------------

def run_training_benchmarks(variants=("full", "coords-only", "normals-only"),
                            reporter=None):
    """Train the requested variants on the frozen desk split; returns
    {variant: (test OA, test mIoU)}."""
    results = {}
    for name, _, res in train_variants(desk_model_config(), variants,
                                       desk_train_config(), *desk_split()):
        results[name] = (res.oa, res.miou)
        if reporter:
            reporter(f"      trained {name}: OA {res.oa:.4f} mIoU {res.miou:.4f}")
    return results


def check_generalization(results):
    oa, miou = results["full"]
    detail = f"test mIoU {miou:.4f} (gate 0.70), OA {oa:.4f}"
    if not os.path.exists(BASELINE_PATH):
        return CheckResult("synthetic generalization", False,
                           f"{detail}; frozen baseline {BASELINE_PATH} is missing")
    with open(BASELINE_PATH) as fh:
        frozen = json.load(fh)["test_miou"]
    drift = abs(miou - frozen)
    detail += f"; frozen baseline {frozen:.4f}, drift {drift:.4f} (allowed 0.05)"
    return CheckResult("synthetic generalization", miou >= 0.70 and drift <= 0.05, detail)


def check_ablation_ordering(results):
    full = results["full"][1]
    c_only = results["coords-only"][1]
    n_only = results["normals-only"][1]
    passed = full >= n_only and full >= c_only
    return CheckResult(
        "ablation ordering",
        passed,
        f"mIoU full {full:.4f} >= coords-only {c_only:.4f}: {full >= c_only}; "
        f"full >= normals-only {n_only:.4f}: {full >= n_only}",
    )


# ---------------------------------------------------------------------------
# Criterion 10: determinism and persistence
# ---------------------------------------------------------------------------

def _mini_setup():
    meshes = [generate(ArchSpec(num_teeth=2, cells_target=260, seed=50 + i))
              for i in range(2)]
    cfg = ModelConfig(num_classes=3, k_neighbors=4, stream_widths=(4, 8, 8),
                      fusion_width=16, head_widths=(16, 8), seed=9).validate()
    tcfg = TrainConfig(epochs=4, batch_size=2, augment=True, seed=13)
    return meshes, cfg, tcfg


def check_determinism_and_persistence():
    import tempfile

    meshes, cfg, tcfg = _mini_setup()

    models = [build_variant(cfg) for _ in range(2)]
    for model in models:
        train(model, meshes, tcfg)
    same_traj = all(np.array_equal(a.tensor.data, b.tensor.data)
                    for a, b in zip(*(m.parameters() for m in models)))

    with tempfile.TemporaryDirectory() as td:
        p1, p2 = os.path.join(td, "a.ckpt"), os.path.join(td, "b.ckpt")
        save_checkpoint(models[0], p1)
        save_checkpoint(load_model(p1), p2)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            roundtrip = f1.read() == f2.read()

        ckpt = os.path.join(td, "mid.ckpt")
        train(build_variant(cfg), meshes, replace(tcfg, epochs=2), checkpoint_path=ckpt)
        restored, adam = resume(ckpt, tcfg)
        train(restored, meshes, tcfg, adam=adam)
        resume_ok = all(
            np.array_equal(a.tensor.data, b.tensor.data)
            for a, b in zip(models[1].parameters(), restored.parameters())
        )

    passed = same_traj and roundtrip and resume_ok
    return CheckResult(
        "determinism and persistence",
        passed,
        f"equal-seed trajectories identical: {same_traj}; checkpoint "
        f"round-trip byte-exact: {roundtrip}; resume == uninterrupted: {resume_ok}",
    )


# ---------------------------------------------------------------------------
# Criterion 11: geometry
# ---------------------------------------------------------------------------

def check_geometry():
    mesh = generate(ArchSpec(num_teeth=3, cells_target=700, seed=17))
    pivot = mesh.vertices[mesh.faces].mean(axis=1).mean(axis=0)

    theta = 0.55
    rot = rotation_y(theta)
    a = build_cell_features(mesh, center=True)
    b = build_cell_features(transform_mesh(mesh, rotation=rot, pivot=pivot),
                            center=True)
    rot_err = 0.0
    for block_a, block_b in ((a.coords, b.coords), (a.normals, b.normals)):
        for kx in range(4):
            sl = slice(3 * kx, 3 * kx + 3)
            rot_err = max(rot_err,
                          float(np.abs(block_b[:, sl] - block_a[:, sl] @ rot.T).max()))

    c = build_cell_features(transform_mesh(mesh, translation=[4.0, -2.0, 9.0]),
                            center=True)
    trans_err = float(max(np.abs(c.coords - a.coords).max(),
                          np.abs(c.normals - a.normals).max()))

    seed = 23
    probe = np.random.default_rng(seed)
    probe.uniform(-10.0, 10.0, size=3)
    sampled = probe.uniform(-np.pi / 6, np.pi / 6)
    aug = augment_mesh(mesh, np.random.default_rng(seed), 10.0, np.pi / 6)
    labels_ok = (np.array_equal(aug.labels, mesh.labels)
                 and np.array_equal(aug.faces, mesh.faces))
    rn = build_cell_features(aug, center=False).normals
    base = build_cell_features(mesh, center=False).normals
    aug_err = 0.0
    rot_s = rotation_y(sampled)
    for kx in range(4):
        sl = slice(3 * kx, 3 * kx + 3)
        aug_err = max(aug_err, float(np.abs(rn[:, sl] - base[:, sl] @ rot_s.T).max()))

    passed = rot_err <= 1e-5 and trans_err <= 1e-6 and labels_ok and aug_err <= 1e-5
    return CheckResult(
        "geometry",
        passed,
        f"rotation commute err {rot_err:.2e} (tol 1e-5); translation "
        f"invariance err {trans_err:.2e} (tol 1e-6); augmentation labels "
        f"preserved: {labels_ok}, normal map err {aug_err:.2e} (tol 1e-5)",
    )


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def run_checks(include_training=True, reporter=print):
    results = []

    def emit(result):
        results.append(result)
        if reporter:
            reporter(result.line())

    emit(check_gradient_correctness())
    emit(check_attention_normalization())
    emit(check_aggregation_invariance())
    emit(check_knn_oracle())
    emit(check_loss_sanity())
    emit(check_metric_oracle())
    emit(check_determinism_and_persistence())
    emit(check_geometry())
    if include_training:
        emit(run_overfit())
        bench = run_training_benchmarks(reporter=reporter)
        emit(check_generalization(bench))
        emit(check_ablation_ordering(bench))
    elif reporter:
        reporter("SKIP  overfit / generalization / ablation (quick mode)")
    return results
