import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshseg.training as training_mod
from meshseg.mesh import build_cell_features
from meshseg.model import (
    CheckpointError,
    ConfigError,
    DataError,
    ModelConfig,
    build_variant,
    load_checkpoint,
    load_model,
    save_checkpoint,
)
from meshseg.synth import ArchSpec, generate
from meshseg.tensor import Parameter, Tensor
from meshseg.training import (
    Adam,
    TrainConfig,
    TrainingError,
    augment_mesh,
    lr_at_epoch,
    parse_log,
    resume,
    rotation_y,
    train,
)


def small_model(seed=0, classes=3):
    cfg = ModelConfig(num_classes=classes, k_neighbors=4, stream_widths=(4, 8, 8),
                      fusion_width=16, head_widths=(16, 8), seed=seed).validate()
    return build_variant(cfg)


def small_meshes(n=2, seed=1):
    return [generate(ArchSpec(num_teeth=2, cells_target=260, seed=seed + i))
            for i in range(n)]


def quick_config(**overrides):
    base = dict(epochs=2, batch_size=2, lr0=1e-3, augment=False, seed=7)
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_fixed_point():
    t = Tensor(np.array([1.5, -2.0], dtype=np.float32), requires_grad=True)
    adam = Adam([Parameter("w", t)])
    for _ in range(3):
        t.grad = np.zeros_like(t.data)
        adam.step(lr=1e-3)
    assert np.array_equal(t.data, np.array([1.5, -2.0], dtype=np.float32))


def test_adam_first_step_hand_value():
    # bias-corrected m_hat / sqrt(v_hat) = 1 for a constant unit gradient
    t = Tensor(np.array([0.0]), requires_grad=True, dtype=np.float64)
    adam = Adam([Parameter("w", t)])
    t.grad = np.array([1.0])
    adam.step(lr=1e-3)
    assert t.data[0] == pytest.approx(-1e-3, rel=1e-6)
    assert t.grad is None  # cleared after the step


def test_adam_missing_gradient_names_parameter():
    t = Tensor(np.zeros(2), requires_grad=True)
    adam = Adam([Parameter("stream.weight", t)])
    with pytest.raises(TrainingError) as exc:
        adam.step(1e-3)
    assert "stream.weight" in str(exc.value)


def test_adam_moments_round_trip_through_checkpoint(tmp_path):
    model = small_model(seed=3)
    path = tmp_path / "run.ckpt"
    _, adam = train(model, small_meshes(), quick_config(epochs=3), checkpoint_path=path)
    restored, adam2 = resume(path, quick_config())
    assert adam2.state.epoch == 3
    assert adam2.state.step == adam.state.step == 3
    for p in model.parameters():
        assert np.array_equal(adam2.state.m[p.name], adam.state.m[p.name]), p.name
        assert np.array_equal(adam2.state.v[p.name], adam.state.v[p.name]), p.name
    for a, b in zip(model.parameters(), restored.parameters()):
        assert np.array_equal(a.tensor.data, b.tensor.data), a.name
    assert load_checkpoint(path)[1].keys() >= {"optimizer.counters"}


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_lr_schedule_closed_form():
    cfg = TrainConfig()
    for e in range(200):
        assert lr_at_epoch(cfg, e) == pytest.approx(1e-3 * 0.5 ** (e // 20))
    assert lr_at_epoch(cfg, 0) == pytest.approx(1e-3)
    assert lr_at_epoch(cfg, 19) == pytest.approx(1e-3)
    assert lr_at_epoch(cfg, 20) == pytest.approx(5e-4)
    assert lr_at_epoch(cfg, 39) == pytest.approx(5e-4)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def test_augment_zero_range_is_identity():
    mesh = small_meshes(1)[0]
    out = augment_mesh(mesh, np.random.default_rng(0), 0.0, 0.0)
    assert np.array_equal(out.vertices, mesh.vertices)
    assert np.array_equal(out.faces, mesh.faces)


def test_augment_preserves_labels_and_faces():
    mesh = small_meshes(1)[0]
    out = augment_mesh(mesh, np.random.default_rng(1), 10.0, np.pi / 6)
    assert np.array_equal(out.faces, mesh.faces)
    assert np.array_equal(out.labels, mesh.labels)
    assert not np.allclose(out.vertices, mesh.vertices)


def test_pure_translation_keeps_normals_block():
    mesh = small_meshes(1)[0]
    out = augment_mesh(mesh, np.random.default_rng(2), 10.0, 0.0)
    a = build_cell_features(mesh, center=False)
    b = build_cell_features(out, center=False)
    assert np.allclose(a.normals, b.normals, atol=1e-6)
    assert not np.allclose(a.coords, b.coords)


def test_rotation_maps_normals_by_rotation_matrix():
    mesh = small_meshes(1)[0]
    seed = 11
    # replay the augmentation draws to recover the sampled angle
    probe = np.random.default_rng(seed)
    probe.uniform(-0.0, 0.0, size=3)
    theta = probe.uniform(-np.pi / 6, np.pi / 6)
    out = augment_mesh(mesh, np.random.default_rng(seed), 0.0, np.pi / 6)
    rot = rotation_y(theta)
    a = build_cell_features(mesh, center=False).normals
    b = build_cell_features(out, center=False).normals
    for k in range(4):
        sl = slice(3 * k, 3 * k + 3)
        assert np.allclose(b[:, sl], a[:, sl] @ rot.T, atol=1e-5)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_zero_epochs_is_noop():
    model = small_model()
    before = [p.tensor.data.copy() for p in model.parameters()]
    records, _ = train(model, small_meshes(), quick_config(epochs=0))
    assert records == []
    for p, b in zip(model.parameters(), before):
        assert np.array_equal(p.tensor.data, b)


def test_training_runs_and_logs():
    model = small_model()
    log = io.StringIO()
    records, _ = train(model, small_meshes(), quick_config(epochs=3), log_fh=log)
    assert len(records) == 3
    assert all(np.isfinite(r.mean_loss) for r in records)
    assert [r.epoch for r in records] == [0, 1, 2]
    lines = [l for l in log.getvalue().splitlines() if l]
    assert len(lines) == 3


def test_lr_decay_visible_in_records():
    model = small_model()
    cfg = quick_config(epochs=4, decay_every=2, decay_factor=0.5)
    records, _ = train(model, small_meshes(), cfg)
    assert [r.lr for r in records] == pytest.approx([1e-3, 1e-3, 5e-4, 5e-4])


def test_equal_seeds_give_identical_trajectories():
    results = []
    for _ in range(2):
        model = small_model(seed=4)
        train(model, small_meshes(), quick_config(epochs=2, augment=True))
        results.append([p.tensor.data.copy() for p in model.parameters()])
    for a, b in zip(*results):
        assert np.array_equal(a, b)


def test_resume_equals_uninterrupted(tmp_path):
    meshes = small_meshes()
    cfg = quick_config(epochs=4, augment=True)

    straight = small_model(seed=9)
    train(straight, meshes, cfg)

    resumed = small_model(seed=9)
    ckpt = tmp_path / "mid.ckpt"
    cfg_half = quick_config(epochs=2, augment=True)
    train(resumed, meshes, cfg_half, checkpoint_path=ckpt)

    restored, adam2 = resume(ckpt, cfg)
    assert adam2.state.epoch == 2
    train(restored, meshes, cfg, adam=adam2)

    for pa, pb in zip(straight.parameters(), restored.parameters()):
        assert np.array_equal(pa.tensor.data, pb.tensor.data), pa.name


class Interrupted(Exception):
    pass


@pytest.mark.parametrize("stop_after", [0, 1, 2])
def test_interrupted_run_resumes_bit_exactly(tmp_path, monkeypatch, stop_after):
    meshes = small_meshes()
    cfg = quick_config(epochs=4, augment=True)
    straight, ckpt = small_model(seed=9), tmp_path / "run.ckpt"
    train(straight, meshes, cfg, checkpoint_path=tmp_path / "straight.ckpt")

    real_save, saved = training_mod.save_checkpoint, []

    def save_then_die(model, path, adam):
        real_save(model, path, adam)
        saved.append(adam.state.epoch)
        if len(saved) == stop_after + 1:
            raise Interrupted

    monkeypatch.setattr(training_mod, "save_checkpoint", save_then_die)
    with pytest.raises(Interrupted):
        train(small_model(seed=9), meshes, cfg, checkpoint_path=ckpt)
    monkeypatch.undo()
    assert saved == list(range(1, stop_after + 2))  # one write per finished epoch

    restored, adam = resume(ckpt, cfg)
    assert adam.state.epoch == stop_after + 1
    train(restored, meshes, cfg, checkpoint_path=ckpt, adam=adam)
    for pa, pb in zip(straight.parameters(), restored.parameters()):
        assert np.array_equal(pa.tensor.data, pb.tensor.data), pa.name
    assert ckpt.read_bytes() == (tmp_path / "straight.ckpt").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt", "straight.ckpt"]


def test_heterogeneous_cell_counts_rejected():
    model = small_model()
    meshes = [generate(ArchSpec(num_teeth=2, cells_target=260, seed=0)),
              generate(ArchSpec(num_teeth=2, cells_target=520, seed=1))]
    with pytest.raises(TrainingError):
        train(model, meshes, quick_config())


def test_mixed_cell_counts_train_one_mesh_per_batch():
    model = small_model()
    meshes = [generate(ArchSpec(num_teeth=2, cells_target=260, seed=0)),
              generate(ArchSpec(num_teeth=2, cells_target=300, seed=1))]
    assert meshes[0].num_cells != meshes[1].num_cells
    records, _ = train(model, meshes, quick_config(epochs=1, batch_size=1))
    assert len(records) == 1 and np.isfinite(records[0].mean_loss)


@pytest.mark.parametrize("field, value", [
    ("epochs", -1), ("batch_size", 0), ("batch_size", -2), ("decay_every", 0),
    ("lr0", 0.0), ("lr0", float("inf")), ("beta1", -0.1), ("beta2", 1.0),
    ("eps", 0.0), ("decay_factor", 0.0), ("translation_range", -1.0),
    ("rotation_range", float("nan")), ("translation_range", 1e308),
    ("rotation_range", 1e308)])
def test_out_of_range_train_config_rejected(field, value):
    bad = quick_config(**{field: value})
    with pytest.raises(ConfigError) as exc:
        bad.validate()
    assert field in str(exc.value)
    with pytest.raises(ConfigError):  # train checks before it touches the model
        train(small_model(), small_meshes(), bad)
    assert quick_config(epochs=0).validate().epochs == 0


def test_translation_beyond_the_mesh_radius_bound_rejected():
    meshes = small_meshes()
    dataset = training_mod.prepare_training_meshes(meshes, quick_config())
    radius = min(np.linalg.norm(m.vertices, axis=1).max() for m in dataset)
    limit = training_mod.MAX_TRANSLATION_RADII * radius
    # float32 still resolves a 2000th of the radius at the bound
    assert np.spacing(np.float32(limit + radius)) <= radius / 2000
    ok = quick_config(augment=True, translation_range=limit, epochs=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no face collapses at the bound
        assert len(train(small_model(), meshes, ok)[0]) == 1
    for r in (limit * 1.01, 1e30, 8.98e307):
        bad = quick_config(augment=True, translation_range=r)
        with pytest.raises(ConfigError, match="translation_range must be at most"):
            train(small_model(), meshes, bad)
        # without augmentation no mesh is translated
        assert training_mod.prepare_training_meshes(meshes, quick_config(translation_range=r))


def test_missing_labels_rejected():
    model = small_model()
    mesh = small_meshes(1)[0]
    mesh.labels = None
    with pytest.raises(TrainingError):
        train(model, [mesh], quick_config())


def test_nan_loss_aborts_with_batch_diagnostic():
    model = small_model()
    model.out_weight.data[0, 0] = np.nan
    with pytest.raises(TrainingError) as exc:
        train(model, small_meshes(), quick_config())
    msg = str(exc.value)
    assert "epoch 0" in msg and "batch" in msg


def test_log_round_trip(tmp_path):
    model = small_model()
    path = tmp_path / "log.tsv"
    with open(path, "w") as fh:
        fh.write("epoch\tlr\tmean_loss\ttrain_oa\n")
        records, _ = train(model, small_meshes(), quick_config(epochs=2), log_fh=fh)
    back = parse_log(path)
    assert len(back) == 2
    assert back[0].epoch == records[0].epoch
    assert back[0].lr == pytest.approx(records[0].lr)
    assert back[1].mean_loss == pytest.approx(records[1].mean_loss, abs=1e-6)


@pytest.mark.parametrize("row, line, fragment", [
    ("1\t0.001\t0.5", 3, "expected 4 tab-separated fields (epoch, lr, mean_loss, "
                         "train_oa), got 3"),
    ("1\tabc\t0.5\t0.9", 3, "lr 'abc' is not a number"),
], ids=["three-fields", "lr-not-a-number"])
def test_parse_log_names_file_and_line_of_a_bad_row(tmp_path, row, line, fragment):
    path = tmp_path / "log.tsv"
    path.write_text(f"epoch\tlr\tmean_loss\ttrain_oa\n\n{row}\n0\t0.001\t0.5\t0.9\n")
    with pytest.raises(DataError) as exc:
        parse_log(path)
    assert str(exc.value) == f"{path}:{line}: {fragment}"


# ---------------------------------------------------------------------------
# training checkpoints
# ---------------------------------------------------------------------------

def resume_fails(path, fragment):
    with pytest.raises(CheckpointError) as exc:
        resume(path, quick_config())
    assert str(path) in str(exc.value) and fragment in str(exc.value)


def test_resume_rejects_inference_only_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model(), path)
    resume_fails(path, "no optimizer state")


def test_resume_rejects_missing_moment(tmp_path):
    model, path = small_model(), tmp_path / "run.ckpt"
    save_checkpoint(model, path, Adam(model.parameters()[:-1]))  # no out.bias moments
    resume_fails(path, "optimizer.m.out.bias")


def test_resume_rejects_moment_of_wrong_shape(tmp_path):
    model, path = small_model(), tmp_path / "run.ckpt"
    adam = Adam(model.parameters())
    weight = adam.state.m["c1.calibrate.weight"]
    adam.state.m["c1.calibrate.weight"] = np.zeros((weight.shape[0], weight.shape[0]),
                                                   dtype=weight.dtype)
    save_checkpoint(model, path, adam)
    resume_fails(path, "optimizer.m.c1.calibrate.weight")


def test_running_statistic_of_wrong_shape_rejected(tmp_path):
    model, path = small_model(), tmp_path / "run.ckpt"
    model.bn_states()["c1.calibrate.bn"].running_mean = np.zeros(1, dtype=np.float32)
    save_checkpoint(model, path, Adam(model.parameters()))
    with pytest.raises(CheckpointError) as exc:
        load_model(path)
    assert str(path) in str(exc.value)
    resume_fails(path, "c1.calibrate.bn.running_mean")


def test_load_model_skips_optimizer_records(tmp_path):
    model, path = small_model(), tmp_path / "run.ckpt"
    _, adam = train(model, small_meshes(), quick_config(epochs=1), checkpoint_path=path)
    plain = tmp_path / "plain.ckpt"
    save_checkpoint(model, plain)
    save_checkpoint(load_model(path), tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == plain.read_bytes()


def test_save_refuses_counters_float32_cannot_hold(tmp_path):
    model = small_model()
    adam = Adam(model.parameters())
    adam.state.step = 2 ** 24
    with pytest.raises(CheckpointError):
        save_checkpoint(model, tmp_path / "run.ckpt", adam)
    assert not list(tmp_path.iterdir())


@pytest.fixture(scope="module")
def training_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "run.ckpt"
    train(small_model(), small_meshes(), quick_config(epochs=2), checkpoint_path=path)
    return path.read_bytes(), path.with_name("damaged.ckpt")


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_damaged_training_checkpoint_fails_typed(training_checkpoint, data):
    good, path = training_checkpoint
    at = data.draw(st.integers(0, len(good) - 1), label="offset")
    flip = data.draw(st.integers(0, 255), label="xor (0 truncates)")
    damaged = bytearray(good[:at] if flip == 0 else good)
    if flip:
        damaged[at] ^= flip
    path.write_bytes(bytes(damaged))
    for load in (load_model, lambda p: resume(p, quick_config())):
        try:
            load(path)
        except CheckpointError as exc:  # anything else fails the test
            assert str(path) in str(exc)
