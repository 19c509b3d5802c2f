import numpy as np
import pytest

from meshseg.cli import main
from meshseg.mesh import DEFAULT_PALETTE, classes_from_colors, load_labels, load_mesh
from meshseg.model import ModelConfig, build_variant, load_checkpoint, save_checkpoint


TINY = [
    "--set", "model.num_classes=3",
    "--set", "model.k_neighbors=4",
    "--set", "model.stream_widths=4,8",
    "--set", "model.fusion_width=16",
    "--set", "model.head_widths=16,8",
    "--set", "train.epochs=2",
    "--set", "train.batch_size=2",
    "--set", "train.augment=false",
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    code = main(["synth", "--out", str(root), "--n-train", "3", "--n-test", "2",
                 "--teeth", "2", "--cells", "300", "--seed", "5"])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--manifest", str(dataset / "manifest.tsv"),
                 "--out", str(out), *TINY])
    assert code == 0
    return out


def test_synth_writes_dataset(dataset):
    assert (dataset / "manifest.tsv").exists()
    assert (dataset / "train" / "arch_000.obj").exists()
    assert (dataset / "test" / "arch_001.labels").exists()


def test_synth_collision_fails(dataset):
    code = main(["synth", "--out", str(dataset), "--n-train", "1",
                 "--n-test", "1", "--teeth", "2", "--cells", "300"])
    assert code == 1


def test_train_outputs(trained):
    assert (trained / "model.ckpt").exists()
    assert (trained / "resolved.cfg").exists()
    log = (trained / "train_log.tsv").read_text().splitlines()
    assert log[0] == "epoch\tlr\tmean_loss\ttrain_oa"
    assert len(log) == 3
    config, arrays = load_checkpoint(trained / "model.ckpt")
    assert config.num_classes == 3
    assert arrays


def test_train_missing_manifest_no_partial_outputs(tmp_path):
    out = tmp_path / "never"
    code = main(["train", "--manifest", str(tmp_path / "nope.tsv"),
                 "--out", str(out), *TINY])
    assert code == 1
    assert not out.exists()


def test_train_bad_config_key_usage_error(dataset, tmp_path):
    code = main(["train", "--manifest", str(dataset / "manifest.tsv"),
                 "--out", str(tmp_path / "x"), "--set", "model.bogus=1"])
    assert code == 2


def test_eval_reports(trained, dataset, tmp_path, capsys):
    report = tmp_path / "report.tsv"
    code = main(["eval", "--checkpoint", str(trained / "model.ckpt"),
                 "--manifest", str(dataset / "manifest.tsv"),
                 "--split", "test", "--out", str(report)])
    assert code == 0
    text = report.read_text()
    assert text.startswith("class\tname\tiou")
    assert "mIoU" in text
    out = capsys.readouterr().out
    assert "OA" in out


def test_predict_round_trip(trained, dataset, tmp_path):
    mesh_path = dataset / "test" / "arch_000.obj"
    out_ply = tmp_path / "colored.ply"
    out_labels = tmp_path / "pred.labels"
    code = main(["predict", "--checkpoint", str(trained / "model.ckpt"),
                 "--mesh", str(mesh_path), "--out-ply", str(out_ply),
                 "--out-labels", str(out_labels)])
    assert code == 0
    mesh = load_mesh(out_ply)
    labels = load_labels(out_labels)
    assert mesh.face_colors is not None
    recovered = classes_from_colors(mesh.face_colors, DEFAULT_PALETTE[:3])
    assert np.array_equal(recovered, labels)


def test_predict_same_inputs_identical(trained, dataset, tmp_path):
    mesh_path = dataset / "test" / "arch_000.obj"
    a, b = tmp_path / "a.ply", tmp_path / "b.ply"
    for out in (a, b):
        assert main(["predict", "--checkpoint", str(trained / "model.ckpt"),
                     "--mesh", str(mesh_path), "--out-ply", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_predict_corrupt_checkpoint(tmp_path, dataset, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"JUNKJUNKJUNK")
    code = main(["predict", "--checkpoint", str(bad),
                 "--mesh", str(dataset / "test" / "arch_000.obj"),
                 "--out-ply", str(tmp_path / "x.ply")])
    assert code == 1
    assert "TSGC" in capsys.readouterr().err


def test_predict_truncated_checkpoint(tmp_path, dataset, capsys):
    ckpt = tmp_path / "cut.ckpt"
    save_checkpoint(build_variant(ModelConfig(num_classes=3, k_neighbors=4,
                                              stream_widths=(4, 8), fusion_width=16,
                                              head_widths=(16, 8))), ckpt)
    ckpt.write_bytes(ckpt.read_bytes()[:-3])
    code = main(["predict", "--checkpoint", str(ckpt),
                 "--mesh", str(dataset / "test" / "arch_000.obj"),
                 "--out-ply", str(tmp_path / "x.ply")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ckpt) in err
    assert len(err.strip().splitlines()) == 1


def test_resume_matches_uninterrupted(dataset, tmp_path):
    manifest = str(dataset / "manifest.tsv")
    full, half = tmp_path / "full", tmp_path / "half"
    four = [s if s != "train.epochs=2" else "train.epochs=4" for s in TINY]
    assert main(["train", "--manifest", manifest, "--out", str(full), *four]) == 0
    assert main(["train", "--manifest", manifest, "--out", str(half), *TINY]) == 0
    assert main(["train", "--manifest", manifest, "--out", str(half),
                 "--resume", str(half / "model.ckpt"), *four]) == 0
    _, a = load_checkpoint(full / "model.ckpt")
    _, b = load_checkpoint(half / "model.ckpt")
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_ablate_two_variants(dataset, tmp_path):
    out = tmp_path / "ablation"
    args = [s if s != "train.epochs=2" else "train.epochs=1" for s in TINY]
    code = main(["ablate", "--manifest", str(dataset / "manifest.tsv"),
                 "--out", str(out), "--variants", "full,normals-only", *args])
    assert code == 0
    table = (out / "ablation.tsv").read_text().splitlines()
    assert table[0] == "variant\toa\tmiou"
    assert len(table) == 3
    assert table[1].startswith("full\t")
    assert table[2].startswith("normals-only\t")
    assert (out / "full.ckpt").exists()


def test_ablate_full_variant_set_single_invocation(dataset, tmp_path):
    from meshseg.model import VARIANT_OVERRIDES

    out = tmp_path / "all_variants"
    args = [s if s != "train.epochs=2" else "train.epochs=1" for s in TINY]
    names = sorted(VARIANT_OVERRIDES)
    code = main(["ablate", "--manifest", str(dataset / "manifest.tsv"),
                 "--out", str(out), "--variants", ",".join(names), *args])
    assert code == 0
    rows = (out / "ablation.tsv").read_text().splitlines()
    assert len(rows) == len(names) + 1
    listed = [r.split("\t")[0] for r in rows[1:]]
    assert listed == names
    for row in rows[1:]:
        _, oa, miou = row.split("\t")
        assert 0.0 <= float(oa) <= 1.0
        assert 0.0 <= float(miou) <= 1.0


def test_ablate_unknown_variant_usage_error(dataset, tmp_path, capsys):
    code = main(["ablate", "--manifest", str(dataset / "manifest.tsv"),
                 "--out", str(tmp_path / "x"), "--variants", "full,wrong"])
    assert code == 2
    assert "wrong" in capsys.readouterr().err


def test_verify_quick(capsys):
    code = main(["verify", "--quick"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") >= 8
    assert "SKIP" in out
    # every check reported exactly once
    for name in ("gradient correctness", "attention normalization",
                 "knn oracle", "metric oracle", "geometry"):
        assert out.count(name) == 1


def test_verify_catches_broken_softmax(monkeypatch, capsys):
    # mutation oracle: denormalize the attention softmax and the
    # normalization check must fail with a nonzero exit
    import meshseg.layers as layers_mod
    from meshseg.tensor import softmax_axis

    def broken(x, axis):
        out = softmax_axis(x, axis)
        out.data = out.data * 1.01
        return out

    monkeypatch.setattr(layers_mod, "softmax_axis", broken)
    code = main(["verify", "--quick"])
    out = capsys.readouterr().out
    assert code == 1
    assert any("FAIL" in line and "attention normalization" in line
               for line in out.splitlines())


def test_out_dir_env_var(dataset, tmp_path, monkeypatch):
    monkeypatch.setenv("MESHSEG_OUT", str(tmp_path / "envout"))
    from meshseg.cli import build_parser

    args = build_parser().parse_args(["synth"])
    assert args.out == str(tmp_path / "envout")
