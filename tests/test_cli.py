import io
import itertools
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshseg import cli, training
from meshseg.cli import main
from meshseg.mesh import DEFAULT_PALETTE, class_colors, load_labels, load_mesh
from meshseg.model import ModelConfig, build_variant, load_checkpoint, save_checkpoint
from test_mesh import forked


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
    assert np.array_equal(mesh.faces, load_mesh(mesh_path).faces)
    face_lines = out_ply.read_text().splitlines()[-mesh.num_cells:]
    palette = DEFAULT_PALETTE[:3]  # one colour per class of the 3-class model
    assert [line.split()[4:] for line in face_lines] == \
        [[str(c) for c in palette[k]] for k in labels]


def test_predict_colours_every_class_of_a_full_dentition(dataset, tmp_path):
    # 17 classes, more than DEFAULT_PALETTE's 10; the output bias picks class 12
    model = build_variant(ModelConfig(num_classes=17, k_neighbors=4, stream_widths=(4, 8),
                                      fusion_width=16, head_widths=(16, 8)))
    next(p for p in model.parameters() if p.name == "out.bias").tensor.data[12] = 1e3
    ckpt, out_ply, out_labels = tmp_path / "m.ckpt", tmp_path / "m.ply", tmp_path / "m.labels"
    save_checkpoint(model, ckpt)
    assert main(["predict", "--checkpoint", str(ckpt),
                 "--mesh", str(dataset / "test" / "arch_000.obj"),
                 "--out-ply", str(out_ply), "--out-labels", str(out_labels)]) == 0
    labels = load_labels(out_labels)
    assert set(labels.tolist()) == {12}
    colour = " ".join(map(str, class_colors(17)[12]))
    assert all(line.endswith(" " + colour)
               for line in out_ply.read_text().splitlines()[-len(labels):])


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
    assert (full / "train_log.tsv").read_bytes() == (half / "train_log.tsv").read_bytes()


def test_resume_after_crash_logs_each_epoch_once(dataset, tmp_path, monkeypatch):
    # the run dies in epoch 1's checkpoint write, after epoch 1's log row
    manifest, out = str(dataset / "manifest.tsv"), tmp_path / "run"
    three = [s if s != "train.epochs=2" else "train.epochs=3" for s in TINY]
    save, calls = training.save_checkpoint, []

    def crash_on_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("killed")
        save(*args)

    monkeypatch.setattr(training, "save_checkpoint", crash_on_second)
    with pytest.raises(RuntimeError):
        main(["train", "--manifest", manifest, "--out", str(out), *three])
    monkeypatch.setattr(training, "save_checkpoint", save)
    assert main(["train", "--manifest", manifest, "--out", str(out),
                 "--resume", str(out / "model.ckpt"), *three]) == 0
    assert [r.epoch for r in training.parse_log(out / "train_log.tsv")] == [0, 1, 2]
    assert (out / "train_log.tsv").read_text().startswith(training.LOG_HEADER + "\n")


def test_resume_killed_in_its_first_step_keeps_the_log(dataset, tmp_path):
    # the killed run is a fresh interpreter that dies in its first Adam step
    # with no exception, so no buffer is flushed on the way out
    manifest, full, run = str(dataset / "manifest.tsv"), tmp_path / "full", tmp_path / "run"
    epochs = [[s if s != "train.epochs=2" else f"train.epochs={n}" for s in TINY] for n in (3, 6)]
    resume = ["train", "--manifest", manifest, "--out", str(run), "--resume",
              str(run / "model.ckpt")]
    assert main(["train", "--manifest", manifest, "--out", str(full), *epochs[0]]) == 0
    assert main(["train", "--manifest", manifest, "--out", str(run), *TINY]) == 0
    killed = ("import os, sys\nfrom meshseg import cli, training\n"
              "training.Adam.step = lambda self, lr: os._exit(9)\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", killed, *resume, *epochs[1]],
                          env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 9, proc.stderr
    assert main([*resume, *epochs[0]]) == 0
    assert (run / "train_log.tsv").read_bytes() == (full / "train_log.tsv").read_bytes()


def test_failed_rename_keeps_the_old_file_and_no_temp_file(dataset, tmp_path, monkeypatch,
                                                            capsys):
    ckpt, model = tmp_path / "m.ckpt", tiny_model()
    save_checkpoint(model, ckpt)
    old = ckpt.read_bytes()

    def no_space(src, dst):
        raise OSError(28, "No space left on device", dst)

    monkeypatch.setattr(os, "replace", no_space)
    model.parameters()[0].tensor.data += 1.0
    with pytest.raises(OSError):
        save_checkpoint(model, ckpt)
    assert ckpt.read_bytes() == old and os.listdir(tmp_path) == ["m.ckpt"]
    assert main(["predict", "--checkpoint", str(ckpt), "--mesh",
                 str(dataset / "test" / "arch_000.obj"), "--out-ply",
                 str(tmp_path / "out.ply")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "out.ply" in err[0]
    assert os.listdir(tmp_path) == ["m.ckpt"]


def killed_at(argv, stop):
    """The exit code of main(argv) in a forked child that calls os._exit(9)
    at its file event number `stop`: events are just before and just after
    each os.replace and each train-log row write (a row is flushed as it is
    written)."""
    def run():
        events = itertools.count(1)

        def event():
            if next(events) == stop:
                os._exit(9)

        def replace(src, dst, real=os.replace):
            event()
            real(src, dst)
            event()

        class Log:  # the train log, which cmd_train opens for append
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                event()
                self.fh.write(text)

            def flush(self):
                self.fh.flush()
                event()

        os.replace = replace
        cli.open = lambda path, mode: Log(open(path, mode))
        return main(argv)

    return forked(run)


KILL_SYNTH = ["synth", "--out", "{dir}/data", "--n-train", "2", "--n-test", "1",
              "--teeth", "2", "--cells", "200", "--seed", "5"]
KILL_TRAIN = ["train", "--manifest", "{data}/manifest.tsv", "--out", "{dir}/run", *TINY]
# run -> (its commands, each run after the ones before it; the directory they write)
KILL_RUNS = {
    "synth": ([KILL_SYNTH], "data"),
    "train-then-resume": ([KILL_TRAIN, [*KILL_TRAIN, "--resume", "{dir}/run/model.ckpt",
                                        "--set", "train.epochs=3"]], "run"),
    "ablate": ([["ablate", "--manifest", "{data}/manifest.tsv", "--out", "{dir}/ablation",
                 "--variants", "full,coords-only", *TINY]], "ablation"),
}


@pytest.fixture(scope="module")
def kill_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("kill")
    assert main([a.format(dir=root) for a in KILL_SYNTH]) == 0
    return root / "data"


def file_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("run", sorted(KILL_RUNS))
def test_run_killed_at_any_file_event_reruns_to_the_uninterrupted_outputs(
        run, kill_data, tmp_path, capsys):
    # after each kill the command is run again, a train from its checkpoint
    # if one was written, then the commands after it; a rerun may instead
    # refuse with one error line (synth, once its manifest is in place)
    commands, out = KILL_RUNS[run]

    def argv_in(directory, argv):
        return [a.format(dir=directory, data=kill_data) for a in argv]

    for argv in commands:
        assert main(argv_in(tmp_path / "whole", argv)) == 0
    expected = file_bytes(tmp_path / "whole" / out)
    for i, argv in enumerate(commands):
        start = tmp_path / f"start{i}"
        start.mkdir()
        for before in commands[:i]:
            assert main(argv_in(start, before)) == 0
        for stop in itertools.count(1):
            work = tmp_path / f"killed{i}-{stop}"
            shutil.copytree(start, work)
            code = killed_at(argv_in(work, argv), stop)
            if code == 0:  # the command has fewer events than `stop`
                break
            assert code == 9, (i, stop)
            rerun = argv_in(work, argv)
            ckpt = work / out / "model.ckpt"
            if argv[0] == "train" and "--resume" not in argv and ckpt.exists():
                rerun += ["--resume", str(ckpt)]
            capsys.readouterr()
            code = main(rerun)
            err = capsys.readouterr().err.splitlines()
            assert code == 0 or (code == 1 and len(err) == 1 and err[0].startswith("error: ")), \
                (i, stop, err)
            for after in commands[i + 1:]:
                assert main(argv_in(work, after)) == 0
            assert file_bytes(work / out) == expected, (i, stop)
            shutil.rmtree(work)
        assert stop > 2, (i, stop)  # at least one os.replace was killed on both sides


def test_removed_fixed_augmentation_key_is_a_usage_error(dataset, tmp_path, capsys):
    cfg = tmp_path / "resolved.cfg"
    cfg.write_text("train.augment = true\ntrain.fixed_augmentation = true\n")
    code = main(["train", "--manifest", str(dataset / "manifest.tsv"),
                 "--out", str(tmp_path / "run"), "--config", str(cfg), *TINY])
    assert code == 2
    assert "'fixed_augmentation'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_resume_from_inference_checkpoint_fails_cleanly(dataset, tmp_path, capsys):
    ckpt = tmp_path / "plain.ckpt"
    save_checkpoint(build_variant(ModelConfig(num_classes=3, k_neighbors=4,
                                              stream_widths=(4, 8), fusion_width=16,
                                              head_widths=(16, 8))), ckpt)
    code = main(["train", "--manifest", str(dataset / "manifest.tsv"),
                 "--out", str(tmp_path / "run"), "--resume", str(ckpt), *TINY])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(ckpt) in err[0]


def test_train_checkpoint_holds_adam_counters(trained):
    config, arrays = load_checkpoint(trained / "model.ckpt")
    assert arrays["optimizer.counters"].tolist() == [4.0, 2.0]  # 2 batches x 2 epochs
    assert not list(trained.glob("*.tmp"))


VERTICES = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
TRIANGLE_OBJ = VERTICES + "f 1 2 3\n"
PLY_HEADER = ("ply\nformat ascii 1.0\nelement vertex {n}\nproperty float x\n"
              "property float y\nproperty float z\nelement face 1\n"
              "property list uchar int vertex_indices\nend_header\n")
PREDICT = ["predict", "--checkpoint", "{ckpt}", "--mesh", "{dir}/m.{ext}",
           "--out-ply", "{dir}/out.ply"]
EVAL = ["eval", "--checkpoint", "{ckpt}", "--manifest", "{dir}/manifest.tsv"]
ONE_ROW = "m.obj\tm.labels\ttest\t0\n"
GRID_OBJ = "".join(f"v {i} {j} 0\n" for i in range(3) for j in range(3)) + "".join(
    f"f {a} {a + 3} {a + 1}\nf {a + 1} {a + 3} {a + 4}\n" for a in (1, 2, 4, 5))

TRAIN_FILES = {"m.obj": GRID_OBJ, "m.labels": "0\n1\n" * 4,
               "manifest.tsv": "m.obj\tm.labels\ttrain\t0\n"}
TRAIN = ["train", "--manifest", "{dir}/manifest.tsv", "--out", "{dir}/run",
         "--set", "model.k_neighbors=4", "--set"]

# case -> (files to write, command line, location the error must name[,
# exit code 2 for a usage error])
BAD_INPUTS = {
    "obj-face-index": ({"m.obj": VERTICES + "f 1 2 x\n"}, PREDICT, "m.obj:4"),
    "obj-face-index-beyond-int64": ({"m.obj": VERTICES + "f 1 2 99999999999999999999\n"},
                                    PREDICT, "m.obj:4: a vertex index does not fit int64"),
    "obj-vertex-coordinate": ({"m.obj": "v 0 0 zz\n" + TRIANGLE_OBJ}, PREDICT, "m.obj:1"),
    "obj-without-faces": ({"m.obj": VERTICES}, PREDICT, "m.obj"),
    "ply-body-short": ({"m.ply": PLY_HEADER.format(n=3) + "0 0 0\n1 0 0\n"},
                       PREDICT, "m.ply:11"),
    "ply-vertex-count": ({"m.ply": PLY_HEADER.format(n="abc") + "0 0 0\n"},
                         PREDICT, "m.ply:3"),
    # the malformed line 12 was named, though line 10 comes first
    "ply-non-finite-before-malformed-vertex": (
        {"m.ply": PLY_HEADER.format(n=3) + "0 nan 0\n1 0 0\n0 x 0\n3 0 1 2\n"},
        PREDICT, "m.ply:10: non-finite coordinate"),
    # these three were named by file only, with a literal V for the vertex count
    "obj-face-outside-vertices": ({"m.obj": VERTICES + "f 1 2 4\n"}, PREDICT,
                                  "m.obj:4: face references a vertex outside [0, 3)"),
    "ply-face-outside-vertices": ({"m.ply": PLY_HEADER.format(n=3) + "0 0 0\n1 0 0\n0 1 0\n"
                                   "3 0 1 3\n"}, PREDICT,
                                  "m.ply:13: face references a vertex outside [0, 3)"),
    "obj-face-repeats-vertex": ({"m.obj": VERTICES + "f 1 1 3\n"}, PREDICT,
                                "m.obj:4: face repeats a vertex"),
    # the mismatch was blamed on the mesh file
    "labels-count-mismatch": ({"m.obj": TRIANGLE_OBJ, "m.labels": "0\n1\n",
                               "manifest.tsv": ONE_ROW}, EVAL,
                              "m.labels: 2 labels for the 1 cells of "),
    "labels-not-integer": ({"m.obj": TRIANGLE_OBJ, "m.labels": "0\nx\n",
                            "manifest.tsv": ONE_ROW}, EVAL, "m.labels:2"),
    "labels-beyond-int64": ({"m.obj": TRIANGLE_OBJ, "m.labels": "99999999999999999999\n",
                             "manifest.tsv": ONE_ROW}, EVAL,
                            "m.labels:1: a label does not fit int64"),
    "manifest-short-row": ({"manifest.tsv": "# header\nm.obj\tm.labels\ttest\n"},
                           EVAL, "manifest.tsv:2"),
    # an empty first or last field was stripped away with the line's tabs,
    # so these 5-field rows read as valid 4-field rows
    "manifest-empty-last-field": ({"manifest.tsv": "a.obj\ta.labels\ttest\t0\t\n"}, EVAL,
                                  "manifest.tsv:1: expected 4 tab-separated fields "
                                  "(mesh, labels, split, seed), got 5"),
    "manifest-empty-first-field": ({"manifest.tsv": "\tb.obj\tb.labels\ttrain\t1\n"}, EVAL,
                                   "manifest.tsv:1: expected 4 tab-separated fields "
                                   "(mesh, labels, split, seed), got 5"),
    # a byte that is not UTF-8: a UnicodeDecodeError traceback for the manifest
    "obj-not-utf8": ({"m.obj": b"v 0 0 0\nv 1 0 \xff\nv 0 1 0\nf 1 2 3\n"}, PREDICT,
                     "m.obj:2: not UTF-8 text"),
    "ply-not-utf8": ({"m.ply": PLY_HEADER.format(n=3).encode() + b"0 0 0\n1 0 0\n0 \xff 0\n"
                      b"3 0 1 2\n"}, PREDICT, "m.ply:12: not UTF-8 text"),
    "labels-not-utf8": ({"m.obj": TRIANGLE_OBJ, "m.labels": b"0\n\xff\n",
                         "manifest.tsv": ONE_ROW}, EVAL, "m.labels:2: not UTF-8 text"),
    "manifest-not-utf8": ({"manifest.tsv": b"# header\nm.obj\tm.labels\ttest\t\xff\n"},
                          EVAL, "manifest.tsv:2: not UTF-8 text"),
    "synth-no-training-meshes": ({}, ["synth", "--out", "{dir}", "--n-train", "0"],
                                 "n_train"),
    "synth-negative-seed": ({}, ["synth", "--out", "{dir}", "--seed", "-1"], "seed"),
    # left an empty train/ directory behind
    "synth-no-teeth": ({}, ["synth", "--out", "{dir}/data", "--teeth", "0"], "num_teeth"),
    # a spec that fails in generate, not in the checks before it: an empty train/ was left
    "synth-classes-empty": ({}, ["synth", "--out", "{dir}/small", "--n-train", "1",
                                 "--n-test", "1", "--teeth", "2", "--cells", "20"], "classes"),
    # a _ArrayMemoryError traceback
    "synth-too-many-cells": ({}, ["synth", "--out", "{dir}/data", "--cells", "100000000000"],
                             "cells_target must be at most"),
    "mesh-fewer-cells-than-k": ({"m.obj": TRIANGLE_OBJ}, PREDICT, "k=4"),
    "checkpoint-nan-parameter": ({"m.obj": GRID_OBJ},
                                 [a.replace("{ckpt}", "{nan_ckpt}") for a in PREDICT],
                                 "c1.att.bias"),
    "checkpoint-overflowing-weight": ({"m.obj": GRID_OBJ},
                                      [a.replace("{ckpt}", "{huge_ckpt}") for a in PREDICT],
                                      "KNN input"),
    # layers this wide were a _ArrayMemoryError traceback
    "checkpoint-too-wide": ({"m.obj": GRID_OBJ},
                            [a.replace("{ckpt}", "{wide_ckpt}") for a in PREDICT],
                            "layer width must be in [1, "),
    # numpy's overflow warning came before the error line
    "mesh-beyond-float32": ({"m.obj": GRID_OBJ.replace(" 0\n", "e39 0\n")}, PREDICT,
                            "non-finite feature values"),
    # an OSError other than a missing or existing file used to escape as a traceback
    "checkpoint-is-a-directory": ({"m.obj": GRID_OBJ},
                                  [a.replace("{ckpt}", "{dir}") for a in PREDICT],
                                  "Is a directory"),
    "manifest-is-a-directory": ({}, [a.replace("{dir}/manifest.tsv", "{dir}") for a in EVAL],
                                "Is a directory"),
    "out-ply-is-a-directory": ({"m.obj": GRID_OBJ},
                               [a.replace("{dir}/out.ply", "{dir}") for a in PREDICT],
                               "Is a directory"),
    # a translation this far beyond the mesh's size collapsed every face
    # (1e30: one warning per face, then training on the wreck, exit 0) or
    # overflowed the float32 features (8.98e307: a numpy warning first);
    # both are usage errors, exit 2
    "translation-collapses-mesh": (TRAIN_FILES, TRAIN + ["train.translation_range=1e30"],
                                   "translation_range must be at most", 2),
    "translation-overflows-features": (TRAIN_FILES,
                                       TRAIN + ["train.translation_range=8.98e307"],
                                       "translation_range must be at most", 2),
}


def tiny_model():
    return build_variant(ModelConfig(num_classes=3, k_neighbors=4, stream_widths=(4, 8),
                                     fusion_width=16, head_widths=(16, 8)))


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    save_checkpoint(tiny_model(), path)
    return path


@pytest.fixture(scope="module")
def edited_checkpoints(tmp_path_factory):
    # structurally valid: every record present with its shape, one value edited;
    # a NaN, and a finite weight whose activations overflow float32
    paths = {}
    for key, name, value in (("nan_ckpt", "c1.att.bias", np.nan),
                             ("huge_ckpt", "c1.calibrate.weight", 1e30)):
        model = tiny_model()
        next(p for p in model.parameters() if p.name == name).tensor.data[...] = value
        paths[key] = tmp_path_factory.mktemp("ckpt") / f"{key}.ckpt"
        save_checkpoint(model, paths[key])
    # a config JSON naming a layer no machine can allocate
    raw = paths["nan_ckpt"].read_bytes()
    (n,) = struct.unpack("<I", raw[6:10])
    config = raw[10:10 + n].replace(b'"fusion_width": 16', b'"fusion_width": 100000000000000')
    assert config != raw[10:10 + n]
    paths["wide_ckpt"] = paths["nan_ckpt"].with_name("wide_ckpt.ckpt")
    paths["wide_ckpt"].write_bytes(raw[:6] + struct.pack("<I", len(config)) + config
                                   + raw[10 + n:])
    return paths


def src_env():
    """The environment for a fresh interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_cli(argv, expected_code, prefix):
    """Run the CLI in a fresh interpreter; returns its one stderr line after
    checking the exit code, the `prefix` and that no traceback was printed."""
    proc = subprocess.run([sys.executable, "-m", "meshseg.cli", *map(str, argv)],
                          env=src_env(), capture_output=True, text=True, timeout=120)
    err = proc.stderr.strip().splitlines()
    assert "Traceback" not in proc.stderr
    assert proc.returncode == expected_code, proc.stderr
    assert len(err) == 1 and err[0].startswith(prefix), proc.stderr
    return err[0]


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_one_error_line(case, tiny_checkpoint, edited_checkpoints, tmp_path):
    files, argv, location, *usage = BAD_INPUTS[case]
    for name, data in files.items():
        (tmp_path / name).write_bytes(data.encode() if isinstance(data, str) else data)
    ext = "ply" if "m.ply" in files else "obj"
    argv = [a.format(ckpt=tiny_checkpoint, dir=tmp_path, ext=ext, **edited_checkpoints)
            for a in argv]
    code, prefix = (2, "usage error: ") if usage == [2] else (1, "error: ")
    assert location in run_cli(argv, code, prefix)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)  # nothing written


GRID_PLY = (PLY_HEADER.format(n=9).replace("face 1", "face 8")
            + "".join(f"{i} {j} 0\n" for i in range(3) for j in range(3))
            + "".join(f"3 {a - 1} {a + 2} {a}\n3 {a} {a + 2} {a + 3}\n" for a in (1, 2, 4, 5)))
FUZZ_CFG = ("# settings\nmodel.num_classes = 3\nmodel.leaky_slope = 0.2\n"
            "train.lr0 = 0.001\ntrain.seed = 0\ntrain.augment = false\n")
# file kind -> (valid files, the one to mutate, the command that reads it); the
# TINY settings after --config keep every training run small
FUZZ_CASES = {
    "obj": ({"m.obj": GRID_OBJ}, "m.obj", PREDICT),
    "ply": ({"m.ply": GRID_PLY}, "m.ply", PREDICT),
    "labels": (TRAIN_FILES, "m.labels", EVAL + ["--split", "train"]),
    "manifest": (TRAIN_FILES, "manifest.tsv", EVAL + ["--split", "train"]),
    "cfg": ({**TRAIN_FILES, "m.cfg": FUZZ_CFG}, "m.cfg",
            ["train", "--manifest", "{dir}/manifest.tsv", "--out", "{dir}/run",
             "--config", "{dir}/m.cfg", *TINY]),
    # the log of the finished `tiny_run`, resumed with no epoch left to train
    "train_log": ({**TRAIN_FILES, "train_log.tsv": None}, "train_log.tsv",
                  ["train", "--manifest", "{dir}/manifest.tsv", "--out", "{dir}",
                   "--resume", "{run}/model.ckpt", *TINY]),
}
FUZZ_BYTES = (b"\xff", b"nan", b"1e999", b"\t", b"\n", b"12345678901234567890", b"-", b"0")


@st.composite
def mutated(draw, data):
    """`data` after one to three edits: truncated, or bytes overwritten,
    inserted or deleted at a drawn offset."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("truncate", "overwrite", "insert", "delete")))
        if edit == "truncate":
            data = data[:at]
        elif edit == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 4)):]
        else:
            token = draw(st.sampled_from(FUZZ_BYTES))
            data = data[:at] + token + data[at + (len(token) if edit == "overwrite" else 0):]
    return data


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """The --out directory of a finished TINY run on TRAIN_FILES."""
    root = tmp_path_factory.mktemp("tiny_run")
    for name, text in TRAIN_FILES.items():
        (root / name).write_text(text)
    assert main(["train", "--manifest", str(root / "manifest.tsv"),
                 "--out", str(root / "run"), *TINY]) == 0
    return root / "run"


@pytest.mark.parametrize("kind", sorted(FUZZ_CASES))
def test_mutated_input_fails_with_one_error_line(kind, tiny_checkpoint, tiny_run):
    files, target, argv = FUZZ_CASES[kind]
    files = {name: (tiny_run / name).read_text() if text is None else text
             for name, text in files.items()}

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(mutated(files[target].encode()))
    def run(data):
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                Path(tmp, name).write_bytes(data if name == target else text.encode())
            args = [a.format(ckpt=tiny_checkpoint, dir=tmp, ext=target[-3:], run=tiny_run)
                    for a in argv]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err, \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")  # a warning is a stderr line too
                code = main(args)  # an exception escaping main fails the case
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        assert code in (0, 1, 2), lines
        if code:
            assert len(lines) == 1, lines
            assert lines[0].startswith(("error: ", "usage error: ")[code - 1]), lines

    run()


# --set value -> what the usage error must name; each used to crash or to
# write the checkpoint of an untrained model
BAD_TRAIN_VALUES = {
    "train.batch_size=0": "batch_size must be >= 1, got 0",
    "train.batch_size=-2": "batch_size must be >= 1, got -2",
    "train.decay_every=0": "decay_every must be >= 1, got 0",
    "train.epochs=-3": "epochs must be >= 0, got -3",
    # Adam's bias correction divided by zero, or the run trained uphill
    "train.beta1=1": "beta1 must be finite and in [0, 1), got 1.0",
    "train.beta2=1": "beta2 must be finite and in [0, 1), got 1.0",
    "train.lr0=-1": "lr0 must be finite and > 0, got -1.0",
    "train.lr0=nan": "lr0 must be finite and > 0, got nan",
    "train.eps=0": "eps must be finite and > 0, got 0.0",
    "train.seed=-1": "seed must be >= 0, got -1",  # was a numpy ValueError traceback
    # uniform(-r, r) overflowed its span 2r: an OverflowError traceback
    "train.translation_range=1e308":
        "translation_range must be finite and in [0, max float / 2], got 1e+308",
    # NaN was reported as non-finite KNN input; -1 was a numpy traceback
    "model.leaky_slope=nan": "leaky_slope must be finite and in [0, 1), got nan",
    "model.leaky_slope=-0.1": "leaky_slope must be finite and in [0, 1), got -0.1",
    "model.seed=-1": "seed must be >= 0, got -1",
    # weights or logits this large were a _ArrayMemoryError or a ValueError traceback
    "model.fusion_width=100000000000000": "every layer width must be in [1, 4096]",
    "model.head_widths=16,5000": "every layer width must be in [1, 4096]",
    "model.num_classes=99999999999999999999": "num_classes must be at most 1024",
}


@pytest.mark.parametrize("setting", sorted(BAD_TRAIN_VALUES))
def test_bad_train_value_is_a_usage_error(setting, dataset, tmp_path):
    out = tmp_path / "run"
    err = run_cli(["train", "--manifest", dataset / "manifest.tsv", "--out", out,
                   *TINY, "--set", setting], 2, "usage error: ")
    assert BAD_TRAIN_VALUES[setting] in err
    assert not out.exists()


def mixed_cell_count_manifest(dataset, tmp_path, small_split="train"):
    """A manifest of a training mesh of `dataset` and a mesh of about 200
    cells in `small_split`."""
    other = tmp_path / "small"
    assert main(["synth", "--out", str(other), "--n-train", "1", "--n-test", "1",
                 "--teeth", "2", "--cells", "200", "--seed", "6"]) == 0
    rows = []
    for root, want in ((dataset, "train"), (other, small_split)):
        lines = (root / "manifest.tsv").read_text().splitlines()[1:]  # after the header
        mesh, labels, split, seed = next(r for r in lines if r.split("\t")[2] == want).split("\t")
        rows.append(f"{root / mesh}\t{root / labels}\t{split}\t{seed}\n")
    manifest = tmp_path / "mixed.tsv"
    manifest.write_text("".join(rows))
    return manifest


TOO_FAR = ["--set", "train.augment=true", "--set", "train.translation_range=1e30"]
# training-set check -> (command, split of a ~200-cell mesh added to one
# training mesh or None for the 300-cell dataset, extra arguments, exit code,
# stderr prefix, text the error must name); the model-versus-data ones used
# to fail at the first training step or after the first variant's training,
# once --out was made
FAILED_TRAINING_SETS = {
    "translation-bound": ("train", None, TOO_FAR, 2, "usage error: ",
                          "translation_range must be at most"),
    "mixed-cell-counts": ("train", "train", [], 1, "error: ", "must share a cell count"),
    "k-beyond-cells": ("train", None, ["--set", "model.k_neighbors=5000"], 1, "error: ",
                       "cells cannot support k=5000"),
    "label-beyond-classes": ("train", None, ["--set", "model.num_classes=2"], 1, "error: ",
                             "label 2 outside [0, 2)"),
    "ablate-k-beyond-cells": ("ablate", None, ["--set", "model.k_neighbors=5000"], 1,
                              "error: ", "cells cannot support k=5000"),
    "ablate-k-beyond-test-cells": ("ablate", "test", ["--set", "model.k_neighbors=250"], 1,
                                   "error: ", "cells cannot support k=250"),
}


@pytest.mark.parametrize("case", sorted(FAILED_TRAINING_SETS))
def test_failed_training_set_check_leaves_no_out_dir(case, dataset, tmp_path):
    command, small_split, extra, code, prefix, text = FAILED_TRAINING_SETS[case]
    manifest = mixed_cell_count_manifest(dataset, tmp_path, small_split) \
        if small_split else dataset / "manifest.tsv"
    out = tmp_path / "run"
    assert text in run_cli([command, "--manifest", manifest, "--out", out, *TINY, *extra],
                           code, prefix)
    assert not out.exists()


def test_failed_resume_leaves_the_run_as_it_was(dataset, tmp_path):
    manifest, out = dataset / "manifest.tsv", tmp_path / "run"
    assert main(["train", "--manifest", str(manifest), "--out", str(out), *TINY]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert {"resolved.cfg", "train_log.tsv", "model.ckpt"} <= set(before)
    four = [s if s != "train.epochs=2" else "train.epochs=4" for s in TINY]
    run_cli(["train", "--manifest", manifest, "--out", out,
             "--resume", out / "model.ckpt", *four, *TOO_FAR], 2, "usage error: ")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_resume_with_undecodable_log_leaves_the_run_as_it_was(dataset, tmp_path):
    manifest, out = dataset / "manifest.tsv", tmp_path / "run"
    assert main(["train", "--manifest", str(manifest), "--out", str(out), *TINY]) == 0
    log = out / "train_log.tsv"
    log.write_bytes(log.read_bytes().replace(b"\n1\t", b"\n1\xff\t"))  # epoch 1's row
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    four = [s if s != "train.epochs=2" else "train.epochs=4" for s in TINY]
    err = run_cli(["train", "--manifest", manifest, "--out", out,
                   "--resume", out / "model.ckpt", *four], 1, "error: ")
    assert err == f"error: {log}:3: not UTF-8 text"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_resume_with_malformed_log_row_leaves_the_run_as_it_was(dataset, tmp_path):
    manifest, out = dataset / "manifest.tsv", tmp_path / "run"
    assert main(["train", "--manifest", str(manifest), "--out", str(out), *TINY]) == 0
    log = out / "train_log.tsv"
    lines = log.read_text().splitlines()
    log.write_text("\n".join([*lines[:2], "1\tgarbage"]) + "\n")  # epoch 1's row
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    four = [s if s != "train.epochs=2" else "train.epochs=4" for s in TINY]
    err = run_cli(["train", "--manifest", manifest, "--out", out,
                   "--resume", out / "model.ckpt", *four], 1, "error: ")
    assert err == (f"error: {log}:3: expected 4 tab-separated fields "
                   f"(epoch, lr, mean_loss, train_oa), got 2")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_resume_into_out_without_log_writes_only_new_epochs(dataset, tmp_path):
    manifest, first, second = dataset / "manifest.tsv", tmp_path / "a", tmp_path / "b"
    assert main(["train", "--manifest", str(manifest), "--out", str(first), *TINY]) == 0
    four = [s if s != "train.epochs=2" else "train.epochs=4" for s in TINY]
    assert main(["train", "--manifest", str(manifest), "--out", str(second),
                 "--resume", str(first / "model.ckpt"), *four]) == 0
    assert [r.epoch for r in training.parse_log(second / "train_log.tsv")] == [2, 3]
    assert (second / "train_log.tsv").read_text().startswith(training.LOG_HEADER + "\n")


def test_zero_epochs_is_valid(dataset, tmp_path):
    code = main(["train", "--manifest", str(dataset / "manifest.tsv"),
                 "--out", str(tmp_path / "run"), *TINY, "--set", "train.epochs=0"])
    assert code == 0
    assert load_checkpoint(tmp_path / "run" / "model.ckpt")[1]["optimizer.counters"].tolist() \
        == [0.0, 0.0]


# config file bytes -> (line the error must name, text it must contain)
BAD_CONFIG_FILES = {
    "unparseable-value": (b"train.augment = false\ntrain.epochs = abc\n", 2,
                          "cannot parse value 'abc' for key 'train.epochs'"),
    "unknown-key": (b"# settings\n\ntrain.epoch = 3\n", 3, "unknown train config key 'epoch'"),
    "missing-equals": (b"model.num_classes = 3\nmodel.k_neighbors 4\n", 2,
                       "expected key = value"),
    "unknown-section": (b"data.path = x\n", 1, "unknown config section 'data'"),
    "not-utf8": (b"train.seed = 1\ntrain.epochs = \xff\n", 2, "not UTF-8 text"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_FILES))
def test_config_file_error_names_path_and_line(case, dataset, tmp_path):
    data, line, text = BAD_CONFIG_FILES[case]
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(data)
    err = run_cli(["train", "--manifest", dataset / "manifest.tsv",
                   "--out", tmp_path / "run", "--config", cfg], 2, "usage error: ")
    assert f"{cfg}:{line}: " in err and text in err


def test_override_error_names_the_override(dataset, tmp_path, capsys):
    code = main(["train", "--manifest", str(dataset / "manifest.tsv"),
                 "--out", str(tmp_path / "run"), "--set", "train.epochs=abc"])
    assert code == 2
    err = capsys.readouterr().err
    assert "'train.epochs'" in err and "'abc'" in err


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
    # mutation oracle: denormalize the attention softmax, which both the
    # layer's pooling and its weights() read, and the normalization check
    # must fail with a nonzero exit
    import meshseg.tensor as tensor_mod
    from meshseg.knn import build_knn_graph
    from meshseg.layers import GraphAttentionLayer

    real = tensor_mod.edge_softmax

    def broken(*args):
        return real(*args) * 1.01

    features = np.random.default_rng(0).normal(size=(12, 3)).astype(np.float32)
    graph = build_knn_graph(features, 4)
    layer = GraphAttentionLayer("a", 3, 5, np.random.default_rng(1))
    before = layer.forward(tensor_mod.Tensor(features), graph).data
    monkeypatch.setattr(tensor_mod, "edge_softmax", broken)
    # the patch reaches the weights the layer pools with
    assert not np.array_equal(layer.forward(tensor_mod.Tensor(features), graph).data, before)
    code = main(["verify", "--quick"])
    out = capsys.readouterr().out
    assert code == 1
    assert any("FAIL" in line and "attention normalization" in line
               for line in out.splitlines())


def test_generalization_check_fails_without_its_baseline(monkeypatch, tmp_path):
    from meshseg import verify

    with open(verify.BASELINE_PATH) as fh:
        frozen = json.load(fh)["test_miou"]
    assert verify.check_generalization({"full": (0.95, frozen)}).passed
    missing = str(tmp_path / "generalization.json")
    monkeypatch.setattr(verify, "BASELINE_PATH", missing)
    result = verify.check_generalization({"full": (0.95, frozen)})
    assert not result.passed
    assert missing in result.detail


def test_out_dir_env_var(dataset, tmp_path, monkeypatch):
    monkeypatch.setenv("MESHSEG_OUT", str(tmp_path / "envout"))
    from meshseg.cli import build_parser

    args = build_parser().parse_args(["synth"])
    assert args.out == str(tmp_path / "envout")
