"""The benchmark's tracer and probe patch meshseg by attribute name.

`bench/tracing.py` and `bench/checks.py` wrap module functions and class
methods from outside the package.  A refactor that moves or renames one of
them would silently drop spans or graphs from the benchmark, so this test
loads both files unchanged, installs them on the live modules, runs one
tiny training step and one prediction, and checks what they recorded.
"""

import argparse
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from meshseg import config, evaluation, layers, mesh, model, synth, tensor, training, verify
from meshseg.model import ModelConfig, build_variant
from meshseg.synth import ArchSpec

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def ms():
    # the namespace bench/run.py hands to Tracer and Probe
    return argparse.Namespace(config=config, evaluation=evaluation, layers=layers,
                              mesh=mesh, model=model, synth=synth, tensor=tensor,
                              training=training, verify=verify)


def test_tracer_and_probe_see_a_train_step_and_a_predict(ms, tmp_path, monkeypatch):
    tracing, checks = load_bench_module("tracing"), load_bench_module("checks")
    tracer, probe = tracing.Tracer(ms), checks.Probe(ms)
    # tag each target's namer so every target's span can be told apart
    hits = set()

    def tagged(i, namer):
        def name(args):
            hits.add(i)
            return namer(args)
        return name

    targets = tracer._targets
    tracer._targets = [(owner, attr, tagged(i, namer))
                       for i, (owner, attr, namer) in enumerate(targets)]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    originals += [(model, "build_block_knn_graph", model.build_block_knn_graph),
                  (model.TwoStreamNet, "forward", model.TwoStreamNet.__dict__["forward"])]

    try:
        probe.install()  # in bench/run.py's order: probe below the tracer
        tracer.install()
        meshes = [ms.synth.generate(ArchSpec(num_teeth=2, cells_target=200, seed=s))
                  for s in (1, 2)]
        obj, labels_path = tmp_path / "m.obj", tmp_path / "m.labels"
        ms.mesh.save_obj(meshes[0], obj)
        ms.mesh.save_labels(meshes[0].labels, labels_path)
        loaded = ms.mesh.load_mesh(obj, labels_path)

        cfg = ModelConfig(num_classes=3, k_neighbors=4, stream_widths=(4, 8),
                          fusion_width=8, head_widths=(8,), seed=1).validate()
        ckpt = tmp_path / "model.ckpt"
        ms.model.save_checkpoint(build_variant(cfg), ckpt)
        net = ms.model.load_model(ckpt)

        # one optimizer step, called the way bench/run.py's train op calls it
        tc = verify.desk_train_config()
        rng = np.random.default_rng(3)
        feats = [ms.mesh.build_cell_features(
            ms.training.augment_mesh(m, rng, tc.translation_range, tc.rotation_range),
            center=False).as_array() for m in ms.training.prepare_training_meshes(meshes, tc)]
        labels = np.concatenate([m.labels for m in meshes])
        loss = ms.model.cross_entropy(net.forward(feats, train=True), labels,
                                      reduction="mean")
        net.zero_grad()
        loss.backward()
        ms.training.Adam(net.parameters()).step(tc.lr0)
        graphs = probe.graphs
        probe.clear()
        first_predict_span = len(tracer.spans)
        monkeypatch.setattr(layers, "_CHUNK_ELEMS", 256)  # several row chunks per layer
        pred = net.predict(ms.training.inference_features(loaded))
        ms.evaluation.accumulate(ms.evaluation.ConfusionMatrix(3), pred, loaded.labels)
    finally:
        tracer.uninstall()
        probe.uninstall()

    missed = [f"{owner.__name__}.{attr}" for i, (owner, attr, _) in enumerate(targets)
              if i not in hits]
    assert not missed, f"traced targets that recorded no span: {missed}"
    names = {span[0] for span in tracer.spans}
    assert {"layers.c1", "layers.c2", "layers.n1", "layers.n2", "layers.fuse_c",
            "layers.fuse_n", "layers.head1", "knn.build", "model.forward"} <= names
    assert all(span[2] is not None for span in tracer.spans)
    # the tape-free, chunked predict still passes through every layer span
    predict_names = {span[0] for span in tracer.spans[first_predict_span:]}
    assert {"model.predict", "model.forward", "knn.build", "layers.c1", "layers.c2",
            "layers.n1", "layers.n2", "layers.c1.calibrate", "layers.n2.calibrate",
            "layers.fuse_c", "layers.fuse_n", "layers.head1"} <= predict_names
    assert sum(span[0] == "layers.c1.calibrate"
               for span in tracer.spans[first_predict_span:]) >= 3

    assert len(graphs) == len(probe.graphs) == 2, "one KNN graph per layer"
    for features, block_size, k, include_self, indices in graphs + probe.graphs:
        assert type(block_size) is int and block_size == loaded.num_cells
        assert (k, include_self) == (4, False)
        bad, _ = checks.check_knn_rows(features, block_size, k, include_self, indices,
                                       range(0, len(features), 17))
        assert bad == 0
    assert probe.logits.data.shape == (loaded.num_cells, 3)
    assert checks.tape_stats(probe.logits) == (1, probe.logits.data.nbytes)
    assert np.array_equal(np.argmax(probe.logits.data, axis=1), pred)

    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{attr} not restored"
