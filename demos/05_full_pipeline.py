# End-to-end pipeline at toy scale: synthesize a dataset, train the
# two-stream model briefly, evaluate on held-out arches, and export a
# colored prediction.  Roughly two minutes on one CPU; the same flow is
# available from the command line (see README).

import tempfile
from pathlib import Path

from meshseg.evaluation import evaluate_model, format_report
from meshseg.mesh import DEFAULT_PALETTE, export_colored_mesh, load_mesh
from meshseg.model import ModelConfig, build_variant, load_model, save_checkpoint
from meshseg.synth import ArchSpec, make_dataset, read_manifest
from meshseg.training import TrainConfig, inference_features, train

workdir = Path(tempfile.mkdtemp(prefix="meshseg_demo_"))
spec = ArchSpec(num_teeth=4, cells_target=900, seed=11)
manifest, _ = make_dataset(spec, n_train=8, n_test=3, out_dir=workdir)
print("dataset:", manifest)

entries = read_manifest(manifest)
train_meshes = [load_mesh(e.mesh_path, labels_path=e.labels_path)
                for e in entries if e.split == "train"]
test_meshes = [load_mesh(e.mesh_path, labels_path=e.labels_path)
               for e in entries if e.split == "test"]

config = ModelConfig(num_classes=5, k_neighbors=8, stream_widths=(8, 16, 32),
                     fusion_width=64, head_widths=(64, 32), seed=0).validate()
model = build_variant(config)
train_cfg = TrainConfig(epochs=25, batch_size=4, lr0=1e-3, seed=0)
records, _ = train(model, train_meshes, train_cfg)
print(f"trained {len(records)} epochs; final loss {records[-1].mean_loss:.4f}, "
      f"train OA {records[-1].train_oa:.4f}")

ckpt = workdir / "model.ckpt"
save_checkpoint(model, ckpt)
model = load_model(ckpt)  # round-trips exactly

_, result = evaluate_model(model, test_meshes)
print("\nheld-out evaluation:")
print(format_report(result))

pred = model.predict(inference_features(test_meshes[0]))
out_ply = workdir / "prediction.ply"
export_colored_mesh(test_meshes[0], pred, DEFAULT_PALETTE[:5], out_ply)
agree = float((pred == test_meshes[0].labels).mean())
print(f"\nprediction for one test arch: {agree:.3f} agreement with ground "
      f"truth; colored mesh at {out_ply}")
