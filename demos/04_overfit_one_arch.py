# Sanity training run: a correct implementation must be able to memorize a
# single mesh.  Takes about half a minute on one CPU.

from meshseg.model import ModelConfig, build_variant
from meshseg.synth import ArchSpec, generate
from meshseg.training import TrainConfig, train

mesh = generate(ArchSpec(num_teeth=4, cells_target=1200, seed=3))
print(f"one arch, {mesh.num_cells} cells, 5 classes")

config = ModelConfig(num_classes=5, k_neighbors=8, stream_widths=(8, 16, 32),
                     fusion_width=64, head_widths=(64, 32), seed=0).validate()
model = build_variant(config)
print(f"model: {sum(p.tensor.data.size for p in model.parameters())} parameters")

train_cfg = TrainConfig(epochs=120, batch_size=1, lr0=1e-3, decay_every=100,
                        augment=False, seed=0)
records, _ = train(model, [mesh], train_cfg)

for r in records[::15] + [records[-1]]:
    bar = "#" * int(r.train_oa * 40)
    print(f"step {r.epoch:3d}  loss {r.mean_loss:.4f}  OA {r.train_oa:.4f} {bar}")

best = max(r.train_oa for r in records)
print(f"\nbest training accuracy: {best:.4f} (acceptance gate: >= 0.99)")
