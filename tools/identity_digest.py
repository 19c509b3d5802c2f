#!/usr/bin/env python3
"""One sha256 over everything a change that claims bit-identical arithmetic
must keep: run it in two checkouts and compare the last lines.

    python3 tools/identity_digest.py [CHECKOUT]

CHECKOUT is the repository root whose src/ is imported (default: the one
holding this script), so one copy of the script can digest another
checkout.  For every model variant, at desk widths in float32 and float64
and at configs/full.cfg widths in float32, on two synthetic arches, it
hashes two training steps.  Each step covers train-mode logits, the loss,
every parameter gradient and the batch-norm running statistics, then
checkpoint bytes after one Adam step.  It also covers the taped eval-mode
logits and their gradients, the no_tape() eval logits and `predict`
labels.  Between the steps every batch norm gets gamma of both signs and
running statistics away from (0, 1), as training leaves them, so the
second step also runs the paths that only such values reach.  One line
per (widths, dtype, variant) part, then the total.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

CELLS = 300  # per arch; two arches per batch
LR = 1e-3


def import_meshseg(root):
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import meshseg

    if not os.path.abspath(meshseg.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: meshseg imported from {meshseg.__file__}, not {src}")


def trained_looking(model, rng):
    for st in model.bn_states().values():
        dtype = st.gamma.data.dtype
        st.gamma.data = (rng.uniform(0.5, 1.5, size=st.channels)
                         * rng.choice([-1, 1], size=st.channels)).astype(dtype)
        st.beta.data = rng.normal(scale=0.3, size=st.channels).astype(dtype)
        st.running_mean = rng.normal(size=st.channels).astype(dtype)
        st.running_var = rng.uniform(0.5, 2.0, size=st.channels).astype(dtype)


def digest_variant(model, feats, labels, workdir):
    from meshseg.model import cross_entropy, save_checkpoint
    from meshseg.tensor import no_tape
    from meshseg.training import Adam

    h = hashlib.sha256()

    def add(*arrays):
        for a in arrays:
            a = np.asarray(a)
            h.update(f"{a.dtype}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())

    def backward_of(logits):
        model.zero_grad()
        loss = cross_entropy(logits, labels, reduction="mean")
        loss.backward()
        add(logits.data, loss.data)
        add(*(p.tensor.grad for p in model.parameters()))

    adam = Adam(model.parameters())
    path = os.path.join(workdir, "model.ckpt")
    for step in range(2):
        if step:
            trained_looking(model, np.random.default_rng(11))
        backward_of(model.forward(feats, train=True))
        for st in model.bn_states().values():
            add(st.running_mean, st.running_var)
        adam.step(LR)
        save_checkpoint(model, path, adam)
        with open(path, "rb") as fh:
            h.update(fh.read())
        backward_of(model.forward(feats, train=False))
        with no_tape():
            add(model.forward(feats, train=False).data)
        add(model.predict(feats))
    return h.hexdigest()


def main(argv):
    if len(argv) > 1:
        raise SystemExit("usage: identity_digest.py [CHECKOUT]")
    root = argv[0] if argv else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    import_meshseg(root)
    from meshseg.config import parse_config_file
    from meshseg.model import VARIANT_OVERRIDES, build_variant, variant_config
    from meshseg.synth import generate
    from meshseg.training import inference_features
    from meshseg.verify import desk_arch_spec, desk_model_config

    spec = replace(desk_arch_spec(), cells_target=CELLS)
    arches = [generate(replace(spec, seed=s)) for s in (101, 102)]
    feats = [inference_features(m) for m in arches]
    labels = np.concatenate([m.labels for m in arches])
    full, _ = parse_config_file(os.path.join(root, "configs", "full.cfg"))
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        for widths, base, dtype in (("desk", desk_model_config(), np.float32),
                                    ("desk", desk_model_config(), np.float64),
                                    ("full", full, np.float32)):
            for name in sorted(VARIANT_OVERRIDES):
                model = build_variant(variant_config(base, name), dtype=dtype)
                part = digest_variant(model, feats, labels, workdir)
                print(f"{widths}\t{np.dtype(dtype).name}\t{name}\t{part}", flush=True)
                total.update(part.encode())
    print(f"total\t{total.hexdigest()}")


if __name__ == "__main__":
    main(sys.argv[1:])
