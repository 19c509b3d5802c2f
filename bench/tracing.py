"""Spans around the public entry points of each meshseg module.

The tracer patches module attributes and class methods from outside the
package, so the program itself is unchanged.  Spans are kept in memory as
(name, start, end, parent, op id) rows and written once when the run ends.
A span's self time is its duration minus the time its direct children
cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


def _instance_name(prefix):
    return lambda args: f"{prefix}.{args[0].name}"


def _fixed_name(name):
    return lambda args: name


class Tracer:
    """Span recorder that can be switched on and off between ops."""

    def __init__(self, ms):
        # (owner object, attribute, span namer); the namer sees the call's
        # positional arguments, so layer spans carry the layer's own name.
        self._targets = [
            (ms.synth, "generate", _fixed_name("synth.generate")),
            (ms.mesh, "load_mesh", _fixed_name("mesh.load")),
            (ms.mesh, "save_obj", _fixed_name("mesh.save")),
            (ms.mesh, "build_cell_features", _fixed_name("mesh.features")),
            # training and model bind these names at import time
            (ms.training, "build_cell_features", _fixed_name("mesh.features")),
            (ms.training, "augment_mesh", _fixed_name("training.augment")),
            (ms.training, "inference_features", _fixed_name("training.inference_features")),
            (ms.training.Adam, "step", _fixed_name("training.adam")),
            (ms.model, "build_block_knn_graph", _fixed_name("knn.build")),
            (ms.layers.GraphAttentionLayer, "forward", _instance_name("layers")),
            (ms.layers.GraphMaxPoolLayer, "forward", _instance_name("layers")),
            (ms.layers.SharedMLP, "__call__", _instance_name("layers")),
            (ms.model.TwoStreamNet, "forward", _fixed_name("model.forward")),
            (ms.model.TwoStreamNet, "predict", _fixed_name("model.predict")),
            (ms.model, "cross_entropy", _fixed_name("model.loss")),
            (ms.model, "save_checkpoint", _fixed_name("model.ckpt_save")),
            (ms.model, "load_model", _fixed_name("model.ckpt_load")),
            (ms.tensor.Tensor, "backward", _fixed_name("tensor.backward")),
            (ms.evaluation, "accumulate", _fixed_name("evaluation.accumulate")),
        ]
        self._saved = []
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self._stack = []
        self.op_id = None

    # -- patching ----------------------------------------------------------

    def install(self):
        if self._saved:
            return
        for owner, attr, namer in self._targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, namer))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, fn, namer):
        def traced(*args, **kwargs):
            idx = self.open(namer(args))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    # -- spans -------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def span_cost(self, calls=20000):
        """Seconds one traced call adds, from timing a traced no-op."""
        noop = self._wrap(lambda: None, _fixed_name("noop"))
        kept, op_id = len(self.spans), self.op_id
        self.op_id = None
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        cost = (time.perf_counter() - t0) / calls
        del self.spans[kept:]
        self.op_id = op_id
        return cost

    def summary(self):
        """{op id: {name: [total s, self s, calls]}} over closed spans."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for i, (name, start, end, _, op_id) in enumerate(self.spans):
            row = out[op_id][name]
            row[0] += end - start
            row[1] += end - start - child_time[i]
            row[2] += 1
        return out

    def write(self, path):
        rows = [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)
