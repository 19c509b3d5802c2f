#!/usr/bin/env python3
"""meshseg benchmark: three single-process, closed-loop workloads.

Run from the repository root:

    python3 bench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

One caller drives meshseg's public functions and starts the next op only
when the previous one has returned.  Inputs are generated from --seed;
the program only sees the generated meshes, files and checkpoint.  Every
op's outputs are checked (KNN rows against a float64 brute force, finite
logits and losses, repeatable labels, a falling training loss) and a
failed check counts the op as failed.

--trace 0 times untraced ops and prints the end-to-end metrics.  --trace 1
alternates blocks of untraced and traced ops, prints the per-layer metrics from the
traced ones, and reports the tracing overhead as the ratio of the two
medians.  Times are calibrated against the host's drifting speed (see
calibrate.py).  The last line of stdout is one JSON object; the full
record (environment, sample counts, wall times, per-layer table) goes to
bench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import replace

import numpy as np

from calibrate import NOMINAL_S, Reference
from checks import Probe, check_knn_rows, tape_stats
from tracing import Tracer

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
N_SETUPS = 3  # setup_s is the median of this many full set-ups
KNN_ROWS = 64  # rows checked per graph
TRACE_BLOCK = 4  # a traced run alternates blocks of this many untraced and traced ops


def import_meshseg():
    """Import meshseg from ./src of the checkout, never from site-packages."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "meshseg", "__init__.py")):
        raise SystemExit("error: src/meshseg not found; run from the repository root")
    sys.path.insert(0, src)
    import meshseg
    from meshseg import (config, evaluation, layers, mesh, model, synth, tensor,
                         training, verify)

    if not os.path.abspath(meshseg.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: meshseg imported from {meshseg.__file__}, not {src}")
    return argparse.Namespace(config=config, evaluation=evaluation, layers=layers,
                              mesh=mesh, model=model, synth=synth, tensor=tensor,
                              training=training, verify=verify)


def blas_threads():
    """OpenBLAS's thread count, from the library numpy loaded when found."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    value = os.environ.get("OPENBLAS_NUM_THREADS")
    return int(value) if value else None


def environment():
    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads()
    if threads is not None and threads > nproc:
        raise SystemExit(f"error: {threads} BLAS threads on {nproc} cpus; "
                         "set OPENBLAS_NUM_THREADS")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "openblas": blas.get("version"),
            "blas_threads": threads, "machine": platform.machine()}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def write_meshes(ms, meshes, workdir):
    paths = []
    for i, m in enumerate(meshes):
        obj = os.path.join(workdir, f"mesh_{i:03d}.obj")
        labels = os.path.join(workdir, f"mesh_{i:03d}.labels")
        ms.mesh.save_obj(m, obj)
        ms.mesh.save_labels(m.labels, labels)
        paths.append((obj, labels))
    return paths


def model_from_checkpoint(ms, config, workdir):
    """Build the model, write its checkpoint and load it back."""
    path = os.path.join(workdir, "model.ckpt")
    ms.model.save_checkpoint(ms.model.build_variant(config), path)
    return ms.model.load_model(path)


def arches(ms, seed, split, count, cells):
    # seed 7, split 0 reproduces verify.desk_split's frozen training meshes
    spec = replace(ms.verify.desk_arch_spec(), cells_target=cells)
    return [ms.synth.generate(replace(spec, seed=ms.synth._derived_seed(seed, split, i)))
            for i in range(count)]


class TrainWorkload:
    """One op is one optimizer step: augment, features, forward, loss,
    backward, Adam.  Batches follow training.train's seeded epoch order.

    The loss schedule is fixed: the first `min_ops` timed steps always run,
    and loss_last is the mean loss of the last `loss_window` of them, so it
    does not depend on how many steps fit in the run.
    """

    check_all_graphs = False

    def __init__(self, ms, seed, model_config, batch_size, n_meshes, min_ops,
                 loss_window):
        self.ms, self.seed = ms, seed
        self.model_config = model_config
        self.train_config = replace(ms.verify.desk_train_config(),
                                    batch_size=batch_size, seed=seed)
        self.n_meshes, self.min_ops, self.loss_window = n_meshes, min_ops, loss_window

    def setup(self, workdir):
        ms, tc = self.ms, self.train_config
        paths = write_meshes(ms, arches(ms, self.seed, 0, self.n_meshes, 1200), workdir)
        meshes = [ms.mesh.load_mesh(obj, labels) for obj, labels in paths]
        self.net = model_from_checkpoint(ms, self.model_config, workdir)
        self.dataset = ms.training.prepare_training_meshes(meshes, tc)
        self.adam = ms.training.Adam(self.net.parameters(), tc.beta1, tc.beta2, tc.eps)
        self.epoch, self.losses = None, {}
        self.op(0)  # warm-up: step 0 of the schedule

    def op(self, step):
        ms, tc = self.ms, self.train_config
        per_epoch = -(-len(self.dataset) // tc.batch_size)
        epoch, b = divmod(step, per_epoch)
        if epoch != self.epoch:
            self.epoch = epoch
            self.rng = np.random.default_rng([tc.seed, epoch])
            self.order = self.rng.permutation(len(self.dataset))
        feats, labels = [], []
        for mi in self.order[b * tc.batch_size:(b + 1) * tc.batch_size]:
            m = ms.training.augment_mesh(self.dataset[mi], self.rng,
                                         tc.translation_range, tc.rotation_range)
            feats.append(ms.mesh.build_cell_features(m, center=False).as_array())
            labels.append(self.dataset[mi].labels)
        labels = np.concatenate(labels)
        logits = self.net.forward(feats, train=True)
        loss = ms.model.cross_entropy(logits, labels, reduction="mean")
        self.net.zero_grad()
        loss.backward()
        self.adam.step(ms.training.lr_at_epoch(tc, epoch))
        self.losses[step] = loss.item()
        return len(labels), loss

    def check(self, step, logits):
        if not math.isfinite(self.losses[step]):
            return [f"step {step}: loss {self.losses[step]}"]
        return []

    def finish(self):
        last = range(self.min_ops - self.loss_window + 1, self.min_ops + 1)
        loss_last = statistics.fmean(self.losses.get(s, math.nan) for s in last)
        first = self.losses.get(1, math.nan)
        if not loss_last < first:
            return loss_last, [f"loss_last {loss_last} not below first timed "
                               f"step's loss {first}"]
        return loss_last, []


class PredictWorkload:
    """One op labels one held-out mesh: load_mesh, inference_features,
    predict, evaluation.accumulate.  Ops cycle over `n_meshes` meshes, so
    every mesh is labelled several times and each repeat must match."""

    check_all_graphs = True

    def __init__(self, ms, seed, n_meshes=4, cells=4000):
        self.ms, self.seed = ms, seed
        self.n_meshes, self.cells = n_meshes, cells
        self.min_ops, self.loss_window = 2 * n_meshes, n_meshes

    def setup(self, workdir):
        ms = self.ms
        meshes = arches(ms, self.seed, 1, self.n_meshes, self.cells)
        self.paths = write_meshes(ms, meshes, workdir)
        config = ms.verify.desk_model_config()
        self.net = model_from_checkpoint(ms, config, workdir)
        self.cm = ms.evaluation.ConfusionMatrix(config.num_classes)
        self.first_pred, self.losses = {}, {}
        self.op(0)  # warm-up; also the reference labels of mesh 0

    def op(self, i):
        ms = self.ms
        obj, labels = self.paths[i % self.n_meshes]
        m = ms.mesh.load_mesh(obj, labels)
        pred = self.net.predict(ms.training.inference_features(m))
        ms.evaluation.accumulate(self.cm, pred, m.labels)
        self.last = (pred, m.labels)
        return m.num_cells, None

    def check(self, i, logits):
        pred, truth = self.last
        issues = []
        # per-cell cross-entropy in float64, independent of model.cross_entropy
        z = logits.astype(np.float64)
        z -= z.max(axis=1, keepdims=True)
        nll = np.log(np.exp(z).sum(axis=1)) - z[np.arange(len(truth)), truth]
        self.losses[i] = float(nll.mean())
        if not math.isfinite(self.losses[i]):
            issues.append(f"op {i}: loss {self.losses[i]}")
        first = self.first_pred.setdefault(i % self.n_meshes, pred)
        if not np.array_equal(first, pred):
            issues.append(f"op {i}: labels of mesh {i % self.n_meshes} changed "
                          f"on a repeat ({int((first != pred).sum())} cells)")
        return issues

    def finish(self):
        last = sorted(self.losses)[-self.loss_window:]
        if not last:
            return math.nan, []
        return statistics.fmean(self.losses[i] for i in last), []


def make_workload(ms, name, seed):
    if name == "train-desk":
        return TrainWorkload(ms, seed, ms.verify.desk_model_config(), batch_size=4,
                             n_meshes=20, min_ops=16, loss_window=4)
    if name == "train-full":
        # full.cfg's batch of 4 does not fit in 8 GB; one mesh per step
        model_cfg, _ = ms.config.parse_config_file(os.path.join("configs", "full.cfg"))
        return TrainWorkload(ms, seed, model_cfg, batch_size=1, n_meshes=4,
                             min_ops=7, loss_window=5)
    return PredictWorkload(ms, seed)


WORKLOADS = ("train-desk", "predict-large", "train-full")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(times):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it.  Below 21 samples no percentile above the
    median qualifies, and the median is reported with its percentile."""
    s = sorted(times)
    n = len(s)
    if n >= 21:
        return s[n - 11], 100.0 * (n - 10) / n, 10
    return statistics.median(s), 50.0, n // 2


def layer_metrics(tracer, n_setups):
    summary = tracer.summary()
    ops = [summary[k] for k in summary if isinstance(k, int)]
    setups = [summary[k] for k in summary if isinstance(k, str)]

    def per_op(match, col=0):
        return sum(row[col] for op in ops for name, row in op.items()
                   if match(name)) / len(ops)

    def per_setup(name):
        return sum(s[name][0] for s in setups if name in s) / n_setups

    loads = [row for phase in summary.values() for name, row in phase.items()
             if name == "mesh.load"]
    times = {
        "knn.build_s": per_op(lambda n: n == "knn.build"),
        **{f"layers.{c}.fwd_s": per_op(lambda n, c=c: n == f"layers.{c}")
           for c in ("c1", "c2", "c3", "n1", "n2", "n3")},
        "layers.fuse.fwd_s": per_op(lambda n: n.startswith("layers.fuse")),
        "layers.head.fwd_s": per_op(lambda n: n.startswith("layers.head")),
        "model.forward_s": per_op(lambda n: n == "model.forward"),
        "model.forward_self_s": per_op(lambda n: n == "model.forward", col=1),
        "mesh.features_s": per_op(lambda n: n == "mesh.features"),
        "mesh.load_s": sum(r[0] for r in loads) / sum(r[2] for r in loads),
        "synth.generate_s": per_setup("synth.generate"),
        "model.ckpt_save_s": per_setup("model.ckpt_save"),
        "model.ckpt_load_s": per_setup("model.ckpt_load"),
        "op.unattributed_s": per_op(lambda n: n == "op", col=1),
    }
    # Every span name, and each module's self time, per traced op; the
    # "op" row is time inside no module span.
    spans = {}
    for op in ops:
        for name, values in op.items():
            row = spans.setdefault(name, [0.0, 0.0, 0])
            for j, value in enumerate(values):
                row[j] += value
    spans = {name: [v / len(ops) for v in row] for name, row in spans.items()}
    modules = {}
    for name, (_, own, _) in spans.items():
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + own
    return times, spans, modules


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------

def check_graphs(graphs, check_all, rng, knn, op):
    """Check KNN_ROWS seeded rows of every graph, or of one seeded graph."""
    if not check_all and graphs:
        graphs = [graphs[rng.integers(len(graphs))]]
    issues = []
    for features, block_size, k, include_self, indices in graphs:
        rows = rng.choice(len(features), size=min(KNN_ROWS, len(features)), replace=False)
        bad, exact = check_knn_rows(features, block_size, k, include_self, indices, rows)
        knn["rows"] += len(rows)
        knn["exact"] += exact
        if bad:
            issues.append(f"op {op}: {bad} of {len(rows)} KNN rows differ from "
                          "the float64 brute force")
    return issues


def run(args):
    ms = import_meshseg()
    env = environment()
    wl = make_workload(ms, args.workload, args.seed)
    probe = Probe(ms)
    tracer = Tracer(ms) if args.trace else None
    rng = np.random.default_rng([args.seed, 0xC4EC])  # which KNN rows to check
    reference = Reference()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    probe.install()
    try:
        reference.mark()
        setup_wall = []
        for s in range(N_SETUPS):
            d = os.path.join(workdir, f"setup{s}")
            os.makedirs(d)
            if tracer:
                tracer.install()
                tracer.op_id = f"setup{s}"
                span = tracer.open("setup")
            t0 = time.perf_counter()
            wl.setup(d)
            setup_wall.append(time.perf_counter() - t0)
            if tracer:
                tracer.close(span)
                tracer.uninstall()
            probe.clear()
            reference.mark()

        op_wall, op_traced = [], []
        issues, tapes = [], []
        cells = failed = 0
        knn = {"calls": 0, "bytes": 0, "rows": 0, "exact": 0}
        t_start = time.perf_counter()
        i = 1
        while i <= wl.min_ops or time.perf_counter() - t_start < args.seconds:
            # blocks of TRACE_BLOCK ops: a predict block labels each mesh once,
            # so traced and untraced ops see the same inputs
            traced = tracer is not None and (i - 1) // TRACE_BLOCK % 2 == 1
            probe.clear()
            if traced:
                tracer.install()
                tracer.op_id = i
                span = tracer.open("op")
            t0 = time.perf_counter()
            try:
                n_cells, root = wl.op(i)
                error = None
            except Exception:  # a raised error is a failed op; keep measuring
                n_cells, root, error = 0, None, traceback.format_exc(limit=3)
            op_wall.append(time.perf_counter() - t0)
            op_traced.append(traced)
            if traced:
                tracer.close(span)
                tracer.uninstall()

            op_issues = [f"op {i}: {error}"] if error else []
            if not error:
                logits = probe.logits.data
                if not np.isfinite(logits).all():
                    op_issues.append(f"op {i}: non-finite logits")
                op_issues += wl.check(i, logits)
                op_issues += check_graphs(probe.graphs, wl.check_all_graphs, rng, knn, i)
                calls, computed = probe.knn_counts()
                knn["calls"] += calls
                knn["bytes"] += computed
                cells += n_cells
                if traced:
                    tapes.append(tape_stats(root if root is not None else probe.logits))
            failed += bool(op_issues)
            issues += op_issues
            root = None
            reference.mark()
            i += 1
        probe.clear()

        attempted = len(op_wall)
        loss_last, final_issues = wl.finish()
        issues += final_issues
        failed = min(attempted, failed + len(final_issues))
    finally:
        probe.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    # Calibrated seconds (calibrate.py): set-up s runs between marks s and
    # s + 1, the op at list index j between marks N_SETUPS + j and the next.
    setup_cal = [t * reference.scale(s) for s, t in enumerate(setup_wall)]
    op_cal = [t * reference.scale(N_SETUPS + j, window=2) for j, t in enumerate(op_wall)]
    untraced = [t for t, tr in zip(op_cal, op_traced) if not tr]
    tail_value, tail_pct, tail_beyond = tail(untraced)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "samples": {"ops": attempted, "untraced": len(untraced),
                    "traced": attempted - len(untraced), "setups": N_SETUPS,
                    "knn_rows_checked": knn["rows"]},
        "failed_ratio": failed / attempted,
        "issues": issues[:20],
        "tail": {"percentile": tail_pct, "samples_beyond": tail_beyond},
        "losses": wl.losses,
        "setup_wall_s": setup_wall,
        "op_wall_s": op_wall,
        "op_traced": op_traced,
        "calibration": {"nominal_s": NOMINAL_S, "marks_s": reference.points},
    }
    if args.trace:
        layer_times, spans, modules = layer_metrics(tracer, N_SETUPS)
        traced_cal = [t for t, tr in zip(op_cal, op_traced) if tr]
        op_time = statistics.fmean(t for t, tr in zip(op_wall, op_traced) if tr)
        speed = reference.run_scale()
        metrics = {name: (value * speed, "s") for name, value in layer_times.items()}
        metrics.update({
            "knn.calls": (knn["calls"] / attempted, "count"),
            "knn.computed_bytes": (knn["bytes"] / attempted, "bytes"),
            "knn.exact_row_ratio": (knn["exact"] / max(knn["rows"], 1), "ratio"),
            "tensor.tape_nodes": (statistics.fmean(t[0] for t in tapes), "count"),
            "tensor.tape_bytes": (statistics.fmean(t[1] for t in tapes), "bytes"),
        })
        spans_per_op = sum(c for _, _, c in spans.values())
        record.update({
            # the measured gap carries the noise of alternate blocks seeing
            # other inputs; spans times the cost of one span bounds the tracer
            "tracing_overhead": statistics.median(traced_cal) / statistics.median(untraced) - 1,
            "tracing_cost_share": spans_per_op * tracer.span_cost() / op_time,
            "traced_op_mean_s": op_time,
            "spans_per_op": {n: {"total_s": t, "self_s": s, "calls": c}
                             for n, (t, s, c) in sorted(spans.items())},
            "module_self_share": {m: v / op_time for m, v in
                                  sorted(modules.items(), key=lambda kv: -kv[1])},
        })
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        record["wall"] = {"setup_s": statistics.median(setup_wall),
                          "step_s.p50": statistics.median(
                              t for t, tr in zip(op_wall, op_traced) if not tr),
                          "cells_per_s": cells / sum(op_wall)}
        metrics = {
            "setup_s": (statistics.median(setup_cal), "s"),
            "step_s.p50": (statistics.median(untraced), "s"),
            "step_s.tail": (tail_value, "s"),
            "cells_per_s": (cells / sum(op_cal), "cells/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "loss_last": (loss_last, "nats"),
        }
    # a non-finite value (a failed run) is written as null, keeping the line JSON
    record["metrics"] = {k: {"value": v if math.isfinite(v) else None, "unit": u}
                         for k, (v, u) in metrics.items()}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed={args.seed} ops={attempted} failed={failed} "
          f"nproc={env['nproc']} blas_threads={env['blas_threads']} "
          "(times are calibrated seconds, see bench/calibrate.py)")
    for issue in issues[:5]:
        print(f"  issue: {issue.splitlines()[-1]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:.6g} {unit}")
    if args.trace:
        print(f"  tracing overhead {record['tracing_overhead']:+.2%} measured "
              f"(median traced / untraced op time - 1), "
              f"{record['tracing_cost_share']:.3%} from span count x span cost")
        for module, share in record["module_self_share"].items():
            print(f"  self share {module:12s} {share:6.1%}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run(parser.parse_args(argv))


if __name__ == "__main__":
    main()
