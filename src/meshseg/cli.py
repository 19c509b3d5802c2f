"""Command-line interface: synth | train | eval | predict | ablate | verify.

Every command is deterministic given its flags and seeds.  Exit codes:
0 success, 1 check or validation failure, 2 usage error.  The default
output directory can be set with the MESHSEG_OUT environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from meshseg import evaluation, training
from meshseg.config import (
    ConfigKeyError,
    apply_overrides,
    format_config,
    parse_config_file,
)
from meshseg.knn import FeatureValueError, GraphConfigError
from meshseg.mesh import (
    LabelRangeError,
    MeshFormatError,
    class_colors,
    export_colored_mesh,
    load_mesh,
    replace_file,
    save_labels,
    write_lines,
)
from meshseg.model import (
    CheckpointError,
    ConfigError,
    DataError,
    ModelConfig,
    build_variant,
    check_cells,
    load_model,
    save_checkpoint,
    variant_config,
)
from meshseg.synth import ArchSpec, GenerationError, make_dataset, read_manifest
from meshseg.tensor import DimensionError, UsageError
from meshseg.training import TrainConfig, TrainingError

USAGE_ERRORS = (ConfigKeyError, ConfigError, GraphConfigError, UsageError)
DATA_ERRORS = (DataError, MeshFormatError, CheckpointError, TrainingError,
               GenerationError, LabelRangeError, DimensionError, FeatureValueError,
               OSError)


def _default_out():
    return os.environ.get("MESHSEG_OUT", ".")


def _load_split(manifest_path, split):
    entries = [e for e in read_manifest(manifest_path) if e.split == split]
    if not entries:
        raise DataError(f"manifest has no {split!r} entries")
    return [load_mesh(e.mesh_path, labels_path=e.labels_path) for e in entries]


def _resolve_configs(args):
    model_cfg, train_cfg = parse_config_file(args.config) if args.config \
        else (ModelConfig(), TrainConfig())
    model_cfg, train_cfg = apply_overrides(model_cfg, train_cfg, args.set)
    return model_cfg.validate(), train_cfg.validate()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(args):
    spec = ArchSpec(num_teeth=args.teeth, cells_target=args.cells,
                    crowding=args.crowding, seed=args.seed)
    manifest, entries = make_dataset(spec, args.n_train, args.n_test, args.out)
    print(f"wrote {len(entries)} meshes; manifest: {manifest}")
    return 0


def cmd_train(args):
    model_cfg, train_cfg = _resolve_configs(args)
    meshes = _load_split(args.manifest, args.split)
    if args.resume:
        model, adam = training.resume(args.resume, train_cfg)
        model_cfg = model.config
    else:
        model, adam = build_variant(model_cfg), None
    # fails before --out is touched
    training.prepare_training_meshes(meshes, train_cfg, model_cfg)
    # A run cut between an epoch's log row and its checkpoint reruns that
    # epoch, so on resume only the rows of epochs the checkpoint holds stay.
    log_path = os.path.join(args.out, "train_log.tsv")
    kept = [r for r in training.parse_log(log_path) if r.epoch < adam.state.epoch] \
        if args.resume and os.path.exists(log_path) else []

    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "model.ckpt")
    # a kill before the first new row leaves the kept rows in place
    replace_file(os.path.join(args.out, "resolved.cfg"),
                 format_config(model_cfg, train_cfg).encode())
    write_lines(log_path, [training.LOG_HEADER, *map(training.format_log_row, kept)])
    with open(log_path, "a") as log_fh:
        records, adam = training.train(model, meshes, train_cfg,
                                       checkpoint_path=ckpt, log_fh=log_fh, adam=adam)
    if not records:  # zero-epoch run still leaves a resumable checkpoint
        save_checkpoint(model, ckpt, adam)
    last = records[-1] if records else None
    tail = f"; final loss {last.mean_loss:.4f}, train OA {last.train_oa:.4f}" \
        if last else ""
    print(f"checkpoint: {ckpt}{tail}")
    return 0


def cmd_eval(args):
    model = load_model(args.checkpoint)
    meshes = _load_split(args.manifest, args.split)
    _, result = evaluation.evaluate_model(model, meshes)
    report = evaluation.format_report(result)
    print(report)
    if args.out:
        write_lines(args.out, [report])
    return 0


def cmd_predict(args):
    model = load_model(args.checkpoint)
    mesh = load_mesh(args.mesh)
    pred = model.predict(training.inference_features(mesh))
    export_colored_mesh(mesh, pred, class_colors(model.config.num_classes), args.out_ply)
    if args.out_labels:
        save_labels(pred, args.out_labels)
    print(f"wrote {args.out_ply} ({len(pred)} cells, "
          f"{len(np.unique(pred))} classes present)")
    return 0


def cmd_ablate(args):
    model_cfg, train_cfg = _resolve_configs(args)
    names = [v.strip() for v in args.variants.split(",") if v.strip()]
    for name in names:
        variant_config(model_cfg, name)  # validate all before training any
    train_meshes = _load_split(args.manifest, "train")
    test_meshes = _load_split(args.manifest, "test")
    # every variant shares k and num_classes; fails before --out is touched
    training.prepare_training_meshes(train_meshes, train_cfg, model_cfg)
    for mesh in test_meshes:
        check_cells(mesh.num_cells, model_cfg.k_neighbors)
    os.makedirs(args.out, exist_ok=True)

    rows = []
    for name, model, result in evaluation.train_variants(
            model_cfg, names, train_cfg, train_meshes, test_meshes):
        rows.append((name, result.oa, result.miou))
        save_checkpoint(model, os.path.join(args.out, f"{name}.ckpt"))
        print(f"trained {name}: OA {result.oa:.4f} mIoU {result.miou:.4f}")

    table_path = os.path.join(args.out, "ablation.tsv")
    write_lines(table_path, ["variant\toa\tmiou",
                             *(f"{name}\t{oa:.6f}\t{miou:.6f}" for name, oa, miou in rows)])
    print(f"\nvariant\tOA\tmIoU")
    for name, oa, miou in rows:
        print(f"{name}\t{oa:.4f}\t{miou:.4f}")
    print(f"table: {table_path}")
    return 0


def cmd_verify(args):
    from meshseg import verify

    results = verify.run_checks(include_training=not args.quick,
                                reporter=lambda line: print(line, flush=True))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="meshseg",
        description="Two-stream graph network for per-cell mesh segmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic arch dataset")
    p.add_argument("--out", default=_default_out())
    p.add_argument("--n-train", type=int, default=20)
    p.add_argument("--n-test", type=int, default=5)
    p.add_argument("--teeth", type=int, default=7)
    p.add_argument("--cells", type=int, default=1200)
    p.add_argument("--crowding", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=_default_out())
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                   help="config override, repeatable")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.add_argument("--split", default="train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", help="also write the report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="label one mesh and export a colored ply")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mesh", required=True)
    p.add_argument("--out-ply", required=True)
    p.add_argument("--out-labels")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ablate", help="train and compare model variants")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=_default_out())
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p.add_argument("--variants",
                   default="full,coords-only,normals-only,single-stream")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--quick", action="store_true",
                   help="skip the training-backed checks")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
