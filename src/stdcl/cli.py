"""Command-line surface: data generation, training, evaluation, gradient checks.

Exit codes: 0 success, 2 usage/validation, 3 data or artifact integrity,
4 numeric failure.  Every run writes a manifest next to its artifacts;
re-running from the manifest reproduces the outputs bit-identically.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import tensor as tz
from .atomic import atomic_path
from .config import (
    CONFIG_SCHEMA,
    RunManifest,
    apply_overrides,
    load_config,
    parse_set_overrides,
    read_manifest,
    write_manifest,
)
from .data import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from .encoder import EncoderConfig
from .errors import (
    BankIntegrityError,
    ConfigError,
    DataFormatError,
    NumericError,
    StdclError,
)
from .gradcheck import run_checks
from .train import (
    TrainConfig,
    check_fits,
    embedding_report,
    evaluate,
    export_embeddings_tsv,
    fit,
    load_model,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# gen-data flag (as recorded in its manifest) -> SyntheticSpec field, whose default the flag takes
_GEN_DATA_FLAGS = {
    "joints": "joints",
    "frames": "frames",
    "spatial_motifs": "num_spatial",
    "temporal_motifs": "num_temporal",
    "per_class": "per_class",
    "noise_std": "noise_std",
    "motif_scale": "motif_scale",
}


def _from_sections(cls, cfg: dict, sections: tuple, **extra):
    """Build dataclass `cls` from the CONFIG_SCHEMA keys of `sections`; key suffixes are its fields."""
    fields = {key.partition(".")[2]: cfg[key] for key in CONFIG_SCHEMA if key.partition(".")[0] in sections}
    return cls(**fields, **extra)


def _ensure_parent(path: str) -> None:
    """Make the directory a file is to be written into; ConfigError if the path cannot name that file."""
    if not path or os.path.isdir(path):
        raise ConfigError(f"output path must name a file, got {path!r}")
    parent = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(parent, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"cannot create directory {parent}: {getattr(exc, 'strerror', exc)}") from None


def cmd_gen_data(args) -> int:
    spec = SyntheticSpec(**{name: getattr(args, flag) for flag, name in _GEN_DATA_FLAGS.items()})
    manifest_path = args.output + ".manifest.json"
    for path in (args.output, manifest_path):
        _ensure_parent(path)
    dataset = generate_synthetic(spec, seed=args.seed)
    save_dataset(dataset, args.output, fmt=args.format)
    manifest = RunManifest(
        command="gen-data",
        config={flag: getattr(spec, name) for flag, name in _GEN_DATA_FLAGS.items()},
        seed=args.seed,
        artifacts={"dataset": args.output},
    )
    write_manifest(manifest_path, manifest)
    print(f"wrote {len(dataset)} sequences ({dataset.num_classes} classes) to {args.output}")
    return EXIT_OK


def _resolve_train_config(args) -> dict:
    if args.from_manifest:
        manifest = read_manifest(args.from_manifest)
        if manifest.command != "train":
            raise ConfigError(f"{args.from_manifest}: not a train manifest (command {manifest.command!r})")
        cfg = dict(manifest.config)
    elif args.config:
        cfg = load_config(args.config)
    else:
        raise ConfigError("train needs -c/--config or --from-manifest")
    overrides = {}
    if args.no_framework:
        overrides["train.framework_enabled"] = False
    if args.tau is not None:
        overrides["contrast.tau"] = args.tau
    if args.seed is not None:
        overrides["train.seed"] = args.seed
    if args.epochs is not None:
        overrides["train.epochs"] = args.epochs
    if args.out is not None:
        overrides["out.dir"] = args.out
    cfg = apply_overrides(cfg, overrides)
    return apply_overrides(cfg, parse_set_overrides(args.set))


def _load_dataset_checked(path: str, frames: int = 0):
    if not path:
        raise ConfigError("no dataset configured (set data.path)")
    if not os.path.exists(path):
        raise ConfigError(f"dataset file not found: {path}")
    return load_dataset(path, frames=frames or None)


def cmd_train(args) -> int:
    cfg = _resolve_train_config(args)
    out_dir, stem = cfg["out.dir"], cfg["out.stem"]
    if not out_dir:
        raise ConfigError("out.dir must name a directory, got ''")
    if not stem or any(c and c in stem for c in (os.sep, os.altsep, "\0")):
        raise ConfigError(f"out.stem must be a file name, got {stem!r}")
    tz.set_precision(cfg["numeric.precision"])
    tz.set_checked(cfg["numeric.checked"])
    dataset = _load_dataset_checked(cfg["data.path"], cfg["data.frames"])
    eval_dataset = None
    if cfg["data.eval_path"]:
        eval_dataset = _load_dataset_checked(cfg["data.eval_path"], cfg["data.frames"])
    encoder_cfg = _from_sections(EncoderConfig, cfg, ("encoder",),
                                 joints=dataset.joints, frames=dataset.frames)
    train_cfg = _from_sections(TrainConfig, cfg, ("train", "contrast"))
    manifest_path = os.path.join(out_dir, f"{stem}-manifest.json")
    _ensure_parent(manifest_path)
    result = fit(dataset, encoder_cfg, train_cfg, out_dir=out_dir,
                 eval_dataset=eval_dataset, stem=stem)
    manifest = RunManifest(
        command="train",
        config=cfg,
        seed=train_cfg.seed,
        artifacts={
            "checkpoint": result.checkpoint_path,
            "metrics": result.metrics_path,
            "manifest": manifest_path,
        },
    )
    write_manifest(manifest_path, manifest)
    if result.eval_history:
        final_acc = result.eval_history[-1][1]
        print(f"trained {train_cfg.epochs} epochs; final accuracy {final_acc:.4f}")
    else:
        print(f"trained {train_cfg.epochs} epochs")
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"metrics:    {result.metrics_path}")
    print(f"manifest:   {manifest_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model, meta = load_model(args.checkpoint)
    dataset = _load_dataset_checked(args.data)
    check_fits(dataset, model.encoder_cfg, model.num_classes)
    report_path = args.report or os.path.join(os.path.dirname(os.path.abspath(args.checkpoint)), "eval.csv")
    for path in filter(None, (report_path, args.embeddings)):
        _ensure_parent(path)
    report = evaluate(model, dataset)
    print(f"accuracy {report.accuracy:.4f} over {report.count} sequences")
    with atomic_path(report_path) as tmp, open(tmp, "w", encoding="utf-8") as f:
        f.write("metric,value\n")
        f.write(f"accuracy,{report.accuracy:.10g}\n")
        f.write(f"count,{report.count}\n")
        for k, value in enumerate(report.per_class):
            f.write(f"per_class.{k},{value:.10g}\n")
    print(f"report:     {report_path}")
    if args.embeddings:
        embeddings = embedding_report(model, dataset)
        export_embeddings_tsv(embeddings, args.embeddings)
        print(f"embeddings: {args.embeddings}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    failures = []
    for result in run_checks(args.op, args.trials, args.pipeline_trials, args.seed, args.inject_fault):
        print(result.summary())
        if not result.passed:
            failures.append(result.name)
    if failures:
        print(f"FAILED: {', '.join(failures)}")
        return EXIT_NUMERIC
    print("all gradient checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stdcl",
        description="Spatial-temporal decoupled contrastive training on skeleton sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a synthetic two-factor dataset")
    for flag, name in _GEN_DATA_FLAGS.items():
        default = getattr(SyntheticSpec, name)
        gen.add_argument(f"--{flag.replace('_', '-')}", type=type(default), default=default)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", choices=["jsonl", "binary"], default=None,
                     help="default: inferred from the output extension")
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_gen_data)

    train = sub.add_parser("train", help="train a model from a config file")
    source = train.add_mutually_exclusive_group()
    source.add_argument("-c", "--config", help="flat key=value config file")
    source.add_argument("--from-manifest", help="reproduce a run from its manifest")
    train.add_argument("--no-framework", action="store_true",
                       help="disable the contrastive framework (baseline cross-entropy)")
    train.add_argument("--tau", type=float, default=None, help="override contrast.tau")
    train.add_argument("--seed", type=int, default=None, help="override train.seed")
    train.add_argument("--epochs", type=int, default=None, help="override train.epochs")
    train.add_argument("--out", default=None, help="override out.dir")
    train.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key (repeatable)")
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("checkpoint")
    ev.add_argument("-d", "--data", required=True)
    ev.add_argument("--report", default=None, help="CSV report path (default: eval.csv beside the checkpoint)")
    ev.add_argument("--embeddings", default=None,
                    help="write per-instance spatial/temporal embeddings to this TSV")
    ev.set_defaults(func=cmd_eval)

    gc = sub.add_parser("gradcheck", help="finite-difference checks for every op and the full pipeline")
    gc.add_argument("--op", action="append", default=None,
                    help="restrict to this op (repeatable; skips the pipeline check)")
    gc.add_argument("--trials", type=int, default=20)
    gc.add_argument("--pipeline-trials", type=int, default=20)
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--inject-fault", default=None, metavar="OP",
                    help="flip OP's backward rule to validate the checker itself")
    gc.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, BankIntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except StdclError as exc:
        # remaining package errors are misuse of the CLI surface
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
