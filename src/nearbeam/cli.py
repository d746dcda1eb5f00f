"""Command-line entry points.

Subcommands cover the full pipeline: gen-dataset, train, eval-heads,
run-experiment, sweep-baseline, export-codebook. Every subcommand takes a
config source (--config file and/or a --desk-scale / --paper-scale preset),
a --seed, and an --out-dir.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .codebook import build_narrow_codebook, build_polar_codebook, build_wide_codebook, export_codebook
from .config import (ConfigError, FullConfig, apply_overrides, desk_scale_config, load_config,
                     paper_scale_config)
from .dataset import DatasetFormatError, export_labels_csv, generate_dataset, load_dataset, save_dataset
from .experiments import run_experiment
from .net import NetModelError, load_model, save_model
from .training import evaluate_heads, train_heads

DATASET_FILE = "dataset.nbds"
DIRECTION_FILE = "direction_model.nbnm"
DISTANCE_FILE = "distance_model.nbnm"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="YAML config file")
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--desk-scale", action="store_true",
                       help="preset: N=64, S=5, T=4, 20000 samples")
    scale.add_argument("--paper-scale", action="store_true",
                       help="preset: N=512, S=5, T=4, 100000 samples")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument("--out-dir", type=Path, default=Path("out"),
                        help="output directory (default ./out)")
    parser.add_argument("--verbose", action="store_true")


def _resolve_config(parser: argparse.ArgumentParser, args) -> FullConfig:
    if args.config is None and not args.desk_scale and not args.paper_scale:
        parser.error("one of --config, --desk-scale, --paper-scale is required")
    base = paper_scale_config() if args.paper_scale else desk_scale_config()
    if args.config is not None:
        return load_config(args.config, base)
    return base


def _dataset_path(args) -> Path:
    return args.dataset if args.dataset is not None else args.out_dir / DATASET_FILE


def cmd_gen_dataset(parser, args) -> int:
    cfg = _resolve_config(parser, args)
    ds = generate_dataset(
        cfg.array_config(), cfg.scenario,
        cfg.array.num_rings, cfg.array.r_min, cfg.array.r_max,
        cfg.array.subarray_factor,
        num_samples=cfg.train.num_samples,
        base_seed=args.seed,
        snr_range_db=tuple(cfg.link.train_snr_range_db),
        val_fraction=cfg.train.val_fraction,
        test_fraction=cfg.train.test_fraction,
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = _dataset_path(args)
    save_dataset(path, ds)
    export_labels_csv(args.out_dir / "labels.csv", ds)
    print(f"wrote {ds.num_samples} samples "
          f"(train/val/test {ds.n_train}/{ds.n_val}/{ds.n_test}) to {path}")
    return 0


def cmd_train(parser, args) -> int:
    cfg = _resolve_config(parser, args)
    path = _dataset_path(args)
    ds = load_dataset(path)
    try:
        dir_model, dist_model, history = train_heads(ds, cfg.train_config(args.seed, args.verbose))
    except ValueError as exc:
        # a dataset the heads cannot train on: no val split, or an M that
        # net.pool_target does not divide
        raise DatasetFormatError(f"cannot train on {path}: {exc}") from None
    args.out_dir.mkdir(parents=True, exist_ok=True)
    save_model(args.out_dir / DIRECTION_FILE, dir_model)
    save_model(args.out_dir / DISTANCE_FILE, dist_model)
    with open(args.out_dir / "history.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["head", "epoch", "lr", "train_loss", "val_loss", "val_top1"])
        for head, stats in (("direction", history.direction), ("distance", history.distance)):
            for st in stats:
                writer.writerow([head, st.epoch, f"{st.lr:.12g}", f"{st.train_loss:.12g}",
                                 f"{st.val_loss:.12g}", f"{st.val_top1:.12g}"])
    for label, stats in (("direction:", history.direction), ("distance: ", history.distance)):
        # the saved head is the first epoch with the lowest val loss
        best = min(stats, key=lambda st: st.val_loss)
        print(f"{label} {len(stats)} epochs, best val top1 {best.val_top1:.3f} "
              f"(epoch {best.epoch}, last {stats[-1].val_top1:.3f})")
    return 0


def cmd_eval_heads(parser, args) -> int:
    _resolve_config(parser, args)
    ds = load_dataset(_dataset_path(args))
    dir_model = load_model(args.models_dir / DIRECTION_FILE)
    dist_model = load_model(args.models_dir / DISTANCE_FILE)
    report = evaluate_heads(dir_model, dist_model, ds, split=args.split,
                            ks=tuple(args.top_k))
    text = json.dumps(report, indent=2)
    print(text)
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        (args.out_dir / "eval_report.json").write_text(text + "\n")
    return 0


def _run_experiment_cmd(parser, args, schemes_override=None) -> int:
    cfg = _resolve_config(parser, args)
    if schemes_override is not None:
        apply_overrides(cfg, {"experiment": {"schemes": schemes_override}})
    dir_model = dist_model = None
    if args.stub is None and any(s in ("original", "improved") for s in cfg.experiment.schemes):
        models_dir = args.models_dir if args.models_dir is not None else args.out_dir
        dir_model = load_model(models_dir / DIRECTION_FILE)
        dist_model = load_model(models_dir / DISTANCE_FILE)
    records, summary = run_experiment(
        cfg, master_seed=args.seed, dir_model=dir_model, dist_model=dist_model,
        stub=args.stub, out_dir=args.out_dir,
    )
    for row in summary:
        print(f"{row['scheme']:>9s}  snr {row['snr_db']:5.1f} dB  "
              f"G_N {row['g_n_mean']:.4f} ± {row['g_n_ci95']:.4f}  "
              f"eff_rate {row['eff_rate_mean']:.3f}")
    improved = [r for r in records if r.scheme == "improved"]
    if improved:
        print(f"improved scheme tested {improved[0].beams} beams per trial")
    print(f"wrote {len(records)} trial records to {args.out_dir / 'trials.csv'}")
    return 0


def cmd_run_experiment(parser, args) -> int:
    return _run_experiment_cmd(parser, args)


def cmd_sweep_baseline(parser, args) -> int:
    return _run_experiment_cmd(parser, args, schemes_override=["sweep"])


def cmd_export_codebook(parser, args) -> int:
    cfg = _resolve_config(parser, args)
    array_cfg = cfg.array_config()
    if args.kind == "polar":
        book = build_polar_codebook(array_cfg, cfg.array.num_rings,
                                    cfg.array.r_min, cfg.array.r_max)
    elif args.kind == "narrow":
        book = build_narrow_codebook(array_cfg)
    else:
        book = build_wide_codebook(array_cfg, cfg.array.subarray_factor)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"codebook_{args.kind}.nbcb"
    export_codebook(path, book)
    rows = book.codewords.shape[0]
    print(f"wrote {rows} codewords of length {array_cfg.num_antennas} to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearbeam",
        description="Near-field beam training: dataset generation, head training, "
                    "and Monte-Carlo scheme evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dataset", help="generate a labeled measurement dataset")
    _add_common(p)
    p.add_argument("--dataset", type=Path, help="dataset file (default OUT_DIR/dataset.nbds)")
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("train", help="train the direction and distance heads")
    _add_common(p)
    p.add_argument("--dataset", type=Path, help="dataset file (default OUT_DIR/dataset.nbds)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-heads", help="report head accuracies on a split")
    _add_common(p)
    p.add_argument("--dataset", type=Path, help="dataset file (default OUT_DIR/dataset.nbds)")
    p.add_argument("--models-dir", type=Path, default=Path("out"))
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.add_argument("--top-k", type=int, nargs="+", default=[1, 5])
    p.set_defaults(func=cmd_eval_heads)

    for name, func, help_text in (
        ("run-experiment", cmd_run_experiment, "Monte-Carlo SNR sweep over the configured schemes"),
        ("sweep-baseline", cmd_sweep_baseline, "exhaustive-sweep oracle baseline only"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.add_argument("--models-dir", type=Path, help="directory with trained model files")
        p.add_argument("--stub", choices=["oracle", "uniform"],
                       help="feed the schemes fixed head probabilities instead of "
                            "trained heads: one-hot on the sweep oracle, or uniform")
        p.set_defaults(func=func)

    p = sub.add_parser("export-codebook", help="write a codebook binary")
    _add_common(p)
    p.add_argument("--kind", choices=["polar", "narrow", "wide"], default="polar")
    p.set_defaults(func=cmd_export_codebook)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except (ConfigError, DatasetFormatError, NetModelError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
