"""Command-line entry points.

Subcommands cover the full pipeline: gen-dataset, train, eval-heads,
run-experiment, export-codebook. Each takes only the options it reads. All
but eval-heads, which reads N, S and M from the dataset and heads it loads,
need a config source (--config file and/or a --desk-scale / --paper-scale
preset). The sweep baseline alone is run-experiment with ``schemes: [sweep]``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .codebook import build_polar_codebook, build_wide_codebook, export_codebook
from .config import ConfigError, FullConfig, desk_scale_config, load_config, paper_scale_config
from .dataset import DatasetFormatError, export_labels_csv, generate_dataset, load_dataset, save_dataset
from .experiments import HEAD_SCHEMES, run_experiment
from .net import NetModelError, load_model, save_model
from .training import evaluate_heads, train_heads

DATASET_FILE = "dataset.nbds"
DIRECTION_FILE = "direction_model.nbnm"
DISTANCE_FILE = "distance_model.nbnm"


def _add_out_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", type=Path, default=Path("out"),
                        help="output directory (default ./out)")


def _add_config(parser: argparse.ArgumentParser) -> None:
    """The config source and --out-dir."""
    parser.add_argument("--config", type=Path, help="YAML config file")
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--desk-scale", action="store_true",
                       help="preset: N=64, S=5, T=4, 20000 samples")
    scale.add_argument("--paper-scale", action="store_true",
                       help="preset: N=512, S=5, T=4, 100000 samples")
    _add_out_dir(parser)


def _resolve_config(parser: argparse.ArgumentParser, args) -> FullConfig:
    if args.config is None and not args.desk_scale and not args.paper_scale:
        parser.error("one of --config, --desk-scale, --paper-scale is required")
    base = paper_scale_config() if args.paper_scale else desk_scale_config()
    if args.config is not None:
        return load_config(args.config, base)
    return base


def _dataset_path(args) -> Path:
    return args.dataset if args.dataset is not None else args.out_dir / DATASET_FILE


def _models_dir(args) -> Path:
    return args.models_dir if args.models_dir is not None else args.out_dir


def _load_heads(models_dir: Path, num_wide: int, num_angles: int, num_rings: int):
    """The direction and distance heads in ``models_dir``, each checked
    against the M measurements it reads and the N angles or S rings it
    classifies."""
    heads = []
    for name, classes, symbol in ((DIRECTION_FILE, num_angles, "N"),
                                  (DISTANCE_FILE, num_rings, "S")):
        path = models_dir / name
        model = load_model(path)
        if (model.input_length, model.head_size) != (num_wide, classes):
            raise NetModelError(f"{path}: head reads {model.input_length} measurements into "
                                f"{model.head_size} classes, expected M={num_wide} and "
                                f"{symbol}={classes}")
        heads.append(model)
    return heads


def _top_k(text: str) -> int:
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"k must be >= 1, got {k}")
    return k


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
        # a dataset the heads cannot train on: no train or val split, or an
        # M that net.pool_target does not divide
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
    ds = load_dataset(_dataset_path(args))
    dir_model, dist_model = _load_heads(_models_dir(args), ds.num_wide, ds.num_angles,
                                        ds.num_rings)
    report = evaluate_heads(dir_model, dist_model, ds, split=args.split,
                            ks=tuple(args.top_k))
    text = json.dumps(report, indent=2)
    print(text)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    (args.out_dir / "eval_report.json").write_text(text + "\n")
    return 0


def cmd_run_experiment(parser, args) -> int:
    cfg = _resolve_config(parser, args)
    dir_model = dist_model = None
    if args.stub is None and any(s in HEAD_SCHEMES for s in cfg.experiment.schemes):
        a = cfg.array
        dir_model, dist_model = _load_heads(_models_dir(args), a.num_antennas // a.subarray_factor,
                                            a.num_antennas, a.num_rings)
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


def cmd_export_codebook(parser, args) -> int:
    cfg = _resolve_config(parser, args)
    array_cfg = cfg.array_config()
    if args.kind == "polar":
        book = build_polar_codebook(array_cfg, cfg.array.num_rings,
                                    cfg.array.r_min, cfg.array.r_max)
    else:
        # the narrow codebook is the far-field codebook at T = 1
        t = 1 if args.kind == "narrow" else cfg.array.subarray_factor
        book = build_wide_codebook(array_cfg, t)
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
    _add_config(p)
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--dataset", type=Path, help="dataset file (default OUT_DIR/dataset.nbds)")
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("train", help="train the direction and distance heads")
    _add_config(p)
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--dataset", type=Path, help="dataset file (default OUT_DIR/dataset.nbds)")
    p.add_argument("--verbose", action="store_true", help="print every epoch")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-heads", help="report head accuracies on a split")
    _add_out_dir(p)
    p.add_argument("--dataset", type=Path, help="dataset file (default OUT_DIR/dataset.nbds)")
    p.add_argument("--models-dir", type=Path, help="directory with the heads (default OUT_DIR)")
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.add_argument("--top-k", type=_top_k, nargs="+", default=[1, 5])
    p.set_defaults(func=cmd_eval_heads)

    p = sub.add_parser("run-experiment",
                       help="Monte-Carlo SNR sweep over the configured schemes")
    _add_config(p)
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--models-dir", type=Path, help="directory with the heads (default OUT_DIR)")
    p.add_argument("--stub", choices=["oracle", "uniform"],
                   help="feed the schemes fixed head probabilities instead of "
                        "trained heads: one-hot on the sweep oracle, or uniform")
    p.set_defaults(func=cmd_run_experiment)

    p = sub.add_parser("export-codebook", help="write a codebook binary")
    _add_config(p)
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
