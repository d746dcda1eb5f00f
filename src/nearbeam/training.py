"""Training and evaluation of the direction and distance classifier heads.

Both heads are trained from the same dataset pass: the direction network
predicts the 1-based angle index (N classes), the distance network the ring
index (S classes). Training is plain mini-batch Adam with a per-epoch
learning-rate decay and early stopping on validation loss. At the end the
model is put back as it was at its best-val epoch: its parameters *and* its
BatchNorm running statistics, so the returned model scores in eval mode
exactly the validation loss recorded for that epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .dataset import Dataset
from .net import Adam, build_model, cross_entropy_batch, encode_batch

EVAL_CHUNK = 1024
# train-SNR buckets of the evaluation report; the top edge takes in 20 dB
SNR_EDGES = (0.0, 5.0, 10.0, 15.0, 20.0000001)


@dataclass
class TrainConfig:
    batch_size: int = 125
    epochs: int = 40
    lr: float = 0.01
    lr_decay: float = 0.95
    patience: int = 10
    optimizer: str = "adam"  # the only optimizer; configs may still name it
    seed: int = 0
    conv_channels: tuple[int, int] = (64, 256)
    fc_widths: tuple[int, int, int] = (1024, 1024, 512)
    pool_target: int = 1
    verbose: bool = False

    def __post_init__(self):
        if self.optimizer != "adam":
            raise ValueError(f"optimizer must be adam, got {self.optimizer!r}")
        for name, count in (("conv_channels", 2), ("fc_widths", 3)):
            widths = getattr(self, name)
            if len(widths) != count or not all(
                    isinstance(w, Integral) and not isinstance(w, bool) and w >= 1
                    for w in widths):
                raise ValueError(f"{name} must be {count} positive integers, got {widths}")
        for name in ("batch_size", "epochs", "patience", "pool_target"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr", "lr_decay"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    val_loss: float
    val_top1: float


@dataclass
class TrainHistory:
    direction: list[EpochStats] = field(default_factory=list)
    distance: list[EpochStats] = field(default_factory=list)


def _forward_eval(model, x: np.ndarray) -> np.ndarray:
    outs = [model.forward(x[i:i + EVAL_CHUNK], training=False)
            for i in range(0, len(x), EVAL_CHUNK)]
    return np.concatenate(outs, axis=0)


def _train_one_head(x, labels0, train_idx, val_idx, head_size, cfg, seed, tag):
    rng = np.random.default_rng(seed)
    model = build_model(
        x.shape[2], head_size, rng,
        conv_channels=tuple(cfg.conv_channels),
        fc_widths=tuple(cfg.fc_widths),
        pool_target=cfg.pool_target,
    )
    opt = Adam(model, lr=cfg.lr)
    history: list[EpochStats] = []
    best_loss = np.inf
    best_state = model.snapshot()
    since_best = 0
    for epoch in range(cfg.epochs):
        opt.lr = cfg.lr * cfg.lr_decay ** epoch
        order = train_idx[rng.permutation(len(train_idx))]
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            probs = model.forward(x[batch], training=True)
            losses.append(cross_entropy_batch(probs, labels0[batch]))
            model.backward(labels0[batch])
            opt.step()
        val_probs = _forward_eval(model, x[val_idx])
        val_loss = cross_entropy_batch(val_probs, labels0[val_idx])
        val_top1 = float((val_probs.argmax(axis=1) == labels0[val_idx]).mean())
        history.append(EpochStats(epoch=epoch, lr=opt.lr,
                                  train_loss=float(np.mean(losses)),
                                  val_loss=val_loss, val_top1=val_top1))
        if cfg.verbose:
            print(f"[{tag}] epoch {epoch:3d}  lr {opt.lr:.5f}  "
                  f"train {history[-1].train_loss:.4f}  val {val_loss:.4f}  "
                  f"top1 {val_top1:.3f}", flush=True)
        if val_loss < best_loss:
            best_loss = val_loss
            best_state = model.snapshot()
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    model.restore(best_state)
    return model, history


def train_heads(ds: Dataset, cfg: TrainConfig):
    """Train the direction and distance networks; returns both models and
    the per-epoch history of each. Early stopping needs a validation split:
    a dataset without one raises ValueError."""
    if ds.n_val == 0:
        raise ValueError("train_heads needs validation samples; the dataset's val split is empty")
    x = encode_batch(ds.yw)
    train_idx, val_idx = ds.train_indices, ds.val_indices
    dir_model, dir_hist = _train_one_head(
        x, ds.label_n.astype(np.int64) - 1, train_idx, val_idx,
        ds.num_angles, cfg, seed=cfg.seed, tag="direction",
    )
    dist_model, dist_hist = _train_one_head(
        x, ds.label_s.astype(np.int64) - 1, train_idx, val_idx,
        ds.num_rings, cfg, seed=cfg.seed + 1, tag="distance",
    )
    return dir_model, dist_model, TrainHistory(direction=dir_hist, distance=dist_hist)


def top_k_accuracy(probs: np.ndarray, labels0: np.ndarray, k: int) -> float:
    """Fraction of rows whose label lands in the k most probable classes."""
    if not 1 <= k <= probs.shape[1]:
        raise ValueError(f"k={k} out of range 1..{probs.shape[1]}")
    top = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    return float((top == labels0[:, None]).any(axis=1).mean())


def _head_report(probs, labels0, snr_db, ks):
    report = {"top_k": {k: top_k_accuracy(probs, labels0, k) for k in ks}}
    pred = probs.argmax(axis=1)
    buckets = {}
    for lo, hi in zip(SNR_EDGES[:-1], SNR_EDGES[1:]):
        mask = (snr_db >= lo) & (snr_db < hi)
        if mask.any():
            buckets[f"[{lo:g},{hi:g})"] = float((pred[mask] == labels0[mask]).mean())
    report["top1_by_snr"] = buckets
    wrong = pred != labels0
    pairs, counts = np.unique(
        np.stack([labels0[wrong], pred[wrong]]), axis=1, return_counts=True
    )
    order = np.argsort(-counts)[:5]
    report["top_confusions"] = [
        {"true": int(pairs[0, j]) + 1, "pred": int(pairs[1, j]) + 1, "count": int(counts[j])}
        for j in order
    ]
    return report


def evaluate_heads(
    dir_model,
    dist_model,
    ds: Dataset,
    split: str = "test",
    ks: tuple[int, ...] = (1, 5),
) -> dict:
    """Top-1/top-k accuracy per head, stratified by the sample's train SNR."""
    idx = {"train": ds.train_indices, "val": ds.val_indices, "test": ds.test_indices}[split]
    x = encode_batch(ds.yw[idx])
    snr = ds.snr_db[idx]
    report = {"split": split, "count": len(idx)}
    for name, model, labels in (
        ("direction", dir_model, ds.label_n[idx].astype(np.int64) - 1),
        ("distance", dist_model, ds.label_s[idx].astype(np.int64) - 1),
    ):
        probs = _forward_eval(model, x)
        valid_ks = [k for k in ks if k <= probs.shape[1]] + [probs.shape[1]]
        report[name] = _head_report(probs, labels, snr, sorted(set(valid_ks)))
    return report
