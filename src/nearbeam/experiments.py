"""Metrics and the Monte-Carlo experiment runner.

Per (scheme, SNR, trial) the runner synthesizes a fresh channel, runs the
scheme, and records the normalized beam gain against the sweep oracle plus
the overhead-discounted effective rate. Channels and the shared wide-beam
measurement are seeded per (SNR, trial) only, so every scheme sees the same
realizations and curves are directly comparable; a scheme's own extra
measurements use a scheme-specific stream. Everything derives from one
master seed, so reruns are byte-identical.

G_N <= 1 is guaranteed for every scheme that selects from the polar
codebook (sweep, original, improved, random). The far-field baseline
selects from the narrow codebook instead, so its gain is not dominated by
the polar-codebook oracle and its G_N can exceed 1 by a sliver.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codebook import build_narrow_codebook, build_polar_codebook, build_wide_codebook
from .config import ExperimentSection, FullConfig
from .geometry import sample_paths, synth_channel
from .measurement import achievable_rate, link_from_snr_db, measure_wide, sweep_oracle
from .schemes import (
    FixedProbs,
    far_field_baseline,
    improved_scheme,
    original_scheme,
    random_baseline,
    sweep_scheme,
)


@dataclass
class TrialRecord:
    scheme: str
    snr_db: float
    trial: int
    g_n: float
    rate: float
    eff_rate: float
    beams: int
    seed: int


def normalized_snr(w_hat: np.ndarray, w_star: np.ndarray, h: np.ndarray) -> float:
    """Beam gain of the chosen codeword relative to the oracle codeword."""
    denom = abs(np.vdot(w_star, h)) ** 2
    if denom == 0:
        raise ValueError("degenerate channel: oracle codeword has zero gain")
    return abs(np.vdot(w_hat, h)) ** 2 / denom


def effective_rate(w_hat, h, link, beams_tested: int, exp: ExperimentSection) -> float:
    """Achievable rate discounted by the share of the coherence budget
    (``exp.total_slots``, ``exp.slot_per_beam`` slots a beam) spent on beam
    tests."""
    overhead = exp.slot_per_beam * beams_tested
    if overhead > exp.total_slots:
        raise ValueError(
            f"beam-test overhead {overhead} exceeds coherence budget {exp.total_slots}"
        )
    return (1.0 - overhead / exp.total_slots) * achievable_rate(w_hat, h, link)


_SCHEME_IDS = {"sweep": 0, "original": 1, "improved": 2, "random": 3, "farfield": 4}


def run_experiment(
    cfg: FullConfig,
    master_seed: int,
    dir_model=None,
    dist_model=None,
    stub: str | None = None,
    out_dir=None,
):
    """Run the configured scheme/SNR grid; returns (records, summary_rows).

    ``stub`` may be 'oracle' (heads pinned to the sweep truth per trial) or
    'uniform' for model-free smoke runs; otherwise trained models must be
    supplied. When ``out_dir`` is given, per-trial and summary CSVs are
    written there.
    """
    exp = cfg.experiment
    needs_models = any(s in ("original", "improved") for s in exp.schemes)
    if needs_models and stub is None and (dir_model is None or dist_model is None):
        raise ValueError("original/improved schemes need trained models or a stub mode")
    if stub not in (None, "oracle", "uniform"):
        raise ValueError(f"unknown stub mode {stub!r}")

    array_cfg = cfg.array_config()
    polar = build_polar_codebook(array_cfg, cfg.array.num_rings, cfg.array.r_min, cfg.array.r_max)
    wide = build_wide_codebook(array_cfg, cfg.array.subarray_factor)
    narrow = build_narrow_codebook(array_cfg) if "farfield" in exp.schemes else None

    records: list[TrialRecord] = []
    for snr_idx, snr_db in enumerate(exp.snr_grid_db):
        link = link_from_snr_db(float(snr_db))
        for trial in range(exp.trials):
            chan_rng = np.random.default_rng(
                np.random.SeedSequence([master_seed, snr_idx, trial, 0])
            )
            h = synth_channel(array_cfg, sample_paths(chan_rng, cfg.scenario))
            i_star, s_star, n_star = sweep_oracle(polar, h)
            w_star = polar.codeword(i_star)
            meas_rng = np.random.default_rng(
                np.random.SeedSequence([master_seed, snr_idx, trial, 1])
            )
            yw = measure_wide(wide, h, link, meas_rng)
            # the heads' probabilities for this trial, handed to the schemes
            # through FixedProbs: a stub's fixed vectors, or one pass of each
            # trained head shared by both schemes
            if stub == "oracle":
                p_angle, p_ring = np.zeros(polar.num_angles), np.zeros(polar.num_rings)
                p_angle[n_star - 1] = p_ring[s_star - 1] = 1.0
            elif stub == "uniform":
                p_angle = np.full(polar.num_angles, 1.0 / polar.num_angles)
                p_ring = np.full(polar.num_rings, 1.0 / polar.num_rings)
            elif needs_models:
                p_angle = dir_model.predict_proba(yw.values)
                p_ring = dist_model.predict_proba(yw.values)

            for name in exp.schemes:
                scheme_seq = np.random.SeedSequence(
                    [master_seed, snr_idx, trial, 2, _SCHEME_IDS[name]]
                )
                scheme_rng = np.random.default_rng(scheme_seq)
                if name == "sweep":
                    result = sweep_scheme(polar, h)
                elif name == "original":
                    result = original_scheme(yw, FixedProbs(p_angle), FixedProbs(p_ring), polar)
                elif name == "improved":
                    result = improved_scheme(
                        yw, FixedProbs(p_angle), FixedProbs(p_ring), polar, h, link, scheme_rng,
                        exp.top_k_angles, exp.top_l_rings,
                    )
                elif name == "random":
                    result = random_baseline(polar, scheme_rng)
                else:
                    result = far_field_baseline(narrow, h, link, scheme_rng)
                records.append(TrialRecord(
                    scheme=name,
                    snr_db=float(snr_db),
                    trial=trial,
                    g_n=normalized_snr(result.codeword, w_star, h),
                    rate=achievable_rate(result.codeword, h, link),
                    eff_rate=effective_rate(result.codeword, h, link,
                                            result.beams_tested, exp),
                    beams=result.beams_tested,
                    seed=int(scheme_seq.generate_state(1)[0]),
                ))

    summary = summarize(records)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_trials_csv(out / "trials.csv", records)
        write_summary_csv(out / "summary.csv", summary)
    return records, summary


def summarize(records: list[TrialRecord]) -> list[dict]:
    """Mean/std/95% CI of G_N and effective rate per (scheme, SNR) point,
    in first-appearance order (trial order never changes the numbers)."""
    groups: dict[tuple[str, float], list[TrialRecord]] = {}
    for rec in records:
        groups.setdefault((rec.scheme, rec.snr_db), []).append(rec)
    rows = []
    for (scheme, snr_db), recs in groups.items():
        g = np.array([r.g_n for r in recs])
        e = np.array([r.eff_rate for r in recs])
        half_g = 1.96 * g.std() / np.sqrt(len(g))
        half_e = 1.96 * e.std() / np.sqrt(len(e))
        rows.append({
            "scheme": scheme, "snr_db": snr_db, "trials": len(recs),
            "g_n_mean": g.mean(), "g_n_std": g.std(), "g_n_ci95": half_g,
            "eff_rate_mean": e.mean(), "eff_rate_std": e.std(), "eff_rate_ci95": half_e,
        })
    return rows


def _fmt(x) -> str:
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def write_trials_csv(path, records: list[TrialRecord]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["scheme", "snr_db", "trial", "G_N", "rate", "eff_rate", "beams", "seed"])
        for r in records:
            writer.writerow([r.scheme, _fmt(r.snr_db), r.trial, _fmt(r.g_n),
                             _fmt(r.rate), _fmt(r.eff_rate), r.beams, r.seed])


def write_summary_csv(path, rows: list[dict]) -> None:
    cols = ["scheme", "snr_db", "trials", "g_n_mean", "g_n_std", "g_n_ci95",
            "eff_rate_mean", "eff_rate_std", "eff_rate_ci95"]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in cols])
