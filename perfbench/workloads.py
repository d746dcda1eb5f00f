"""The benchmark's three workloads, driven through the package's public API.

Each workload spends ``seconds`` on its own stage (paper-scale data
generation, desk-scale head training, or per-user beam selection) in whole
rounds. It also runs the other desk stages, in its set-up or once after its
own stage, so that every run reports every end-to-end metric. Set-up runs
several times and the median is reported.

Seeds: ``--seed`` picks the paper-scale datasets of gen-paper and the users
of the warm-up and of every selection round after the first. The desk
dataset, the heads trained on it and the users of round 0, over which G_N is
taken, come from the fixed DESK_MODEL_SEED in every workload, so G_N is the
same model scored on the same users and repeats exactly in every run.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import nearbeam as nb
from nearbeam.net import encode_batch
import reference as ref

S_RINGS, T_FACTOR, R_MIN, R_MAX = 5, 4, 10.0, 60.0
K_ANGLES, L_RINGS = 5, 2
# per head, with patience equal, so early stopping never cuts a round short;
# lr is not the desk preset's 0.01, with which two epochs leave the direction
# head worse than the uniform predictor (see the README)
EPOCHS, LR = 2, 1e-3
SNR_GRID_DB = (0.0, 5.0, 10.0, 15.0, 20.0)
SCENARIO = nb.ScenarioConfig()
DESK_MODEL_SEED = 20220927
LATENCY_CHUNK = 500
clock = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """How much work each stage does; the defaults are the benchmark's."""

    paper_antennas: int = 512          # N of gen-paper: M = 128, 2560 codewords
    round_samples: int = 100           # samples per generate -> save -> load round
    checked_per_round: int = 3         # of them, rebuilt from the seed and checked
    desk_checked: int = 20             # desk samples rebuilt and checked per dataset
    desk_antennas: int = 64            # N of the desk stages: M = 16, 320 codewords
    desk_samples: int = 2000           # desk dataset: 1600 train, 200 val, 200 test
    conv_channels: tuple = (64, 256)
    fc_widths: tuple = (1024, 1024, 512)
    warmup_desk_samples: int = 200     # generated before anything is timed
    users: int = 1000                  # selections per round
    warmup_users: int = 100            # served, checked and not timed before round 0
    warmup_samples: int = 10           # paper-scale samples generated before timing
    setups: int = 11                   # set-ups; on select-desk, desk datasets
    trained_setups: int = 2            # set-ups that also train the heads


@dataclass
class Run:
    """What one workload run measured and found."""

    metrics: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    samples: int = 0
    epochs: int = 0
    selections: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    saved_bytes: int = 0
    models: tuple = ()
    # clock at the start of set-up and at the end of the workload's own
    # stage, and what the counters grew by in between; per-layer metrics
    # cover this window, which leaves out the warm-up and the desk stages
    # run only for coverage
    window: tuple = ()
    window_counts: dict = field(default_factory=dict)

    def open_window(self) -> None:
        self.window = (clock(),)
        self.window_counts = {"saved_bytes": -self.saved_bytes, "epochs": -self.epochs}

    def close_window(self) -> None:
        self.window = (self.window[0], clock())
        self.window_counts["saved_bytes"] += self.saved_bytes
        self.window_counts["epochs"] += self.epochs

    @property
    def attempted(self) -> int:
        return self.samples + self.epochs + self.selections

    def fail(self, what: str, count: int) -> None:
        """Count ``count`` operations as failed because ``what`` raised."""
        self.failed += count
        print(f"# {what} raised:\n{traceback.format_exc()}", file=sys.stderr)


class Scale:
    """Array geometry, the program's codebooks and this benchmark's own."""

    def __init__(self, num_antennas: int):
        self.array = nb.ArrayConfig(num_antennas)
        self.polar = nb.build_polar_codebook(self.array, S_RINGS, R_MIN, R_MAX)
        self.wide = nb.build_wide_codebook(self.array, T_FACTOR)

    def reference(self):
        """Independent polar and wide codeword matrices for the checks."""
        a = self.array
        return (ref.polar_matrix(a.num_antennas, a.carrier_wavelength, a.antenna_spacing,
                                 S_RINGS, R_MIN, R_MAX),
                ref.wide_matrix(a.num_antennas, T_FACTOR))


def _seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# --- stages -------------------------------------------------------------------


def gen_round(run: Run, scale: Scale, num_samples: int, base_seed: int, path: Path,
              refs, checked: int, noise: list):
    """generate -> save -> load; returns (dataset, seconds) or (None, 0) if it raised.

    ``checked`` samples are rebuilt from their seeds and checked against
    ``refs``; their wide-beam noise is appended to ``noise``.
    """
    run.samples += num_samples
    try:
        start = clock()
        ds = nb.generate_dataset(scale.array, SCENARIO, S_RINGS, R_MIN, R_MAX, T_FACTOR,
                                 num_samples, base_seed)
        nb.save_dataset(path, ds)
        loaded = nb.load_dataset(path)
        seconds = clock() - start
    except Exception:
        run.fail("generate/save/load", num_samples)
        return None, 0.0
    run.saved_bytes += path.stat().st_size
    path.unlink()
    run.problems += ref.check_same_dataset(ds, loaded)
    picks = np.random.default_rng(base_seed).choice(num_samples, size=checked, replace=False)
    for i in picks:
        problems, sample_noise = ref.check_label(ds, int(i), *refs)
        run.problems += problems
        noise.append(sample_noise)
    return ds, seconds


def train_config(sizes: Sizes, seed: int) -> nb.TrainConfig:
    """The desk preset network, batch 125, Adam, with patience = epochs."""
    return nb.TrainConfig(batch_size=125, epochs=EPOCHS, lr=LR,
                          patience=EPOCHS, optimizer="adam", seed=seed,
                          conv_channels=sizes.conv_channels, fc_widths=sizes.fc_widths,
                          pool_target=4)


def train_round(run: Run, ds, sizes: Sizes, seed: int):
    """One train_heads call; returns (dir_model, dist_model, seconds)."""
    run.epochs += 2 * EPOCHS
    try:
        start = clock()
        d_model, s_model, hist = nb.train_heads(ds, train_config(sizes, seed))
        seconds = clock() - start
    except Exception:
        run.fail("train_heads", 2 * EPOCHS)
        return None, None, 0.0
    x_val = encode_batch(ds.yw[ds.val_indices])
    for name, model, history, labels in (
        ("direction", d_model, hist.direction, ds.label_n),
        ("distance", s_model, hist.distance, ds.label_s),
    ):
        labels0 = labels[ds.val_indices].astype(np.int64) - 1
        run.problems += ref.check_head(name, model, history, EPOCHS, x_val, labels0)
    # the distance head is held to no such bound: see the README
    run.problems += ref.check_beats_uniform("direction", hist.direction, ds.num_angles)
    run.models = (d_model, s_model)
    return d_model, s_model, seconds


def head_samples(ds) -> int:
    """Training samples one train_heads call pushes through both heads."""
    return ds.n_train * EPOCHS * 2


def serve_round(run: Run, scale: Scale, refs, d_model, s_model, seed: int,
                stream: int, users: int):
    """One closed-loop client serving ``users`` users one after another.

    User u's channel and noise come from (seed, stream, u). Only
    measure_wide + improved_scheme is timed. ``refs`` are the benchmark's own
    polar and wide matrices; the noise of every pilot the two calls spent is
    checked against them. Returns the latencies and the mean G_N of the
    improved and original schemes over the round.
    """
    ref_polar, ref_wide = refs
    latencies, picks, values, g_imp, g_org, noise = [], [], [], [], [], []
    for u in range(users):
        rng = np.random.default_rng(np.random.SeedSequence([seed, stream, u]))
        h = nb.synth_channel(scale.array, nb.sample_paths(rng, SCENARIO))
        link = nb.link_from_snr_db(SNR_GRID_DB[u % len(SNR_GRID_DB)])
        run.selections += 1
        try:
            start = clock()
            y = nb.measure_wide(scale.wide, h, link, rng)
            improved = nb.improved_scheme(y, d_model, s_model, scale.polar, h, link, rng,
                                          K_ANGLES, L_RINGS)
            latencies.append(clock() - start)
            original = nb.original_scheme(y, d_model, s_model, scale.polar)
            oracle, _, _ = nb.sweep_oracle(scale.polar, h)
        except Exception:
            run.fail("selection", 1)
            continue
        run.problems += ref.check_oracle(u, oracle, ref_polar, h)
        best = abs(np.vdot(scale.polar.codewords[oracle - 1], h)) ** 2
        g_imp.append(abs(np.vdot(improved.codeword, h)) ** 2 / best)
        g_org.append(abs(np.vdot(original.codeword, h)) ** 2 / best)
        values.append(y.values)
        cands, meas = improved.aux["candidates"], improved.aux["measurements"]
        gain = np.sqrt(link.transmit_power)
        noise += [y.values - gain * (ref_wide.conj() @ h),
                  meas - gain * (ref_polar[np.asarray(cands) - 1].conj() @ h)]
        picks.append({"user": u, "improved": improved.index, "original": original.index,
                      "candidates": cands, "measurements": meas,
                      "beams_improved": improved.beams_tested,
                      "beams_original": original.beams_tested,
                      "g_improved": g_imp[-1], "g_original": g_org[-1]})
    if picks:
        p_angle = d_model.predict_proba_batch(np.array(values))
        p_ring = s_model.predict_proba_batch(np.array(values))
        for sel, pa, pr in zip(picks, p_angle, p_ring):
            run.problems += ref.check_selection(sel, pa, pr, scale.polar.num_angles,
                                                K_ANGLES, L_RINGS, scale.wide.num_wide)
        run.problems += ref.check_gain_order(float(np.mean(g_imp)), float(np.mean(g_org)))
        run.problems += ref.check_noise_power(np.concatenate(noise))
    return latencies, float(np.mean(g_imp)), float(np.mean(g_org))


# --- workloads ----------------------------------------------------------------


def serve(run: Run, scale: Scale, d_model, s_model, seed: int, sizes: Sizes, seconds: float):
    """A warm-up, then rounds of ``sizes.users`` users until ``seconds`` have
    passed (at least two); records the selection metrics, G_N from round 0.

    Round 0 serves the fixed evaluation users, stream 1 of DESK_MODEL_SEED,
    so that G_N measures the same model on the same users in every run.
    Round k > 0 is stream k + 1 of ``seed`` and the warm-up is stream 0.
    """
    refs = scale.reference()
    serve_round(run, scale, refs, d_model, s_model, seed, 0, sizes.warmup_users)
    latencies, gains = [], []
    start = clock()
    while len(gains) < 2 or clock() - start < seconds:
        lat, g_imp, g_org = serve_round(run, scale, refs, d_model, s_model,
                                        seed if gains else DESK_MODEL_SEED,
                                        len(gains) + 1, sizes.users)
        latencies += lat
        gains.append((g_imp, g_org))
    _record_selection(run, latencies, *gains[0])


def _record_selection(run: Run, latencies, g_imp, g_org):
    """Latency metrics are medians over chunks of LATENCY_CHUNK consecutive
    selections, so that a burst of interference from outside the process,
    which on the reference machine lasts a few seconds, moves at most the
    chunks it falls in."""
    lat_ms = np.array(latencies) * 1e3
    chunks = [lat_ms[i:i + LATENCY_CHUNK]
              for i in range(0, len(lat_ms) - LATENCY_CHUNK + 1, LATENCY_CHUNK)] or [lat_ms]
    run.metrics["select_p50_ms"] = float(np.median([np.percentile(c, 50) for c in chunks]))
    run.metrics["select_p90_ms"] = float(np.median([np.percentile(c, 90) for c in chunks]))
    # reported for reading, not bounded: see the README
    run.notes["select_p99_ms"] = float(np.median([np.percentile(c, 99) for c in chunks]))
    run.metrics["selections_per_s"] = float(np.median([len(c) / c.sum() * 1e3 for c in chunks]))
    run.metrics["g_n_improved"] = g_imp
    run.metrics["g_n_original"] = g_org


def warm_up(run: Run, sizes: Sizes, workdir: Path) -> None:
    """A small desk dataset, generated before any timing: the first calls of
    a process run well below the speed of later ones."""
    scale = Scale(sizes.desk_antennas)
    gen_round(run, scale, sizes.warmup_desk_samples, _seed(DESK_MODEL_SEED, 1),
              workdir / "warmup.nbds", scale.reference(), 1, [])


def _desk_dataset(run: Run, sizes: Sizes, workdir: Path):
    """Desk codebooks and one checked desk dataset.

    Returns (scale, dataset, build_seconds, generate_seconds).
    """
    start = clock()
    scale = Scale(sizes.desk_antennas)
    build = clock() - start
    noise: list = []
    ds, gen = gen_round(run, scale, sizes.desk_samples, DESK_MODEL_SEED, workdir / "desk.nbds",
                        scale.reference(), sizes.desk_checked, noise)
    if ds is None:
        raise RuntimeError("desk dataset generation failed")
    run.problems += ref.check_noise_power(np.concatenate(noise))
    return scale, ds, build, gen


def _desk_pipeline(run: Run, sizes: Sizes, workdir: Path):
    """Desk codebooks, one generated dataset and one pair of trained heads.

    Returns (scale, dataset, dir_model, dist_model, seconds) where seconds
    holds the time spent in the program's codebook, generate and train calls.
    """
    scale, ds, build, gen = _desk_dataset(run, sizes, workdir)
    d_model, s_model, train = train_round(run, ds, sizes, DESK_MODEL_SEED)
    if d_model is None:
        raise RuntimeError("desk head training failed")
    return scale, ds, d_model, s_model, {"build": build, "gen": gen, "train": train}


def gen_paper(seed: int, seconds: float, sizes: Sizes, workdir: Path) -> Run:
    """Paper-scale generate -> save -> load rounds for ``seconds``."""
    run = Run()
    warm_up(run, sizes, workdir)
    run.open_window()
    setup_times = []
    for _ in range(sizes.setups):
        start = clock()
        scale = Scale(sizes.paper_antennas)
        setup_times.append(clock() - start)
    refs = scale.reference()
    rates, noise = [], []
    gen_round(run, scale, sizes.warmup_samples, _seed(seed, 2 ** 32 - 1),
              workdir / "paper.nbds", refs, 1, noise)
    start = clock()
    round_index = 0
    while round_index == 0 or clock() - start < seconds:
        _, took = gen_round(run, scale, sizes.round_samples, _seed(seed, round_index),
                            workdir / "paper.nbds", refs, sizes.checked_per_round, noise)
        if took:
            rates.append(sizes.round_samples / took)
        round_index += 1
    run.close_window()
    if noise:
        run.problems += ref.check_noise_power(np.concatenate(noise))
    run.metrics["setup_s"] = statistics.median(setup_times)
    run.metrics["gen_samples_per_s"] = statistics.median(rates) if rates else 0.0
    # the desk stages, once, so the run reports every metric
    desk, ds, d_model, s_model, took = _desk_pipeline(run, sizes, workdir)
    run.metrics["train_samples_per_s"] = head_samples(ds) / took["train"]
    serve(run, desk, d_model, s_model, seed, sizes, 0.0)
    return run


def train_desk(seed: int, seconds: float, sizes: Sizes, workdir: Path) -> Run:
    """train_heads rounds for ``seconds`` on a desk dataset made in set-up."""
    run = Run()
    warm_up(run, sizes, workdir)
    run.open_window()
    setup_times, gen_rates = [], []
    for _ in range(sizes.setups):
        scale, ds, build, took = _desk_dataset(run, sizes, workdir)
        setup_times.append(build + took)
        gen_rates.append(sizes.desk_samples / took)
    rates = []
    start = clock()
    while not rates or clock() - start < seconds:
        d_model, s_model, took = train_round(run, ds, sizes, DESK_MODEL_SEED)
        if d_model is None:
            raise RuntimeError("desk head training failed")
        rates.append(head_samples(ds) / took)
    run.close_window()
    run.metrics["setup_s"] = statistics.median(setup_times)
    run.metrics["gen_samples_per_s"] = statistics.median(gen_rates)
    run.metrics["train_samples_per_s"] = statistics.median(rates)
    # the trained heads serve one round of users
    serve(run, scale, d_model, s_model, seed, sizes, 0.0)
    return run


def select_desk(seed: int, seconds: float, sizes: Sizes, workdir: Path) -> Run:
    """Rounds of per-user selection for ``seconds``; heads trained in set-up."""
    run = Run()
    warm_up(run, sizes, workdir)
    run.open_window()
    setup_times, gen_rates, train_rates = [], [], []
    for _ in range(sizes.trained_setups):
        scale, ds, d_model, s_model, took = _desk_pipeline(run, sizes, workdir)
        setup_times.append(sum(took.values()))
        gen_rates.append(sizes.desk_samples / took["gen"])
        train_rates.append(head_samples(ds) / took["train"])
    # more desk datasets, untrained, so that the generation rate is a median
    # over as many datasets as on train-desk
    for _ in range(sizes.setups - sizes.trained_setups):
        gen_rates.append(sizes.desk_samples / _desk_dataset(run, sizes, workdir)[3])
    serve(run, scale, d_model, s_model, seed, sizes, seconds)
    run.close_window()
    run.metrics["setup_s"] = statistics.median(setup_times)
    run.metrics["gen_samples_per_s"] = statistics.median(gen_rates)
    run.metrics["train_samples_per_s"] = statistics.median(train_rates)
    return run


WORKLOADS = {"gen-paper": gen_paper, "train-desk": train_desk, "select-desk": select_desk}
# the rate of each workload's own stage, which the tracing overhead is read from
OWN_RATE = {"gen-paper": "gen_samples_per_s", "train-desk": "train_samples_per_s",
            "select-desk": "selections_per_s"}
