"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line with the measured numbers. The desk-scale pipeline (criteria 5-8) is
built once in a module fixture and shared."""

import time

import numpy as np
import pytest

from gradcheck import check_param_grads
from nearbeam.codebook import build_polar_codebook, build_wide_codebook
from nearbeam.config import desk_scale_config, paper_scale_config
from nearbeam.dataset import generate_dataset, save_dataset
from nearbeam.experiments import MetricsConfig, effective_rate, normalized_snr, run_experiment
from nearbeam.geometry import ArrayConfig, ScenarioConfig, sample_paths, synth_channel
from nearbeam.measurement import LinkConfig, link_from_snr_db, measure_wide, sweep_oracle
from nearbeam.net import (
    BatchNorm,
    Conv1D,
    FullyConnected,
    build_model,
    cross_entropy_batch,
    save_model,
)
from nearbeam.schemes import FixedProbs, improved_scheme, original_scheme
from nearbeam.training import TrainConfig, evaluate_heads, train_heads

DESK_SEED = 12345
NOISELESS = LinkConfig(transmit_power=1.0, noise_variance=0.0)


def _announce(capsys, line):
    with capsys.disabled():
        print(f"\n{line}", flush=True)


def _verdict(ok):
    return "PASS" if ok else "FAIL"


# --------------------------------------------------------------------------
# criterion 1: gradient correctness, every layer + the full stack, < 30 s
# --------------------------------------------------------------------------

def test_criterion_1_gradient_correctness(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0

    def probe(layer, x):
        nonlocal worst
        out = layer.forward(x, training=True)
        probe_w = rng.standard_normal(out.shape)
        layer.backward(probe_w)

        def loss():
            return float(np.sum(layer.forward(x, training=True) * probe_w))

        worst = max(worst, check_param_grads(loss, layer.parameters()))

    probe(Conv1D(2, 4, kernel=3, padding=1, rng=rng), rng.standard_normal((3, 2, 8)))
    probe(FullyConnected(6, 5, rng=rng), rng.standard_normal((4, 6)))
    bn2 = BatchNorm(5)
    bn2.momentum = 0.0
    probe(bn2, rng.standard_normal((7, 5)) + 0.3)
    bn3 = BatchNorm(4)
    bn3.momentum = 0.0
    probe(bn3, rng.standard_normal((3, 4, 6)))
    # ReLU, pooling, and the softmax head have no parameters; they are
    # exercised inside the full stack below (and their input gradients are
    # covered by the layer unit tests).
    model = build_model(8, 4, rng, conv_channels=(4, 8), fc_widths=(16, 16, 12))
    for layer in model.layers:
        if isinstance(layer, BatchNorm):
            layer.momentum = 0.0
    x = rng.standard_normal((3, 2, 8))
    labels = np.array([0, 2, 3])

    def stack_loss():
        return cross_entropy_batch(model.forward(x, training=True), labels)

    stack_loss()
    model.backward(labels)
    worst = max(worst, check_param_grads(stack_loss, model.parameters()))

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 30.0
    _announce(capsys, f"ACCEPTANCE 1 gradient-correctness: worst rel err {worst:.2e}, "
                      f"{elapsed:.1f} s (< 30 s) -- {_verdict(ok)}")
    assert worst <= 1e-4
    assert elapsed < 30.0


# --------------------------------------------------------------------------
# criterion 2: improved scheme at K=N, L=S with zero noise == sweep oracle
# --------------------------------------------------------------------------

def test_criterion_2_oracle_equivalence(capsys):
    start = time.perf_counter()
    cfg = ArrayConfig(32)
    scenario = ScenarioConfig()
    book = build_polar_codebook(cfg, 5, 10.0, 60.0)
    rng = np.random.default_rng(1)
    dir_stub, dist_stub = FixedProbs(np.full(32, 1 / 32)), FixedProbs(np.full(5, 1 / 5))
    yw = np.zeros(8, dtype=complex)
    agree = 0
    trials = 1000
    for _ in range(trials):
        h = synth_channel(cfg, sample_paths(rng, scenario))
        res = improved_scheme(yw, dir_stub, dist_stub, book, h, NOISELESS, rng, 32, 5)
        agree += res.index == sweep_oracle(book, h)[0]
    elapsed = time.perf_counter() - start
    ok = agree == trials and elapsed < 60.0
    _announce(capsys, f"ACCEPTANCE 2 oracle-equivalence: {agree}/{trials} indices agree, "
                      f"{elapsed:.1f} s (< 60 s) -- {_verdict(ok)}")
    assert agree == trials
    assert elapsed < 60.0


# --------------------------------------------------------------------------
# criterion 3: paper-scale codeword and beam counts
# --------------------------------------------------------------------------

def test_criterion_3_codebook_counts(capsys):
    cfg = paper_scale_config()
    array_cfg = cfg.array_config()
    book = build_polar_codebook(array_cfg, cfg.array.num_rings, cfg.array.r_min, cfg.array.r_max)
    num_wide = array_cfg.num_antennas // cfg.array.subarray_factor
    beams = num_wide + cfg.experiment.top_k_angles * cfg.experiment.top_l_rings
    ok = book.size == 2560 and beams == 148
    _announce(capsys, f"ACCEPTANCE 3 codebook-counts: I={book.size} (=2560), "
                      f"improved beams M+KL={beams} (=148) -- {_verdict(ok)}")
    assert book.size == 2560
    assert beams == 148


# --------------------------------------------------------------------------
# criterion 4: pilot-overhead reduction vs the exhaustive sweep
# --------------------------------------------------------------------------

def test_criterion_4_pilot_overhead(capsys):
    ratio = 148 / 2560
    reduction = 1.0 - ratio
    ok = abs(ratio - 0.0578125) < 1e-15 and abs(reduction - 0.95) < 0.01
    _announce(capsys, f"ACCEPTANCE 4 pilot-overhead: 148/2560 = {ratio:.4%} of sweep, "
                      f"reduction {reduction:.2%} (~95%) -- {_verdict(ok)}")
    assert ratio == 148 / 2560
    assert abs(reduction - 0.95) < 0.01


# --------------------------------------------------------------------------
# criteria 5-6 share one desk-scale pipeline run
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    cfg = desk_scale_config()
    start = time.perf_counter()
    ds = generate_dataset(
        cfg.array_config(), cfg.scenario_config(),
        cfg.array.num_rings, cfg.array.r_min, cfg.array.r_max,
        cfg.array.subarray_factor,
        num_samples=cfg.train.num_samples,
        base_seed=DESK_SEED,
        snr_range_db=tuple(cfg.link.train_snr_range_db),
    )
    train_cfg = TrainConfig(
        batch_size=cfg.train.batch_size,
        epochs=cfg.train.epochs,
        lr=cfg.train.lr,
        lr_decay=cfg.train.lr_decay,
        patience=cfg.train.patience,
        seed=0,
        conv_channels=tuple(cfg.net.conv_channels),
        fc_widths=tuple(cfg.net.fc_widths),
        pool_target=cfg.net.pool_target,
    )
    dir_model, dist_model, history = train_heads(ds, train_cfg)

    # fixed-SNR evaluation on the 2000 test-split channels, rebuilt from
    # their stored seeds; the wide-beam measurement is shared per channel
    array_cfg = cfg.array_config()
    scenario = cfg.scenario_config()
    polar = build_polar_codebook(array_cfg, cfg.array.num_rings, cfg.array.r_min, cfg.array.r_max)
    wide = build_wide_codebook(array_cfg, cfg.array.subarray_factor)
    link10 = link_from_snr_db(10.0)
    rng_eval = np.random.default_rng(777)
    gains = {"orig": [], "imp52": [], "imp102": [], "imp11": [],
             "orig0": [], "imp0": []}
    for i in ds.test_indices:
        srng = np.random.default_rng(int(ds.seeds[i]))
        h = synth_channel(array_cfg, sample_paths(srng, scenario))
        w_star = polar.codeword(sweep_oracle(polar, h)[0])
        yw = measure_wide(wide, h, link10, rng_eval)

        def g(result):
            return normalized_snr(result.codeword, w_star, h)

        orig = original_scheme(yw, dir_model, dist_model, polar)
        gains["orig"].append(g(orig))
        gains["imp52"].append(g(improved_scheme(
            yw, dir_model, dist_model, polar, h, link10, rng_eval, 5, 2)))
        gains["imp102"].append(g(improved_scheme(
            yw, dir_model, dist_model, polar, h, link10, rng_eval, 10, 2)))
        gains["imp11"].append(g(improved_scheme(
            yw, dir_model, dist_model, polar, h, link10, rng_eval, 1, 1)))
        # zero measurement noise in the additional tests (criterion 6)
        gains["orig0"].append(gains["orig"][-1])
        gains["imp0"].append(g(improved_scheme(
            yw, dir_model, dist_model, polar, h, NOISELESS, rng_eval, 5, 2)))
    elapsed = time.perf_counter() - start
    return {
        "config": cfg,
        "dataset": ds,
        "dir_model": dir_model,
        "dist_model": dist_model,
        "history": history,
        "gains": {k: np.array(v) for k, v in gains.items()},
        "elapsed": elapsed,
    }


def test_criterion_5_desk_scale_learning(desk_run, capsys):
    ds = desk_run["dataset"]
    report = evaluate_heads(desk_run["dir_model"], desk_run["dist_model"], ds, split="val")
    top1 = report["direction"]["top_k"][1]
    g = desk_run["gains"]
    mean_orig = g["orig"].mean()
    mean_52 = g["imp52"].mean()
    mean_102 = g["imp102"].mean()
    mean_11 = g["imp11"].mean()
    elapsed = desk_run["elapsed"]
    ok_a = top1 >= 5 / 64
    ok_b = mean_orig >= 0.4
    ok_c = mean_52 >= mean_orig
    ok_d = mean_102 >= mean_11 - 0.01
    ok_t = elapsed <= 1800.0
    ok = ok_a and ok_b and ok_c and ok_d and ok_t
    _announce(capsys,
              f"ACCEPTANCE 5 desk-scale learning: "
              f"(a) dir val top1 {top1:.3f} >= {5 / 64:.3f} [{_verdict(ok_a)}], "
              f"(b) G_N(original) {mean_orig:.3f} >= 0.4 [{_verdict(ok_b)}], "
              f"(c) G_N(improved 5,2) {mean_52:.3f} >= original [{_verdict(ok_c)}], "
              f"(d) G_N(improved 10,2) {mean_102:.3f} >= G_N(improved 1,1) {mean_11:.3f} - 0.01 "
              f"[{_verdict(ok_d)}], runtime {elapsed / 60:.1f} min (<= 30) [{_verdict(ok_t)}] "
              f"-- {_verdict(ok)}")
    assert ok_a and ok_b and ok_c and ok_d and ok_t


def test_criterion_6_zero_noise_dominance(desk_run, capsys):
    g = desk_run["gains"]
    diffs = g["imp0"] - g["orig0"]
    violations = int((diffs < 0).sum())
    ok = violations == 0
    _announce(capsys,
              f"ACCEPTANCE 6 zero-noise dominance: {len(diffs)} samples, "
              f"{violations} violations, min(G_N(improved)-G_N(original)) = "
              f"{diffs.min():.3e} -- {_verdict(ok)}")
    assert violations == 0


# --------------------------------------------------------------------------
# criterion 7: byte-identical dataset, model, and CSV reproduction
# --------------------------------------------------------------------------

def test_criterion_7_determinism(tmp_path, capsys):
    cfg = desk_scale_config()

    def tiny_ds():
        return generate_dataset(
            ArrayConfig(16), ScenarioConfig(), 3, 10.0, 60.0, 4,
            num_samples=300, base_seed=99,
        )

    # dataset files at full desk scale are compared in the dataset unit
    # tests; here a fast config keeps the whole criterion under a minute
    paths = [tmp_path / f"ds{i}.nbds" for i in (0, 1)]
    for p in paths:
        save_dataset(p, tiny_ds())
    ds_ok = paths[0].read_bytes() == paths[1].read_bytes()

    train_cfg = TrainConfig(batch_size=50, epochs=2, seed=4,
                            conv_channels=(4, 8), fc_widths=(16, 16, 8), pool_target=1)
    model_paths = [tmp_path / f"m{i}.nbnm" for i in (0, 1)]
    for p in model_paths:
        dir_model, _, _ = train_heads(tiny_ds(), train_cfg)
        save_model(p, dir_model)
    model_ok = model_paths[0].read_bytes() == model_paths[1].read_bytes()

    exp_cfg = desk_scale_config()
    exp_cfg.array.num_antennas = 16
    exp_cfg.array.num_rings = 3
    exp_cfg.experiment.trials = 10
    exp_cfg.experiment.snr_grid_db = [0.0, 10.0]
    exp_cfg.experiment.top_k_angles = 3
    out = [tmp_path / f"run{i}" for i in (0, 1)]
    for o in out:
        run_experiment(exp_cfg, master_seed=7, stub="uniform", out_dir=o)
    csv_ok = ((out[0] / "trials.csv").read_bytes() == (out[1] / "trials.csv").read_bytes()
              and (out[0] / "summary.csv").read_bytes() == (out[1] / "summary.csv").read_bytes())

    ok = ds_ok and model_ok and csv_ok
    _announce(capsys,
              f"ACCEPTANCE 7 determinism: dataset bytes {_verdict(ds_ok)}, "
              f"model bytes {_verdict(model_ok)}, experiment CSV bytes {_verdict(csv_ok)} "
              f"-- {_verdict(ok)}")
    assert ds_ok and model_ok and csv_ok


# --------------------------------------------------------------------------
# criterion 8: G_N bounded by the oracle; overhead ordering of rates
# --------------------------------------------------------------------------

def test_criterion_8_metric_sanity(desk_run, capsys):
    cfg = desk_scale_config()
    cfg.experiment.trials = 100
    records, _ = run_experiment(
        cfg, master_seed=11,
        dir_model=desk_run["dir_model"], dist_model=desk_run["dist_model"],
    )
    max_g = max(r.g_n for r in records)
    bound_ok = max_g <= 1.0 + 1e-12

    # at equal beam gain, the 2560-beam sweep pays more overhead than the
    # 148-beam improved scheme: ratio of effective rates is 0.9/0.99421875
    w = np.array([1.0 + 0j])
    metrics = MetricsConfig(slot_per_beam=1, total_slots=25600)
    r_sweep = effective_rate(w, w, LinkConfig(), 2560, metrics)
    r_improved = effective_rate(w, w, LinkConfig(), 148, metrics)
    ratio_ok = (abs(r_sweep / r_improved - 0.9 / 0.99421875) < 1e-12
                and r_sweep < r_improved)

    ok = bound_ok and ratio_ok
    _announce(capsys,
              f"ACCEPTANCE 8 metric sanity: max G_N {max_g:.12f} <= 1+1e-12 "
              f"[{_verdict(bound_ok)}] over {len(records)} trials; "
              f"eff-rate ratio sweep/improved = {r_sweep / r_improved:.8f} "
              f"(= {0.9 / 0.99421875:.8f}) [{_verdict(ratio_ok)}] -- {_verdict(ok)}")
    assert bound_ok and ratio_ok
