import numpy as np
import pytest

from nearbeam.codebook import build_polar_codebook, build_wide_codebook
from nearbeam.config import desk_scale_config
from nearbeam.experiments import (
    MetricsConfig,
    effective_rate,
    normalized_snr,
    run_experiment,
    summarize,
    write_summary_csv,
    write_trials_csv,
)
from nearbeam.geometry import ArrayConfig, ScenarioConfig, sample_paths, synth_channel
from nearbeam.measurement import LinkConfig, link_from_snr_db, measure_wide, sweep_oracle
from nearbeam.schemes import improved_scheme, original_scheme


class CountingHead:
    """Deterministic stand-in head that counts its forward passes."""

    def __init__(self, classes, seed):
        self.proj = np.random.default_rng(seed).standard_normal((classes, 8))
        self.calls = 0

    def predict_proba(self, values):
        self.calls += 1
        x = np.concatenate([values.real, values.imag])[:8]
        logits = self.proj[:, :len(x)] @ x
        return np.exp(logits) / np.exp(logits).sum()


def tiny_config(schemes=("sweep", "original", "improved", "random", "farfield")):
    cfg = desk_scale_config()
    cfg.array.num_antennas = 16
    cfg.array.num_rings = 3
    cfg.array.subarray_factor = 4
    cfg.experiment.schemes = list(schemes)
    cfg.experiment.snr_grid_db = [0.0, 10.0]
    cfg.experiment.trials = 8
    cfg.experiment.top_k_angles = 3
    cfg.experiment.top_l_rings = 2
    return cfg


class TestNormalizedSnr:
    def test_oracle_gives_one(self):
        cfg = ArrayConfig(16)
        book = build_polar_codebook(cfg, 3, 10.0, 60.0)
        h = synth_channel(cfg, sample_paths(np.random.default_rng(0), ScenarioConfig()))
        w = book.codeword(sweep_oracle(book, h)[0])
        assert normalized_snr(w, w, h) == pytest.approx(1.0)

    def test_orthogonal_gives_zero(self):
        h = np.array([1.0 + 0j, 0j])
        w_star = h / np.linalg.norm(h)
        w_hat = np.array([0j, 1.0 + 0j])
        assert normalized_snr(w_hat, w_star, h) == 0.0

    def test_never_exceeds_one_against_oracle(self):
        cfg = ArrayConfig(16)
        book = build_polar_codebook(cfg, 3, 10.0, 60.0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            h = synth_channel(cfg, sample_paths(rng, ScenarioConfig()))
            w_star = book.codeword(sweep_oracle(book, h)[0])
            w_hat = book.codeword(int(rng.integers(1, book.size + 1)))
            assert normalized_snr(w_hat, w_star, h) <= 1.0 + 1e-12

    def test_degenerate_channel_rejected(self):
        w_star = np.array([1.0 + 0j, 0j])
        h = np.array([0j, 1.0 + 0j])
        with pytest.raises(ValueError):
            normalized_snr(w_star, w_star, h)


class TestEffectiveRate:
    def test_full_overhead_kills_rate(self):
        w = np.array([1.0 + 0j])
        metrics = MetricsConfig(slot_per_beam=1, total_slots=100)
        assert effective_rate(w, w, LinkConfig(), 100, metrics) == 0.0

    def test_zero_beams_gives_plain_rate(self):
        w = np.array([1.0 + 0j])
        metrics = MetricsConfig()
        assert effective_rate(w, w, LinkConfig(), 0, metrics) == pytest.approx(1.0)

    def test_sweep_vs_improved_overhead_ratio(self):
        # paper-scale beam counts: 2560-beam sweep vs 148-beam improved scheme
        w = np.array([1.0 + 0j])
        metrics = MetricsConfig(slot_per_beam=1, total_slots=25600)
        r_sweep = effective_rate(w, w, LinkConfig(), 2560, metrics)
        r_improved = effective_rate(w, w, LinkConfig(), 148, metrics)
        assert r_sweep / r_improved == pytest.approx(0.9 / 0.99421875, abs=1e-12)
        assert r_sweep < r_improved

    def test_monotone_decreasing_in_beams(self):
        w = np.array([1.0 + 0j])
        metrics = MetricsConfig()
        rates = [effective_rate(w, w, LinkConfig(), b, metrics) for b in (0, 10, 100, 1000)]
        assert np.all(np.diff(rates) < 0)

    def test_budget_exceeded_rejected(self):
        w = np.array([1.0 + 0j])
        with pytest.raises(ValueError):
            effective_rate(w, w, LinkConfig(), 101, MetricsConfig(total_slots=100))


class TestRunExperiment:
    def test_oracle_stub_achieves_unit_gain(self):
        # original with oracle stubs is pure composition: G_N = 1 at any SNR.
        # improved re-tests its candidates with fresh pilot noise, so noise
        # can still swap in a near-equivalent codeword; at high SNR only
        # near-ties can flip and the mean stays within a sliver of 1.
        cfg = tiny_config(schemes=("original", "improved"))
        records, _ = run_experiment(cfg, master_seed=0, stub="oracle")
        assert all(r.g_n == pytest.approx(1.0, abs=1e-12)
                   for r in records if r.scheme == "original")
        cfg.experiment.snr_grid_db = [40.0, 60.0]
        records, summary = run_experiment(cfg, master_seed=0, stub="oracle")
        assert all(r.g_n == pytest.approx(1.0, abs=1e-12)
                   for r in records if r.scheme == "original")
        assert all(row["g_n_mean"] >= 0.999 for row in summary)

    def test_row_counts_and_gain_bound(self):
        cfg = tiny_config()
        records, summary = run_experiment(cfg, master_seed=1, stub="uniform")
        assert len(records) == 5 * 2 * 8
        assert len(summary) == 5 * 2
        polar_schemes = {"sweep", "original", "improved", "random"}
        assert all(r.g_n <= 1.0 + 1e-12 for r in records if r.scheme in polar_schemes)
        # the far-field baseline picks outside the polar codebook; its gain
        # is recorded as-is and may top 1 by a sliver
        assert all(r.g_n <= 1.01 for r in records if r.scheme == "farfield")
        assert all(r.eff_rate >= 0.0 for r in records)

    def test_beam_counts_per_scheme(self):
        cfg = tiny_config()
        records, _ = run_experiment(cfg, master_seed=2, stub="uniform")
        by_scheme = {r.scheme: r.beams for r in records}
        assert by_scheme["sweep"] == 48
        assert by_scheme["original"] == 4
        assert by_scheme["improved"] == 4 + 6
        assert by_scheme["random"] == 0
        assert by_scheme["farfield"] == 16

    def test_deterministic_csv_bytes(self, tmp_path):
        cfg = tiny_config(schemes=("original", "improved", "random"))
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        run_experiment(cfg, master_seed=3, stub="uniform", out_dir=out1)
        run_experiment(cfg, master_seed=3, stub="uniform", out_dir=out2)
        assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
        header = (out1 / "trials.csv").read_text().splitlines()[0]
        assert header == "scheme,snr_db,trial,G_N,rate,eff_rate,beams,seed"

    def test_channels_shared_across_schemes(self):
        # same (snr, trial) must evaluate every scheme on the same channel:
        # the sweep result pins the channel, so rerunning a subset agrees
        cfg_all = tiny_config(schemes=("sweep", "original"))
        cfg_sweep = tiny_config(schemes=("sweep",))
        rec_all, _ = run_experiment(cfg_all, master_seed=4, stub="uniform")
        rec_sweep, _ = run_experiment(cfg_sweep, master_seed=4, stub="uniform")
        a = [(r.snr_db, r.trial, r.rate) for r in rec_all if r.scheme == "sweep"]
        b = [(r.snr_db, r.trial, r.rate) for r in rec_sweep]
        assert a == b

    def test_summary_invariant_to_trial_order(self):
        cfg = tiny_config(schemes=("original", "random"))
        records, summary = run_experiment(cfg, master_seed=5, stub="uniform")
        rng = np.random.default_rng(0)
        shuffled = [records[i] for i in rng.permutation(len(records))]
        resummary = summarize(shuffled)
        key = lambda row: (row["scheme"], row["snr_db"])
        for row in summary:
            twin = next(r for r in resummary if key(r) == key(row))
            assert twin["g_n_mean"] == pytest.approx(row["g_n_mean"], abs=1e-15)
            assert twin["eff_rate_mean"] == pytest.approx(row["eff_rate_mean"], abs=1e-15)

    def test_each_head_runs_once_per_trial(self):
        # both schemes share one pass of each head; the records equal those
        # of each scheme called with the heads themselves
        cfg = tiny_config(schemes=("original", "improved"))
        exp = cfg.experiment
        dir_head, dist_head = CountingHead(16, 1), CountingHead(3, 2)
        records, _ = run_experiment(cfg, master_seed=7, dir_model=dir_head,
                                    dist_model=dist_head)
        trials = len(exp.snr_grid_db) * exp.trials
        assert dir_head.calls == dist_head.calls == trials

        array_cfg = cfg.array_config()
        polar = build_polar_codebook(array_cfg, cfg.array.num_rings, cfg.array.r_min,
                                     cfg.array.r_max)
        wide = build_wide_codebook(array_cfg, cfg.array.subarray_factor)
        expected = []
        for snr_idx, snr_db in enumerate(exp.snr_grid_db):
            link = link_from_snr_db(snr_db)
            for trial in range(exp.trials):
                def rng(*tail):
                    seq = np.random.SeedSequence([7, snr_idx, trial, *tail])
                    return np.random.default_rng(seq)
                h = synth_channel(array_cfg, sample_paths(rng(0), cfg.scenario_config()))
                yw = measure_wide(wide, h, link, rng(1))
                w_star = polar.codeword(sweep_oracle(polar, h)[0])
                for res in (original_scheme(yw, dir_head, dist_head, polar),
                            improved_scheme(yw, dir_head, dist_head, polar, h, link,
                                            rng(2, 2), exp.top_k_angles, exp.top_l_rings)):
                    expected.append((normalized_snr(res.codeword, w_star, h), res.beams_tested))
        assert [(r.g_n, r.beams) for r in records] == expected

    def test_budget_violation_rejected(self):
        cfg = tiny_config()
        cfg.experiment.total_slots = 20  # below the 48-beam sweep
        with pytest.raises(ValueError):
            run_experiment(cfg, master_seed=0, stub="uniform")

    def test_models_required_without_stub(self):
        cfg = tiny_config(schemes=("original",))
        with pytest.raises(ValueError):
            run_experiment(cfg, master_seed=0)

    def test_csv_writers(self, tmp_path):
        cfg = tiny_config(schemes=("random",))
        records, summary = run_experiment(cfg, master_seed=6, stub=None)
        write_trials_csv(tmp_path / "t.csv", records)
        write_summary_csv(tmp_path / "s.csv", summary)
        t_lines = (tmp_path / "t.csv").read_text().splitlines()
        s_lines = (tmp_path / "s.csv").read_text().splitlines()
        assert len(t_lines) == 1 + len(records)
        assert len(s_lines) == 1 + len(summary)
