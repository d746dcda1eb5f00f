import numpy as np
import numpy.testing as npt
import pytest

from nearbeam.codebook import build_polar_codebook, build_wide_codebook
from nearbeam.geometry import ArrayConfig, PathParams, ScenarioConfig, sample_paths, synth_channel
from nearbeam.measurement import LinkConfig, link_from_snr_db, measure_wide, sweep_oracle
from nearbeam.schemes import (
    FixedProbs,
    candidate_indices,
    far_field_baseline,
    improved_scheme,
    original_scheme,
    random_baseline,
    sweep_scheme,
    top_k,
)

NOISELESS = LinkConfig(transmit_power=1.0, noise_variance=0.0)


def one_hot(classes, index):
    """A head pinned to class ``index`` (1-based)."""
    p = np.zeros(classes)
    p[index - 1] = 1.0
    return FixedProbs(p)


def uniform(classes):
    return FixedProbs(np.full(classes, 1.0 / classes))


def random_probs(classes, seed):
    """Arbitrary fixed probability head, for structural scheme properties."""
    p = np.random.default_rng(seed).uniform(0.01, 1.0, classes)
    return FixedProbs(p / p.sum())


def random_channel(rng, cfg):
    return synth_channel(cfg, sample_paths(rng, ScenarioConfig()))


class TestTopK:
    def test_basic_ordering(self):
        npt.assert_array_equal(top_k(np.array([0.1, 0.5, 0.4]), 2), [2, 3])

    def test_full_length_is_permutation(self):
        p = np.array([0.2, 0.5, 0.1, 0.2])
        order = top_k(p, 4)
        assert sorted(order) == [1, 2, 3, 4]
        assert np.all(np.diff(p[order - 1]) <= 0)

    def test_tie_prefers_smaller_index(self):
        npt.assert_array_equal(top_k(np.array([0.3, 0.3, 0.4]), 2), [3, 1])
        npt.assert_array_equal(top_k(np.array([0.25, 0.25, 0.25, 0.25]), 3), [1, 2, 3])

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            top_k(np.array([0.5, 0.5]), 0)
        with pytest.raises(ValueError):
            top_k(np.array([0.5, 0.5]), 3)


class TestCandidateIndices:
    def test_worked_example(self):
        got = candidate_indices(np.array([2, 5]), np.array([1, 3]), 8)
        npt.assert_array_equal(got, [2, 5, 18, 21])

    def test_enumeration_order_is_ring_major(self):
        got = candidate_indices(np.array([3, 1]), np.array([2, 1]), 4)
        npt.assert_array_equal(got, [7, 5, 3, 1])

    def test_product_size(self):
        got = candidate_indices(np.arange(1, 5), np.arange(1, 4), 16)
        assert len(got) == 12
        assert len(set(got.tolist())) == 12


class TestOriginalScheme:
    def test_stub_one_hot_example(self):
        book = build_polar_codebook(ArrayConfig(16), 3, 10.0, 60.0)
        yw = np.zeros(4, dtype=complex)
        res = original_scheme(yw, one_hot(16, 7), one_hot(3, 2), book)
        assert res.index == 23
        assert res.beams_tested == 4
        assert np.array_equal(res.codeword, book.codeword(23))

    def test_uniform_stub_ties_to_first(self):
        book = build_polar_codebook(ArrayConfig(8), 2, 10.0, 60.0)
        res = original_scheme(np.zeros(2, dtype=complex), uniform(8), uniform(2), book)
        assert res.index == 1

    def test_oracle_stub_recovers_truth(self):
        cfg = ArrayConfig(16)
        book = build_polar_codebook(cfg, 3, 10.0, 60.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = random_channel(rng, cfg)
            i_star, s_star, n_star = sweep_oracle(book, h)
            res = original_scheme(
                np.zeros(4, dtype=complex),
                one_hot(16, n_star), one_hot(3, s_star), book,
            )
            assert res.index == i_star

    def test_head_size_mismatch_rejected(self):
        book = build_polar_codebook(ArrayConfig(8), 2, 10.0, 60.0)
        with pytest.raises(ValueError):
            original_scheme(np.zeros(2, dtype=complex), one_hot(9, 1), one_hot(2, 1), book)
        with pytest.raises(ValueError):
            original_scheme(np.zeros(2, dtype=complex), one_hot(8, 1), one_hot(3, 1), book)


class TestImprovedScheme:
    def test_beam_accounting_paper_numbers(self):
        cfg = ArrayConfig(512)
        book = build_polar_codebook(cfg, 5, 10.0, 60.0)
        rng = np.random.default_rng(1)
        h = random_channel(rng, cfg)
        yw = np.zeros(128, dtype=complex)  # M = 128 wide beams
        res = improved_scheme(yw, random_probs(512, 0), random_probs(5, 1),
                              book, h, NOISELESS, rng, 10, 2)
        assert res.beams_tested == 148
        assert len(res.aux["candidates"]) == 20

    def test_exhaustive_settings_match_sweep(self):
        cfg = ArrayConfig(32)
        book = build_polar_codebook(cfg, 5, 10.0, 60.0)
        rng = np.random.default_rng(2)
        dir_stub, dist_stub = random_probs(32, 3), random_probs(5, 4)
        for _ in range(100):
            h = random_channel(rng, cfg)
            res = improved_scheme(np.zeros(8, dtype=complex), dir_stub, dist_stub,
                                  book, h, NOISELESS, rng, 32, 5)
            assert res.index == sweep_oracle(book, h)[0]

    def test_k1_l1_reduces_to_original(self):
        cfg = ArrayConfig(16)
        book = build_polar_codebook(cfg, 3, 10.0, 60.0)
        rng = np.random.default_rng(3)
        dir_stub, dist_stub = random_probs(16, 5), random_probs(3, 6)
        h = random_channel(rng, cfg)
        yw = np.zeros(4, dtype=complex)
        orig = original_scheme(yw, dir_stub, dist_stub, book)
        imp = improved_scheme(yw, dir_stub, dist_stub, book, h, NOISELESS, rng, 1, 1)
        assert imp.index == orig.index
        assert imp.beams_tested == orig.beams_tested + 1

    def test_zero_noise_dominates_original_per_sample(self):
        cfg = ArrayConfig(16)
        book = build_polar_codebook(cfg, 3, 10.0, 60.0)
        rng = np.random.default_rng(4)
        dir_stub, dist_stub = random_probs(16, 7), random_probs(3, 8)
        for _ in range(200):
            h = random_channel(rng, cfg)
            yw = np.zeros(4, dtype=complex)
            orig = original_scheme(yw, dir_stub, dist_stub, book)
            imp = improved_scheme(yw, dir_stub, dist_stub, book, h, NOISELESS, rng, 4, 2)
            gain_orig = abs(np.vdot(orig.codeword, h))
            gain_imp = abs(np.vdot(imp.codeword, h))
            assert gain_imp >= gain_orig - 1e-12

    def test_zero_noise_objective_monotone_in_k_l(self):
        cfg = ArrayConfig(16)
        book = build_polar_codebook(cfg, 4, 10.0, 60.0)
        rng = np.random.default_rng(5)
        dir_stub, dist_stub = random_probs(16, 9), random_probs(4, 10)
        h = random_channel(rng, cfg)
        yw = np.zeros(4, dtype=complex)
        gains = {}
        for k, l in [(1, 1), (2, 1), (2, 2), (4, 2), (4, 4), (16, 4)]:
            res = improved_scheme(yw, dir_stub, dist_stub, book, h, NOISELESS, rng, k, l)
            gains[(k, l)] = abs(np.vdot(res.codeword, h))
        pairs = list(gains)
        for a, b in zip(pairs[:-1], pairs[1:]):
            assert gains[b] >= gains[a] - 1e-12

    def test_candidate_sets_nested(self):
        cfg = ArrayConfig(16)
        book = build_polar_codebook(cfg, 4, 10.0, 60.0)
        rng = np.random.default_rng(6)
        dir_stub, dist_stub = random_probs(16, 11), random_probs(4, 12)
        h = random_channel(rng, cfg)
        yw = np.zeros(4, dtype=complex)
        small = improved_scheme(yw, dir_stub, dist_stub, book, h, NOISELESS, rng, 2, 2)
        large = improved_scheme(yw, dir_stub, dist_stub, book, h, NOISELESS, rng, 5, 3)
        assert set(small.aux["candidates"].tolist()) <= set(large.aux["candidates"].tolist())


class TestBaselines:
    def test_sweep_scheme_wraps_oracle(self):
        cfg = ArrayConfig(16)
        book = build_polar_codebook(cfg, 3, 10.0, 60.0)
        h = random_channel(np.random.default_rng(7), cfg)
        res = sweep_scheme(book, h)
        assert res.index == sweep_oracle(book, h)[0]
        assert res.beams_tested == 48

    def test_random_baseline_gain_is_poor(self):
        cfg = ArrayConfig(32)
        book = build_polar_codebook(cfg, 5, 10.0, 60.0)
        rng = np.random.default_rng(8)
        ratios = []
        for _ in range(2000):
            h = random_channel(rng, cfg)
            w_star = book.codeword(sweep_oracle(book, h)[0])
            res = random_baseline(book, rng)
            ratios.append(abs(np.vdot(res.codeword, h)) ** 2 / abs(np.vdot(w_star, h)) ** 2)
            assert 1 <= res.index <= book.size
            assert res.beams_tested == 0
        assert np.mean(ratios) < 0.2

    def test_far_field_baseline_nails_far_channel(self):
        cfg = ArrayConfig(64)
        narrow = build_wide_codebook(cfg, 1)
        rng = np.random.default_rng(9)
        theta = 0.3  # nearest grid point is beam 42 at 0.296875
        h = synth_channel(cfg, [PathParams(gain=1.0, distance=1e6 * cfg.carrier_wavelength,
                                           angle=theta)])
        res = far_field_baseline(narrow, h, NOISELESS, rng)
        assert res.index == int(np.argmin(np.abs(narrow.angles - theta))) + 1
        assert res.beams_tested == 64

    def test_far_field_baseline_with_noise_returns_valid_index(self):
        cfg = ArrayConfig(16)
        narrow = build_wide_codebook(cfg, 1)
        rng = np.random.default_rng(10)
        h = random_channel(rng, cfg)
        res = far_field_baseline(narrow, h, link_from_snr_db(10.0), rng)
        assert 1 <= res.index <= 16


class TestMeasurementVectorInput:
    def test_schemes_accept_measurement_vector(self):
        cfg = ArrayConfig(16)
        book = build_polar_codebook(cfg, 3, 10.0, 60.0)
        from nearbeam.codebook import build_wide_codebook

        wide = build_wide_codebook(cfg, 4)
        rng = np.random.default_rng(11)
        h = random_channel(rng, cfg)
        meas = measure_wide(wide, h, link_from_snr_db(10.0), rng)
        res = original_scheme(meas, random_probs(16, 0), random_probs(3, 1), book)
        assert res.beams_tested == 4
