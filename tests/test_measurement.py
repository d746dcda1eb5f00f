import numpy as np
import numpy.testing as npt
import pytest

from beam_reference import reference_beam_tests
from nearbeam.codebook import (
    angle_grid,
    build_polar_codebook,
    build_wide_codebook,
)
from nearbeam.geometry import ArrayConfig, PathParams, near_steering, synth_channel
from nearbeam.measurement import (
    LinkConfig,
    achievable_rate,
    link_from_snr_db,
    measure,
    measure_wide,
    sweep_oracle,
    sweep_oracle_batch,
)
from nearbeam.schemes import FixedProbs, far_field_baseline, improved_scheme

NOISELESS = LinkConfig(transmit_power=1.0, noise_variance=0.0)


def random_channel(rng, n=16):
    cfg = ArrayConfig(n)
    paths = [
        PathParams(
            gain=complex(rng.standard_normal(), rng.standard_normal()),
            distance=rng.uniform(10, 60),
            angle=rng.uniform(-1, 1),
        )
        for _ in range(3)
    ]
    return synth_channel(cfg, paths)


class TestLinkConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinkConfig(transmit_power=-1.0)
        with pytest.raises(ValueError):
            LinkConfig(noise_variance=-0.1)

    def test_snr_db(self):
        assert link_from_snr_db(10.0).transmit_power == pytest.approx(10.0)
        assert link_from_snr_db(10.0).noise_variance == 1.0


class TestMeasure:
    def test_matched_filter_noiseless(self):
        rng = np.random.default_rng(0)
        h = random_channel(rng)
        w = h / np.linalg.norm(h)
        y = measure(w, h, NOISELESS, rng)
        assert y == pytest.approx(np.linalg.norm(h), rel=1e-12)

    def test_orthogonal_gives_zero(self):
        rng = np.random.default_rng(1)
        h = np.zeros(4, dtype=complex)
        h[0] = 1.0
        w = np.zeros(4, dtype=complex)
        w[1] = 1.0
        assert measure(w, h, NOISELESS, rng) == 0

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            measure(np.ones(4, dtype=complex), np.ones(5, dtype=complex), LinkConfig(), rng)

    def test_noise_statistics(self):
        # P=0 leaves pure noise; unit-norm w keeps its variance at sigma2
        rng = np.random.default_rng(3)
        sigma2 = 0.7
        link = LinkConfig(transmit_power=0.0, noise_variance=sigma2)
        w = np.full(4, 0.5, dtype=complex)
        h = np.zeros(4, dtype=complex)
        ys = np.array([measure(w, h, link, rng) for _ in range(100_000)])
        var = np.mean(np.abs(ys) ** 2)
        assert sigma2 * 0.98 <= var <= sigma2 * 1.02
        assert abs(ys.mean()) < 0.01


class TestMeasureWide:
    def test_paper_scale_length(self):
        cfg = ArrayConfig(512)
        wide = build_wide_codebook(cfg, 4)
        rng = np.random.default_rng(0)
        meas = measure_wide(wide, np.zeros(512, dtype=complex), NOISELESS, rng)
        assert len(meas) == 128
        npt.assert_array_equal(meas.values, 0.0)

    def test_far_field_path_peaks_at_own_wide_beam(self):
        cfg = ArrayConfig(64)
        wide = build_wide_codebook(cfg, 4)
        rng = np.random.default_rng(1)
        for m in range(1, wide.num_wide + 1):
            h = near_steering(cfg, wide.angles[m - 1], 1e7) * np.sqrt(64)
            meas = measure_wide(wide, h, NOISELESS, rng)
            assert int(np.argmax(np.abs(meas.values))) == m - 1

    def test_independent_noise_across_beams(self):
        # noise-only received values on distinct beams are uncorrelated
        cfg = ArrayConfig(8)
        wide = build_wide_codebook(cfg, 4)
        link = LinkConfig(transmit_power=0.0, noise_variance=1.0)
        rng = np.random.default_rng(5)
        h = np.zeros(8, dtype=complex)
        ys = np.array([measure_wide(wide, h, link, rng).values for _ in range(100_000)])
        y1, y2 = ys[:, 0], ys[:, 1]
        rho = np.mean(y1 * np.conj(y2)) / (np.std(y1) * np.std(y2))
        assert abs(rho) <= 0.02


LINKS = [link_from_snr_db(10.0), LinkConfig(2.0, 0.3), NOISELESS]


class TestStreamCompatibility:
    """Beam tests give the reference loop's values and leave the Generator
    where the loop leaves it, so stored datasets still regenerate."""

    @staticmethod
    def _compare(tested, words, h, link, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = tested(rng)
        npt.assert_allclose(got, reference_beam_tests(words, h, link, ref_rng),
                            rtol=1e-12, atol=0)
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("link", LINKS)
    def test_measure(self, link):
        book = build_polar_codebook(ArrayConfig(32), 3, 8.0, 50.0)
        rows = book.codewords[[5, 0, 77, 5, 40]]
        h = random_channel(np.random.default_rng(22), n=32)
        self._compare(lambda rng: np.array([measure(w, h, link, rng) for w in rows]),
                      rows, h, link, 23)

    @pytest.mark.parametrize("link", LINKS)
    def test_measure_wide(self, link):
        cfg = ArrayConfig(64)
        wide = build_wide_codebook(cfg, 4)
        h = random_channel(np.random.default_rng(20), n=64)
        self._compare(lambda rng: measure_wide(wide, h, link, rng).values,
                      wide.codewords, h, link, 21)

    @pytest.mark.parametrize("link", LINKS)
    def test_improved_scheme(self, link):
        book = build_polar_codebook(ArrayConfig(16), 4, 8.0, 50.0)
        h = random_channel(np.random.default_rng(24), n=16)
        stub_dir, stub_dist = FixedProbs(np.full(16, 1 / 16)), FixedProbs(np.full(4, 1 / 4))
        cands = improved_scheme(np.zeros(4), stub_dir, stub_dist, book, h, link,
                                np.random.default_rng(0), 3, 2).aux["candidates"]
        self._compare(
            lambda rng: improved_scheme(np.zeros(4), stub_dir, stub_dist, book, h, link,
                                        rng, 3, 2).aux["measurements"],
            book.codewords[cands - 1], h, link, 25)

    def test_far_field_baseline(self):
        narrow = build_wide_codebook(ArrayConfig(16), 1)
        h = random_channel(np.random.default_rng(26), n=16)
        link = LINKS[0]
        self._compare(lambda rng: far_field_baseline(narrow, h, link, rng).aux["measurements"],
                      narrow.codewords, h, link, 27)

    @pytest.mark.parametrize("link", LINKS)
    def test_far_field_baseline_is_measure_wide(self, link):
        narrow = build_wide_codebook(ArrayConfig(16), 1)
        h = random_channel(np.random.default_rng(28), n=16)
        rng, ref_rng = np.random.default_rng(29), np.random.default_rng(29)
        got = far_field_baseline(narrow, h, link, rng).aux["measurements"]
        assert got.tobytes() == measure_wide(narrow, h, link, ref_rng).values.tobytes()
        assert rng.standard_normal() == ref_rng.standard_normal()


class TestAchievableRate:
    def test_values(self):
        w = np.array([1.0 + 0j, 0j])
        assert achievable_rate(w, np.array([0j, 1.0 + 0j]), LinkConfig()) == 0.0
        assert achievable_rate(w, np.array([1.0 + 0j, 0j]), LinkConfig()) == pytest.approx(1.0)
        h3 = np.array([np.sqrt(3.0) + 0j, 0j])
        assert achievable_rate(w, h3, LinkConfig()) == pytest.approx(2.0)

    def test_zero_noise_rejected(self):
        w = np.array([1.0 + 0j])
        with pytest.raises(ValueError):
            achievable_rate(w, w, NOISELESS)

    def test_monotone_in_gain(self):
        link = LinkConfig(transmit_power=2.0)
        w = np.array([1.0 + 0j])
        gains = np.linspace(0.1, 5.0, 20)
        rates = [achievable_rate(w, np.array([g + 0j]), link) for g in gains]
        assert np.all(np.diff(rates) > 0)


class TestSweepOracle:
    def test_codeword_channel_recovers_itself(self):
        book = build_polar_codebook(ArrayConfig(16), 3, 8.0, 50.0)
        for j in (1, 17, 48):
            i_star, s, n = sweep_oracle(book, book.codeword(j))
            assert i_star == j
            assert book.index(s, n) == j

    def test_grid_point_path_recovered(self):
        cfg = ArrayConfig(32)
        book = build_polar_codebook(cfg, 3, 8.0, 50.0)
        grid = angle_grid(32)
        for s, n in [(1, 1), (2, 16), (3, 32)]:
            h = synth_channel(
                cfg,
                [PathParams(gain=1.0, distance=book.ring_distances[s - 1],
                            angle=grid[n - 1])],
            )
            i_star, s_got, n_got = sweep_oracle(book, h)
            assert (s_got, n_got) == (s, n)
            assert i_star == book.index(s, n)

    def test_matches_naive_double_loop(self):
        cfg = ArrayConfig(16)
        book = build_polar_codebook(cfg, 4, 8.0, 50.0)
        rng = np.random.default_rng(9)
        for _ in range(100):
            h = random_channel(rng, n=16)
            best_i, best_val = 0, -1.0
            for s in range(1, book.num_rings + 1):
                for n in range(1, book.num_angles + 1):
                    i = book.index(s, n)
                    val = abs(np.vdot(book.codeword(i), h))
                    if val > best_val:
                        best_i, best_val = i, val
            assert sweep_oracle(book, h)[0] == best_i

    def test_scale_and_phase_invariance(self):
        book = build_polar_codebook(ArrayConfig(16), 3, 8.0, 50.0)
        rng = np.random.default_rng(10)
        h = random_channel(rng, n=16)
        base = sweep_oracle(book, h)
        for c in (2.0, 0.001, np.exp(1.7j), -3.0 + 4.0j):
            assert sweep_oracle(book, c * h) == base

    def test_tie_breaks_to_smallest_index(self):
        book = build_polar_codebook(ArrayConfig(8), 2, 8.0, 50.0)
        # zero channel ties every codeword at |w^H h| = 0
        assert sweep_oracle(book, np.zeros(8, dtype=complex))[0] == 1


class TestSweepOracleBatch:
    @pytest.mark.parametrize("n,rings", [(16, 4), (33, 5), (64, 5), (512, 5)])
    def test_matches_per_channel_sweep(self, n, rings):
        book = build_polar_codebook(ArrayConfig(n), rings, 8.0, 50.0)
        rng = np.random.default_rng(12)
        channels = np.stack([random_channel(rng, n=n) for _ in range(40)])
        npt.assert_array_equal(sweep_oracle_batch(book, channels),
                               [sweep_oracle(book, h)[0] for h in channels])

    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_exact_ties_follow_the_per_channel_sweep(self, n):
        # w_a + w_b ties codewords a and b exactly; the matrix product and
        # sweep_oracle's matrix-vector product round the two magnitudes
        # differently, so without the re-sweep 10% (N=16) to 46% (N=512)
        # of such labels came out different
        book = build_polar_codebook(ArrayConfig(n), 5, 8.0, 50.0)
        rng = np.random.default_rng(13)
        pairs = [rng.choice(book.size, 2, replace=False) for _ in range(60)]
        channels = np.stack([book.codewords[a] + book.codewords[b] for a, b in pairs]
                            + [np.zeros(n, dtype=complex)])
        got = sweep_oracle_batch(book, channels)
        npt.assert_array_equal(got, [sweep_oracle(book, h)[0] for h in channels])
        assert got[-1] == 1
