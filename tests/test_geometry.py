import numpy as np
import numpy.testing as npt
import pytest

from channel_reference import reference_channel, reference_paths
from nearbeam.codebook import build_wide_codebook
from nearbeam.geometry import (
    ArrayConfig,
    PathParams,
    ScenarioConfig,
    _steering_rows,
    antenna_offsets,
    near_steering,
    sample_paths,
    synth_channel,
    synth_channels,
)


class TestAntennaOffsets:
    def test_single_antenna_at_reference(self):
        npt.assert_array_equal(antenna_offsets(ArrayConfig(1)), [0.0])

    def test_centering(self):
        npt.assert_allclose(antenna_offsets(ArrayConfig(4)), [-1.5, -0.5, 0.5, 1.5])
        npt.assert_allclose(antenna_offsets(ArrayConfig(3)), [-1.0, 0.0, 1.0])

    def test_mean_is_zero(self):
        for n in (1, 2, 7, 64):
            assert abs(antenna_offsets(ArrayConfig(n)).mean()) < 1e-15


class TestElementDistance:
    """The exact per-antenna distance r_n, as near_steering's phases carry it:
    entry n is exp(-j*2*pi/lambda*(r_n - r)) / sqrt(N)."""

    def test_center_antenna_returns_r(self):
        cfg = ArrayConfig(5)  # odd N: antenna 2 sits on the reference point
        for r, theta in [(1.0, 0.0), (12.3, 0.7), (500.0, -0.99)]:
            b = near_steering(cfg, theta, r)
            assert b[2] * np.sqrt(5) == pytest.approx(1.0, abs=1e-12)

    def test_direct_arithmetic(self):
        # offset 0.5 spacings of 5 mm -> delta*d = 0.0025 m, broadside at 10 m
        cfg = ArrayConfig(2, carrier_wavelength=0.01)
        excess = np.sqrt(100.0 + 6.25e-6) - 10.0
        expected = np.exp(-2j * np.pi / 0.01 * excess) / np.sqrt(2)
        npt.assert_allclose(near_steering(cfg, 0.0, 10.0)[1], expected, rtol=1e-9)

    def test_far_field_first_order(self):
        # r_n - r -> -delta*d*theta with error bounded by (delta*d)^2 / r, so
        # the phase tends to 2*pi/lambda*delta*d*theta within 2*pi/lambda times that
        cfg = ArrayConfig(64, carrier_wavelength=0.01)
        offset = antenna_offsets(cfg) * cfg.antenna_spacing
        theta = 0.43
        k = 2.0 * np.pi / cfg.carrier_wavelength
        for r in (1e3, 1e4, 1e5):
            b = near_steering(cfg, theta, r) * np.sqrt(64)
            err = np.abs(b - np.exp(1j * k * offset * theta))
            assert np.all(err <= k * offset**2 / r + 1e-12)

    def test_mirror_symmetry(self):
        # flipping theta and the antenna offset together leaves r_n unchanged,
        # bit for bit: the polar codebook build copies mirrored rows on this
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 7, 8, 33, 512):
            cfg = ArrayConfig(n)
            for theta in [0.0, 0.5, -0.25, *rng.uniform(-0.99, 0.99, 30)]:
                r = rng.uniform(1, 100)
                assert (near_steering(cfg, theta, r).tobytes()
                        == near_steering(cfg, -theta, r)[::-1].tobytes()), (n, theta)

    def test_rejects_nonpositive_distance(self):
        for r in (0.0, -1.0):
            with pytest.raises(ValueError):
                near_steering(ArrayConfig(4), 0.1, r)

    @pytest.mark.parametrize("n", [16, 33, 64])
    def test_phases_match_law_of_cosines(self, n):
        # independent reference: the source at (r*theta, r*sqrt(1-theta^2)),
        # antenna n at (delta_n*d, 0), r_n their Euclidean distance
        cfg = ArrayConfig(n)
        x = (np.arange(n) - (n - 1) / 2.0) * cfg.antenna_spacing
        rng = np.random.default_rng(n)
        for _ in range(20):
            r = rng.uniform(3.0, 60.0)
            theta = rng.uniform(-0.99, 0.99)
            r_n = np.hypot(r * theta - x, r * np.sqrt(1.0 - theta**2))
            expected = np.exp(-2j * np.pi / cfg.carrier_wavelength * (r_n - r)) / np.sqrt(n)
            npt.assert_allclose(near_steering(cfg, theta, r), expected, rtol=1e-9, atol=0)


class TestNearSteering:
    def test_single_antenna(self):
        npt.assert_allclose(near_steering(ArrayConfig(1), 0.3, 5.0), [1.0 + 0.0j])

    def test_unit_modulus_and_norm(self):
        cfg = ArrayConfig(33)
        rng = np.random.default_rng(3)
        for _ in range(20):
            b = near_steering(cfg, rng.uniform(-1, 1), rng.uniform(0.5, 200))
            npt.assert_allclose(np.abs(b), 1 / np.sqrt(33), atol=1e-14)
            assert abs(np.linalg.norm(b) - 1.0) < 1e-12

    def test_far_field_limit_matches_narrow_codeword(self):
        cfg = ArrayConfig(64)
        grid_theta = -1 + (2 * 20 - 1) / 64  # grid angle of narrow beam 20
        b = near_steering(cfg, grid_theta, 1e6 * cfg.carrier_wavelength)
        a = build_wide_codebook(cfg, 1).codewords[19]
        assert abs(np.vdot(b, a)) >= 0.999

    def test_matches_plain_expression_bit_for_bit(self):
        # the out= form against the plain expression it replaced; comparing
        # bytes also catches a flipped sign of zero (odd N has a centre
        # antenna whose phase is -0.0)
        def plain(cfg, theta, r):
            offset = antenna_offsets(cfg) * cfg.antenna_spacing
            excess = offset * offset - 2.0 * r * offset * theta
            dist = np.sqrt(r * r + excess)
            phase = -(2.0 * np.pi / cfg.carrier_wavelength) * (excess / (dist + r))
            return np.exp(1j * phase) / np.sqrt(cfg.num_antennas)

        rng = np.random.default_rng(4)
        for n in (16, 33, 512):
            cfg = ArrayConfig(n)
            thetas, dists = rng.uniform(-1, 1, 20), rng.uniform(0.5, 200, 20)
            for theta, r in zip(thetas, dists):
                assert near_steering(cfg, theta, r).tobytes() == plain(cfg, theta, r).tobytes()
            block = _steering_rows(cfg, thetas[:, None], dists[:, None])
            assert block.tobytes() == plain(cfg, thetas[:, None], dists[:, None]).tobytes()

    def test_phase_profile_linearizes_as_one_over_r(self):
        cfg = ArrayConfig(32)
        theta = 0.37
        n = np.arange(32)

        def max_residual(r):
            phase = np.unwrap(np.angle(near_steering(cfg, theta, r) * np.sqrt(32)))
            fit = np.polyfit(n, phase, 1)
            return np.max(np.abs(phase - np.polyval(fit, n)))

        r1, r2 = 50.0, 500.0
        res1, res2 = max_residual(r1), max_residual(r2)
        assert res2 < res1
        # quadratic wavefront term scales as 1/r
        assert res2 == pytest.approx(res1 / 10, rel=0.2)


class TestSynthChannel:
    def test_single_unit_path_norm(self):
        cfg = ArrayConfig(16)
        h = synth_channel(cfg, [PathParams(gain=1.0, distance=20.0, angle=0.25)])
        assert np.linalg.norm(h) == pytest.approx(np.sqrt(16), rel=1e-12)

    def test_opposite_gains_cancel(self):
        cfg = ArrayConfig(8)
        g = 0.3 - 0.8j
        paths = [
            PathParams(gain=g, distance=15.0, angle=-0.4),
            PathParams(gain=-g, distance=15.0, angle=-0.4),
        ]
        npt.assert_allclose(synth_channel(cfg, paths), 0.0, atol=1e-12)

    def test_empty_paths_rejected(self):
        with pytest.raises(ValueError):
            synth_channel(ArrayConfig(4), [])

    def test_linearity_in_gain(self):
        cfg = ArrayConfig(12)
        base = PathParams(gain=1.0 + 0.5j, distance=30.0, angle=0.1)
        scaled = PathParams(gain=3.0 * base.gain, distance=30.0, angle=0.1)
        npt.assert_allclose(
            synth_channel(cfg, [scaled]), 3.0 * synth_channel(cfg, [base]), rtol=1e-12
        )

    def test_against_extended_precision_summation(self):
        # independent term-by-term oracle in 80-bit floats
        cfg = ArrayConfig(16)
        rng = np.random.default_rng(11)
        paths = [
            PathParams(
                gain=complex(rng.standard_normal(), rng.standard_normal()),
                distance=rng.uniform(10, 60),
                angle=rng.uniform(-1, 1),
            )
            for _ in range(3)
        ]
        h = synth_channel(cfg, paths)

        lam = np.longdouble(cfg.carrier_wavelength)
        d = np.longdouble(cfg.antenna_spacing)
        delta = np.arange(16, dtype=np.longdouble) - np.longdouble(7.5)
        acc = np.zeros(16, dtype=np.clongdouble)
        for p in paths:
            r = np.longdouble(p.distance)
            dist = np.sqrt(r * r + (delta * d) ** 2 - 2 * r * delta * d * np.longdouble(p.angle))
            phase = -2 * np.pi / lam * (dist - r)
            steer = (np.cos(phase) + 1j * np.sin(phase)) / np.sqrt(np.longdouble(16))
            g_phase = -2 * np.pi * r / lam
            acc += p.gain * (np.cos(g_phase) + 1j * np.sin(g_phase)) * steer
        oracle = np.sqrt(np.longdouble(16) / 3) * acc
        rel = np.abs(h - oracle.astype(np.complex128)) / np.abs(oracle).max()
        assert np.max(rel) <= 1e-12


class TestSynthChannels:
    @pytest.mark.parametrize("n", [16, 33, 64, 512])
    @pytest.mark.parametrize("num_paths", [1, 3])
    def test_rows_equal_per_path_reference(self, n, num_paths):
        # bytes, so a flipped sign of zero counts; the zero-variance path
        # has zero gains
        cfg = ArrayConfig(n)
        scenario = ScenarioConfig(num_paths=num_paths,
                                  gain_variances=(1.0, 0.0, 0.01)[:num_paths],
                                  distance_range=(1.0, 200.0))
        rng = np.random.default_rng(n + num_paths)
        path_sets = [sample_paths(rng, scenario) for _ in range(150)]
        block = synth_channels(cfg, path_sets)
        assert block.shape == (150, n)
        for row, paths in zip(block, path_sets):
            assert row.tobytes() == reference_channel(cfg, paths).tobytes()
        assert synth_channel(cfg, path_sets[7]).tobytes() == block[7].tobytes()

    def test_hand_made_paths(self):
        # gains that are Python floats and complex numbers, an angle at -1
        cfg = ArrayConfig(12)
        path_sets = [[PathParams(gain=1.0, distance=20.0, angle=0.25),
                      PathParams(gain=-0.3 + 0.8j, distance=3.5, angle=-1.0)],
                     [PathParams(gain=2j, distance=1e4, angle=0.0),
                      PathParams(gain=0.0, distance=15.0, angle=0.5)]]
        block = synth_channels(cfg, path_sets)
        for row, paths in zip(block, path_sets):
            assert row.tobytes() == reference_channel(cfg, paths).tobytes()

    def test_path_sets_of_different_lengths_rejected(self):
        paths = sample_paths(np.random.default_rng(0), ScenarioConfig())
        with pytest.raises(ValueError, match="one nonzero length"):
            synth_channels(ArrayConfig(8), [paths, paths[:2]])
        with pytest.raises(ValueError, match="one nonzero length"):
            synth_channels(ArrayConfig(8), [])


class TestSamplePaths:
    @pytest.mark.parametrize("scenario", [
        ScenarioConfig(),
        ScenarioConfig(num_paths=2, gain_variances=(0.0, 0.5), distance_range=(1.5, 2.7),
                       angle_range=(-0.3, 0.9)),
        ScenarioConfig(num_paths=1, gain_variances=(4.0,), distance_range=(30.0, 30.0),
                       angle_range=(0.999, 1.0)),
    ], ids=["default", "narrow", "one-path"])
    def test_matches_four_scalar_draws_per_path(self, scenario):
        # equal values of equal types, and the generators end in one state
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(2000):
            paths, expected = sample_paths(rng, scenario), reference_paths(ref_rng, scenario)
            for p, q in zip(paths, expected, strict=True):
                assert type(p.gain) is type(q.gain)
                assert complex(p.gain).real.hex() == complex(q.gain).real.hex()
                assert complex(p.gain).imag.hex() == complex(q.gain).imag.hex()
                assert (p.distance.hex(), p.angle.hex()) == (q.distance.hex(), q.angle.hex())
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_zero_variance_means_zero_gains(self):
        scenario = ScenarioConfig(num_paths=2, gain_variances=(0.0, 0.0))
        paths = sample_paths(np.random.default_rng(0), scenario)
        assert all(p.gain == 0 for p in paths)

    def test_gain_and_distance_statistics(self):
        scenario = ScenarioConfig()
        rng = np.random.default_rng(2024)
        draws = 100_000
        g1 = np.empty(draws, dtype=np.complex128)
        g2 = np.empty(draws, dtype=np.complex128)
        r_all = np.empty((draws, 3))
        for i in range(draws):
            paths = sample_paths(rng, scenario)
            g1[i], g2[i] = paths[0].gain, paths[1].gain
            r_all[i] = [p.distance for p in paths]
        assert 0.98 <= np.mean(np.abs(g1) ** 2) <= 1.02
        assert 0.0095 <= np.mean(np.abs(g2) ** 2) <= 0.0105
        assert r_all.min() >= 10.0 and r_all.max() <= 60.0
        assert abs(r_all.mean() - 35.0) <= 0.2

    def test_angles_within_domain(self):
        scenario = ScenarioConfig()
        rng = np.random.default_rng(5)
        for _ in range(200):
            for p in sample_paths(rng, scenario):
                assert -1.0 <= p.angle < 1.0

    def test_variance_count_validated(self):
        with pytest.raises(ValueError):
            ScenarioConfig(num_paths=2, gain_variances=(1.0,))
