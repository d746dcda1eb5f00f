import numpy as np
import numpy.testing as npt
import pytest

from nearbeam import codebook
from nearbeam.codebook import (
    CodebookFormatError,
    WideCodebook,
    angle_grid,
    build_polar_codebook,
    build_wide_codebook,
    codeword_index,
    export_codebook,
    import_codebook,
    index_to_pair,
    ring_grid,
)
from nearbeam.geometry import ArrayConfig, near_steering


class TestAngleGrid:
    def test_small_grids(self):
        npt.assert_allclose(angle_grid(2), [-0.5, 0.5])
        npt.assert_allclose(angle_grid(4), [-0.75, -0.25, 0.25, 0.75])

    def test_uniform_spacing(self):
        for n in (3, 8, 64, 512):
            grid = angle_grid(n)
            npt.assert_allclose(np.diff(grid), 2.0 / n, rtol=1e-14)
            assert grid[0] > -1.0 and grid[-1] < 1.0


class TestRingGrid:
    def test_single_ring_at_r_max(self):
        rings = ring_grid(1, 10.0, 60.0)
        npt.assert_array_equal(rings, [60.0])

    def test_two_rings_hit_endpoints(self):
        rings = ring_grid(2, 10.0, 60.0)
        npt.assert_allclose(rings[0], 60.0)
        npt.assert_allclose(rings[1], 10.0)

    def test_inverse_distance_progression(self):
        # oracle: 1/r_s must be an arithmetic progression from 1/60 to 1/10
        rings = ring_grid(5, 10.0, 60.0)
        inv = 1.0 / rings
        npt.assert_allclose(np.diff(inv), np.diff(inv)[0], atol=1e-12)
        npt.assert_allclose(rings, [60.0, 80.0 / 3.0, 120.0 / 7.0, 240.0 / 19.0, 10.0],
                            rtol=1e-12)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            ring_grid(3, 60.0, 10.0)
        with pytest.raises(ValueError):
            ring_grid(3, 0.0, 10.0)


class TestIndexing:
    def test_examples(self):
        assert codeword_index(1, 1, 512) == 1
        assert codeword_index(5, 512, 512) == 2560
        assert codeword_index(2, 3, 4) == 7
        assert index_to_pair(7, 4) == (2, 3)

    def test_round_trip_full_range(self):
        n, s = 8, 3
        seen = set()
        for ss in range(1, s + 1):
            for nn in range(1, n + 1):
                i = codeword_index(ss, nn, n, s)
                assert index_to_pair(i, n, s) == (ss, nn)
                seen.add(i)
        assert seen == set(range(1, n * s + 1))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            codeword_index(1, 0, 8)
        with pytest.raises(ValueError):
            codeword_index(1, 9, 8)
        with pytest.raises(ValueError):
            codeword_index(4, 1, 8, 3)
        with pytest.raises(ValueError):
            index_to_pair(0, 8)
        with pytest.raises(ValueError):
            index_to_pair(25, 8, 3)


class TestPolarCodebook:
    def test_paper_scale_count(self):
        cfg = ArrayConfig(512)
        book = build_polar_codebook(cfg, 5, 10.0, 60.0)
        assert book.size == 2560
        assert book.codewords.shape == (2560, 512)

    def test_all_unit_norm(self):
        book = build_polar_codebook(ArrayConfig(64), 5, 10.0, 60.0)
        norms = np.linalg.norm(book.codewords, axis=1)
        npt.assert_allclose(norms, 1.0, atol=1e-12)

    def test_codewords_match_steering_exactly(self):
        # the in-place build against one near_steering call per codeword:
        # 1, 3 (a theta = 0 centre row), 16, 64 and 512 mirror half of each
        # ring, while 33 has a grid that is not exactly symmetric
        for n, rings in [(1, 2), (3, 4), (16, 3), (33, 8), (64, 3), (512, 5)]:
            cfg = ArrayConfig(n)
            book = build_polar_codebook(cfg, rings, 5.0, 40.0)
            expected = np.stack([
                near_steering(cfg, book.angles[k - 1], book.ring_distances[s - 1])
                for s in range(1, rings + 1) for k in range(1, n + 1)
            ])
            assert np.array_equal(book.codewords, expected)

    def test_far_field_limit_matches_narrow(self):
        cfg = ArrayConfig(4)
        book = build_polar_codebook(cfg, 1, 1e5, 1e6)
        narrow = build_wide_codebook(cfg, 1).codewords
        for n in range(1, 5):
            corr = abs(np.vdot(book.codeword(n), narrow[n - 1]))
            assert corr >= 0.999


class TestNarrowCodebook:
    def test_boresight_beam_is_constant(self):
        cfg = ArrayConfig(5)  # odd N puts a grid point exactly at sin(theta)=0
        w = build_wide_codebook(cfg, 1).codewords[2]
        npt.assert_allclose(w, np.full(5, 1 / np.sqrt(5)), atol=1e-15)

    def test_direct_substitution_n2(self):
        cfg = ArrayConfig(2)
        w = build_wide_codebook(cfg, 1).codewords[1]  # grid angle +0.5
        npt.assert_allclose(w, [1 / np.sqrt(2), np.exp(1j * np.pi / 2) / np.sqrt(2)], atol=1e-15)

    def test_grid_search_peaks_at_own_angle(self):
        cfg = ArrayConfig(16)
        grid = angle_grid(16)
        book = build_wide_codebook(cfg, 1)
        for n in (1, 5, 9, 16):
            w = book.codewords[n - 1]
            # far-field channel vectors at every grid angle, channel sign convention
            corr = [abs(np.vdot(w, near_steering(cfg, t, 1e7))) for t in grid]
            assert int(np.argmax(corr)) == n - 1

    def test_unit_norm(self):
        book = build_wide_codebook(ArrayConfig(32), 1)
        npt.assert_allclose(np.linalg.norm(book.codewords, axis=1), 1.0, atol=1e-12)


class TestWideCodebook:
    def test_paper_scale_shape(self):
        cfg = ArrayConfig(512)
        book = build_wide_codebook(cfg, 4)
        assert book.num_wide == 128
        active = np.count_nonzero(book.codewords, axis=1)
        npt.assert_array_equal(active, 128)

    def test_unit_norm_and_active_modulus(self):
        cfg = ArrayConfig(64)
        book = build_wide_codebook(cfg, 4)
        npt.assert_allclose(np.linalg.norm(book.codewords, axis=1), 1.0, atol=1e-12)
        npt.assert_allclose(np.abs(book.codewords[:, :16]), np.sqrt(4 / 64), atol=1e-14)
        assert np.all(book.codewords[:, 16:] == 0)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            build_wide_codebook(ArrayConfig(10), 4)
        with pytest.raises(ValueError):
            build_wide_codebook(ArrayConfig(8), 0)

    def test_each_wide_beam_covers_its_narrow_group(self):
        cfg = ArrayConfig(64)
        t = 4
        wide = build_wide_codebook(cfg, t)
        grid = angle_grid(64)
        for m in range(1, wide.num_wide + 1):
            for j in range(t):
                theta = grid[(m - 1) * t + j]
                a = near_steering(cfg, theta, 1e7)  # far-field channel
                gains = np.abs(wide.codewords.conj() @ a)
                assert int(np.argmax(gains)) == m - 1

    def test_beamwidth_ratio_near_t(self):
        cfg = ArrayConfig(64)
        t = 4
        scan = np.linspace(-0.5, 0.5, 8001)

        def half_power_width(w, center):
            gains = np.array(
                [abs(np.vdot(w, near_steering(cfg, center + dt, 1e7))) ** 2 for dt in scan]
            )
            above = scan[gains >= gains.max() / 2]
            return above.max() - above.min()

        wide = build_wide_codebook(cfg, t).codewords[7]   # wide beam 8 of 16
        narrow = build_wide_codebook(cfg, 1).codewords[29]  # interior narrow beam
        ratio = half_power_width(wide, -1 + 15 / 16) / half_power_width(narrow, angle_grid(64)[29])
        assert t * 0.8 <= ratio <= t * 1.2


class TestBinaryRoundTrip:
    def test_polar_round_trip(self, tmp_path):
        book = build_polar_codebook(ArrayConfig(8), 3, 5.0, 50.0)
        path = tmp_path / "polar.nbcb"
        export_codebook(path, book)
        loaded = import_codebook(path)
        assert np.array_equal(loaded.codewords, book.codewords)
        assert np.array_equal(loaded.ring_distances, book.ring_distances)
        assert np.array_equal(loaded.angles, book.angles)
        assert loaded.array == book.array

    def test_narrow_and_wide_round_trip(self, tmp_path):
        cfg = ArrayConfig(8)
        for book in (build_wide_codebook(cfg, 1), build_wide_codebook(cfg, 2)):
            path = tmp_path / "book.nbcb"
            export_codebook(path, book)
            loaded = import_codebook(path)
            assert np.array_equal(loaded.codewords, book.codewords)

    def test_narrow_is_the_far_field_codebook_at_t1(self, tmp_path):
        # the narrow codebook is written as kind 2 with M = N and T = 1, and
        # a legacy kind-1 file of the same codewords reads back the same
        cfg = ArrayConfig(8)
        book = build_wide_codebook(cfg, 1)
        path = tmp_path / "book.nbcb"
        export_codebook(path, book)
        assert codebook._HEADER.unpack_from(path.read_bytes())[2:6] == (2, 8, 8, 1)
        for kind in ("wide", "narrow"):
            _export(path, kind, book)
            loaded = import_codebook(path)
            assert isinstance(loaded, WideCodebook)
            assert (loaded.array, loaded.subarray_factor, loaded.num_wide) == (cfg, 1, 8)
            assert np.array_equal(loaded.angles, book.angles)
            assert loaded.codewords.tobytes() == book.codewords.tobytes()

    def test_truncated_file_rejected(self, tmp_path):
        book = build_wide_codebook(ArrayConfig(8), 1)
        path = tmp_path / "book.nbcb"
        export_codebook(path, book)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 40])
        with pytest.raises(CodebookFormatError):
            import_codebook(path)

    def test_bad_magic_and_version(self, tmp_path):
        book = build_wide_codebook(ArrayConfig(4), 1)
        path = tmp_path / "book.nbcb"
        export_codebook(path, book)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CodebookFormatError):
            import_codebook(path)
        raw = bytearray(export_codebook(path, book) or path.read_bytes())
        raw[4] = 99  # version field
        path.write_bytes(bytes(raw))
        with pytest.raises(CodebookFormatError):
            import_codebook(path)


def _rewrite_header(path, **changes):
    """Rewrite named fields of an exported codebook's header in place."""
    names = ("magic", "version", "kind", "n", "aux1", "aux2", "wavelength", "spacing")
    raw = path.read_bytes()
    header = dict(zip(names, codebook._HEADER.unpack_from(raw)))
    header.update(changes)
    path.write_bytes(codebook._HEADER.pack(*header.values()) + raw[codebook._HEADER.size:])


def _export(path, kind, book):
    """Export ``book``; kind "narrow" rewrites its T = 1 export into the
    kind-1 narrow file that older exports wrote (S/M and T fields 0)."""
    export_codebook(path, book)
    if kind == "narrow":
        _rewrite_header(path, kind=1, aux1=0, aux2=0)


class TestHeaderChecks:
    """Headers that no exported codebook has are rejected by name; "narrow"
    cases start from a legacy kind-1 file."""

    @pytest.mark.parametrize("kind,changes,match", [
        ("narrow", {"n": 0}, "num_antennas"),
        ("polar", {"aux1": 0}, "inconsistent"),
        ("polar", {"aux2": 1}, "inconsistent"),
        ("narrow", {"aux1": 16}, "inconsistent"),
        ("narrow", {"aux2": 4}, "inconsistent"),
        ("wide", {"aux2": 3}, "inconsistent"),   # T=3 does not divide N=16
        ("wide", {"aux1": 0}, "inconsistent"),   # M=0
        ("wide", {"aux1": 2}, "inconsistent"),   # M != N/T
        ("wide", {"aux2": 0}, "inconsistent"),
        ("wide", {"wavelength": 0.0}, "carrier_wavelength"),
        ("polar", {"wavelength": -0.01}, "carrier_wavelength"),
        ("narrow", {"spacing": 0.0}, "antenna_spacing"),
    ])
    def test_bad_header_rejected(self, tmp_path, kind, changes, match):
        cfg = ArrayConfig(16)
        book = {"polar": build_polar_codebook(cfg, 3, 10.0, 60.0),
                "narrow": build_wide_codebook(cfg, 1),
                "wide": build_wide_codebook(cfg, 4)}[kind]
        path = tmp_path / "book.nbcb"
        _export(path, kind, book)
        _rewrite_header(path, **changes)
        with pytest.raises(CodebookFormatError, match=match):
            import_codebook(path)

    @pytest.mark.parametrize("kind", ["polar", "narrow", "wide"])
    def test_trailing_bytes_rejected(self, tmp_path, kind):
        cfg = ArrayConfig(8)
        book = {"polar": build_polar_codebook(cfg, 2, 10.0, 60.0),
                "narrow": build_wide_codebook(cfg, 1),
                "wide": build_wide_codebook(cfg, 2)}[kind]
        path = tmp_path / "book.nbcb"
        _export(path, kind, book)
        path.write_bytes(path.read_bytes() + bytes(1))
        with pytest.raises(CodebookFormatError, match="after the codebook payload"):
            import_codebook(path)

    @pytest.mark.parametrize("kind,changes", [
        ("wide", {"n": 2 ** 31, "aux1": 2 ** 30, "aux2": 2}),
        ("polar", {"aux1": 2 ** 32 - 1}),
    ], ids=["wide-N-2^31", "polar-S-2^32-1"])
    def test_oversized_payload_rejected(self, tmp_path, kind, changes):
        # a consistent header whose declared payload dwarfs the file is
        # rejected from the file's size, before anything that size is read
        cfg = ArrayConfig(16)
        book = {"polar": build_polar_codebook(cfg, 3, 10.0, 60.0),
                "wide": build_wide_codebook(cfg, 4)}[kind]
        path = tmp_path / "book.nbcb"
        export_codebook(path, book)
        _rewrite_header(path, **changes)
        with pytest.raises(CodebookFormatError, match="truncated codebook"):
            import_codebook(path)


class TestRingGridFile:
    """A polar file stores each ring's distance at every angle; the import
    keeps one distance per ring and rejects a grid that varies by angle."""

    def test_file_repeats_each_distance_at_every_angle(self, tmp_path):
        book = build_polar_codebook(ArrayConfig(16), 3, 10.0, 60.0)
        path = tmp_path / "book.nbcb"
        export_codebook(path, book)
        grid = np.frombuffer(path.read_bytes()[-3 * 16 * 8:], dtype="<f8").reshape(3, 16)
        assert np.array_equal(grid, np.repeat(ring_grid(3, 10.0, 60.0)[:, None], 16, axis=1))
        loaded = import_codebook(path)
        assert loaded.ring_distances.shape == (3,)
        assert loaded.ring_distances.tobytes() == book.ring_distances.tobytes()

    @pytest.mark.parametrize("at", [0, 17, 3 * 16 - 1])
    def test_one_changed_distance_rejected(self, tmp_path, at):
        path = tmp_path / "book.nbcb"
        export_codebook(path, build_polar_codebook(ArrayConfig(16), 3, 10.0, 60.0))
        raw = bytearray(path.read_bytes())
        raw[len(raw) - 3 * 16 * 8 + 8 * at] ^= 0x01  # lowest mantissa bit of one double
        path.write_bytes(bytes(raw))
        with pytest.raises(CodebookFormatError, match="varies across angles"):
            import_codebook(path)
