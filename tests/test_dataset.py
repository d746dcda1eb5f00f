import json

import numpy as np
import numpy.testing as npt
import pytest

from beam_reference import reference_beam_tests
from channel_reference import reference_channel, reference_paths
from nearbeam import dataset
from nearbeam.codebook import build_polar_codebook, build_wide_codebook, index_to_pair
from nearbeam.dataset import (
    DatasetFormatError,
    export_labels_csv,
    generate_dataset,
    generate_sample,
    load_dataset,
    save_dataset,
    split_sizes,
    spot_check_labels,
)
from nearbeam.geometry import ArrayConfig, ScenarioConfig
from nearbeam.measurement import link_from_snr_db


def small_dataset(num_samples=60, seed=7, n=16, rings=3):
    return generate_dataset(
        ArrayConfig(n), ScenarioConfig(), rings, 10.0, 60.0, 4,
        num_samples=num_samples, base_seed=seed,
    )


class TestSplitSizes:
    def test_ten_samples(self):
        assert split_sizes(10) == (8, 1, 1)

    def test_floor_goes_to_train(self):
        assert split_sizes(105) == (85, 10, 10)
        assert split_sizes(20000) == (16000, 2000, 2000)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            split_sizes(10, val_fraction=0.5, test_fraction=0.5)
        for fractions in ((-0.5, 0.1), (0.1, -0.1), (float("nan"), 0.1)):
            with pytest.raises(ValueError, match="must be non-negative"):
                split_sizes(10, *fractions)


class TestGeneration:
    def test_shapes_and_ranges(self):
        ds = small_dataset()
        assert ds.yw.shape == (60, 4)
        assert ds.label_n.min() >= 1 and ds.label_n.max() <= 16
        assert ds.label_s.min() >= 1 and ds.label_s.max() <= 3
        assert np.all((ds.snr_db >= 0) & (ds.snr_db <= 20))

    def test_splits_partition_samples(self):
        ds = small_dataset()
        all_idx = np.concatenate([ds.train_indices, ds.val_indices, ds.test_indices])
        npt.assert_array_equal(np.sort(all_idx), np.arange(ds.num_samples))
        assert len(set(ds.train_indices) & set(ds.val_indices)) == 0
        assert len(set(ds.val_indices) & set(ds.test_indices)) == 0

    def test_deterministic_regeneration(self):
        a, b = small_dataset(seed=42), small_dataset(seed=42)
        npt.assert_array_equal(a.yw, b.yw)
        npt.assert_array_equal(a.seeds, b.seeds)
        assert small_dataset(seed=43).seeds[0] != a.seeds[0]

    def test_labels_match_recomputed_oracle(self):
        ds = small_dataset(num_samples=30)
        assert spot_check_labels(ds, fraction=1.0) == 30

    @pytest.mark.parametrize("n,t", [(16, 4), (33, 3), (64, 4)])
    def test_chunk_labels_equal_per_sample_sweep(self, n, t):
        # sample counts on both sides of one and of two chunk boundaries
        chunk = dataset._LABEL_CHUNK
        cfg, scenario = ArrayConfig(n), ScenarioConfig()
        polar = build_polar_codebook(cfg, 5, 10.0, 60.0)
        wide = build_wide_codebook(cfg, t)
        for count in (1, chunk - 1, chunk, chunk + 1, 5 * chunk // 2):
            ds = generate_dataset(cfg, scenario, 5, 10.0, 60.0, t,
                                  num_samples=count, base_seed=count)
            for i, seed in enumerate(ds.seeds):
                _, n_star, s_star, _ = generate_sample(seed, scenario, polar, wide, (0.0, 20.0))
                assert (ds.label_n[i], ds.label_s[i]) == (n_star, s_star)

    @pytest.mark.parametrize("n,t", [(16, 4), (33, 3), (64, 4)])
    def test_samples_equal_generate_sample_exactly(self, n, t):
        # a chunk and two samples: each sample, wherever it sits in its
        # chunk, is the one its seed regenerates alone
        count = dataset._LABEL_CHUNK + 2
        cfg, scenario = ArrayConfig(n), ScenarioConfig()
        polar = build_polar_codebook(cfg, 5, 10.0, 60.0)
        wide = build_wide_codebook(cfg, t)
        ds = generate_dataset(cfg, scenario, 5, 10.0, 60.0, t, num_samples=count, base_seed=n)
        for i, seed in enumerate(ds.seeds):
            values, n_star, s_star, snr_db = generate_sample(seed, scenario, polar, wide,
                                                             (0.0, 20.0))
            npt.assert_array_equal(ds.yw[i], values)
            assert (ds.label_n[i], ds.label_s[i], ds.snr_db[i]) == (n_star, s_star, snr_db)

    def test_every_ring_appears_at_desk_scale(self):
        ds = generate_dataset(
            ArrayConfig(64), ScenarioConfig(), 5, 10.0, 60.0, 4,
            num_samples=3000, base_seed=5,
        )
        counts = np.bincount(ds.label_s, minlength=6)[1:]
        assert np.all(counts > 0)

    @pytest.mark.parametrize("snr_range", [(float("nan"), 10.0), (0.0, float("inf")), (10.0, 0.0)])
    def test_bad_snr_range_is_a_named_error(self, snr_range):
        with pytest.raises(ValueError, match=r"invalid snr_range_db \("):
            generate_dataset(ArrayConfig(16), ScenarioConfig(), 3, 10.0, 60.0, 4,
                             num_samples=10, base_seed=0, snr_range_db=snr_range)


class TestStreamCompatibility:
    def test_matches_per_sample_reference_loop(self):
        # the loop draws as the format prescribes, so equal labels, SNRs and
        # seeds mean .nbds files written before still pass the spot check;
        # a chunk and a few samples, so the labels cross a chunk boundary
        count = dataset._LABEL_CHUNK + 3
        cfg, scenario, rings = ArrayConfig(16), ScenarioConfig(), 3
        ds = small_dataset(num_samples=count, seed=31, n=16, rings=rings)
        polar = build_polar_codebook(cfg, rings, 10.0, 60.0)
        wide = build_wide_codebook(cfg, 4)
        seeds = np.random.default_rng(31).integers(0, 2 ** 63, size=count, dtype=np.uint64)
        npt.assert_array_equal(ds.seeds, seeds)
        for i, seed in enumerate(seeds):
            rng = np.random.default_rng(int(seed))
            h = reference_channel(cfg, reference_paths(rng, scenario))
            snr_db = rng.uniform(0.0, 20.0)
            yw = reference_beam_tests(wide.codewords, h, link_from_snr_db(snr_db), rng)
            best = int(np.argmax([abs(np.vdot(w, h)) for w in polar.codewords])) + 1
            s_star, n_star = index_to_pair(best, 16)
            assert (ds.label_n[i], ds.label_s[i]) == (n_star, s_star)
            assert ds.snr_db[i] == snr_db
            npt.assert_allclose(ds.yw[i], yw, rtol=1e-12, atol=0)


class TestRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "ds.nbds"
        save_dataset(path, ds)
        loaded = load_dataset(path)
        npt.assert_array_equal(loaded.yw, ds.yw)
        npt.assert_array_equal(loaded.label_n, ds.label_n)
        npt.assert_array_equal(loaded.label_s, ds.label_s)
        npt.assert_array_equal(loaded.snr_db, ds.snr_db)
        npt.assert_array_equal(loaded.seeds, ds.seeds)
        assert loaded.config == ds.config
        assert (loaded.n_train, loaded.n_val, loaded.n_test) == (48, 6, 6)

    def test_byte_identical_files_across_runs(self, tmp_path):
        p1, p2 = tmp_path / "a.nbds", tmp_path / "b.nbds"
        save_dataset(p1, small_dataset(seed=9))
        save_dataset(p2, small_dataset(seed=9))
        assert p1.read_bytes() == p2.read_bytes()

    # the 1% spot check of 20 samples regenerates sample 0 only
    def test_tampered_label_caught(self, tmp_path):
        ds = small_dataset(num_samples=20)
        ds.label_n[0] = ds.label_n[0] % 16 + 1
        path = tmp_path / "ds.nbds"
        save_dataset(path, ds)
        with pytest.raises(DatasetFormatError, match="sample 0 "):
            load_dataset(path)

    def test_changed_snr_caught(self, tmp_path):
        # 10 dB is inside the generation range, so only the spot check of
        # sample 133 (of 0, 133, 266 and 399) can catch it
        ds = small_dataset(num_samples=400, n=16, rings=3)
        ds.snr_db[133] = 10.0
        path = tmp_path / "ds.nbds"
        save_dataset(path, ds)
        with pytest.raises(DatasetFormatError, match="sample 133 "):
            load_dataset(path)

    @pytest.mark.parametrize("mangle", [
        lambda yw: yw * (1.0 + 1e-9),
        lambda yw: yw.astype(np.complex64),
    ], ids=["relative-1e-9", "complex64"])
    def test_inexact_measurement_caught(self, tmp_path, mangle):
        ds = small_dataset(num_samples=20)
        ds.yw[0] = mangle(ds.yw[0])
        path = tmp_path / "ds.nbds"
        save_dataset(path, ds)
        with pytest.raises(DatasetFormatError, match="sample 0 "):
            load_dataset(path)

    @pytest.mark.parametrize("field,at,value,what", [
        ("label_n", 50, 0, "label_n"),
        ("label_n", 50, 17, "label_n"),
        ("label_s", 50, 0, "label_s"),
        ("label_s", 50, 999, "label_s"),
        ("yw", (50, 2), complex(np.nan, 0.0), "non-finite yw"),
        ("yw", (50, 3), complex(0.0, np.inf), "non-finite yw"),
        ("snr_db", 50, -1e9, "SNR"),
        ("snr_db", 50, 20.5, "SNR"),
        ("snr_db", 50, np.nan, "SNR"),
        ("snr_db", 50, np.inf, "SNR"),
    ])
    def test_impossible_value_outside_spot_check_caught(self, tmp_path, field, at, value, what):
        # the 1% spot check of 400 samples regenerates 0, 133, 266 and 399
        # only; sample 50 is caught by the check of every record
        ds = small_dataset(num_samples=400, n=16, rings=3)
        getattr(ds, field)[at] = value
        path = tmp_path / "ds.nbds"
        save_dataset(path, ds)
        with pytest.raises(DatasetFormatError, match=f"sample 50: {what}"):
            load_dataset(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "ds.nbds"
        save_dataset(path, small_dataset(num_samples=20))
        raw = path.read_bytes()
        path.write_bytes(raw[:-30])
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    @pytest.mark.parametrize("edit,match", [
        (lambda h, raw: h.update(count=2 ** 40, n_train=2 ** 40 - 8), "truncated record block"),
        (lambda h, raw: h.update(count=2 ** 62, n_train=2 ** 62 - 8), "truncated record block"),
        (lambda h, raw: h.update(blob_len=2 ** 31), "truncated config blob"),
        (lambda h, raw: raw.__setitem__(slice(0, 1), b"\xff"), "unreadable config blob"),
        (lambda h, raw: raw.extend(bytes(8)), "unexpected bytes after the record block"),
    ], ids=["count-2^40", "count-2^62", "blob-2^31", "blob-not-utf8", "trailing-bytes"])
    def test_sizes_the_file_does_not_hold_rejected(self, tmp_path, edit, match):
        # splits 32/4/4 of 40 samples; each size is checked against the
        # bytes the file holds before anything that size is read
        path = tmp_path / "ds.nbds"
        save_dataset(path, small_dataset(num_samples=40))
        raw = path.read_bytes()
        header = dict(zip(_HEADER_FIELDS, dataset._HEADER.unpack_from(raw)))
        rest = bytearray(raw[dataset._HEADER.size:])
        edit(header, rest)
        path.write_bytes(dataset._HEADER.pack(*header.values()) + bytes(rest))
        with pytest.raises(DatasetFormatError, match=match):
            load_dataset(path)

    def test_header_declaring_no_samples_rejected(self, tmp_path):
        # a header, its config blob and no records
        path = tmp_path / "ds.nbds"
        save_dataset(path, small_dataset(num_samples=20))
        raw = path.read_bytes()
        header = dict(zip(_HEADER_FIELDS, dataset._HEADER.unpack_from(raw)))
        blob = raw[dataset._HEADER.size:dataset._HEADER.size + header["blob_len"]]
        header.update(count=0, n_train=0, n_val=0, n_test=0)
        path.write_bytes(dataset._HEADER.pack(*header.values()) + blob)
        with pytest.raises(DatasetFormatError, match="declares no samples"):
            load_dataset(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "ds.nbds"
        save_dataset(path, small_dataset(num_samples=20))
        raw = bytearray(path.read_bytes())
        raw[0] = 0x58
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def test_labels_csv(self, tmp_path):
        ds = small_dataset(num_samples=20)
        path = tmp_path / "labels.csv"
        export_labels_csv(path, ds)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,split,label_n,label_s,snr_db,seed"
        assert len(lines) == 21
        assert lines[1].startswith("0,train,")
        assert lines[-1].startswith("19,test,")


_HEADER_FIELDS = ("magic", "version", "n", "s", "m", "t", "wavelength", "count",
                  "n_train", "n_val", "n_test", "base_seed", "blob_len")


def _rewrite(path, header=None, blob=None):
    """Rewrite header fields (by name) or the config blob (through ``blob``,
    which edits the parsed dict) of a saved dataset in place."""
    raw = path.read_bytes()
    fields = dict(zip(_HEADER_FIELDS, dataset._HEADER.unpack_from(raw)))
    start = dataset._HEADER.size
    config = json.loads(raw[start:start + fields["blob_len"]])
    records = raw[start + fields["blob_len"]:]
    fields.update(header or {})
    if blob is not None:
        blob(config)
    text = json.dumps(config).encode()
    fields["blob_len"] = len(text)
    path.write_bytes(dataset._HEADER.pack(*fields.values()) + text + records)


class TestHeaderAgainstConfig:
    """The header's N, S, T, wavelength and M = N/T must equal the config
    blob's, and the blob must rebuild into the generation dataclasses."""

    @pytest.fixture()
    def saved(self, tmp_path):
        path = tmp_path / "ds.nbds"
        save_dataset(path, small_dataset(num_samples=20, n=16, rings=5))
        return path

    def test_untouched_file_loads(self, saved):
        _rewrite(saved)
        loaded = load_dataset(saved)
        assert loaded.num_rings == 5
        assert spot_check_labels(loaded, fraction=1.0) == 20

    @pytest.mark.parametrize("header", [
        {"n": 32},
        {"s": 7},
        {"t": 2},
        {"t": 2, "m": 8},
        {"wavelength": 2 * 0.00999308193333333},
        {"m": 2},
    ], ids=["N", "S", "T", "T-and-M", "wavelength", "M"])
    def test_header_disagreeing_with_blob_rejected(self, saved, header):
        _rewrite(saved, header=header)
        with pytest.raises(DatasetFormatError, match="disagrees with the config blob"):
            load_dataset(saved)

    @pytest.mark.parametrize("edit", [
        lambda c: c["array"].pop("antenna_spacing"),
        lambda c: c["scenario"].update(extra=1),
        lambda c: c["codebook"].pop("r_max"),
        lambda c: c["codebook"].update(num_wide=4),
        lambda c: c.pop("snr_range_db"),
        lambda c: c.update(recipe="v2"),
        lambda c: c.update(snr_range_db=[0.0, 10.0, 20.0]),
        lambda c: c["scenario"].update(angle_range=[0.5, 2.0]),
        lambda c: c["scenario"].update(num_paths=2),
        lambda c: c["array"].update(antenna_spacing=-1.0),
        lambda c: c["array"].update(num_antennas="16"),
    ], ids=["array-key-missing", "scenario-key-unknown", "codebook-key-missing",
            "codebook-key-unknown", "section-missing", "section-unknown", "snr-range",
            "angle-range", "num-paths", "spacing", "antennas-type"])
    def test_blob_that_does_not_rebuild_rejected(self, saved, edit):
        _rewrite(saved, blob=edit)
        with pytest.raises(DatasetFormatError, match="config blob"):
            load_dataset(saved)

    def test_codebook_values_that_do_not_build_rejected(self, saved):
        _rewrite(saved, blob=lambda c: c["codebook"].update(r_min=100.0))
        with pytest.raises(DatasetFormatError, match="codebook does not build"):
            load_dataset(saved)
