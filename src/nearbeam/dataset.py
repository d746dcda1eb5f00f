"""Labeled dataset generation, binary persistence, and splits.

Every sample is regenerable from its own 64-bit seed: the per-sample RNG
draws the paths, the training SNR, and the measurement noise in a fixed
order, and the noiseless exhaustive sweep provides the (n*, s*) labels.
Generation works on a chunk of samples at a time, in three phases: each
sample's generator draws its paths, then its SNR; one ``synth_channels``
call builds the chunk's channels; then each generator draws its sample's
measurement noise. One product of the polar codebook (built in place) and
the chunk's channels labels the chunk. Every sample equals the one its seed
regenerates alone, every label equals the per-sample sweep that the load
spot check reruns, and only one chunk of channels is held at a time.
The noise layout is part of the format: for each wide beam in order, N real
normals and then N imaginary normals, N being the number of antennas.
The file format is a fixed header, a JSON blob with the generating config
(so labels can be audited later), and fixed-size binary records.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .codebook import PolarCodebook, WideCodebook, build_polar_codebook, build_wide_codebook
from .geometry import ArrayConfig, ScenarioConfig, sample_paths, synth_channels
from .measurement import link_from_snr_db, measure_wide, sweep_oracle, sweep_oracle_batch

_MAGIC = b"NBDS"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIIIIdQQQQQI")
# samples labelled per codebook product: generation holds this many channels
_LABEL_CHUNK = 128
# a regenerated measurement must match the stored one to this relative
# precision; a file whose yw was rounded (to float32, say) fails the check
_YW_RTOL = 1e-12


class DatasetFormatError(Exception):
    """Raised when a dataset file is corrupt or inconsistent."""


@dataclass
class Dataset:
    """In-memory labeled dataset plus the metadata needed to audit it."""

    num_angles: int            # N
    num_rings: int             # S
    num_wide: int              # M
    subarray_factor: int       # T
    carrier_wavelength: float
    base_seed: int
    n_train: int
    n_val: int
    n_test: int
    yw: np.ndarray             # (num_samples, M) complex128
    label_n: np.ndarray        # (num_samples,) uint32, 1-based angle index
    label_s: np.ndarray        # (num_samples,) uint32, 1-based ring index
    snr_db: np.ndarray         # (num_samples,) float64
    seeds: np.ndarray          # (num_samples,) uint64
    config: dict               # generation config, JSON-serializable

    @property
    def num_samples(self) -> int:
        return len(self.yw)

    @property
    def train_indices(self) -> np.ndarray:
        return np.arange(0, self.n_train)

    @property
    def val_indices(self) -> np.ndarray:
        return np.arange(self.n_train, self.n_train + self.n_val)

    @property
    def test_indices(self) -> np.ndarray:
        return np.arange(self.n_train + self.n_val, self.num_samples)


def split_sizes(num_samples: int, val_fraction: float = 0.1, test_fraction: float = 0.1):
    """80/10/10-style split: floor for val and test, remainder to train."""
    if not (val_fraction >= 0 and test_fraction >= 0):
        raise ValueError(f"split fractions must be non-negative, got val {val_fraction}, "
                         f"test {test_fraction}")
    n_val = int(np.floor(num_samples * val_fraction))
    n_test = int(np.floor(num_samples * test_fraction))
    n_train = num_samples - n_val - n_test
    if n_train <= 0:
        raise ValueError("split leaves no training samples")
    return n_train, n_val, n_test


def _draw_samples(seeds, scenario: ScenarioConfig, array: ArrayConfig,
                  wide: WideCodebook, snr_range_db: tuple[float, float]):
    """Channels (K, N), measurement values (K, M) and SNRs (K,) of the
    samples with these seeds.

    Each sample's own generator draws its paths, then its SNR; one
    :func:`synth_channels` call builds every channel; then each generator
    draws its sample's measurement noise.
    """
    rngs = [np.random.default_rng(int(seed)) for seed in seeds]
    path_sets, snr_db = [], []
    for rng in rngs:
        path_sets.append(sample_paths(rng, scenario))
        snr_db.append(rng.uniform(*snr_range_db))
    channels = synth_channels(array, path_sets)
    values = np.empty((len(rngs), wide.num_wide), dtype=np.complex128)
    for k, rng in enumerate(rngs):
        values[k] = measure_wide(wide, channels[k], link_from_snr_db(snr_db[k]), rng).values
    return channels, values, snr_db


def generate_sample(
    seed: int,
    scenario: ScenarioConfig,
    polar: PolarCodebook,
    wide: WideCodebook,
    snr_range_db: tuple[float, float],
):
    """Regenerate one sample from its seed. Draw order is part of the format:
    paths, then SNR, then measurement noise, which for each wide beam in
    order is N real normals followed by N imaginary normals."""
    channels, values, snr_db = _draw_samples([seed], scenario, polar.array, wide, snr_range_db)
    _, s_star, n_star = sweep_oracle(polar, channels[0])
    return values[0], n_star, s_star, snr_db[0]


def generate_dataset(
    array_cfg: ArrayConfig,
    scenario: ScenarioConfig,
    num_rings: int,
    r_min: float,
    r_max: float,
    subarray_factor: int,
    num_samples: int,
    base_seed: int,
    snr_range_db: tuple[float, float] = (0.0, 20.0),
    val_fraction: float = 0.1,
    test_fraction: float = 0.1,
) -> Dataset:
    """Generate a labeled dataset of wide-beam measurements.

    Per-sample seeds are drawn once from a master generator, so samples are
    independent of generation order and each one can be rebuilt in isolation
    with :func:`generate_sample`. Labels are computed ``_LABEL_CHUNK``
    samples at a time and equal that function's.
    """
    lo, hi = snr_range_db
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi < lo:
        raise ValueError(f"invalid snr_range_db {snr_range_db}: need finite low <= high")
    polar = build_polar_codebook(array_cfg, num_rings, r_min, r_max)
    wide = build_wide_codebook(array_cfg, subarray_factor)
    n_train, n_val, n_test = split_sizes(num_samples, val_fraction, test_fraction)

    master = np.random.default_rng(base_seed)
    seeds = master.integers(0, 2 ** 63, size=num_samples, dtype=np.uint64)

    yw = np.empty((num_samples, wide.num_wide), dtype=np.complex128)
    label_n = np.empty(num_samples, dtype=np.uint32)
    label_s = np.empty(num_samples, dtype=np.uint32)
    snr = np.empty(num_samples, dtype=np.float64)
    for start in range(0, num_samples, _LABEL_CHUNK):
        stop = min(start + _LABEL_CHUNK, num_samples)
        channels, yw[start:stop], snr[start:stop] = _draw_samples(
            seeds[start:stop], scenario, array_cfg, wide, snr_range_db
        )
        flat = sweep_oracle_batch(polar, channels) - 1
        label_s[start:stop] = flat // polar.num_angles + 1
        label_n[start:stop] = flat % polar.num_angles + 1

    config = _config_blob(array_cfg, scenario, num_rings, r_min, r_max, subarray_factor,
                          snr_range_db)
    return Dataset(
        num_angles=array_cfg.num_antennas,
        num_rings=num_rings,
        num_wide=wide.num_wide,
        subarray_factor=subarray_factor,
        carrier_wavelength=array_cfg.carrier_wavelength,
        base_seed=int(base_seed),
        n_train=n_train,
        n_val=n_val,
        n_test=n_test,
        yw=yw,
        label_n=label_n,
        label_s=label_s,
        snr_db=snr,
        seeds=seeds,
        config=config,
    )


def _record_dtype(num_wide: int) -> np.dtype:
    return np.dtype([
        ("yw", "<c16", (num_wide,)),
        ("label_n", "<u4"),
        ("label_s", "<u4"),
        ("snr_db", "<f8"),
        ("seed", "<u8"),
    ])


def save_dataset(path, ds: Dataset) -> None:
    blob = json.dumps(ds.config, sort_keys=True, separators=(",", ":")).encode()
    header = _HEADER.pack(
        _MAGIC, _FORMAT_VERSION,
        ds.num_angles, ds.num_rings, ds.num_wide, ds.subarray_factor,
        ds.carrier_wavelength,
        ds.num_samples, ds.n_train, ds.n_val, ds.n_test,
        ds.base_seed, len(blob),
    )
    records = np.zeros(ds.num_samples, dtype=_record_dtype(ds.num_wide))
    records["yw"] = ds.yw
    records["label_n"] = ds.label_n
    records["label_s"] = ds.label_s
    records["snr_db"] = ds.snr_db
    records["seed"] = ds.seeds
    with open(path, "wb") as f:
        f.write(header)
        f.write(blob)
        f.write(records.tobytes())


def load_dataset(path) -> Dataset:
    """Read a dataset file; checks every record's values, then spot-checks 1%
    of the samples (labels, SNR and measurements) against their regeneration
    from the stored per-sample seeds."""
    with open(path, "rb") as f:
        raw = f.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise DatasetFormatError("truncated dataset header")
        (magic, version, n_angles, n_rings, n_wide, t_factor, lam,
         count, n_train, n_val, n_test, base_seed, blob_len) = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise DatasetFormatError(f"bad magic {magic!r}")
        if version != _FORMAT_VERSION:
            raise DatasetFormatError(f"unsupported dataset format version {version}")
        if n_train + n_val + n_test != count:
            raise DatasetFormatError("split sizes do not sum to sample count")
        if count == 0:
            raise DatasetFormatError("the header declares no samples")
        # the rest of the file, however large the sizes the header declares
        raw = f.read()
    if len(raw) < blob_len:
        raise DatasetFormatError(f"truncated config blob: the header declares {blob_len} "
                                 f"bytes, {len(raw)} follow the header")
    try:
        config = json.loads(raw[:blob_len])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DatasetFormatError("unreadable config blob") from exc
    array_cfg, _ = _generation_configs(config)
    cb = config["codebook"]
    header = (n_angles, n_rings, t_factor, lam, n_wide * t_factor)
    blob = (array_cfg.num_antennas, cb["num_rings"], cb["subarray_factor"],
            array_cfg.carrier_wavelength, array_cfg.num_antennas)
    if header != blob:
        raise DatasetFormatError(f"header (N, S, T, wavelength, M*T) {header} disagrees "
                                 f"with the config blob's {blob}")
    dtype = _record_dtype(n_wide)
    held, needed = len(raw) - blob_len, count * dtype.itemsize
    if held < needed:
        raise DatasetFormatError(f"truncated record block: {count} records need {needed} "
                                 f"bytes, the file holds {held}")
    if held > needed:
        raise DatasetFormatError("unexpected bytes after the record block")
    records = np.frombuffer(raw, dtype=dtype, offset=blob_len)
    ds = Dataset(
        num_angles=n_angles, num_rings=n_rings, num_wide=n_wide,
        subarray_factor=t_factor, carrier_wavelength=lam,
        base_seed=base_seed, n_train=n_train, n_val=n_val, n_test=n_test,
        yw=records["yw"].copy(),
        label_n=records["label_n"].copy(),
        label_s=records["label_s"].copy(),
        snr_db=records["snr_db"].copy(),
        seeds=records["seed"].copy(),
        config=config,
    )
    _check_records(ds)
    spot_check_labels(ds)
    return ds


def _config_blob(array_cfg: ArrayConfig, scenario: ScenarioConfig, num_rings, r_min, r_max,
                 subarray_factor, snr_range_db) -> dict:
    """The generation config a dataset file stores, passed through JSON once
    so that the dict held in memory equals the one a load reads back."""
    lo, hi = snr_range_db
    return json.loads(json.dumps({
        "array": asdict(array_cfg),
        "scenario": asdict(scenario),
        "codebook": {"num_rings": num_rings, "r_min": r_min, "r_max": r_max,
                     "subarray_factor": subarray_factor},
        "snr_range_db": [lo, hi],
    }))


def _generation_configs(config) -> tuple[ArrayConfig, ScenarioConfig]:
    """The array and scenario of a stored config blob. A blob that is not the
    one :func:`_config_blob` writes for the configs it names (a key missing
    or unknown, a value out of range) raises :class:`DatasetFormatError`."""
    try:
        array_cfg, scenario = ArrayConfig(**config["array"]), ScenarioConfig(**config["scenario"])
        rebuilt = _config_blob(array_cfg, scenario, **config["codebook"],
                               snr_range_db=config["snr_range_db"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"config blob does not rebuild: {exc!r}") from exc
    if rebuilt != config:
        raise DatasetFormatError("config blob differs from the one its configs rebuild")
    return array_cfg, scenario


def _check_records(ds: Dataset) -> None:
    """Reject a dataset whose records hold impossible values: labels outside
    1..N or 1..S, a non-finite measurement, or an SNR outside the stored
    generation range. Every record is checked, not only the spot-checked ones."""
    lo, hi = ds.config["snr_range_db"]
    snr = ds.snr_db
    for what, bad in (
        (f"label_n outside 1..{ds.num_angles}", (ds.label_n < 1) | (ds.label_n > ds.num_angles)),
        (f"label_s outside 1..{ds.num_rings}", (ds.label_s < 1) | (ds.label_s > ds.num_rings)),
        ("non-finite yw", ~np.isfinite(ds.yw).all(axis=1)),
        (f"SNR outside [{lo}, {hi}] dB", ~np.isfinite(snr) | (snr < lo) | (snr > hi)),
    ):
        if bad.any():
            raise DatasetFormatError(f"sample {int(np.argmax(bad))}: {what}")


def spot_check_labels(ds: Dataset, fraction: float = 0.01) -> int:
    """Regenerate an evenly spaced subset of samples from their seeds and
    compare the stored labels, SNR and measurements; returns the number
    checked."""
    count = max(1, int(round(ds.num_samples * fraction)))
    idx = np.unique(np.linspace(0, ds.num_samples - 1, count).astype(int))
    array_cfg, scenario = _generation_configs(ds.config)
    cb = ds.config["codebook"]
    try:
        polar = build_polar_codebook(array_cfg, cb["num_rings"], cb["r_min"], cb["r_max"])
        wide = build_wide_codebook(array_cfg, cb["subarray_factor"])
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"config blob codebook does not build: {exc}") from exc
    snr_range = tuple(ds.config["snr_range_db"])
    for i in idx:
        values, n_star, s_star, snr_db = generate_sample(
            ds.seeds[i], scenario, polar, wide, snr_range
        )
        if (n_star != ds.label_n[i] or s_star != ds.label_s[i] or snr_db != ds.snr_db[i]
                or not np.allclose(values, ds.yw[i], rtol=_YW_RTOL, atol=0.0)):
            raise DatasetFormatError(f"sample {i} does not reproduce from its seed")
    return len(idx)


def export_labels_csv(path, ds: Dataset) -> None:
    """Human-inspectable label dump: one row per sample."""
    splits = (["train"] * ds.n_train + ["val"] * ds.n_val + ["test"] * ds.n_test)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["index", "split", "label_n", "label_s", "snr_db", "seed"])
        for i in range(ds.num_samples):
            writer.writerow([
                i, splits[i], int(ds.label_n[i]), int(ds.label_s[i]),
                f"{ds.snr_db[i]:.12g}", int(ds.seeds[i]),
            ])
