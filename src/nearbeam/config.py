"""YAML experiment configuration: schema, validation, and scale presets.

A config file has up to six sections (array, scenario, link, net, train,
experiment); every key is optional and falls back to the preset it overlays.
Unknown sections or keys are rejected by name rather than silently ignored.

Every value is checked at load by the type that uses it (the scenario section
is a :class:`ScenarioConfig`; array, train and net build :class:`ArrayConfig`
and :class:`TrainConfig`); only checks no constructor owns live here. A bad
value is a :class:`ConfigError` naming its section or key.

Example::

    array:
      num_antennas: 64
      num_rings: 5
      subarray_factor: 4
    train:
      num_samples: 20000
      epochs: 40
    experiment:
      snr_grid_db: [0, 5, 10, 15, 20]
      trials: 500
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import yaml

from .dataset import split_sizes
from .geometry import DEFAULT_WAVELENGTH, ArrayConfig, ScenarioConfig
from .training import TrainConfig

_TRAIN_DEFAULTS = TrainConfig()


class ConfigError(Exception):
    """Raised for unknown keys, bad types, or inconsistent settings."""


@dataclass
class ArraySection:
    num_antennas: int = 64
    carrier_wavelength: float = DEFAULT_WAVELENGTH
    antenna_spacing: float | None = None
    num_rings: int = 5
    r_min: float = 10.0
    r_max: float = 60.0
    subarray_factor: int = 4


@dataclass
class LinkSection:
    train_snr_range_db: list = field(default_factory=lambda: [0.0, 20.0])


@dataclass
class NetSection:
    conv_channels: list = field(default_factory=lambda: list(_TRAIN_DEFAULTS.conv_channels))
    fc_widths: list = field(default_factory=lambda: list(_TRAIN_DEFAULTS.fc_widths))
    # TrainConfig's 1 is the paper's table; the presets keep 4 beam positions
    # after pooling so the direction head sees where the strongest beam is
    pool_target: int = 4


@dataclass
class TrainSection:
    num_samples: int = 20000
    batch_size: int = _TRAIN_DEFAULTS.batch_size
    epochs: int = _TRAIN_DEFAULTS.epochs
    lr: float = _TRAIN_DEFAULTS.lr
    lr_decay: float = _TRAIN_DEFAULTS.lr_decay
    patience: int = _TRAIN_DEFAULTS.patience
    optimizer: str = _TRAIN_DEFAULTS.optimizer
    val_fraction: float = 0.1
    test_fraction: float = 0.1


@dataclass
class ExperimentSection:
    # 'farfield' is selectable but not a default: it picks from the narrow
    # codebook, so its gain is not bounded by the polar-codebook oracle and
    # G_N can marginally exceed 1
    schemes: list = field(default_factory=lambda: ["sweep", "original", "improved", "random"])
    snr_grid_db: list = field(default_factory=lambda: [0.0, 5.0, 10.0, 15.0, 20.0])
    trials: int = 200
    top_k_angles: int = 5
    top_l_rings: int = 2
    slot_per_beam: int = 1
    total_slots: int = 25600


@dataclass
class FullConfig:
    array: ArraySection = field(default_factory=ArraySection)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    link: LinkSection = field(default_factory=LinkSection)
    net: NetSection = field(default_factory=NetSection)
    train: TrainSection = field(default_factory=TrainSection)
    experiment: ExperimentSection = field(default_factory=ExperimentSection)

    def array_config(self) -> ArrayConfig:
        return ArrayConfig(
            num_antennas=self.array.num_antennas,
            carrier_wavelength=self.array.carrier_wavelength,
            antenna_spacing=self.array.antenna_spacing,
        )

    def train_config(self, seed: int, verbose: bool = False) -> TrainConfig:
        """The train and net sections as the settings of one training run."""
        t, n = self.train, self.net
        return TrainConfig(batch_size=t.batch_size, epochs=t.epochs, lr=t.lr,
                           lr_decay=t.lr_decay, patience=t.patience, optimizer=t.optimizer,
                           seed=seed, conv_channels=tuple(n.conv_channels),
                           fc_widths=tuple(n.fc_widths), pool_target=n.pool_target,
                           verbose=verbose)


def desk_scale_config() -> FullConfig:
    """Laptop-sized default: N=64, S=5, T=4 (M=16), 20k samples."""
    return FullConfig()


def paper_scale_config() -> FullConfig:
    """Full-size configuration: N=512, S=5, T=4 (M=128), 100k samples."""
    cfg = FullConfig()
    cfg.array.num_antennas = 512
    cfg.train.num_samples = 100000
    cfg.train.batch_size = 1000
    cfg.experiment.top_k_angles = 10
    cfg.experiment.top_l_rings = 2
    return cfg


def apply_overrides(cfg: FullConfig, data: dict) -> FullConfig:
    """Overlay a parsed config mapping onto ``cfg``, validating every key."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping of sections")
    sections = {f.name for f in dataclasses.fields(cfg)}
    for section_name, section_data in data.items():
        if section_name not in sections:
            raise ConfigError(f"unknown config section '{section_name}'")
        if section_data is None:
            continue
        if not isinstance(section_data, dict):
            raise ConfigError(f"config section '{section_name}' must be a mapping")
        section = getattr(cfg, section_name)
        valid = {f.name for f in dataclasses.fields(section)}
        values = {}
        for key, value in section_data.items():
            if key not in valid:
                raise ConfigError(f"unknown config key '{section_name}.{key}'")
            current = getattr(section, key)
            if isinstance(current, bool) and not isinstance(value, bool):
                raise ConfigError(f"config key '{section_name}.{key}' must be a boolean")
            if isinstance(current, int) and not isinstance(current, bool):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigError(f"config key '{section_name}.{key}' must be an integer")
            if isinstance(current, float) and not isinstance(value, (int, float)):
                raise ConfigError(f"config key '{section_name}.{key}' must be a number")
            if isinstance(current, str) and not isinstance(value, str):
                raise ConfigError(f"config key '{section_name}.{key}' must be a string")
            if isinstance(current, (list, tuple)) and not isinstance(value, list):
                raise ConfigError(f"config key '{section_name}.{key}' must be a list")
            if isinstance(current, float):
                value = float(value)
            if isinstance(current, tuple):
                value = tuple(value)
            values[key] = value
        setattr(cfg, section_name,
                _checked(section_name, dataclasses.replace, section, **values))
    _validate(cfg)
    return cfg


def _checked(section: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with the ValueError or TypeError of a
    constructor's own checks raised as a ConfigError naming ``section``."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _validate(cfg: FullConfig) -> None:
    a, e = cfg.array, cfg.experiment
    _checked("array", cfg.array_config)
    _checked("train/net", cfg.train_config, 0)
    if a.num_rings < 1:
        raise ConfigError(f"array.num_rings must be >= 1, got {a.num_rings}")
    if a.subarray_factor < 1 or a.num_antennas % a.subarray_factor != 0:
        raise ConfigError("array.subarray_factor must divide array.num_antennas")
    if not 0 < a.r_min < a.r_max < math.inf:
        raise ConfigError("need 0 < array.r_min < array.r_max < inf")
    snr = cfg.link.train_snr_range_db
    if not (len(snr) == 2 and _finite_numbers(snr) and snr[0] <= snr[1]):
        raise ConfigError(f"link.train_snr_range_db must be two finite numbers [lo, hi] "
                          f"with lo <= hi, got {snr}")
    t = cfg.train
    if t.num_samples < 10:
        raise ConfigError("train.num_samples must be >= 10")
    for key in ("val_fraction", "test_fraction"):
        if not 0.0 <= getattr(t, key) < 1.0:
            raise ConfigError(f"train.{key} must be a finite number in [0, 1), "
                              f"got {getattr(t, key)}")
    try:
        _, n_val, _ = split_sizes(t.num_samples, t.val_fraction, t.test_fraction)
    except ValueError:
        raise ConfigError(f"train.val_fraction {t.val_fraction} and train.test_fraction "
                          f"{t.test_fraction} leave no training samples") from None
    if n_val < 1:
        # early stopping scores every epoch on the validation split
        raise ConfigError(f"train.val_fraction {t.val_fraction} of {t.num_samples} samples "
                          f"leaves no validation samples")
    num_wide = a.num_antennas // a.subarray_factor
    if num_wide % cfg.net.pool_target != 0:
        raise ConfigError("net.pool_target must divide the wide-beam count M")
    if not (e.snr_grid_db and _finite_numbers(e.snr_grid_db)):
        raise ConfigError(f"experiment.snr_grid_db must list finite numbers, got {e.snr_grid_db}")
    for key in ("trials", "slot_per_beam", "total_slots"):
        if getattr(e, key) < 1:
            raise ConfigError(f"experiment.{key} must be >= 1, got {getattr(e, key)}")
    if not 1 <= e.top_k_angles <= a.num_antennas:
        raise ConfigError(f"experiment.top_k_angles must lie in 1..array.num_antennas "
                          f"({a.num_antennas}), got {e.top_k_angles}")
    if not 1 <= e.top_l_rings <= a.num_rings:
        raise ConfigError(f"experiment.top_l_rings must lie in 1..array.num_rings "
                          f"({a.num_rings}), got {e.top_l_rings}")
    # beams each scheme tests per trial
    beams = {
        "sweep": a.num_antennas * a.num_rings,
        "original": num_wide,
        "improved": num_wide + e.top_k_angles * e.top_l_rings,
        "random": 0,
        "farfield": a.num_antennas,
    }
    for scheme in e.schemes:
        if scheme not in beams:
            raise ConfigError(f"unknown scheme '{scheme}' in experiment.schemes")
        if e.slot_per_beam * beams[scheme] > e.total_slots:
            raise ConfigError(
                f"scheme '{scheme}' needs {e.slot_per_beam * beams[scheme]} slots, "
                f"experiment.total_slots is {e.total_slots}"
            )


def _finite_numbers(values) -> bool:
    return all(type(v) in (int, float) and math.isfinite(v) for v in values)


def load_config(path, base: FullConfig | None = None) -> FullConfig:
    """Load a YAML config file on top of ``base`` (desk preset by default)."""
    cfg = base if base is not None else desk_scale_config()
    with open(path) as f:
        data = yaml.safe_load(f)
    if data is None:
        data = {}
    return apply_overrides(cfg, data)
