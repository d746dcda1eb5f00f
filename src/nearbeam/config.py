"""YAML experiment configuration: schema, validation, and scale presets.

A config file has up to six sections (array, scenario, link, net, train,
experiment); every key is optional and falls back to the preset it overlays.
Unknown sections or keys are rejected by name rather than silently ignored.

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
from dataclasses import dataclass, field

import yaml

from .dataset import split_sizes
from .geometry import DEFAULT_WAVELENGTH, ArrayConfig, ScenarioConfig


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
class ScenarioSection:
    num_paths: int = 3
    gain_variances: list = field(default_factory=lambda: [1.0, 0.01, 0.01])
    distance_range: list = field(default_factory=lambda: [10.0, 60.0])
    angle_range: list = field(default_factory=lambda: [-1.0, 1.0])


@dataclass
class LinkSection:
    train_snr_range_db: list = field(default_factory=lambda: [0.0, 20.0])


@dataclass
class NetSection:
    conv_channels: list = field(default_factory=lambda: [64, 256])
    fc_widths: list = field(default_factory=lambda: [1024, 1024, 512])
    pool_target: int = 4


@dataclass
class TrainSection:
    num_samples: int = 20000
    batch_size: int = 125
    epochs: int = 40
    lr: float = 0.01
    lr_decay: float = 0.95
    patience: int = 10
    optimizer: str = "adam"
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
    scenario: ScenarioSection = field(default_factory=ScenarioSection)
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

    def scenario_config(self) -> ScenarioConfig:
        return ScenarioConfig(**dataclasses.asdict(self.scenario))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


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


_SECTIONS = {
    "array": ArraySection,
    "scenario": ScenarioSection,
    "link": LinkSection,
    "net": NetSection,
    "train": TrainSection,
    "experiment": ExperimentSection,
}


def apply_overrides(cfg: FullConfig, data: dict) -> FullConfig:
    """Overlay a parsed config mapping onto ``cfg``, validating every key."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping of sections")
    for section_name, section_data in data.items():
        if section_name not in _SECTIONS:
            raise ConfigError(f"unknown config section '{section_name}'")
        if section_data is None:
            continue
        if not isinstance(section_data, dict):
            raise ConfigError(f"config section '{section_name}' must be a mapping")
        section = getattr(cfg, section_name)
        valid = {f.name for f in dataclasses.fields(section)}
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
            if isinstance(current, list) and not isinstance(value, list):
                raise ConfigError(f"config key '{section_name}.{key}' must be a list")
            if isinstance(current, float):
                value = float(value)
            setattr(section, key, value)
    _validate(cfg)
    return cfg


def _validate(cfg: FullConfig) -> None:
    a = cfg.array
    if a.num_antennas < 1:
        raise ConfigError("array.num_antennas must be >= 1")
    if a.subarray_factor < 1 or a.num_antennas % a.subarray_factor != 0:
        raise ConfigError("array.subarray_factor must divide array.num_antennas")
    if not 0 < a.r_min < a.r_max:
        raise ConfigError("need 0 < array.r_min < array.r_max")
    if len(cfg.scenario.gain_variances) != cfg.scenario.num_paths:
        raise ConfigError("scenario.gain_variances must list one variance per path")
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
    if cfg.experiment.top_k_angles > a.num_antennas:
        raise ConfigError("experiment.top_k_angles cannot exceed array.num_antennas")
    if cfg.experiment.top_l_rings > a.num_rings:
        raise ConfigError("experiment.top_l_rings cannot exceed array.num_rings")
    e = cfg.experiment
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


def load_config(path, base: FullConfig | None = None) -> FullConfig:
    """Load a YAML config file on top of ``base`` (desk preset by default)."""
    cfg = base if base is not None else desk_scale_config()
    with open(path) as f:
        data = yaml.safe_load(f)
    if data is None:
        data = {}
    return apply_overrides(cfg, data)
