import dataclasses
import json
import re
from pathlib import Path

import pytest

from nearbeam.config import (
    ConfigError,
    apply_overrides,
    desk_scale_config,
    load_config,
    paper_scale_config,
)
from nearbeam.training import TrainConfig

README = Path(__file__).resolve().parent.parent / "README.md"

# bad values and the ConfigError each must raise at load: the scenario, array
# and train/net ones come from the checks of the types built from them
BAD_VALUES = [
    ({"scenario": {"angle_range": [0.5, -0.5]}}, r"scenario: invalid angle_range"),
    ({"scenario": {"distance_range": [-5, 60]}}, r"scenario: invalid distance_range"),
    ({"scenario": {"num_paths": 0, "gain_variances": []}}, r"scenario: num_paths"),
    ({"scenario": {"gain_variances": [1.0, -0.01, 0.01]}}, r"scenario: gain variances"),
    ({"array": {"carrier_wavelength": -1.0}}, r"array: carrier_wavelength"),
    ({"array": {"antenna_spacing": "abc"}}, r"array: antenna_spacing"),
    ({"array": {"num_rings": 0}, "experiment": {"top_l_rings": 0}},
     r"array\.num_rings must be >= 1"),
    ({"train": {"optimizer": "sgdd"}}, r"train/net: optimizer .*'sgdd'"),
    ({"train": {"optimizer": "sgd"}}, r"train/net: optimizer must be adam, got 'sgd'"),
    ({"train": {"batch_size": 0}}, r"train/net: batch_size must be >= 1"),
    ({"train": {"epochs": 0}}, r"train/net: epochs must be >= 1"),
    ({"train": {"patience": 0}}, r"train/net: patience must be >= 1"),
    ({"train": {"lr": 0.0}}, r"train/net: lr must be positive"),
    ({"train": {"lr_decay": -0.95}}, r"train/net: lr_decay must be positive"),
    ({"net": {"conv_channels": [8]}}, r"train/net: conv_channels must be 2"),
    ({"net": {"fc_widths": [8, 8]}}, r"train/net: fc_widths must be 3"),
    ({"net": {"fc_widths": [8, "8", 8]}}, r"train/net: fc_widths must be 3"),
    ({"net": {"pool_target": 0}}, r"train/net: pool_target must be >= 1"),
    ({"array": {"r_max": float("inf")}}, r"array\.r_max < inf"),
    ({"experiment": {"snr_grid_db": ["abc"]}}, r"experiment\.snr_grid_db must list finite"),
    ({"experiment": {"snr_grid_db": []}}, r"experiment\.snr_grid_db must list finite"),
    ({"experiment": {"trials": 0}}, r"experiment\.trials must be >= 1"),
    ({"experiment": {"schemes": ["random"], "total_slots": 0}},
     r"experiment\.total_slots must be >= 1"),
    ({"experiment": {"top_k_angles": 0}},
     r"experiment\.top_k_angles must lie in 1\.\.array\.num_antennas"),
    ({"experiment": {"top_l_rings": 0}},
     r"experiment\.top_l_rings must lie in 1\.\.array\.num_rings"),
    ({"link": {"train_snr_range_db": [20, 0]}}, r"link\.train_snr_range_db .*\[20, 0\]"),
    ({"link": {"train_snr_range_db": [0.0, float("inf")]}}, r"link\.train_snr_range_db"),
    ({"link": {"train_snr_range_db": [0.0]}}, r"link\.train_snr_range_db"),
]


class TestPresets:
    def test_desk_scale_values(self):
        cfg = desk_scale_config()
        assert cfg.array.num_antennas == 64
        assert cfg.array.num_rings == 5
        assert cfg.array.subarray_factor == 4
        assert cfg.train.num_samples == 20000

    def test_paper_scale_values(self):
        cfg = paper_scale_config()
        assert cfg.array.num_antennas == 512
        assert cfg.train.num_samples == 100000
        assert cfg.train.batch_size == 1000
        assert cfg.experiment.top_k_angles == 10
        assert cfg.experiment.top_l_rings == 2
        # paper-scale codebook and improved-scheme beam counts
        assert cfg.array.num_antennas * cfg.array.num_rings == 2560
        m = cfg.array.num_antennas // cfg.array.subarray_factor
        assert m + cfg.experiment.top_k_angles * cfg.experiment.top_l_rings == 148

    def test_train_config_pinned(self):
        net = dict(conv_channels=(64, 256), fc_widths=(1024, 1024, 512), pool_target=4)
        schedule = dict(epochs=40, lr=0.01, lr_decay=0.95, patience=10, optimizer="adam")
        assert desk_scale_config().train_config(7) == TrainConfig(
            batch_size=125, seed=7, **schedule, **net)
        assert paper_scale_config().train_config(7, verbose=True) == TrainConfig(
            batch_size=1000, seed=7, verbose=True, **schedule, **net)

    def test_array_config_spacing_defaults_to_half_wavelength(self):
        cfg = desk_scale_config().array_config()
        assert cfg.antenna_spacing == pytest.approx(cfg.carrier_wavelength / 2)


class TestOverrides:
    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match="unknown config section 'nets'"):
            apply_overrides(desk_scale_config(), {"nets": {}})

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown config key 'net.dropout'"):
            apply_overrides(desk_scale_config(), {"net": {"dropout": 0.5}})

    def test_type_checked(self):
        with pytest.raises(ConfigError, match="train.epochs"):
            apply_overrides(desk_scale_config(), {"train": {"epochs": "many"}})
        with pytest.raises(ConfigError, match="experiment.schemes"):
            apply_overrides(desk_scale_config(), {"experiment": {"schemes": "sweep"}})

    def test_values_applied(self):
        cfg = apply_overrides(desk_scale_config(), {
            "array": {"num_antennas": 32, "subarray_factor": 2},
            "train": {"epochs": 3, "lr": 0.02},
        })
        assert cfg.array.num_antennas == 32
        assert cfg.train.epochs == 3
        assert cfg.train.lr == 0.02

    def test_cross_field_validation(self):
        with pytest.raises(ConfigError, match="array: num_antennas must be >= 1"):
            apply_overrides(desk_scale_config(), {"array": {"num_antennas": 0}})
        with pytest.raises(ConfigError, match="scenario: need 2 gain variances"):
            apply_overrides(desk_scale_config(), {"scenario": {"num_paths": 2}})
        with pytest.raises(ConfigError, match="subarray_factor"):
            apply_overrides(desk_scale_config(), {"array": {"num_antennas": 30}})
        with pytest.raises(ConfigError, match="top_k_angles"):
            apply_overrides(desk_scale_config(),
                            {"experiment": {"top_k_angles": 100}, "array": {"num_antennas": 64}})
        with pytest.raises(ConfigError, match="unknown scheme"):
            apply_overrides(desk_scale_config(), {"experiment": {"schemes": ["magic"]}})

    def test_scheme_over_pilot_budget_rejected(self):
        # the desk sweep tests N*S = 320 beams
        with pytest.raises(ConfigError, match="scheme 'sweep' needs 320 slots"):
            apply_overrides(desk_scale_config(), {"experiment": {"total_slots": 20}})
        with pytest.raises(ConfigError, match="scheme 'improved' needs 52 slots"):
            apply_overrides(desk_scale_config(), {"experiment": {
                "schemes": ["improved"], "total_slots": 50, "slot_per_beam": 2}})
        cfg = apply_overrides(desk_scale_config(), {"experiment": {"total_slots": 320}})
        assert cfg.experiment.total_slots == 320

    @pytest.mark.parametrize("train, message", [
        ({"val_fraction": 0}, "train.val_fraction 0.0 of 20000 samples leaves no validation"),
        ({"num_samples": 10, "val_fraction": 0.05}, "of 10 samples leaves no validation"),
        ({"val_fraction": 0.6, "test_fraction": 0.5}, "leave no training samples"),
        ({"val_fraction": 0.5, "test_fraction": 0.5}, "leave no training samples"),
        ({"val_fraction": -0.5}, r"train.val_fraction must be a finite number in \[0, 1\)"),
        ({"test_fraction": 1.0}, "train.test_fraction must be"),
        ({"test_fraction": float("nan")}, "train.test_fraction must be"),
        ({"val_fraction": float("inf")}, "train.val_fraction must be"),
    ])
    def test_split_fractions_checked(self, train, message):
        with pytest.raises(ConfigError, match=message):
            apply_overrides(desk_scale_config(), {"train": train})

    @pytest.mark.parametrize("data, message", BAD_VALUES, ids=[
        "+".join(f"{s}.{k}" for s, keys in data.items() for k in keys) for data, _ in BAD_VALUES])
    def test_bad_value_rejected_at_load(self, data, message):
        with pytest.raises(ConfigError, match=message):
            apply_overrides(desk_scale_config(), data)

    def test_int_rejects_bool_and_float(self):
        with pytest.raises(ConfigError):
            apply_overrides(desk_scale_config(), {"train": {"epochs": True}})
        with pytest.raises(ConfigError):
            apply_overrides(desk_scale_config(), {"train": {"epochs": 2.5}})


class TestLoadConfig:
    def test_yaml_overlay(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("array:\n  num_antennas: 16\ntrain:\n  num_samples: 500\n")
        cfg = load_config(path)
        assert cfg.array.num_antennas == 16
        assert cfg.train.num_samples == 500
        assert cfg.array.num_rings == 5  # untouched default

    def test_empty_file_gives_base(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        cfg = load_config(path, base=paper_scale_config())
        assert cfg.array.num_antennas == 512

    def test_round_trips_to_dict(self):
        d = dataclasses.asdict(desk_scale_config())
        assert set(d) == {"array", "scenario", "link", "net", "train", "experiment"}

    def test_readme_config_block_is_the_desk_preset(self, tmp_path):
        section = README.read_text().split("## Config file", 1)[1]
        block = re.search(r"```yaml\n(.*?)```", section, re.DOTALL).group(1)
        path = tmp_path / "readme.yaml"
        path.write_text(block)

        def plain(cfg):
            return json.loads(json.dumps(dataclasses.asdict(cfg)))

        assert plain(load_config(path)) == plain(desk_scale_config())
