import pytest

from nearbeam.config import (
    ConfigError,
    apply_overrides,
    desk_scale_config,
    load_config,
    paper_scale_config,
)


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
        d = desk_scale_config().to_dict()
        assert set(d) == {"array", "scenario", "link", "net", "train", "experiment"}
