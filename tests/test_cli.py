import argparse
import dataclasses

import numpy as np
import pytest

import nearbeam.cli as cli_module
from nearbeam.cli import build_parser, main
from nearbeam.codebook import import_codebook
from nearbeam.dataset import generate_dataset, load_dataset, save_dataset
from nearbeam.geometry import ArrayConfig, ScenarioConfig
from nearbeam.net import build_model, save_model
from nearbeam.training import EpochStats, TrainHistory


TINY_YAML = """\
array:
  num_antennas: 16
  num_rings: 3
  subarray_factor: 4
net:
  conv_channels: [8, 16]
  fc_widths: [32, 32, 16]
  pool_target: 2
train:
  num_samples: 120
  batch_size: 32
  epochs: 2
experiment:
  schemes: [sweep, original, improved, random]
  snr_grid_db: [10.0]
  trials: 5
  top_k_angles: 3
  top_l_rings: 2
"""


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_YAML)
    return path


def _save_heads(models_dir, num_wide, num_angles, num_rings):
    """Untrained heads of the given sizes, small enough to build at once."""
    models_dir.mkdir(parents=True, exist_ok=True)
    for name, classes in (("direction_model.nbnm", num_angles),
                          ("distance_model.nbnm", num_rings)):
        model = build_model(num_wide, classes, np.random.default_rng(0),
                            conv_channels=(2, 2), fc_widths=(4, 4, 4))
        save_model(models_dir / name, model)


# every option of every subcommand, each one read by the subcommand's code
SUBCOMMAND_OPTIONS = {
    "gen-dataset": {"--config", "--desk-scale", "--paper-scale", "--seed", "--out-dir",
                    "--dataset"},
    "train": {"--config", "--desk-scale", "--paper-scale", "--seed", "--out-dir", "--dataset",
              "--verbose"},
    "eval-heads": {"--out-dir", "--dataset", "--models-dir", "--split", "--top-k"},
    "run-experiment": {"--config", "--desk-scale", "--paper-scale", "--seed", "--out-dir",
                       "--models-dir", "--stub"},
    "export-codebook": {"--config", "--desk-scale", "--paper-scale", "--out-dir", "--kind"},
}


class TestOptionSurface:
    def test_each_subcommand_has_exactly_its_options(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        found = {name: {opt for action in p._actions for opt in action.option_strings
                        if opt not in ("-h", "--help")}
                 for name, p in sub.choices.items()}
        assert found == SUBCOMMAND_OPTIONS
        assert sum(len(opts) for opts in found.values()) == 30

    @pytest.mark.parametrize("command, flag", [
        ("gen-dataset", ["--verbose"]),
        ("eval-heads", ["--config", "c.yaml"]),
        ("eval-heads", ["--desk-scale"]),
        ("eval-heads", ["--paper-scale"]),
        ("eval-heads", ["--seed", "99"]),
        ("eval-heads", ["--verbose"]),
        ("run-experiment", ["--verbose"]),
        ("export-codebook", ["--seed", "1"]),
        ("export-codebook", ["--verbose"]),
    ])
    def test_option_the_subcommand_does_not_read_is_refused(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestArgumentHandling:
    def test_missing_config_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-dataset"])
        assert exc.value.code != 0
        assert "--config" in capsys.readouterr().err

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code != 0

    def test_unknown_config_key_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("train:\n  turbo: true\n")
        code = main(["gen-dataset", "--config", str(bad), "--out-dir", str(tmp_path)])
        assert code != 0
        assert "train.turbo" in capsys.readouterr().err

    def test_truncated_dataset_is_an_error_message(self, tiny_cfg, tmp_path, capsys):
        args = ["--config", str(tiny_cfg), "--out-dir", str(tmp_path)]
        assert main(["gen-dataset", *args]) == 0
        path = tmp_path / "dataset.nbds"
        path.write_bytes(path.read_bytes()[:-30])
        capsys.readouterr()
        assert main(["train", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "truncated record block" in err
        assert "Traceback" not in err

    def test_corrupt_model_is_an_error_message(self, tiny_cfg, tmp_path, capsys):
        args = ["--config", str(tiny_cfg), "--out-dir", str(tmp_path)]
        assert main(["gen-dataset", *args]) == 0
        (tmp_path / "direction_model.nbnm").write_bytes(b"NBNM" + bytes(64))
        (tmp_path / "distance_model.nbnm").write_bytes(b"NBNM" + bytes(64))
        capsys.readouterr()
        assert main(["eval-heads", "--out-dir", str(tmp_path), "--models-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "checksum mismatch" in err


    def test_heads_of_another_array_are_an_error_message(self, tmp_path, capsys):
        # heads for N=16 (M=4, S=3) against the desk preset (M=16, N=64, S=5)
        models = tmp_path / "models"
        _save_heads(models, num_wide=4, num_angles=16, num_rings=3)
        out = tmp_path / "out"
        code = main(["run-experiment", "--desk-scale", "--models-dir", str(models),
                     "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "direction_model.nbnm" in err
        assert "expected M=16 and N=64" in err
        assert not out.exists()

    def test_heads_disagreeing_with_the_dataset_are_an_error_message(self, tiny_cfg, tmp_path,
                                                                     capsys):
        args = ["--config", str(tiny_cfg), "--out-dir", str(tmp_path)]
        assert main(["gen-dataset", *args]) == 0
        _save_heads(tmp_path, num_wide=4, num_angles=16, num_rings=5)  # the dataset has S=3
        capsys.readouterr()
        assert main(["eval-heads", "--out-dir", str(tmp_path), "--models-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "distance_model.nbnm" in err
        assert "expected M=4 and S=3" in err

    def test_top_k_below_one_is_a_usage_error(self, tmp_path, capsys):
        # rejected while parsing, before the (missing) dataset is read
        with pytest.raises(SystemExit) as exc:
            main(["eval-heads", "--dataset", str(tmp_path / "none.nbds"),
                  "--models-dir", str(tmp_path), "--top-k", "1", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--top-k" in err and "k must be >= 1, got 0" in err

    @pytest.mark.parametrize("experiment", [
        "{total_slots: 20}",  # the default scheme list starts with the sweep
        "{schemes: [random, sweep], total_slots: 20}",  # random tests no beam
    ])
    def test_scheme_over_pilot_budget_is_an_error_message(self, tmp_path, capsys, experiment):
        path = tmp_path / "c.yaml"
        path.write_text(f"experiment: {experiment}\n")
        code = main(["run-experiment", "--config", str(path), "--stub", "uniform",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "needs 320 slots" in err

    @pytest.mark.parametrize("train", [
        "{val_fraction: 0}",
        "{val_fraction: 0.6, test_fraction: 0.5}",
        "{val_fraction: -0.5}",
    ])
    def test_split_fraction_is_an_error_message(self, tmp_path, capsys, train):
        path = tmp_path / "c.yaml"
        path.write_text("array: {num_antennas: 16}\n"
                        f"train: {{num_samples: 40, {train[1:-1]}}}\n")
        code = main(["gen-dataset", "--config", str(path), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: train.") and "Traceback" not in err
        assert not (tmp_path / "dataset.nbds").exists()

    def test_unknown_optimizer_fails_before_the_dataset_is_written(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_text("array: {num_antennas: 16}\n"
                        "train: {num_samples: 40, optimizer: sgdd}\n")
        code = main(["gen-dataset", "--config", str(path), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: train/net: optimizer") and "'sgdd'" in err
        assert not (tmp_path / "dataset.nbds").exists()

    def test_dataset_without_val_split_is_an_error_message(self, tiny_cfg, tmp_path, capsys):
        # generate_dataset writes such a file; the CLI's own configs cannot
        ds = generate_dataset(ArrayConfig(16), ScenarioConfig(), 3, 10.0, 60.0, 4,
                              num_samples=40, base_seed=1, val_fraction=0.0)
        path = tmp_path / "no_val.nbds"
        save_dataset(path, ds)
        out = tmp_path / "out"
        code = main(["train", "--config", str(tiny_cfg), "--dataset", str(path),
                     "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot train on ") and "val split is empty" in err
        assert not out.exists()


    def test_dataset_without_train_split_is_an_error_message(self, tiny_cfg, tmp_path,
                                                             capsys):
        # a header that puts all 40 samples in val and test loads, and
        # training on it stops before any epoch
        ds = generate_dataset(ArrayConfig(16), ScenarioConfig(), 3, 10.0, 60.0, 4,
                              num_samples=40, base_seed=1)
        path = tmp_path / "no_train.nbds"
        save_dataset(path, dataclasses.replace(ds, n_train=0, n_val=ds.n_train + ds.n_val))
        assert load_dataset(path).n_train == 0
        out = tmp_path / "out"
        code = main(["train", "--config", str(tiny_cfg), "--dataset", str(path),
                     "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot train on ") and "train split is empty" in err
        assert not out.exists()

    @pytest.mark.parametrize("yaml_text,match", [
        ("scenario: {distance_range: [10.0, .inf]}", "distance_range"),
        ("scenario: {gain_variances: [.inf, 0.01, 0.01]}", "gain variances"),
        ("array: {num_antennas: 16, carrier_wavelength: .inf}", "carrier_wavelength"),
    ], ids=["distance-range", "gain-variance", "wavelength"])
    def test_non_finite_value_is_an_error_message(self, tmp_path, capsys, yaml_text, match):
        # each of these once made a dataset that its own load rejected
        path = tmp_path / "c.yaml"
        path.write_text(f"{yaml_text}\ntrain: {{num_samples: 20}}\n")
        code = main(["gen-dataset", "--desk-scale", "--config", str(path),
                     "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and match in err and "Traceback" not in err
        assert not (tmp_path / "dataset.nbds").exists()


class TestPipeline:
    def test_full_tiny_pipeline(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["--config", str(tiny_cfg), "--seed", "3", "--out-dir", str(out)]

        assert main(["gen-dataset", *args]) == 0
        ds = load_dataset(out / "dataset.nbds")
        assert ds.num_samples == 120
        assert (out / "labels.csv").exists()

        assert main(["train", *args]) == 0
        assert (out / "direction_model.nbnm").exists()
        assert (out / "distance_model.nbnm").exists()
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "head,epoch,lr,train_loss,val_loss,val_top1"
        assert len(history) == 1 + 2 * 2  # two heads, two epochs each

        assert main(["eval-heads", "--out-dir", str(out)]) == 0
        assert (out / "eval_report.json").exists()
        report = capsys.readouterr().out
        assert '"direction"' in report

        assert main(["run-experiment", *args, "--models-dir", str(out)]) == 0
        trials = (out / "trials.csv").read_text().splitlines()
        assert trials[0] == "scheme,snr_db,trial,G_N,rate,eff_rate,beams,seed"
        assert len(trials) == 1 + 4 * 5
        assert (out / "summary.csv").exists()

    def test_models_dir_defaults_to_out_dir(self, tiny_cfg, tmp_path, monkeypatch):
        # run from an empty directory, so a default of ./out finds nothing
        out = tmp_path / "run1"
        assert main(["gen-dataset", "--config", str(tiny_cfg), "--out-dir", str(out)]) == 0
        _save_heads(out, num_wide=4, num_angles=16, num_rings=3)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["eval-heads", "--out-dir", str(out)]) == 0
        assert (out / "eval_report.json").exists()
        assert main(["run-experiment", "--config", str(tiny_cfg), "--out-dir", str(out)]) == 0
        assert (out / "trials.csv").exists()
        assert list(cwd.iterdir()) == []

    def test_train_reports_the_saved_epochs_val_top1(self, tiny_cfg, tmp_path, capsys,
                                                    monkeypatch):
        # the saved head is the first epoch with the lowest val loss; here
        # that is epoch 1, and neither the best nor the last val_top1
        def stats(top1):
            losses = [0.9, 0.5, 0.5, 0.7]
            return [EpochStats(epoch=e, lr=0.01, train_loss=1.0, val_loss=loss, val_top1=acc)
                    for e, (loss, acc) in enumerate(zip(losses, top1))]

        real_train = cli_module.train_heads

        def train_heads(ds, cfg):
            dir_model, dist_model, _ = real_train(ds, cfg)
            return dir_model, dist_model, TrainHistory(direction=stats([0.1, 0.2, 0.3, 0.9]),
                                                       distance=stats([0.6, 0.4, 0.5, 0.7]))

        monkeypatch.setattr(cli_module, "train_heads", train_heads)
        out = tmp_path / "out"
        args = ["--config", str(tiny_cfg), "--seed", "3", "--out-dir", str(out)]
        assert main(["gen-dataset", *args]) == 0
        capsys.readouterr()
        assert main(["train", *args]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "best val top1 0.200 (epoch 1, last 0.900)" in lines[0]
        assert "best val top1 0.400 (epoch 1, last 0.700)" in lines[1]

    def test_stub_experiment_and_sweep_baseline(self, tiny_cfg, tmp_path):
        out = tmp_path / "out"
        args = ["--config", str(tiny_cfg), "--seed", "1", "--out-dir", str(out)]
        assert main(["run-experiment", *args, "--stub", "oracle"]) == 0
        # the sweep baseline alone is run-experiment on a config naming only it
        sweep_cfg = tmp_path / "sweep.yaml"
        sweep_cfg.write_text(TINY_YAML.replace("[sweep, original, improved, random]", "[sweep]"))
        args[1] = str(sweep_cfg)
        assert main(["run-experiment", *args, "--stub", "uniform"]) == 0
        rows = (out / "trials.csv").read_text().splitlines()[1:]
        assert all(row.startswith("sweep,") for row in rows)

    def test_sweep_baseline_subcommand_is_gone(self, tiny_cfg, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep-baseline", "--config", str(tiny_cfg)])
        assert exc.value.code == 2
        assert "invalid choice: 'sweep-baseline'" in capsys.readouterr().err

    def test_paper_scale_improved_reports_148_beams(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "run-experiment", "--paper-scale", "--seed", "0", "--out-dir", str(out),
            "--stub", "oracle", "--config", str(_paper_tiny(tmp_path)),
        ])
        assert code == 0
        lines = (out / "trials.csv").read_text().splitlines()[1:]
        beams = {int(line.split(",")[6]) for line in lines if line.startswith("improved")}
        assert beams == {148}
        assert "148 beams" in capsys.readouterr().out

    def test_export_codebook(self, tiny_cfg, tmp_path):
        out = tmp_path / "out"
        args = ["--config", str(tiny_cfg), "--out-dir", str(out)]
        for kind, rows in (("polar", 48), ("narrow", 16), ("wide", 4)):
            assert main(["export-codebook", *args, "--kind", kind]) == 0
            book = import_codebook(out / f"codebook_{kind}.nbcb")
            assert book.codewords.shape == (rows, 16)

    def test_desk_scale_preset_selected(self, tmp_path, capsys):
        # preset alone is a valid config source
        out = tmp_path / "out"
        code = main(["export-codebook", "--desk-scale", "--out-dir", str(out)])
        assert code == 0
        book = import_codebook(out / "codebook_polar.nbcb")
        assert book.codewords.shape == (320, 64)


def _paper_tiny(tmp_path):
    """Paper-scale geometry but only a couple of improved-scheme trials."""
    path = tmp_path / "paper_tiny.yaml"
    path.write_text(
        "experiment:\n"
        "  schemes: [improved]\n"
        "  snr_grid_db: [10.0]\n"
        "  trials: 2\n"
    )
    return path
