"""Outputs pinned against a recorded golden file.

``tests/data/golden.json`` holds the labels, seeds, SNRs and measurements of
two small datasets and the trial rows of a tiny stub experiment with all
five schemes. A change to any random stream (the draw order of a sample,
the noise layout of a beam test, the seeding of a trial) fails here, so a
stream changes only on purpose: rewrite the file in the same change with

    PYTHONPATH=src python tests/test_golden.py

Integers (labels, seeds, beam counts, trial numbers) must match exactly.
Floats must lie within 1e-10 of the largest magnitude in their record (a
sample, or a trial row), so that another CPU's last bits still pass.
"""

import csv
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from nearbeam.config import desk_scale_config
from nearbeam.dataset import generate_dataset
from nearbeam.experiments import run_experiment
from nearbeam.geometry import ArrayConfig, ScenarioConfig

GOLDEN = Path(__file__).parent / "data" / "golden.json"
REL = 1e-10

# name -> (N, S, T, samples, base seed); 130 samples cross a label chunk
DATASETS = {
    "n16_t4": (16, 5, 4, 130, 11),
    "n33_t3": (33, 8, 3, 40, 12),
}


def dataset_outputs(n, rings, t, count, seed) -> dict:
    ds = generate_dataset(ArrayConfig(n), ScenarioConfig(), rings, 10.0, 60.0, t,
                          num_samples=count, base_seed=seed)
    return {
        "label_n": ds.label_n.tolist(),
        "label_s": ds.label_s.tolist(),
        "seeds": [str(s) for s in ds.seeds],
        "snr_db": ds.snr_db.tolist(),
        "yw": np.stack([ds.yw.real, ds.yw.imag], axis=-1).tolist(),
    }


def experiment_rows(stub: str) -> list[list[str]]:
    cfg = desk_scale_config()
    cfg.array.num_antennas = 16
    cfg.array.num_rings = 3
    cfg.array.subarray_factor = 4
    cfg.experiment.schemes = ["sweep", "original", "improved", "random", "farfield"]
    cfg.experiment.snr_grid_db = [0.0, 10.0]
    cfg.experiment.trials = 3
    cfg.experiment.top_k_angles = 3
    cfg.experiment.top_l_rings = 2
    with tempfile.TemporaryDirectory() as out:
        run_experiment(cfg, master_seed=5, stub=stub, out_dir=out)
        with open(Path(out) / "trials.csv", newline="") as f:
            return list(csv.reader(f))


def current_outputs() -> dict:
    return {
        "datasets": {name: dataset_outputs(*args) for name, args in DATASETS.items()},
        "trials": {stub: experiment_rows(stub) for stub in ("oracle", "uniform")},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_dataset_matches_golden(golden, name):
    want = golden["datasets"][name]
    got = dataset_outputs(*DATASETS[name])
    for key in ("label_n", "label_s", "seeds"):
        assert got[key] == want[key], key
    yw_want, yw_got = np.array(want["yw"]), np.array(got["yw"])
    assert yw_got.shape == yw_want.shape
    for i, (snr_want, snr_got) in enumerate(zip(want["snr_db"], got["snr_db"])):
        scale = max(np.abs(yw_want[i]).max(), abs(snr_want))
        assert abs(snr_got - snr_want) <= REL * scale, f"sample {i} SNR"
        assert np.abs(yw_got[i] - yw_want[i]).max() <= REL * scale, f"sample {i} yw"


@pytest.mark.parametrize("stub", ["oracle", "uniform"])
def test_trials_match_golden(golden, stub):
    want = golden["trials"][stub]
    got = experiment_rows(stub)
    assert got[0] == want[0]
    assert len(got) == len(want)
    columns = want[0]
    exact = [columns.index(c) for c in ("scheme", "trial", "beams", "seed")]
    floats = [columns.index(c) for c in ("snr_db", "G_N", "rate", "eff_rate")]
    for row, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
        assert [g[c] for c in exact] == [w[c] for c in exact], f"row {row}"
        scale = max(abs(float(w[c])) for c in floats)
        for c in floats:
            assert abs(float(g[c]) - float(w[c])) <= REL * scale, f"row {row} {columns[c]}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(current_outputs(), indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
