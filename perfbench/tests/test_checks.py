"""Each correctness check passes on the program's output and fails on a
deliberately wrong one."""

import copy

import numpy as np
import pytest

import nearbeam as nb
import reference as ref
from nearbeam.net import encode_batch

N, S, T = 16, 5, 4


@pytest.fixture(scope="module")
def scale():
    array = nb.ArrayConfig(N)
    polar = ref.polar_matrix(N, array.carrier_wavelength, array.antenna_spacing, S, 10.0, 60.0)
    return array, polar, ref.wide_matrix(N, T)


@pytest.fixture(scope="module")
def dataset(scale):
    return nb.generate_dataset(scale[0], nb.ScenarioConfig(), S, 10.0, 60.0, T, 200, 7)


def test_reference_steering_matches_program(scale):
    array = scale[0]
    for theta, r in ((-0.9, 10.0), (0.0, 33.3), (0.7, 60.0)):
        mine = ref.steering(N, array.carrier_wavelength, array.antenna_spacing, theta, r)
        np.testing.assert_allclose(mine, nb.near_steering(array, theta, r), rtol=0, atol=1e-12)


def test_label_check_passes_then_catches_swapped_label(scale, dataset):
    _, polar, wide = scale
    problems = []
    for i in range(20):
        problems += ref.check_label(dataset, i, polar, wide)[0]
    assert problems == []
    i = next(i for i in range(1, 200) if dataset.label_n[i] != dataset.label_n[0])
    bad = copy.deepcopy(dataset)
    bad.label_n[[0, i]] = bad.label_n[[i, 0]]
    assert ref.check_label(bad, 0, polar, wide)[0]
    assert ref.check_label(bad, i, polar, wide)[0]


def test_noise_power_check(scale, dataset):
    _, polar, wide = scale
    noise = np.concatenate([ref.check_label(dataset, i, polar, wide)[1] for i in range(200)])
    assert ref.check_noise_power(noise) == []
    assert ref.check_noise_power(noise * np.sqrt(2.0))
    assert ref.check_noise_power(noise * 0.5)


def test_reload_check_catches_any_difference(dataset, tmp_path):
    nb.save_dataset(tmp_path / "d.nbds", dataset)
    loaded = nb.load_dataset(tmp_path / "d.nbds")
    assert ref.check_same_dataset(dataset, loaded) == []
    loaded.yw[3] += 1e-15
    loaded.n_val += 1
    assert len(ref.check_same_dataset(dataset, loaded)) == 2


# angles 3, 1, 2, 4, 5 lead the angle head; rings 1 then 3 lead the ring head
ANGLES, RINGS = (3, 1, 2, 4, 5), (1, 3)


def _candidates(angles=ANGLES, rings=RINGS):
    return np.array([(g - 1) * N + a for g in rings for a in angles])


def _measurements(strongest=(5,), count=10):
    meas = np.full(count, 1.0 + 1.0j)
    meas[list(strongest)] = 3.0j
    return meas


def _selection(**changes):
    # the 6th candidate, ring 3 and angle 3, has the strongest measurement
    sel = {"user": 0, "improved": 2 * N + 3, "original": 3, "candidates": _candidates(),
           "measurements": _measurements(), "beams_improved": 4 + 10,
           "beams_original": 4, "g_improved": 0.9, "g_original": 0.5}
    sel.update(changes)
    p_angle = np.full(N, 0.01)
    p_angle[np.array(ANGLES) - 1] = [0.3, 0.2, 0.15, 0.1, 0.08]
    p_ring = np.array([0.5, 0.05, 0.3, 0.1, 0.05])
    return ref.check_selection(sel, p_angle, p_ring, N, 5, 2, 4)


def test_selection_check_passes_on_consistent_picks():
    assert _selection() == []
    # a tie between the 1st and 6th candidates goes to the smaller index
    assert _selection(improved=3, measurements=_measurements((0, 5))) == []


@pytest.mark.parametrize("changes", [
    {"g_improved": 1.0 + 1e-9},                 # G_N above 1
    {"g_original": 1.5},
    {"improved": 2 * N + 7},                    # outside the candidate set
    {"improved": 2 * N + 1},                    # a candidate, not the strongest
    {"measurements": _measurements((0, 5))},    # a tie not broken to the smaller index
    {"candidates": _candidates(angles=(3, 1, 2, 4, 7))},   # angle 7 is not in the top 5
    {"candidates": _candidates(rings=(1, 2))},  # ring 2 is not in the top 2
    {"candidates": _candidates()[:9], "measurements": _measurements(count=9)},
    {"original": 2},                            # not the argmax pair
    {"beams_improved": 4 + 9},
    {"beams_original": 5},
])
def test_selection_check_catches_wrong_output(changes):
    assert _selection(**changes)


def test_oracle_and_gain_order_checks(scale):
    array, polar, _ = scale
    h = nb.synth_channel(array, nb.sample_paths(np.random.default_rng(3), nb.ScenarioConfig()))
    best = int(np.argmax(np.abs(polar.conj() @ h))) + 1
    assert ref.check_oracle(0, best, polar, h) == []
    assert ref.check_oracle(0, best % (N * S) + 1, polar, h)
    assert ref.check_gain_order(0.5, 0.4) == []
    assert ref.check_gain_order(0.4, 0.5)


def test_head_check_catches_unrestored_head(dataset):
    cfg = nb.TrainConfig(epochs=2, patience=2, lr=1e-3, conv_channels=(8, 16),
                         fc_widths=(32, 32, 32), pool_target=4, seed=5)
    d_model, _, hist = nb.train_heads(dataset, cfg)
    x_val = encode_batch(dataset.yw[dataset.val_indices])
    labels0 = dataset.label_n[dataset.val_indices].astype(np.int64) - 1

    def restore_problems():
        return ref.check_head("direction", d_model, hist.direction, 2, x_val, labels0)

    assert restore_problems() == []
    three_epochs = hist.direction + hist.direction[:1]
    assert ref.check_head("direction", d_model, three_epochs, 2, x_val, labels0)
    d_model.layers[2].running_var[...] *= 1.5   # BatchNorm statistics of another epoch
    assert restore_problems()


def test_uniform_bound_check():
    def stats(val_loss):
        return nb.training.EpochStats(epoch=0, lr=0.1, train_loss=1.0, val_loss=val_loss,
                                      val_top1=0.25)

    assert ref.check_beats_uniform("h", [stats(0.7), stats(0.5)], 4) == []
    assert ref.check_beats_uniform("h", [stats(float(np.log10(4))), stats(0.7)], 4)
