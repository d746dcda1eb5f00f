import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from nearbeam.dataset import generate_dataset
from nearbeam.geometry import ArrayConfig, ScenarioConfig
from nearbeam.net import cross_entropy_batch, encode_batch
from nearbeam.training import TrainConfig, evaluate_heads, top_k_accuracy, train_heads


TINY_TRAIN = TrainConfig(
    batch_size=32, epochs=5, patience=10, seed=0,
    conv_channels=(8, 16), fc_widths=(32, 32, 16), pool_target=2,
)


@pytest.fixture(scope="module")
def tiny_ds():
    return generate_dataset(
        ArrayConfig(16), ScenarioConfig(), 3, 10.0, 60.0, 4,
        num_samples=400, base_seed=21,
    )


@pytest.fixture(scope="module")
def trained(tiny_ds):
    return train_heads(tiny_ds, TINY_TRAIN)


class TestTrainHeads:
    def test_loss_decreases(self, trained):
        _, _, history = trained
        for stats in (history.direction, history.distance):
            assert stats[-1].train_loss <= stats[0].train_loss
            assert len(stats) <= TINY_TRAIN.epochs

    def test_heads_have_right_sizes(self, tiny_ds, trained):
        dir_model, dist_model, _ = trained
        assert dir_model.head_size == tiny_ds.num_angles
        assert dist_model.head_size == tiny_ds.num_rings
        probs = dir_model.predict_proba(tiny_ds.yw[0])
        assert probs.shape == (16,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_direction_beats_random_benchmark(self, tiny_ds, trained):
        dir_model, _, _ = trained
        idx = tiny_ds.val_indices
        probs = dir_model.predict_proba_batch(tiny_ds.yw[idx])
        top1 = (probs.argmax(axis=1) == tiny_ds.label_n[idx] - 1).mean()
        assert top1 > 2.0 / 16  # beats uniform guessing clearly

    def test_empty_val_split_rejected(self):
        ds = generate_dataset(ArrayConfig(16), ScenarioConfig(), 3, 10.0, 60.0, 4,
                              num_samples=20, base_seed=21, val_fraction=0.0)
        assert ds.n_val == 0
        with pytest.raises(ValueError, match="val split is empty"):
            train_heads(ds, TINY_TRAIN)

    def test_empty_train_split_rejected(self, tiny_ds):
        ds = dataclasses.replace(tiny_ds, n_train=0, n_val=tiny_ds.n_train + tiny_ds.n_val)
        with pytest.raises(ValueError, match="train split is empty"):
            train_heads(ds, TINY_TRAIN)

    def test_determinism(self, tiny_ds):
        cfg = TrainConfig(batch_size=32, epochs=2, seed=5,
                          conv_channels=(4, 8), fc_widths=(16, 16, 8), pool_target=1)
        m1, _, h1 = train_heads(tiny_ds, cfg)
        m2, _, h2 = train_heads(tiny_ds, cfg)
        for (_, a, _), (_, b, _) in zip(m1.parameters(), m2.parameters()):
            npt.assert_array_equal(a, b)
        assert [s.val_loss for s in h1.direction] == [s.val_loss for s in h2.direction]

    def test_early_stopping_restores_best(self, tiny_ds):
        cfg = TrainConfig(batch_size=32, epochs=6, patience=1, seed=3,
                          conv_channels=(4, 8), fc_widths=(16, 16, 8), pool_target=1)
        dir_model, dist_model, history = train_heads(tiny_ds, cfg)
        x_val = encode_batch(tiny_ds.yw)[tiny_ds.val_indices]
        for model, stats, labels in (
            (dir_model, history.direction, tiny_ds.label_n),
            (dist_model, history.distance, tiny_ds.label_s),
        ):
            best_epoch = int(np.argmin([s.val_loss for s in stats]))
            # stop happens at most patience epochs past the best one
            assert len(stats) <= best_epoch + 1 + cfg.patience
            # the restored model is the best epoch's model, running statistics
            # included: in eval mode it reproduces that epoch's val loss
            probs = model.forward(x_val, training=False)
            val_loss = cross_entropy_batch(probs, labels[tiny_ds.val_indices].astype(np.int64) - 1)
            assert val_loss == pytest.approx(stats[best_epoch].val_loss, rel=1e-12, abs=0)

    def test_single_ring_distance_head_is_perfect(self):
        ds = generate_dataset(
            ArrayConfig(16), ScenarioConfig(), 1, 10.0, 60.0, 4,
            num_samples=200, base_seed=8,
        )
        cfg = TrainConfig(batch_size=32, epochs=1, seed=0,
                          conv_channels=(4, 8), fc_widths=(16, 16, 8), pool_target=1)
        dir_model, dist_model, history = train_heads(ds, cfg)
        report = evaluate_heads(dir_model, dist_model, ds, split="test", ks=(1,))
        assert report["distance"]["top_k"][1] == 1.0


class TestOverfitCapacity:
    def test_desk_model_memorizes_100_samples(self):
        # capacity check: the desk-scale direction net must be able to drive
        # training accuracy to >= 99% on a fixed 100-sample set
        from nearbeam.net import Adam, build_model, encode_batch

        ds = generate_dataset(
            ArrayConfig(64), ScenarioConfig(), 5, 10.0, 60.0, 4,
            num_samples=100, base_seed=31, val_fraction=0.0, test_fraction=0.0,
        )
        x = encode_batch(ds.yw)
        labels = ds.label_n.astype(np.int64) - 1
        model = build_model(16, 64, np.random.default_rng(0), pool_target=4)
        opt = Adam(model, lr=0.01)
        acc = 0.0
        for epoch in range(200):
            probs = model.forward(x, training=True)
            acc = (probs.argmax(axis=1) == labels).mean()
            if acc >= 0.99:
                break
            model.backward(labels)
            opt.step()
        assert acc >= 0.99


class TestTopKAccuracy:
    def test_monotone_in_k(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(8), size=200)
        labels = rng.integers(0, 8, 200)
        accs = [top_k_accuracy(probs, labels, k) for k in range(1, 9)]
        assert np.all(np.diff(accs) >= 0)
        assert accs[-1] == 1.0

    def test_k_range_checked(self):
        probs = np.ones((3, 4)) / 4
        with pytest.raises(ValueError):
            top_k_accuracy(probs, np.zeros(3, dtype=int), 0)
        with pytest.raises(ValueError):
            top_k_accuracy(probs, np.zeros(3, dtype=int), 5)


class _SeqStub:
    """Replays fixed probability rows in evaluation order."""

    def __init__(self, rows):
        self.rows = rows
        self.pos = 0

    def forward(self, x, training=False):
        out = self.rows[self.pos:self.pos + len(x)]
        self.pos += len(x)
        return out


class TestEvaluateHeads:
    def test_perfect_stub_scores_one(self, tiny_ds):
        idx = tiny_ds.test_indices
        dir_rows = np.zeros((len(idx), 16))
        dir_rows[np.arange(len(idx)), tiny_ds.label_n[idx] - 1] = 1.0
        dist_rows = np.zeros((len(idx), 3))
        dist_rows[np.arange(len(idx)), tiny_ds.label_s[idx] - 1] = 1.0
        report = evaluate_heads(_SeqStub(dir_rows), _SeqStub(dist_rows), tiny_ds, split="test")
        assert report["direction"]["top_k"][1] == 1.0
        assert report["distance"]["top_k"][1] == 1.0
        assert report["direction"]["top_confusions"] == []

    def test_uniform_stub_matches_binomial_rate(self):
        # argmax of a uniform row is class 1, so top-1 equals the label-1 rate
        ds = generate_dataset(
            ArrayConfig(16), ScenarioConfig(), 3, 10.0, 60.0, 4,
            num_samples=2000, base_seed=13,
        )
        idx = ds.test_indices
        dir_rows = np.full((len(idx), 16), 1 / 16)
        dist_rows = np.full((len(idx), 3), 1 / 3)
        report = evaluate_heads(_SeqStub(dir_rows), _SeqStub(dist_rows), ds, split="test")
        p = 1 / 16
        sigma = np.sqrt(p * (1 - p) / len(idx))
        assert abs(report["direction"]["top_k"][1] - p) <= 4 * sigma

    def test_topk_includes_head_size(self, tiny_ds, trained):
        dir_model, dist_model, _ = trained
        report = evaluate_heads(dir_model, dist_model, tiny_ds, split="val", ks=(1, 5))
        assert report["direction"]["top_k"][16] == 1.0
        assert report["distance"]["top_k"][3] == 1.0
        assert set(report["direction"]["top1_by_snr"]) <= {
            "[0,5)", "[5,10)", "[10,15)", "[15,20)"
        }

    def test_snr_buckets_span_the_datasets_range(self):
        # four equal buckets of [-10, 30] dB; the stub is right exactly on
        # the samples of the top bucket, which takes in 30 dB itself
        ds = generate_dataset(ArrayConfig(16), ScenarioConfig(), 3, 10.0, 60.0, 4,
                              num_samples=200, base_seed=21, snr_range_db=(-10.0, 30.0))
        idx = ds.train_indices
        ds.snr_db[idx[0]] = 30.0
        top = ds.snr_db[idx] >= 20.0
        assert 0 < top.sum() < len(idx)
        rows = np.zeros((len(idx), 16))
        rows[np.arange(len(idx)), np.where(top, ds.label_n[idx] - 1, ds.label_n[idx] % 16)] = 1
        report = evaluate_heads(_SeqStub(rows), _SeqStub(np.full((len(idx), 3), 1 / 3)), ds,
                                split="train", ks=(1,))
        assert report["direction"]["top1_by_snr"] == {
            "[-10,0)": 0.0, "[0,10)": 0.0, "[10,20)": 0.0, "[20,30)": 1.0}
