import numpy as np
import numpy.testing as npt
import pytest

from gradcheck import check_param_grads
from nearbeam.net import (
    AvgPoolToLength,
    BatchNorm,
    Conv1D,
    Flatten,
    FullyConnected,
    ReLU,
    SoftmaxHead,
    layer_from_spec,
)
from nearbeam.net.layers import LAYER_KINDS


def _channels_last(rng, b, c, length):
    """A (B, C, L) view of a (B, L, C) array: the layout Conv1D hands on."""
    return rng.standard_normal((b, length, c)).transpose(0, 2, 1)


def _linear_probe(layer, x, rng):
    """Check d(sum(out * R))/dtheta for every parameter and the input."""
    out = layer.forward(x, training=True)
    probe = rng.standard_normal(out.shape)
    grad_in = layer.backward(probe)

    def loss():
        return float(np.sum(layer.forward(x, training=True) * probe))

    params = list(layer.parameters())
    if params:
        check_param_grads(loss, params)
    check_param_grads(loss, [("input", x, grad_in)])


class TestConv1D:
    def test_known_hand_case(self):
        conv = Conv1D(1, 1)
        conv.weight[...] = np.array([[[1.0, 2.0, 3.0]]])
        conv.bias[...] = 0.5
        x = np.array([[[1.0, 0.0, -1.0, 2.0]]])
        # padded signal 0,1,0,-1,2,0 convolved with [1,2,3]
        expected = np.array([[[0 + 2 + 0 + 0.5, 1 + 0 - 3 + 0.5,
                               0 - 2 + 6 + 0.5, -1 + 4 + 0 + 0.5]]])
        npt.assert_allclose(conv.forward(x), expected)

    def test_gradients(self):
        rng = np.random.default_rng(0)
        conv = Conv1D(3, 4, rng=rng)
        x = rng.standard_normal((2, 3, 5))
        _linear_probe(conv, x, rng)

    def test_gradients_channels_last(self):
        rng = np.random.default_rng(12)
        conv = Conv1D(3, 4, rng=rng)
        _linear_probe(conv, _channels_last(rng, 2, 3, 5), rng)

    def test_channel_mismatch(self):
        conv = Conv1D(3, 4, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 2, 5)))


class TestReLU:
    def test_forward_and_grad(self):
        rng = np.random.default_rng(1)
        relu = ReLU()
        x = rng.standard_normal((4, 6)) + 0.2  # keep entries away from the kink
        x[np.abs(x) < 1e-3] = 0.5
        out = relu.forward(x, training=True)
        npt.assert_array_equal(out, np.maximum(x, 0))
        probe = rng.standard_normal(out.shape)
        grad_in = relu.backward(probe)
        check_param_grads(lambda: float(np.sum(relu.forward(x, training=True) * probe)),
                          [("input", x, grad_in)])

    def test_gradients_channels_last(self):
        rng = np.random.default_rng(13)
        x = _channels_last(rng, 2, 3, 5)
        x[np.abs(x) < 1e-3] = 0.5  # keep entries away from the kink
        _linear_probe(ReLU(), x, rng)


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(2)
        bn = BatchNorm(5)
        x = rng.standard_normal((64, 5)) * 3.0 + 1.5
        out = bn.forward(x, training=True)
        npt.assert_allclose(out.mean(axis=0), 0.0, atol=1e-6)
        npt.assert_allclose(out.var(axis=0), 1.0, atol=1e-6)

    def test_train_mode_normalizes_conv_shape(self):
        rng = np.random.default_rng(3)
        bn = BatchNorm(4)
        x = rng.standard_normal((8, 4, 6)) * 2.0 - 0.7
        out = bn.forward(x, training=True)
        npt.assert_allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-6)
        npt.assert_allclose(out.var(axis=(0, 2)), 1.0, atol=1e-6)

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(4)
        bn = BatchNorm(3)
        for _ in range(200):
            bn.forward(rng.standard_normal((32, 3)) * 2.0 + 1.0, training=True)
        x = rng.standard_normal((16, 3))
        out = bn.forward(x, training=False)
        manual = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
        npt.assert_allclose(out, manual, atol=1e-12)

    @pytest.mark.parametrize("shape", [(7, 5), (3, 4, 6)])
    def test_gradients(self, shape):
        rng = np.random.default_rng(5)
        bn = BatchNorm(shape[1])
        bn.gamma[...] = rng.uniform(0.5, 1.5, shape[1])
        bn.beta[...] = rng.uniform(-0.5, 0.5, shape[1])
        x = rng.standard_normal(shape) * 1.3 + 0.4
        # freeze running stats so repeated training forwards are identical
        bn.momentum = 0.0
        _linear_probe(bn, x, rng)

    def test_gradients_channels_last(self):
        rng = np.random.default_rng(14)
        bn = BatchNorm(4)
        bn.gamma[...] = rng.uniform(0.5, 1.5, 4)
        bn.beta[...] = rng.uniform(-0.5, 0.5, 4)
        bn.momentum = 0.0
        _linear_probe(bn, _channels_last(rng, 3, 4, 6) * 1.3 + 0.4, rng)

    def test_backward_requires_training_forward(self):
        bn = BatchNorm(2)
        bn.forward(np.zeros((3, 2)), training=False)
        with pytest.raises(RuntimeError):
            bn.backward(np.zeros((3, 2)))


class TestAvgPool:
    def test_global_average(self):
        pool = AvgPoolToLength(1)
        x = np.arange(24, dtype=float).reshape(2, 3, 4)
        npt.assert_allclose(pool.forward(x)[..., 0], x.mean(axis=2))

    def test_partial_pooling(self):
        pool = AvgPoolToLength(2)
        x = np.arange(8, dtype=float).reshape(1, 1, 8)
        npt.assert_allclose(pool.forward(x), [[[1.5, 5.5]]])

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            AvgPoolToLength(3).forward(np.zeros((1, 1, 8)))

    def test_gradients(self):
        rng = np.random.default_rng(6)
        pool = AvgPoolToLength(2)
        x = rng.standard_normal((2, 3, 8))
        _linear_probe(pool, x, rng)

    @pytest.mark.parametrize("channels_last", [False, True])
    def test_backward_keeps_input_layout(self, channels_last):
        rng = np.random.default_rng(15)
        x = _channels_last(rng, 2, 3, 8) if channels_last else rng.standard_normal((2, 3, 8))
        pool = AvgPoolToLength(2)
        grad = rng.standard_normal(pool.forward(x, training=True).shape)
        dx = pool.backward(grad)
        assert dx.strides == x.strides
        npt.assert_array_equal(dx, np.repeat(grad / 4, 4, axis=-1))

    def test_backward_requires_training_forward(self):
        pool = AvgPoolToLength(2)
        pool.forward(np.zeros((1, 2, 4)), training=False)
        with pytest.raises(RuntimeError):
            pool.backward(np.zeros((1, 2, 2)))


class TestFullyConnected:
    def test_gradients(self):
        rng = np.random.default_rng(7)
        fc = FullyConnected(5, 4, rng=rng)
        x = rng.standard_normal((3, 5))
        _linear_probe(fc, x, rng)

    def test_shape_check(self):
        fc = FullyConnected(5, 4, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            fc.forward(np.zeros((2, 6)))


class TestSoftmaxHead:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        head = SoftmaxHead(6)
        probs = head.forward(rng.standard_normal((10, 6)) * 4)
        npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        head = SoftmaxHead(5)
        z = rng.standard_normal((4, 5))
        npt.assert_allclose(head.forward(z), head.forward(z + 7.3), atol=1e-9)


class TestLayerSpecs:
    def test_spec_round_trip(self):
        rng = np.random.default_rng(11)
        layers = [
            Conv1D(2, 4, rng=rng), ReLU(), BatchNorm(4), AvgPoolToLength(2),
            Flatten(), FullyConnected(8, 3, rng=rng), SoftmaxHead(3),
        ]
        for layer in layers:
            clone = layer_from_spec(layer.spec())
            assert type(clone) is type(layer)
            assert clone.spec() == layer.spec()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            layer_from_spec({"kind": "lstm"})

    @pytest.mark.parametrize("spec", [
        {"kind": "conv1d", "in_channels": 2, "out_channels": 4, "kernel": 5, "padding": 2},
        {"kind": "conv1d", "in_channels": 2, "out_channels": 4, "kernel": 3, "padding": 0},
        {"kind": "batchnorm", "channels": 4, "momentum": 0.0, "eps": 1e-8},
        {"kind": "batchnorm", "channels": 4, "momentum": 0.1, "eps": 1.0},
        {"kind": "batchnorm", "channels": 4},
        {"kind": "relu", "slope": 0.1},
    ], ids=["kernel", "padding", "momentum", "eps", "constants-missing", "extra-field"])
    def test_spec_other_than_the_engines_rejected(self, spec):
        with pytest.raises(ValueError, match="not the engine's"):
            layer_from_spec(spec)

    def test_array_shapes_match_the_built_arrays(self):
        # array_shapes is what load_model checks a file's manifest against
        # before it builds anything
        rng = np.random.default_rng(11)
        cases = [
            (Conv1D(3, 5, rng=rng), {"in_channels": 3, "out_channels": 5}),
            (ReLU(), {}),
            (BatchNorm(6), {"channels": 6}),
            (AvgPoolToLength(2), {"target_len": 2}),
            (Flatten(), {}),
            (FullyConnected(7, 4, rng=rng), {"in_features": 7, "out_features": 4}),
            (SoftmaxHead(4), {"classes": 4}),
        ]
        assert {layer.kind for layer, _ in cases} == set(LAYER_KINDS)
        for layer, sizes in cases:
            built = ([(name, value.shape) for name, value, _ in layer.parameters()]
                     + [(name, value.shape) for name, value in layer.state_arrays()])
            assert type(layer).array_shapes(**sizes) == built, layer.kind
