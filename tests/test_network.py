import numpy as np
import numpy.testing as npt
import pytest

from gradcheck import check_param_grads
from net_reference import ReferenceAdam, reference_model
from nearbeam.net import (
    Adam,
    AvgPoolToLength,
    Conv1D,
    Flatten,
    FullyConnected,
    NetModelError,
    NetworkModel,
    ReLU,
    SoftmaxHead,
    build_model,
    cross_entropy_batch,
    encode_batch,
    load_model,
    save_model,
)


def tiny_model(rng, m=8, head=4, pool_target=1):
    """The full default stack at desk-drawer size: same layer sequence,
    small channel counts, so exhaustive finite differences stay cheap."""
    return build_model(m, head, rng, conv_channels=(4, 8), fc_widths=(16, 16, 12),
                       pool_target=pool_target)


class TestInputEncode:
    def test_real_imag_channels(self):
        x = encode_batch(np.array([[1 + 2j]]))
        # standardization maps [1, 2] to [-1, 1]
        npt.assert_allclose(x, [[[-1.0], [1.0]]])

    def test_constant_input_hits_std_floor(self):
        x = encode_batch(np.array([[3 + 3j, 3 + 3j]]))
        npt.assert_array_equal(x, 0.0)

    def test_standardized_moments(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32) + (2 - 1j)
        x = encode_batch(v[None])
        assert x.shape == (1, 2, 32)
        assert abs(x.mean()) < 1e-9
        assert abs(x.std() - 1.0) < 1e-9

    def test_batch_matches_single(self):
        # each row is standardized by itself, bit for bit as the plain
        # one-vector expression, whatever the batch around it; a training
        # batch is 125 rows
        rng = np.random.default_rng(1)
        v = rng.standard_normal((125, 16)) + 1j * rng.standard_normal((125, 16))
        v *= 10 ** rng.uniform(-3, 3, (125, 1))
        batch = encode_batch(v)
        for i in range(125):
            x = np.stack([v[i].real, v[i].imag])
            plain = (x - x.mean()) / max(x.std(), 1e-8)
            assert batch[i].tobytes() == plain.tobytes()
            assert batch[i].tobytes() == encode_batch(v[i:i + 1])[0].tobytes()

    def test_input_left_untouched(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        kept = v.copy()
        encode_batch(v)
        encode_batch(v.real)
        assert v.tobytes() == kept.tobytes()


class TestCrossEntropy:
    def test_uniform_512(self):
        p = np.full((1, 512), 1 / 512)
        assert cross_entropy_batch(p, np.array([7])) == pytest.approx(np.log10(512))
        assert cross_entropy_batch(p, np.array([7])) == pytest.approx(2.70927, abs=1e-5)

    def test_point_masses(self):
        p = np.zeros((1, 4))
        p[0, 2] = 1.0
        assert cross_entropy_batch(p, np.array([2])) == 0.0
        assert cross_entropy_batch(np.array([[0.9, 0.1]]), np.array([1])) == pytest.approx(1.0)

    def test_floor_applies(self):
        assert cross_entropy_batch(np.array([[1.0, 0.0]]), np.array([1])) == pytest.approx(12.0)

    def test_label_range_checked(self):
        with pytest.raises(IndexError):
            cross_entropy_batch(np.array([[1.0]]), np.array([1]))

    def test_batch_mean(self):
        probs = np.array([[0.5, 0.5], [0.1, 0.9]])
        labels = np.array([0, 1])
        expected = (-np.log10(0.5) - np.log10(0.9)) / 2
        assert cross_entropy_batch(probs, labels) == pytest.approx(expected)


class TestForward:
    def test_output_is_distribution(self):
        rng = np.random.default_rng(2)
        model = tiny_model(rng)
        x = rng.standard_normal((5, 2, 8))
        probs = model.forward(x)
        npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_zero_final_layer_gives_uniform(self):
        rng = np.random.default_rng(3)
        model = tiny_model(rng)
        model.layers[-2].weight[...] = 0.0
        model.layers[-2].bias[...] = 0.0
        probs = model.forward(rng.standard_normal((3, 2, 8)))
        npt.assert_allclose(probs, 0.25, atol=1e-12)

    def test_eval_mode_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        model = tiny_model(rng)
        # populate running stats
        for _ in range(5):
            model.forward(rng.standard_normal((16, 2, 8)), training=True)
            model.backward(rng.integers(0, 4, 16))
        x = rng.standard_normal((10, 2, 8))
        perm = rng.permutation(10)
        out = model.forward(x, training=False)
        out_perm = model.forward(x[perm], training=False)
        npt.assert_allclose(out_perm, out[perm], rtol=0, atol=1e-12)

    def test_shape_validation(self):
        model = tiny_model(np.random.default_rng(5))
        with pytest.raises(ValueError):
            model.forward(np.zeros((2, 2, 9)))
        with pytest.raises(ValueError):
            model.forward(np.zeros((2, 3, 8)))

    def test_predict_proba_is_a_batch_of_one(self):
        # a desk-shaped direction head (M=16 beams in, 64 angles out, default
        # widths), trained a few Adam steps so its weights and BatchNorm
        # running statistics are not at their initial values
        rng = np.random.default_rng(6)
        model = build_model(16, 64, rng, pool_target=4)
        opt = Adam(model, lr=1e-3)
        for _ in range(3):
            values = rng.standard_normal((32, 16)) + 1j * rng.standard_normal((32, 16))
            model.forward(encode_batch(values), training=True)
            model.backward(rng.integers(0, 64, 32))
            opt.step()
        for v in rng.standard_normal((20, 16)) + 1j * rng.standard_normal((20, 16)):
            assert (model.predict_proba(v).tobytes()
                    == model.predict_proba_batch(v[None])[0].tobytes())


class TestBackward:
    def test_full_stack_finite_differences(self):
        rng = np.random.default_rng(6)
        model = tiny_model(rng, m=8, head=4)
        # freeze BN running-stat updates so repeated forwards are identical
        for layer in model.layers:
            if hasattr(layer, "momentum"):
                layer.momentum = 0.0
        x = rng.standard_normal((3, 2, 8))
        labels = np.array([0, 2, 3])

        def loss():
            return cross_entropy_batch(model.forward(x, training=True), labels)

        loss()
        model.backward(labels)
        worst = check_param_grads(loss, model.parameters())
        assert worst <= 1e-4

    def test_pooled_variant_finite_differences(self):
        rng = np.random.default_rng(7)
        model = tiny_model(rng, m=8, head=4, pool_target=4)
        for layer in model.layers:
            if hasattr(layer, "momentum"):
                layer.momentum = 0.0
        x = rng.standard_normal((2, 2, 8))
        labels = np.array([1, 0])

        def loss():
            return cross_entropy_batch(model.forward(x, training=True), labels)

        loss()
        model.backward(labels)
        check_param_grads(loss, model.parameters(), max_entries=40,
                          rng=np.random.default_rng(0))

    def test_interleaved_eval_forward_leaves_gradients_unchanged(self):
        rng = np.random.default_rng(13)
        model = tiny_model(rng, m=8, head=4, pool_target=4)
        x = rng.standard_normal((5, 2, 8))
        labels = np.array([0, 1, 2, 3, 1])
        model.forward(x, training=True)
        model.backward(labels)
        expected = [grad.copy() for _, _, grad in model.parameters()]
        model.forward(x, training=True)
        model.forward(rng.standard_normal((3, 2, 8)), training=False)
        model.backward(labels)
        for want, (name, _, grad) in zip(expected, model.parameters()):
            npt.assert_array_equal(grad, want, err_msg=name)

    def test_zero_input_zero_weights_gradient_trace(self):
        # with zero weights and zero input, only the final bias sees gradient
        model = build_model(8, 4, rng=None, conv_channels=(4, 8), fc_widths=(16, 16, 12))
        x = np.zeros((2, 2, 8))
        model.forward(x, training=True)
        model.backward(np.array([0, 1]))
        for name, _, grad in model.parameters():
            if name.endswith("weight") or name.endswith("gamma"):
                npt.assert_array_equal(grad, 0.0, err_msg=name)
        final_bias = [g for n, _, g in model.parameters() if n == "layer16.bias"]
        assert np.any(final_bias[0] != 0)

    def test_duplicated_sample_doubles_contribution(self):
        # linearity of batch-sum gradients on a batch-decoupled stack (no BN)
        rng = np.random.default_rng(8)
        layers = [
            Conv1D(2, 4, rng=rng), ReLU(),
            AvgPoolToLength(1), Flatten(),
            FullyConnected(4, 6, rng=rng), ReLU(),
            FullyConnected(6, 3, rng=rng), SoftmaxHead(3),
        ]
        model = NetworkModel(layers, input_length=8, head_size=3)
        a = rng.standard_normal((1, 2, 8))
        b = rng.standard_normal((1, 2, 8))

        def sum_grads(x, labels):
            model.forward(x, training=True)
            model.backward(np.asarray(labels))
            return [g * len(labels) for _, _, g in model.parameters()]

        g_ab = sum_grads(np.concatenate([a, b]), [0, 2])
        g_abb = sum_grads(np.concatenate([a, b, b]), [0, 2, 2])
        g_b = sum_grads(b, [2])
        for gab, gabb, gb in zip(g_ab, g_abb, g_b):
            npt.assert_allclose(gabb, gab + gb, atol=1e-12)


class TestOptimizers:
    def test_zero_gradient_no_change(self):
        rng = np.random.default_rng(9)
        model = tiny_model(rng)
        before = model.snapshot()
        for _, _, grad in model.parameters():
            grad[...] = 0.0
        Adam(model, lr=0.01).step()
        for name, value, _ in model.parameters():
            npt.assert_array_equal(before[name], value)

    def test_adam_first_step_is_signed_lr(self):
        rng = np.random.default_rng(10)
        model = tiny_model(rng)
        before = model.snapshot()
        for _, _, grad in model.parameters():
            grad[...] = rng.standard_normal(grad.shape) * 10 ** rng.uniform(-3, 3)
        opt = Adam(model, lr=0.01)
        opt.step()
        # closed form: the first Adam step is exactly -lr * g / (|g| + eps),
        # i.e. -lr*sign(g) up to the eps regularizer
        for name, value, grad in model.parameters():
            step = value - before[name]
            npt.assert_allclose(step, -0.01 * grad / (np.abs(grad) + 1e-8), rtol=1e-12)
            npt.assert_allclose(step, -0.01 * np.sign(grad), atol=1e-4)

    def test_overfits_fixed_tiny_batch(self):
        rng = np.random.default_rng(12)
        model = tiny_model(rng)
        x = rng.standard_normal((8, 2, 8))
        labels = rng.integers(0, 4, 8)
        opt = Adam(model, lr=0.01)
        first = cross_entropy_batch(model.forward(x, training=True), labels)
        model.backward(labels)
        opt.step()
        for _ in range(49):
            probs = model.forward(x, training=True)
            model.backward(labels)
            opt.step()
        last = cross_entropy_batch(model.forward(x, training=False), labels)
        assert last < first


class _Params:
    """A stand-in model: named arrays with gradients the test sets."""

    def __init__(self, shapes, rng):
        self.values = [rng.standard_normal(shape) for shape in shapes]
        self.grads = [np.zeros(shape) for shape in shapes]

    def parameters(self):
        for i, (value, grad) in enumerate(zip(self.values, self.grads)):
            yield f"p{i}", value, grad


def _assert_rel_close(actual, desired, rel, name):
    scale = np.max(np.abs(desired))
    assert np.max(np.abs(actual - desired)) <= rel * scale, name


class TestReferenceFormulas:
    """The engine's training step against the formulas in net_reference."""

    def test_adam_step_is_bit_identical(self):
        block = Adam.BLOCK
        shapes = [(block // 3,), (block,), (7, (2 * block + 123) // 7), (3, 5)]
        rng = np.random.default_rng(14)
        params = _Params(shapes, rng)
        ref = _Params(shapes, np.random.default_rng(14))
        opt, ref_opt = Adam(params, lr=0.003), ReferenceAdam(ref, lr=0.003)
        for _ in range(4):
            for g, rg in zip(params.grads, ref.grads):
                g[...] = rng.standard_normal(g.shape) * 10 ** rng.uniform(-3, 3)
                rg[...] = g
            opt.step()
            ref_opt.step()
            for i, (value, want) in enumerate(zip(params.values, ref.values)):
                npt.assert_array_equal(value, want, err_msg=f"p{i}")

    def test_adam_rejects_non_contiguous_parameters(self):
        params = _Params([(4, 6)], np.random.default_rng(15))
        params.values[0] = params.values[0].T
        with pytest.raises(ValueError):
            Adam(params).step()

    def test_training_steps_match_reference(self):
        rng = np.random.default_rng(16)
        model = build_model(16, 6, rng, conv_channels=(8, 16), fc_widths=(32, 32, 24),
                            pool_target=4)
        ref = reference_model(model)
        opt, ref_opt = Adam(model, lr=0.01), ReferenceAdam(ref, lr=0.01)
        for _ in range(3):
            x = rng.standard_normal((10, 2, 16))
            labels = rng.integers(0, 6, 10)
            _assert_rel_close(model.forward(x, training=True),
                              ref.forward(x, training=True), 1e-12, "probs")
            model.backward(labels)
            ref.backward(labels)
            opt.step()
            ref_opt.step()
        want = ref.snapshot()
        for name, value in model.snapshot().items():
            _assert_rel_close(value, want[name], 1e-12, name)
        x = rng.standard_normal((4, 2, 16))
        _assert_rel_close(model.forward(x), ref.forward(x), 1e-12, "eval probs")


class TestSaveLoad:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        model = tiny_model(rng)
        # give running stats non-default values
        for _ in range(3):
            model.forward(rng.standard_normal((16, 2, 8)), training=True)
        x = rng.standard_normal((5, 2, 8))
        expected = model.forward(x)
        path = tmp_path / "model.nbnm"
        save_model(path, model)
        loaded = load_model(path)
        npt.assert_array_equal(loaded.forward(x), expected)

    def test_truncated_file_rejected(self, tmp_path):
        model = tiny_model(np.random.default_rng(14))
        path = tmp_path / "model.nbnm"
        save_model(path, model)
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        with pytest.raises(NetModelError):
            load_model(path)

    def test_corrupt_payload_rejected(self, tmp_path):
        model = tiny_model(np.random.default_rng(15))
        path = tmp_path / "model.nbnm"
        save_model(path, model)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(NetModelError):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        import hashlib
        import struct

        model = tiny_model(np.random.default_rng(16))
        path = tmp_path / "model.nbnm"
        save_model(path, model)
        raw = bytearray(path.read_bytes())[:-32]
        struct.pack_into("<I", raw, 4, 99)  # bump the version field
        raw += hashlib.sha256(bytes(raw)).digest()  # keep the checksum valid
        path.write_bytes(bytes(raw))
        with pytest.raises(NetModelError, match="version"):
            load_model(path)


def _rewrite_model(path, header=None, payload=None):
    """Edit a saved model's JSON header (through ``header``, which edits the
    parsed dict) or its float64 payload (through ``payload``, which returns
    the new values), then recompute the header length and the checksum."""
    import hashlib
    import json
    import struct

    raw = path.read_bytes()[:-32]
    (header_len,) = struct.unpack_from("<I", raw, 8)
    meta = json.loads(raw[12:12 + header_len])
    values = np.frombuffer(raw, dtype="<f8", offset=12 + header_len).copy()
    if header is not None:
        header(meta)
    if payload is not None:
        values = payload(values)
    text = json.dumps(meta, sort_keys=True).encode()
    blob = raw[:8] + struct.pack("<I", len(text)) + text + values.tobytes()
    path.write_bytes(blob + hashlib.sha256(blob).digest())


class TestHeaderChecks:
    """A file whose checksum holds but whose header or values describe no
    valid model is a NetModelError, not an exception from deeper down."""

    def test_rewritten_file_still_loads(self, tmp_path):
        path = tmp_path / "model.nbnm"
        save_model(path, tiny_model(np.random.default_rng(20)))
        _rewrite_model(path)
        assert load_model(path).head_size == 4

    @pytest.mark.parametrize("header,payload", [
        (lambda h: h["arrays"][0].update(shape=[10 ** 12]), None),
        (lambda h: h.pop("layers"), None),
        (lambda h: h["layers"][0].update(kind="lstm"), None),
        (lambda h: h["layers"][0].update(in_channels=-1), None),
        # the last array, the head's 4 biases, left out of manifest and payload
        (lambda h: h.update(arrays=h["arrays"][:-1]), lambda v: v[:-4]),
        (None, lambda v: np.where(np.arange(v.size) == 5, np.nan, v)),
        (None, lambda v: np.where(np.arange(v.size) == 200, -np.inf, v)),
    ], ids=["huge-shape", "no-layers", "unknown-kind", "negative-channels",
            "array-missing", "nan-weight", "inf-value"])
    def test_invalid_model_rejected(self, tmp_path, header, payload):
        path = tmp_path / "model.nbnm"
        save_model(path, tiny_model(np.random.default_rng(20)))
        _rewrite_model(path, header=header, payload=payload)
        with pytest.raises(NetModelError):
            load_model(path)


    @pytest.mark.parametrize("edit", [
        lambda h: h.update(head_size=99),
        lambda h: h["layers"][-1].update(classes=99),
    ], ids=["header-head-size", "softmax-classes"])
    def test_head_size_disagreeing_with_the_stack_rejected(self, tmp_path, edit):
        # the last FC layer has 4 outputs in every case
        path = tmp_path / "model.nbnm"
        save_model(path, tiny_model(np.random.default_rng(20)))
        _rewrite_model(path, header=edit)
        with pytest.raises(NetModelError, match="head size"):
            load_model(path)

    @pytest.mark.parametrize("input_length", [5, 6, 0, -8])
    def test_input_length_the_stack_cannot_take_rejected(self, tmp_path, input_length):
        # the pooling layer keeps 4 of the 8 beams: lengths that are not a
        # positive multiple of 4 cannot pass it
        path = tmp_path / "model.nbnm"
        save_model(path, tiny_model(np.random.default_rng(20), pool_target=4))
        _rewrite_model(path, header=lambda h: h.update(input_length=input_length))
        with pytest.raises(NetModelError, match="input length"):
            load_model(path)

    def test_other_multiple_of_the_pool_target_loads(self, tmp_path):
        path = tmp_path / "model.nbnm"
        save_model(path, tiny_model(np.random.default_rng(20), pool_target=4))
        _rewrite_model(path, header=lambda h: h.update(input_length=12))
        assert load_model(path).forward(np.zeros((1, 2, 12))).shape == (1, 4)

    @pytest.mark.parametrize("with_manifest", [False, True], ids=["spec", "spec-and-manifest"])
    def test_huge_layer_rejected_before_allocation(self, tmp_path, with_manifest):
        # a 10^7 x 10^7 FC layer would need 800 TB; its size is compared with
        # the manifest and the payload before anything is allocated
        huge = 10 ** 7

        def edit(h):
            h["layers"][8].update(in_features=huge, out_features=huge)
            if with_manifest:
                shapes = {"layer8.weight": [huge, huge], "layer8.bias": [huge]}
                for entry in h["arrays"]:
                    entry["shape"] = shapes.get(entry["name"], entry["shape"])

        path = tmp_path / "model.nbnm"
        save_model(path, tiny_model(np.random.default_rng(20)))
        _rewrite_model(path, header=edit)
        with pytest.raises(NetModelError, match="manifest|payload"):
            load_model(path)


class TestSnapshotRestore:
    def test_restore_undoes_training_steps(self):
        rng = np.random.default_rng(17)
        model = tiny_model(rng)
        for _ in range(3):
            model.forward(rng.standard_normal((16, 2, 8)), training=True)
        x = rng.standard_normal((5, 2, 8))
        expected = model.forward(x)
        state = model.snapshot()
        opt = Adam(model, lr=0.01)
        for _ in range(3):
            model.forward(rng.standard_normal((16, 2, 8)), training=True)
            model.backward(rng.integers(0, 4, 16))
            opt.step()
        model.restore(state)
        # running statistics are rebound by every training step; restore must
        # reach the arrays held now, not the ones captured in the snapshot
        for name, value in model.persistent_arrays():
            npt.assert_array_equal(value, state[name])
        npt.assert_array_equal(model.forward(x), expected)

    def test_snapshot_covers_saved_arrays(self):
        model = tiny_model(np.random.default_rng(18))
        names = set(model.snapshot())
        assert "layer2.running_mean" in names and "layer2.running_var" in names
        assert {name for name, _, _ in model.parameters()} < names

    def test_incomplete_snapshot_rejected(self):
        model = tiny_model(np.random.default_rng(19))
        state = model.snapshot()
        del state["layer2.running_var"]
        with pytest.raises(ValueError, match="snapshot"):
            model.restore(state)
