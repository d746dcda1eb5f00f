"""Classifier network: input encoding, layer stack, loss, predictions.

The direction and distance networks share one architecture and differ only
in the size of the softmax head (N angle classes vs S ring classes). The
default stack is two 1-D conv blocks, average pooling over the beam axis,
and three hidden fully-connected blocks:

    Conv1D(2->64, k3, p1) -> ReLU -> BatchNorm
    Conv1D(64->256, k3, p1) -> ReLU -> BatchNorm
    AvgPoolToLength(pool_target) -> Flatten
    FC(256*pool_target -> 1024) -> ReLU -> BatchNorm
    FC(1024 -> 1024) -> ReLU -> BatchNorm
    FC(1024 -> 512) -> ReLU
    FC(512 -> head) -> Softmax

``pool_target`` controls how much of the beam axis survives pooling. The
published parameter table reads as pooling all the way down to a single
256-vector (pool_target=1), which discards the position of the strongest
beam and caps what the direction head can learn; pool_target>1 keeps a
coarse position axis and feeds the first FC layer 256*pool_target features.
Both variants are available through the net config.
"""

from __future__ import annotations

import numpy as np

from .layers import (
    AvgPoolToLength,
    BatchNorm,
    Conv1D,
    Flatten,
    FullyConnected,
    Layer,
    ReLU,
    SoftmaxHead,
    layer_from_spec,
)

PROB_FLOOR = 1e-12


def encode_batch(values: np.ndarray) -> np.ndarray:
    """Encode a (B, M) complex matrix as standardized (B, 2, M) real tensors.

    Channel 0 is the real part, channel 1 the imaginary part; each row's 2M
    reals are standardized jointly (zero mean, unit std, std floored at
    1e-8). Both moments are taken before the stacked copy is normalized in
    place; a std taken after the subtraction differs in the last bits.
    """
    v = np.asarray(values)
    x = np.stack([v.real, v.imag], axis=1).astype(np.float64, copy=False)
    mean = x.mean(axis=(1, 2), keepdims=True)
    std = np.maximum(x.std(axis=(1, 2), keepdims=True), 1e-8)
    x -= mean
    x /= std
    return x


def cross_entropy_batch(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean base-10 cross entropy over a batch of probability rows."""
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.log10(np.maximum(picked, PROB_FLOOR)).mean())


class NetworkModel:
    """An ordered layer stack ending in a softmax head."""

    def __init__(self, layers: list[Layer], input_length: int, head_size: int):
        if not isinstance(layers[-1], SoftmaxHead):
            raise ValueError("the final layer must be a SoftmaxHead")
        fc_widths = [layer.out_features for layer in layers if isinstance(layer, FullyConnected)]
        if layers[-1].classes != head_size or fc_widths[-1:] not in ([], [head_size]):
            raise ValueError(f"head size {head_size} disagrees with the softmax's "
                             f"{layers[-1].classes} classes or the last FC's {fc_widths[-1:]}")
        if input_length < 1:
            raise ValueError(f"input length must be positive, got {input_length}")
        length = input_length
        for layer in layers:
            if isinstance(layer, Conv1D):
                length += 2 * layer.padding - layer.kernel + 1
            elif isinstance(layer, AvgPoolToLength):
                if not (length >= 1 and length % layer.target_len == 0):
                    raise ValueError(f"the stack cannot take input length {input_length}: "
                                     f"the pooling layer needs a positive multiple of "
                                     f"{layer.target_len}")
                length = layer.target_len
        self.layers = layers
        self.input_length = input_length
        self.head_size = head_size

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run a (B, 2, M) batch through the stack; returns (B, head) probabilities."""
        if x.ndim != 3 or x.shape[1] != 2 or x.shape[2] != self.input_length:
            raise ValueError(
                f"expected batch shape (B, 2, {self.input_length}), got {x.shape}"
            )
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, labels: np.ndarray) -> None:
        """Backpropagate the mean cross-entropy loss for the last training batch.

        ``labels`` are 0-based class indices. Parameter gradients are left on
        the layers; read them through :meth:`parameters`.
        """
        grad = self.layers[-1].backward_cross_entropy(np.asarray(labels))
        for layer in reversed(self.layers[:-1]):
            grad = layer.backward(grad)

    def parameters(self):
        """Yields (qualified_name, value, grad) for every trainable array."""
        for idx, layer in enumerate(self.layers):
            for name, value, grad in layer.parameters():
                yield f"layer{idx}.{name}", value, grad

    def predict_proba(self, values: np.ndarray) -> np.ndarray:
        """Eval-mode class probabilities for one complex measurement vector."""
        return self.predict_proba_batch(np.asarray(values)[None])[0]

    def predict_proba_batch(self, values: np.ndarray) -> np.ndarray:
        return self.forward(encode_batch(values), training=False)

    def specs(self) -> list[dict]:
        return [layer.spec() for layer in self.layers]

    def persistent_arrays(self):
        """Yields (qualified_name, value) for every array that defines the
        trained model: each layer's trainable parameters, then its state
        arrays (the BatchNorm running statistics). This is the set that
        :func:`save_model` writes; the values are live references to the
        arrays the layers hold right now."""
        for idx, layer in enumerate(self.layers):
            for name, value, _ in layer.parameters():
                yield f"layer{idx}.{name}", value
            for name, value in layer.state_arrays():
                yield f"layer{idx}.{name}", value

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of every persistent array, keyed by qualified name."""
        return {name: value.copy() for name, value in self.persistent_arrays()}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        """Put back a :meth:`snapshot`, parameters and running statistics alike.

        BatchNorm rebinds its running statistics on every training step, so
        the copy is written into the arrays the layers hold at restore time,
        not into the ones they held when the snapshot was taken.
        """
        slots = dict(self.persistent_arrays())
        if slots.keys() != snapshot.keys():
            raise ValueError("snapshot does not match this model's arrays")
        for name, value in slots.items():
            value[...] = snapshot[name]


def build_model(
    input_length: int,
    head_size: int,
    rng: np.random.Generator,
    conv_channels: tuple[int, int] = (64, 256),
    fc_widths: tuple[int, int, int] = (1024, 1024, 512),
    pool_target: int = 1,
) -> NetworkModel:
    """The default two-conv, three-hidden-FC stack (see module docstring);
    the layers draw their initial weights from ``rng`` in stack order."""
    c1, c2 = conv_channels
    f1, f2, f3 = fc_widths
    if input_length % pool_target != 0:
        raise ValueError(f"pool_target {pool_target} must divide input length {input_length}")
    layers = [
        Conv1D(2, c1, kernel=3, padding=1, rng=rng),
        ReLU(),
        BatchNorm(c1),
        Conv1D(c1, c2, kernel=3, padding=1, rng=rng),
        ReLU(),
        BatchNorm(c2),
        AvgPoolToLength(pool_target),
        Flatten(),
        FullyConnected(c2 * pool_target, f1, rng=rng),
        ReLU(),
        BatchNorm(f1),
        FullyConnected(f1, f2, rng=rng),
        ReLU(),
        BatchNorm(f2),
        FullyConnected(f2, f3, rng=rng),
        ReLU(),
        FullyConnected(f3, head_size, rng=rng),
        SoftmaxHead(head_size),
    ]
    return NetworkModel(layers, input_length=input_length, head_size=head_size)


def model_from_specs(specs: list[dict], input_length: int, head_size: int) -> NetworkModel:
    return NetworkModel([layer_from_spec(s) for s in specs],
                        input_length=input_length, head_size=head_size)
