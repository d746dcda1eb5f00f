"""Layers of the from-scratch feed-forward engine.

Everything is float64 numpy. Each layer caches what its backward pass needs
during ``forward(training=True)`` and only then, so an eval-mode forward in
between leaves the pending backward intact; ``backward`` consumes the
upstream gradient and overwrites the layer's parameter gradients (no
accumulation). Gradients are of whatever scalar the caller reduces to, so
the 1/batch factor of a mean loss is applied once at the loss layer.

The conv block works channels-last: :class:`Conv1D` returns a (B, C, L)
view of a (B, L, C) array, the layers after it keep that layout, and every
backward of the block hands its gradient on in the layout of the forward
input it belongs to. Mixed layouts would make each elementwise pass of the
backward stride through memory.
"""

from __future__ import annotations

import numpy as np


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Base layer: stateless by default, no parameters."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self):
        """Yields (name, value, grad) triples; arrays are live references."""
        return
        yield

    def state_arrays(self):
        """Non-trainable arrays that must persist through save/load."""
        return
        yield

    @staticmethod
    def array_shapes(**spec) -> list[tuple[str, tuple]]:
        """(name, shape) of each array that :meth:`parameters` and then
        :meth:`state_arrays` yield on a layer built from ``spec``, known
        without building it."""
        return []

    def spec(self) -> dict:
        return {"kind": self.kind}


class Conv1D(Layer):
    """1-D convolution over (batch, channels, length), stride 1."""

    kind = "conv1d"

    def __init__(self, in_channels: int, out_channels: int, kernel: int = 3,
                 padding: int = 1, rng: np.random.Generator | None = None):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.padding = padding
        fan_in = in_channels * kernel
        fan_out = out_channels * kernel
        if rng is None:
            self.weight = np.zeros((out_channels, in_channels, kernel))
        else:
            self.weight = glorot_uniform(rng, (out_channels, in_channels, kernel), fan_in, fan_out)
        self.bias = np.zeros(out_channels)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._cols = None
        self._in_shape = None

    @staticmethod
    def array_shapes(in_channels, out_channels, kernel=3, padding=1):
        return [("weight", (out_channels, in_channels, kernel)), ("bias", (out_channels,))]

    def forward(self, x, training=False):
        b, c, length = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {c}")
        p, k = self.padding, self.kernel
        out_len = length + 2 * p - k + 1
        # channels-last padded input (B, L + 2p, C_in)
        x_pad = np.zeros((b, length + 2 * p, c))
        x_pad[:, p:p + length] = x.transpose(0, 2, 1)
        # im2col: (B, L_out, C_in, K) -> one matmul against the flattened kernel
        cols = np.stack([x_pad[:, j:j + out_len] for j in range(k)], axis=-1)
        cols = cols.reshape(b * out_len, c * k)
        out = cols @ self.weight.reshape(self.out_channels, c * k).T + self.bias
        if training:
            self._cols = cols
            self._in_shape = (b, c, length)
        return out.reshape(b, out_len, self.out_channels).transpose(0, 2, 1)

    def backward(self, grad):
        b, c, length = self._in_shape
        p, k = self.padding, self.kernel
        out_len = grad.shape[2]
        g2 = grad.transpose(0, 2, 1).reshape(b * out_len, self.out_channels)
        self.grad_weight = (g2.T @ self._cols).reshape(self.weight.shape)
        self.grad_bias = g2.sum(axis=0)
        dcols = (g2 @ self.weight.reshape(self.out_channels, c * k))
        dcols = dcols.reshape(b, out_len, c, k)
        # col2im, channels-last like the forward's padded input
        dx_pad = np.zeros((b, length + 2 * p, c))
        for j in range(k):
            dx_pad[:, j:j + out_len] += dcols[:, :, :, j]
        return dx_pad[:, p:p + length].transpose(0, 2, 1)

    def parameters(self):
        yield "weight", self.weight, self.grad_weight
        yield "bias", self.bias, self.grad_bias

    def spec(self):
        return {"kind": self.kind, "in_channels": self.in_channels,
                "out_channels": self.out_channels, "kernel": self.kernel,
                "padding": self.padding}


class ReLU(Layer):
    kind = "relu"

    def __init__(self):
        self._mask = None

    def forward(self, x, training=False):
        if training:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad):
        return grad * self._mask


class BatchNorm(Layer):
    """Batch normalization over (B, C, L) per channel or (B, F) per feature.

    Biased batch variance is used both for normalization and the running
    update; eval mode normalizes with the running statistics.
    """

    kind = "batchnorm"

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-8):
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.grad_gamma = np.zeros_like(self.gamma)
        self.grad_beta = np.zeros_like(self.beta)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache = None

    @staticmethod
    def array_shapes(channels, momentum=0.1, eps=1e-8):
        return [(name, (channels,)) for name in ("gamma", "beta", "running_mean", "running_var")]

    def _shaped(self, v, ndim):
        return v.reshape(1, -1, 1) if ndim == 3 else v

    def forward(self, x, training=False):
        axes = (0, 2) if x.ndim == 3 else (0,)
        if not training:
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            xhat = (x - self._shaped(self.running_mean, x.ndim)) * self._shaped(inv_std, x.ndim)
            return self._shaped(self.gamma, x.ndim) * xhat + self._shaped(self.beta, x.ndim)
        # the same operations as x.var, on the centred input this pass needs anyway
        mu = x.mean(axis=axes)
        xhat = x - self._shaped(mu, x.ndim)
        out = np.square(xhat)
        var = out.mean(axis=axes)
        self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mu
        self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat *= self._shaped(inv_std, x.ndim)
        self._cache = (xhat, inv_std, axes)
        np.multiply(self._shaped(self.gamma, x.ndim), xhat, out=out)
        out += self._shaped(self.beta, x.ndim)
        return out

    def backward(self, grad):
        if self._cache is None:
            raise RuntimeError("BatchNorm.backward requires a training-mode forward")
        xhat, inv_std, axes = self._cache
        tmp = grad * xhat
        self.grad_gamma = tmp.sum(axis=axes)
        self.grad_beta = grad.sum(axis=axes)
        dx = grad * self._shaped(self.gamma, grad.ndim)
        mean_dxhat = dx.mean(axis=axes, keepdims=True)
        np.multiply(dx, xhat, out=tmp)
        mean_dxhat_x = tmp.mean(axis=axes, keepdims=True)
        dx -= mean_dxhat
        np.multiply(xhat, mean_dxhat_x, out=tmp)
        dx -= tmp
        dx *= self._shaped(inv_std, grad.ndim)
        return dx

    def parameters(self):
        yield "gamma", self.gamma, self.grad_gamma
        yield "beta", self.beta, self.grad_beta

    def state_arrays(self):
        yield "running_mean", self.running_mean
        yield "running_var", self.running_var

    def spec(self):
        return {"kind": self.kind, "channels": self.channels,
                "momentum": self.momentum, "eps": self.eps}


class AvgPoolToLength(Layer):
    """Adaptive average pooling of (B, C, L) down to a target length.

    The input length must be a multiple of the target; target 1 is a global
    average over the length dimension.
    """

    kind = "avgpool"

    def __init__(self, target_len: int = 1):
        if target_len < 1:
            raise ValueError("target_len must be >= 1")
        self.target_len = target_len
        self._x = None

    def forward(self, x, training=False):
        b, c, length = x.shape
        if length % self.target_len != 0:
            raise ValueError(f"length {length} not divisible by target {self.target_len}")
        if training:
            self._x = x
        return x.reshape(b, c, self.target_len, length // self.target_len).mean(axis=-1)

    def backward(self, grad):
        """Spread each pooled gradient over its window, in the memory layout
        of the training input, so the layers before keep a single layout."""
        if self._x is None:
            raise RuntimeError("AvgPoolToLength.backward requires a training-mode forward")
        b, c, length = self._x.shape
        window = length // self.target_len
        dx = np.empty_like(self._x)
        # splitting the length axis is always a view, whatever the strides
        dx.reshape(b, c, self.target_len, window)[...] = (grad / window)[..., None]
        return dx

    def spec(self):
        return {"kind": self.kind, "target_len": self.target_len}


class Flatten(Layer):
    kind = "flatten"

    def __init__(self):
        self._in_shape = None

    def forward(self, x, training=False):
        if training:
            self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._in_shape)


class FullyConnected(Layer):
    kind = "fc"

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None):
        self.in_features = in_features
        self.out_features = out_features
        if rng is None:
            self.weight = np.zeros((in_features, out_features))
        else:
            self.weight = glorot_uniform(rng, (in_features, out_features),
                                         in_features, out_features)
        self.bias = np.zeros(out_features)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._x = None

    @staticmethod
    def array_shapes(in_features, out_features):
        return [("weight", (in_features, out_features)), ("bias", (out_features,))]

    def forward(self, x, training=False):
        if x.shape[1] != self.in_features:
            raise ValueError(f"expected {self.in_features} features, got {x.shape[1]}")
        if training:
            self._x = x
        return x @ self.weight + self.bias

    def backward(self, grad):
        self.grad_weight = self._x.T @ grad
        self.grad_bias = grad.sum(axis=0)
        return grad @ self.weight.T

    def parameters(self):
        yield "weight", self.weight, self.grad_weight
        yield "bias", self.bias, self.grad_bias

    def spec(self):
        return {"kind": self.kind, "in_features": self.in_features,
                "out_features": self.out_features}


class SoftmaxHead(Layer):
    """Softmax over the last axis. Its one backward pass is that of the
    base-10 cross-entropy loss, :meth:`backward_cross_entropy`."""

    kind = "softmax"

    def __init__(self, classes: int):
        self.classes = classes
        self.probs = None

    def forward(self, x, training=False):
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        probs = e / e.sum(axis=1, keepdims=True)
        if training:
            self.probs = probs
        return probs

    def backward_cross_entropy(self, labels: np.ndarray) -> np.ndarray:
        """Gradient of the mean base-10 cross entropy w.r.t. the logits."""
        b = self.probs.shape[0]
        dz = self.probs.copy()
        dz[np.arange(b), labels] -= 1.0
        return dz / (b * np.log(10.0))

    def spec(self):
        return {"kind": self.kind, "classes": self.classes}


LAYER_KINDS = {
    cls.kind: cls
    for cls in (Conv1D, ReLU, BatchNorm, AvgPoolToLength, Flatten, FullyConnected, SoftmaxHead)
}


def layer_from_spec(spec: dict) -> Layer:
    kwargs = dict(spec)
    kind = kwargs.pop("kind")
    if kind not in LAYER_KINDS:
        raise ValueError(f"unknown layer kind {kind!r}")
    return LAYER_KINDS[kind](**kwargs)
