"""Reference formulas for the training step of the network engine.

Adam updates whole arrays at once, BatchNorm takes the variance with
``x.var``, average pooling spreads its gradient with ``np.repeat`` and
Conv1D builds its im2col and col2im channels-first. Each reference layer
subclasses the engine's layer, so parameters, state arrays and specs stay
the engine's.
"""

import numpy as np

from nearbeam.net import AvgPoolToLength, BatchNorm, Conv1D, NetworkModel


class ReferenceAdam:
    def __init__(self, model, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        self.model = model
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(value) for _, value, _ in model.parameters()]
        self._v = [np.zeros_like(value) for _, value, _ in model.parameters()]

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for (_, value, grad), m, v in zip(self.model.parameters(), self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            value -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


class ReferenceConv1D(Conv1D):
    def forward(self, x, training=False):
        b, c, length = x.shape
        p, k = self.padding, self.kernel
        out_len = length + 2 * p - k + 1
        x_pad = np.pad(x, ((0, 0), (0, 0), (p, p))) if p else x
        cols = np.stack([x_pad[:, :, j:j + out_len] for j in range(k)], axis=-1)
        cols = cols.transpose(0, 2, 1, 3).reshape(b * out_len, c * k)
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
        dcols = dcols.reshape(b, out_len, c, k).transpose(0, 2, 1, 3)
        dx_pad = np.zeros((b, c, length + 2 * p))
        for j in range(k):
            dx_pad[:, :, j:j + out_len] += dcols[:, :, :, j]
        return dx_pad[:, :, p:p + length] if p else dx_pad


class ReferenceBatchNorm(BatchNorm):
    def forward(self, x, training=False):
        axes = (0, 2) if x.ndim == 3 else (0,)
        if training:
            mu = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mu
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mu, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - self._shaped(mu, x.ndim)) * self._shaped(inv_std, x.ndim)
        if training:
            self._cache = (xhat, inv_std, axes)
        return self._shaped(self.gamma, x.ndim) * xhat + self._shaped(self.beta, x.ndim)

    def backward(self, grad):
        xhat, inv_std, axes = self._cache
        self.grad_gamma = (grad * xhat).sum(axis=axes)
        self.grad_beta = grad.sum(axis=axes)
        dxhat = grad * self._shaped(self.gamma, grad.ndim)
        mean_dxhat = dxhat.mean(axis=axes, keepdims=True)
        mean_dxhat_x = (dxhat * xhat).mean(axis=axes, keepdims=True)
        return (dxhat - mean_dxhat - xhat * mean_dxhat_x) * self._shaped(inv_std, grad.ndim)


class ReferenceAvgPool(AvgPoolToLength):
    def forward(self, x, training=False):
        b, c, length = x.shape
        self._window = length // self.target_len
        return x.reshape(b, c, self.target_len, self._window).mean(axis=-1)

    def backward(self, grad):
        return np.repeat(grad / self._window, self._window, axis=-1)


REFERENCE_LAYERS = {
    Conv1D: ReferenceConv1D,
    BatchNorm: ReferenceBatchNorm,
    AvgPoolToLength: ReferenceAvgPool,
}


def reference_model(model: NetworkModel) -> NetworkModel:
    """A copy of ``model`` whose conv, BatchNorm and pooling layers use the
    reference formulas, with the same parameters and running statistics."""
    layers = []
    for layer in model.layers:
        # the size fields only: the constants are the engine's class attributes
        kwargs = {k: v for k, v in layer.spec().items() if k in layer.sizes}
        layers.append(REFERENCE_LAYERS.get(type(layer), type(layer))(**kwargs))
    ref = NetworkModel(layers, input_length=model.input_length, head_size=model.head_size)
    ref.restore(model.snapshot())
    return ref
