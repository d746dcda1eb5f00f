"""Optimizers for the from-scratch engine: Adam (default) and plain SGD.

Both mutate the model's parameter arrays in place; the learning rate is a
plain attribute so a training loop can decay it per epoch. Gradient arrays
are re-read from the model on every step because layers publish fresh grad
arrays on each backward pass.
"""

from __future__ import annotations

import numpy as np


class Adam:
    """Adam with the textbook operation order, updated in place in blocks.

    Each parameter is walked in blocks of :attr:`BLOCK` elements, small
    enough that the block's value, gradient, moments and two scratch buffers
    stay in the L2 cache while every operation of the update passes over
    them. Each element sees exactly the operations of ::

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        value -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)

    in that order, so the result does not depend on the block size.
    """

    BLOCK = 16384

    def __init__(self, model, lr: float = 0.01, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.model = model
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros(value.size) for _, value, _ in model.parameters()]
        self._v = [np.zeros(value.size) for _, value, _ in model.parameters()]
        largest = max((m.size for m in self._m), default=0)
        self._scratch = np.empty((2, min(largest, self.BLOCK)))

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        c1, c2 = 1.0 - self.beta1, 1.0 - self.beta2
        for (_, value, grad), m, v in zip(self.model.parameters(), self._m, self._v):
            if not value.flags.c_contiguous:
                raise ValueError("Adam updates parameters in place and needs C-contiguous arrays")
            flat, g = value.reshape(-1), grad.reshape(-1)
            for lo in range(0, flat.size, self.BLOCK):
                hi = min(lo + self.BLOCK, flat.size)
                mb, vb, gb = m[lo:hi], v[lo:hi], g[lo:hi]
                step, denom = self._scratch[:, :hi - lo]
                mb *= self.beta1
                np.multiply(c1, gb, out=step)
                mb += step
                vb *= self.beta2
                np.multiply(c2, gb, out=step)
                step *= gb
                vb += step
                np.divide(mb, b1c, out=step)
                np.multiply(self.lr, step, out=step)
                np.divide(vb, b2c, out=denom)
                np.sqrt(denom, out=denom)
                denom += self.eps
                step /= denom
                flat[lo:hi] -= step


class SGD:
    def __init__(self, model, lr: float = 0.01):
        self.model = model
        self.lr = lr

    def step(self):
        for _, value, grad in self.model.parameters():
            value -= self.lr * grad


OPTIMIZERS = {"adam": Adam, "sgd": SGD}


def make_optimizer(model, name: str = "adam", lr: float = 0.01):
    if name not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {name!r}")
    return OPTIMIZERS[name](model, lr=lr)
