"""The from-scratch engine's optimizer: Adam, the only one training uses.

It mutates the model's parameter arrays in place; the learning rate is a
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

        m = BETA1 * m + (1 - BETA1) * g
        v = BETA2 * v + (1 - BETA2) * g * g
        value -= lr * (m / (1 - BETA1**t)) / (sqrt(v / (1 - BETA2**t)) + EPS)

    in that order, so the result does not depend on the block size.
    """

    BLOCK = 16384
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, model, lr: float = 0.01):
        self.model = model
        self.lr = lr
        self.t = 0
        self._m = [np.zeros(value.size) for _, value, _ in model.parameters()]
        self._v = [np.zeros(value.size) for _, value, _ in model.parameters()]
        largest = max((m.size for m in self._m), default=0)
        self._scratch = np.empty((2, min(largest, self.BLOCK)))

    def step(self):
        self.t += 1
        b1c = 1.0 - self.BETA1 ** self.t
        b2c = 1.0 - self.BETA2 ** self.t
        c1, c2 = 1.0 - self.BETA1, 1.0 - self.BETA2
        for (_, value, grad), m, v in zip(self.model.parameters(), self._m, self._v):
            if not value.flags.c_contiguous:
                raise ValueError("Adam updates parameters in place and needs C-contiguous arrays")
            flat, g = value.reshape(-1), grad.reshape(-1)
            for lo in range(0, flat.size, self.BLOCK):
                hi = min(lo + self.BLOCK, flat.size)
                mb, vb, gb = m[lo:hi], v[lo:hi], g[lo:hi]
                step, denom = self._scratch[:, :hi - lo]
                mb *= self.BETA1
                np.multiply(c1, gb, out=step)
                mb += step
                vb *= self.BETA2
                np.multiply(c2, gb, out=step)
                step *= gb
                vb += step
                np.divide(mb, b1c, out=step)
                np.multiply(self.lr, step, out=step)
                np.divide(vb, b2c, out=denom)
                np.sqrt(denom, out=denom)
                denom += self.EPS
                step /= denom
                flat[lo:hi] -= step
