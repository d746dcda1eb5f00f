"""Reference loop for the beam tests.

It tests one codeword at a time with np.vdot and draws each beam's noise as
N real normals followed by N imaginary normals in two calls, the layout
stored datasets were written with.
"""

import numpy as np


def reference_beam_tests(words, h, link, rng) -> np.ndarray:
    values = []
    for w in words:
        y = np.sqrt(link.transmit_power) * np.vdot(w, h)
        if link.noise_variance > 0:
            n = len(w)
            noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y = y + np.vdot(w, noise) * np.sqrt(link.noise_variance / 2.0)
        values.append(y)
    return np.array(values, dtype=np.complex128)
