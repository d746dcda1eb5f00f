"""Pilot measurement model, achievable rate, and the exhaustive-sweep oracle.

A beam test receives y = sqrt(P) * w^H h * x + w^H n with the pilot symbol
x = 1 and n drawn fresh, circularly-symmetric complex Gaussian with
covariance sigma2 * I. Transmit SNR in dB is P/sigma2 with sigma2
normalized to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import PolarCodebook, WideCodebook, index_to_pair


@dataclass(frozen=True)
class LinkConfig:
    """Transmit power and noise variance (linear units)."""

    transmit_power: float = 1.0
    noise_variance: float = 1.0

    def __post_init__(self):
        if self.transmit_power < 0:
            raise ValueError("transmit_power must be >= 0")
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be >= 0")


def link_from_snr_db(snr_db: float) -> LinkConfig:
    """LinkConfig at the given transmit SNR with unit noise variance."""
    return LinkConfig(transmit_power=10.0 ** (snr_db / 10.0), noise_variance=1.0)


@dataclass(frozen=True)
class MeasurementVector:
    """Received pilot values for all M wide beams."""

    values: np.ndarray  # (M,) complex

    def __len__(self) -> int:
        return len(self.values)


def measure(
    w: np.ndarray, h: np.ndarray, link: LinkConfig, rng: np.random.Generator
) -> complex:
    """One beam test: y = sqrt(P) w^H h + w^H n, fresh noise every call.

    The noise takes 2N normals from ``rng``: N real parts, then N imaginary
    parts. Stored datasets depend on this order.
    """
    if w.shape != h.shape:
        raise ValueError(f"codeword/channel shape mismatch: {w.shape} vs {h.shape}")
    y = math.sqrt(link.transmit_power) * np.vdot(w, h)
    if link.noise_variance > 0:
        # the transposed copy interleaves row 0 of the draw, the real parts,
        # with row 1, the imaginary parts
        noise = rng.standard_normal((2, len(w))).T.copy().view(np.complex128)
        y = y + np.vdot(w, noise) * math.sqrt(link.noise_variance / 2.0)
    return complex(y)


def measure_wide(
    wide: WideCodebook, h: np.ndarray, link: LinkConfig, rng: np.random.Generator
) -> MeasurementVector:
    """Test every beam of a far-field codebook in sequence, independent
    noise per beam."""
    values = np.array([measure(w, h, link, rng) for w in wide.codewords], dtype=np.complex128)
    return MeasurementVector(values=values)


def achievable_rate(w: np.ndarray, h: np.ndarray, link: LinkConfig) -> float:
    """Rate log2(1 + P |w^H h|^2 / sigma2) in bits/s/Hz."""
    if link.noise_variance == 0:
        raise ValueError("achievable rate undefined for zero noise variance")
    gain = abs(np.vdot(w, h)) ** 2
    return float(np.log2(1.0 + link.transmit_power * gain / link.noise_variance))


def sweep_oracle(book: PolarCodebook, h: np.ndarray) -> tuple[int, int, int]:
    """Noiseless exhaustive sweep: (i*, s*, n*) maximizing |w_i^H h|.

    Ties break toward the smallest index, which makes this the deterministic
    label generator for training data and the ground-truth baseline.
    """
    # conj(W) h = conj(W conj(h)): conjugating the N-vector spares a copy of
    # the codebook and leaves every magnitude bit-identical
    corr = np.abs(book.codewords @ h.conj())
    i_star = int(np.argmax(corr)) + 1
    s_star, n_star = index_to_pair(i_star, book.num_angles, book.num_rings)
    return i_star, s_star, n_star


# A matrix product rounds each |w_i^H h| differently from the matrix-vector
# product of sweep_oracle, by far less than this share of the strongest one.
_NEAR_TIE = 1e-9


def sweep_oracle_batch(book: PolarCodebook, channels: np.ndarray) -> np.ndarray:
    """Flat 1-based :func:`sweep_oracle` indices of a (K, N) block of channels.

    One matrix product labels the whole block, so the codebook is read once
    for K channels instead of K times. A channel whose strongest codewords
    lie within ``_NEAR_TIE`` of each other is swept again by itself, so every
    index equals sweep_oracle's, ties included.
    """
    corr = np.abs(channels.conj() @ book.codewords.T)
    best = np.argmax(corr, axis=1)
    top = corr[np.arange(len(corr)), best]
    near = np.count_nonzero(corr >= (top * (1.0 - _NEAR_TIE))[:, None], axis=1) > 1
    for k in np.flatnonzero(near):
        best[k] = sweep_oracle(book, channels[k])[0] - 1
    return best + 1
