"""Pilot measurement model, achievable rate, and the exhaustive-sweep oracle.

A beam test receives y = sqrt(P) * w^H h * x + w^H n with n drawn fresh,
circularly-symmetric complex Gaussian with covariance sigma2 * I. Transmit
SNR in dB is P/sigma2 with sigma2 normalized to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebook import PolarCodebook, WideCodebook, index_to_pair


@dataclass(frozen=True)
class LinkConfig:
    """Transmit power, noise variance and pilot symbol (all linear units)."""

    transmit_power: float = 1.0
    noise_variance: float = 1.0
    pilot_symbol: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.transmit_power < 0:
            raise ValueError("transmit_power must be >= 0")
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be >= 0")
        if abs(abs(self.pilot_symbol) ** 2 - 1.0) > 1e-12:
            raise ValueError("pilot symbol must have unit modulus")

    @property
    def snr_db(self) -> float:
        """Transmit SNR P/sigma2 in dB (inf when noiseless)."""
        if self.noise_variance == 0:
            return np.inf
        if self.transmit_power == 0:
            return -np.inf
        return 10.0 * np.log10(self.transmit_power / self.noise_variance)


def link_from_snr_db(snr_db: float, pilot_symbol: complex = 1.0 + 0.0j) -> LinkConfig:
    """LinkConfig at the given transmit SNR with unit noise variance."""
    return LinkConfig(
        transmit_power=10.0 ** (snr_db / 10.0),
        noise_variance=1.0,
        pilot_symbol=pilot_symbol,
    )


@dataclass(frozen=True)
class MeasurementVector:
    """Received pilot values for all M wide beams at one transmit SNR."""

    values: np.ndarray  # (M,) complex
    snr_db: float

    def __len__(self) -> int:
        return len(self.values)


def measure(
    w: np.ndarray, h: np.ndarray, link: LinkConfig, rng: np.random.Generator
) -> complex:
    """One beam test: y = sqrt(P) w^H h x + w^H n, fresh noise every call.

    The noise takes 2N normals from ``rng``: N real parts, then N imaginary
    parts. Stored datasets depend on this order.
    """
    if w.shape != h.shape:
        raise ValueError(f"codeword/channel shape mismatch: {w.shape} vs {h.shape}")
    y = np.sqrt(link.transmit_power) * np.vdot(w, h) * link.pilot_symbol
    if link.noise_variance > 0:
        noise = np.empty(len(w), dtype=np.complex128)
        noise.real, noise.imag = rng.standard_normal((2, len(w)))
        y = y + np.vdot(w, noise) * np.sqrt(link.noise_variance / 2.0)
    return complex(y)


def measure_wide(
    wide: WideCodebook, h: np.ndarray, link: LinkConfig, rng: np.random.Generator
) -> MeasurementVector:
    """Test all M wide beams in sequence, independent noise per beam."""
    values = np.array(
        [measure(wide.codewords[m], h, link, rng) for m in range(wide.num_wide)],
        dtype=np.complex128,
    )
    return MeasurementVector(values=values, snr_db=link.snr_db)


def achievable_rate(w: np.ndarray, h: np.ndarray, link: LinkConfig) -> float:
    """Rate log2(1 + P |w^H h|^2 / sigma2) in bits/s/Hz."""
    if link.noise_variance == 0:
        raise ValueError("achievable rate undefined for zero noise variance")
    gain = abs(np.vdot(w, h)) ** 2
    return float(np.log2(1.0 + link.transmit_power * gain / link.noise_variance))


# OpenBLAS splits a complex matrix-vector product of _BLAS_SPLIT_ENTRIES
# entries or more over its threads. For codebooks under _SPLIT_PAYS_FROM
# entries two threads are no faster than one (about 10 us either way at
# 320 x 64), and while another process holds the second core every split
# waits for the helper thread to be scheduled: desk-scale generation ran 3x
# slower with one core busy. Such codebooks are swept in row blocks under the
# split size, each on the calling thread. Each product row is the same dot
# product whatever the blocking, so the result is bit-identical.
_BLAS_SPLIT_ENTRIES = 4096
_SPLIT_PAYS_FROM = 1 << 16


def _codebook_times(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w @ x for a (K, N) codeword matrix, kept on one thread when w is small."""
    k, n = w.shape
    rows = (_BLAS_SPLIT_ENTRIES - 1) // n
    if w.size >= _SPLIT_PAYS_FROM or rows < 1:
        return w @ x
    out = np.empty(k, dtype=np.result_type(w, x))
    whole = k - k % rows
    np.matmul(w[:whole].reshape(-1, rows, n), x, out=out[:whole].reshape(-1, rows))
    out[whole:] = w[whole:] @ x
    return out


def sweep_oracle(book: PolarCodebook, h: np.ndarray) -> tuple[int, int, int]:
    """Noiseless exhaustive sweep: (i*, s*, n*) maximizing |w_i^H h|.

    Ties break toward the smallest index, which makes this the deterministic
    label generator for training data and the ground-truth baseline.
    """
    # conj(W) h = conj(W conj(h)): conjugating the N-vector spares a copy of
    # the codebook and leaves every magnitude bit-identical
    corr = np.abs(_codebook_times(book.codewords, h.conj()))
    i_star = int(np.argmax(corr)) + 1
    s_star, n_star = index_to_pair(i_star, book.num_angles, book.num_rings)
    return i_star, s_star, n_star
