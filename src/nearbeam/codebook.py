"""Polar-domain near-field codebook and far-field narrow/wide codebooks.

The polar codebook samples the sine-angle axis uniformly in N parts and the
distance axis in S rings placed uniformly in inverse distance; codeword
i = (s-1)*N + n is the near-field steering vector at (theta_n, r_s^n).
Indices s, n, i are 1-based at every public surface, matching the usual
codebook-numbering convention.

Far-field codewords use the exp(+j...) phase sign so that w^H h aligns
phases against channels synthesized with exp(-j...); wide codewords excite
only the first N/T antennas.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayConfig, _steering_rows

_MAGIC = b"NBCB"
_FORMAT_VERSION = 1
_KIND_POLAR, _KIND_NARROW, _KIND_WIDE = 0, 1, 2
# entries per block of the polar build: the block (16 bytes an entry) and
# its float temporaries (8 bytes each) take about 320 KiB, inside L2; at
# N=512, blocks of 2048 entries built about 15% slower
_BUILD_BLOCK_ENTRIES = 8192


class CodebookFormatError(Exception):
    """Raised when a codebook file is corrupt or has an unsupported layout."""


def angle_grid(num_angles: int) -> np.ndarray:
    """Sine-domain angle grid theta_n = -1 + (2n-1)/N for n = 1..N."""
    if num_angles < 1:
        raise ValueError("num_angles must be >= 1")
    n = np.arange(1, num_angles + 1, dtype=np.float64)
    return -1.0 + (2.0 * n - 1.0) / num_angles


def ring_grid(
    num_rings: int,
    r_min: float,
    r_max: float,
    angles: np.ndarray,
) -> np.ndarray:
    """Distance-ring grid r_s^n, shape (S, N).

    Rings are uniform in inverse distance: ring 1 sits at r_max, ring S at
    r_min, and 1/r_s is an arithmetic progression between them. The grid is
    the same at every angle.
    """
    if num_rings < 1:
        raise ValueError("num_rings must be >= 1")
    if not 0 < r_min < r_max:
        raise ValueError(f"need 0 < r_min < r_max, got ({r_min}, {r_max})")
    if num_rings == 1:
        inv = np.array([1.0 / r_max])
    else:
        inv = np.linspace(1.0 / r_max, 1.0 / r_min, num_rings)
    return (1.0 / inv)[:, None] * np.ones(len(angles))[None, :]


def codeword_index(s: int, n: int, num_angles: int, num_rings: int | None = None) -> int:
    """Flatten (ring s, angle n) to the 1-based codeword index i = (s-1)*N + n."""
    if not 1 <= n <= num_angles:
        raise ValueError(f"angle index {n} out of range 1..{num_angles}")
    if s < 1 or (num_rings is not None and s > num_rings):
        raise ValueError(f"ring index {s} out of range")
    return (s - 1) * num_angles + n


def index_to_pair(i: int, num_angles: int, num_rings: int | None = None) -> tuple[int, int]:
    """Inverse of :func:`codeword_index`: 1-based i -> (s, n)."""
    if i < 1 or (num_rings is not None and i > num_angles * num_rings):
        raise ValueError(f"codeword index {i} out of range")
    s = (i - 1) // num_angles + 1
    n = (i - 1) % num_angles + 1
    return s, n


@dataclass(frozen=True)
class PolarCodebook:
    """Near-field codebook over the (angle, distance-ring) grid.

    ``codewords`` has shape (I, N) with I = N*S; row i-1 is the unit-norm
    steering vector at (theta_n, r_s^n) for (s, n) = index_to_pair(i).
    """

    array: ArrayConfig
    angles: np.ndarray          # (N,)
    ring_distances: np.ndarray  # (S, N)
    codewords: np.ndarray       # (N*S, N) complex

    @property
    def num_angles(self) -> int:
        return len(self.angles)

    @property
    def num_rings(self) -> int:
        return self.ring_distances.shape[0]

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    def codeword(self, i: int) -> np.ndarray:
        """Codeword by 1-based index."""
        index_to_pair(i, self.num_angles, self.num_rings)
        return self.codewords[i - 1]

    def index(self, s: int, n: int) -> int:
        return codeword_index(s, n, self.num_angles, self.num_rings)

    def pair(self, i: int) -> tuple[int, int]:
        return index_to_pair(i, self.num_angles, self.num_rings)


@dataclass(frozen=True)
class NarrowCodebook:
    """Far-field DFT codebook: N unit-norm beams on the angle grid."""

    array: ArrayConfig
    angles: np.ndarray     # (N,)
    codewords: np.ndarray  # (N, N) complex

    @property
    def size(self) -> int:
        return self.codewords.shape[0]


@dataclass(frozen=True)
class WideCodebook:
    """Far-field wide-beam codebook: M = N/T beams on the first N/T antennas."""

    array: ArrayConfig
    subarray_factor: int   # T
    angles: np.ndarray     # (M,)
    codewords: np.ndarray  # (M, N) complex

    @property
    def num_wide(self) -> int:
        return self.codewords.shape[0]


def build_polar_codebook(
    cfg: ArrayConfig,
    num_rings: int,
    r_min: float,
    r_max: float,
) -> PolarCodebook:
    """Construct the I = N*S polar codebook on the default sampling grids.

    The codeword matrix is written in place, a block of rows at a time,
    so the steering temporaries stay in cache and no ring is copied;
    ring_grid has checked that every distance is positive.
    """
    n = cfg.num_antennas
    angles = angle_grid(n)
    rings = ring_grid(num_rings, r_min, r_max, angles)
    thetas = np.tile(angles, num_rings)[:, None]
    dists = rings.reshape(-1, 1)
    codewords = np.empty((num_rings * n, n), dtype=np.complex128)
    rows = max(1, _BUILD_BLOCK_ENTRIES // n)
    for lo in range(0, len(codewords), rows):
        _steering_rows(cfg, thetas[lo:lo + rows], dists[lo:lo + rows],
                       out=codewords[lo:lo + rows])
    return PolarCodebook(array=cfg, angles=angles, ring_distances=rings, codewords=codewords)


def narrow_codeword(cfg: ArrayConfig, n: int) -> np.ndarray:
    """The n-th (1-based) narrow far-field beam, entry k = exp(+j*pi*k*theta_n)/sqrt(N)."""
    grid = angle_grid(cfg.num_antennas)
    if not 1 <= n <= cfg.num_antennas:
        raise ValueError(f"narrow beam index {n} out of range 1..{cfg.num_antennas}")
    k = np.arange(cfg.num_antennas)
    return np.exp(1j * np.pi * k * grid[n - 1]) / np.sqrt(cfg.num_antennas)


def wide_codeword(cfg: ArrayConfig, m: int, subarray_factor: int) -> np.ndarray:
    """The m-th (1-based) wide beam using the first N/T antennas, zero elsewhere.

    Active entries have modulus sqrt(T/N) so the codeword is unit norm.
    """
    n_ant = cfg.num_antennas
    t = subarray_factor
    if t < 1 or n_ant % t != 0:
        raise ValueError(f"subarray factor {t} must divide num_antennas {n_ant}")
    num_wide = n_ant // t
    if not 1 <= m <= num_wide:
        raise ValueError(f"wide beam index {m} out of range 1..{num_wide}")
    theta = angle_grid(num_wide)[m - 1]
    w = np.zeros(n_ant, dtype=np.complex128)
    k = np.arange(n_ant // t)
    w[: n_ant // t] = np.exp(1j * np.pi * k * theta) * np.sqrt(t / n_ant)
    return w


def build_narrow_codebook(cfg: ArrayConfig) -> NarrowCodebook:
    grid = angle_grid(cfg.num_antennas)
    words = np.stack([narrow_codeword(cfg, n) for n in range(1, cfg.num_antennas + 1)])
    return NarrowCodebook(array=cfg, angles=grid, codewords=words)


def build_wide_codebook(cfg: ArrayConfig, subarray_factor: int) -> WideCodebook:
    if subarray_factor < 1 or cfg.num_antennas % subarray_factor != 0:
        raise ValueError(
            f"subarray factor {subarray_factor} must divide num_antennas {cfg.num_antennas}"
        )
    num_wide = cfg.num_antennas // subarray_factor
    angles = angle_grid(num_wide)
    words = np.stack(
        [wide_codeword(cfg, mm, subarray_factor) for mm in range(1, num_wide + 1)]
    )
    return WideCodebook(array=cfg, subarray_factor=subarray_factor, angles=angles, codewords=words)


# --- binary import/export -------------------------------------------------
#
# Layout (little-endian): magic 'NBCB', u32 version, u32 kind, u32 N,
# u32 S (polar) / M (wide) / 0 (narrow), u32 T (wide) / 0, f64 wavelength,
# f64 spacing, then the codeword matrix row-major as interleaved re/im f64.
# Polar files append the (S, N) ring-distance grid as plain f64 so the full
# codebook object round-trips bit-exactly.

_HEADER = struct.Struct("<4sIIIIIdd")


def export_codebook(path, book: PolarCodebook | NarrowCodebook | WideCodebook) -> None:
    """Write a codebook to ``path`` in the package binary format."""
    cfg = book.array
    if isinstance(book, PolarCodebook):
        kind, aux1, aux2 = _KIND_POLAR, book.num_rings, 0
    elif isinstance(book, NarrowCodebook):
        kind, aux1, aux2 = _KIND_NARROW, 0, 0
    elif isinstance(book, WideCodebook):
        kind, aux1, aux2 = _KIND_WIDE, book.num_wide, book.subarray_factor
    else:
        raise TypeError(f"unsupported codebook type {type(book).__name__}")
    header = _HEADER.pack(
        _MAGIC,
        _FORMAT_VERSION,
        kind,
        cfg.num_antennas,
        aux1,
        aux2,
        cfg.carrier_wavelength,
        cfg.antenna_spacing,
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(book.codewords, dtype="<c16").tobytes())
        if isinstance(book, PolarCodebook):
            f.write(np.ascontiguousarray(book.ring_distances, dtype="<f8").tobytes())


def import_codebook(path) -> PolarCodebook | NarrowCodebook | WideCodebook:
    """Read a codebook written by :func:`export_codebook`."""
    with open(path, "rb") as f:
        raw = f.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise CodebookFormatError("truncated codebook header")
        magic, version, kind, n_ant, aux1, aux2, lam, spacing = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise CodebookFormatError(f"bad magic {magic!r}")
        if version != _FORMAT_VERSION:
            raise CodebookFormatError(f"unsupported codebook format version {version}")
        cfg = ArrayConfig(num_antennas=n_ant, carrier_wavelength=lam, antenna_spacing=spacing)
        if kind == _KIND_POLAR:
            rows = n_ant * aux1
        elif kind == _KIND_NARROW:
            rows = n_ant
        elif kind == _KIND_WIDE:
            rows = aux1
        else:
            raise CodebookFormatError(f"unknown codebook kind {kind}")
        raw = f.read(rows * n_ant * 16)
        if len(raw) != rows * n_ant * 16:
            raise CodebookFormatError("truncated codeword block")
        words = np.frombuffer(raw, dtype="<c16").reshape(rows, n_ant).copy()
        if kind == _KIND_POLAR:
            raw = f.read(aux1 * n_ant * 8)
            if len(raw) != aux1 * n_ant * 8:
                raise CodebookFormatError("truncated ring-distance block")
            rings = np.frombuffer(raw, dtype="<f8")
            return PolarCodebook(
                array=cfg,
                angles=angle_grid(n_ant),
                ring_distances=rings.reshape(aux1, n_ant).copy(),
                codewords=words,
            )
        if kind == _KIND_NARROW:
            return NarrowCodebook(array=cfg, angles=angle_grid(n_ant), codewords=words)
        return WideCodebook(
            array=cfg, subarray_factor=aux2, angles=angle_grid(aux1), codewords=words
        )
