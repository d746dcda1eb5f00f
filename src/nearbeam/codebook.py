"""Polar-domain near-field codebook and the far-field codebook.

The polar codebook samples the sine-angle axis uniformly in N parts and the
distance axis in S rings placed uniformly in inverse distance, the same S
distances at every angle; codeword i = (s-1)*N + n is the near-field
steering vector at (theta_n, r_s).
Indices s, n, i are 1-based at every public surface, matching the usual
codebook-numbering convention.

Mirror rule: the codeword at -theta is the codeword at theta reversed, bit
for bit. Where the angle grid is exactly symmetric (N <= 4 or a power of
two) the build computes the first ceil(N/2) angles of each ring and copies
the rest; on other grids it computes every row.

The far-field codebook at subarray factor T has M = N/T DFT beams on the
first N/T antennas: the wide beams of the network input at the configured
T, and the N narrow beams of the far-field sweep at T = 1. Its codewords use
the exp(+j...) phase sign so that w^H h aligns phases against channels
synthesized with exp(-j...).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayConfig, _steering_rows

_MAGIC = b"NBCB"
_FORMAT_VERSION = 1
_KIND_POLAR, _KIND_NARROW, _KIND_WIDE = 0, 1, 2


class CodebookFormatError(Exception):
    """Raised when a codebook file is corrupt or has an unsupported layout."""


def angle_grid(num_angles: int) -> np.ndarray:
    """Sine-domain angle grid theta_n = -1 + (2n-1)/N for n = 1..N."""
    if num_angles < 1:
        raise ValueError("num_angles must be >= 1")
    n = np.arange(1, num_angles + 1, dtype=np.float64)
    return -1.0 + (2.0 * n - 1.0) / num_angles


def ring_grid(num_rings: int, r_min: float, r_max: float) -> np.ndarray:
    """Distance-ring grid r_s, shape (S,); the same rings serve every angle.

    Rings are uniform in inverse distance: ring 1 sits at r_max, ring S at
    r_min, and 1/r_s is an arithmetic progression between them.
    """
    if num_rings < 1:
        raise ValueError("num_rings must be >= 1")
    if not 0 < r_min < r_max:
        raise ValueError(f"need 0 < r_min < r_max, got ({r_min}, {r_max})")
    if num_rings == 1:
        inv = np.array([1.0 / r_max])
    else:
        inv = np.linspace(1.0 / r_max, 1.0 / r_min, num_rings)
    return 1.0 / inv


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
    steering vector at (theta_n, r_s) for (s, n) = index_to_pair(i).
    """

    array: ArrayConfig
    angles: np.ndarray          # (N,)
    ring_distances: np.ndarray  # (S,)
    codewords: np.ndarray       # (N*S, N) complex

    @property
    def num_angles(self) -> int:
        return len(self.angles)

    @property
    def num_rings(self) -> int:
        return len(self.ring_distances)

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    def codeword(self, i: int) -> np.ndarray:
        """Codeword by 1-based index."""
        index_to_pair(i, self.num_angles, self.num_rings)
        return self.codewords[i - 1]

    def index(self, s: int, n: int) -> int:
        return codeword_index(s, n, self.num_angles, self.num_rings)


@dataclass(frozen=True)
class WideCodebook:
    """Every beam of a far-field codebook: M = N/T beams on the first N/T
    antennas; the wide beams at T > 1, the N narrow DFT beams at T = 1."""

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

    Mirror rule: the antenna offsets are antisymmetric and every step of
    the steering phase is sign-symmetric in floating point, so the codeword
    at -theta is the codeword at theta reversed, bit for bit. Where the grid
    is exactly symmetric (theta_{N+1-n} == -theta_n, true for N <= 4 and
    every power of two) each ring computes its first ceil(N/2) angle rows
    and fills the rest as reversed copies; on any other grid the half is
    the whole ring and nothing is copied.

    Each ring is written in place with one steering call on its distance,
    so the temporaries are the size of one (half) ring; ring_grid has
    checked that every distance is positive.
    """
    n = cfg.num_antennas
    angles = angle_grid(n)
    rings = ring_grid(num_rings, r_min, r_max)
    half = n - n // 2 if np.array_equal(angles[::-1], -angles) else n
    codewords = np.empty((num_rings, n, n), dtype=np.complex128)
    for ring, dist in zip(codewords, rings):
        _steering_rows(cfg, angles[:half, None], dist, out=ring[:half])
        ring[half:] = ring[:n - half][::-1, ::-1]
    return PolarCodebook(array=cfg, angles=angles, ring_distances=rings,
                         codewords=codewords.reshape(num_rings * n, n))


def build_wide_codebook(cfg: ArrayConfig, subarray_factor: int) -> WideCodebook:
    """Every beam of a far-field codebook: M = N/T beams on the first M
    antennas, zero elsewhere; active entries exp(+j*pi*k*theta_m) have
    modulus sqrt(T/N), so each beam is unit norm. T = 1 gives the N narrow
    beams that cover the whole array."""
    n, t = cfg.num_antennas, subarray_factor
    if t < 1 or n % t != 0:
        raise ValueError(f"subarray factor {t} must divide num_antennas {n}")
    num_wide = n // t
    grid = angle_grid(num_wide)
    words = np.zeros((num_wide, n), dtype=np.complex128)
    words[:, :num_wide] = (np.exp(1j * np.pi * np.arange(num_wide)[None, :] * grid[:, None])
                           * np.sqrt(t / n))
    return WideCodebook(array=cfg, subarray_factor=t, angles=grid, codewords=words)


# --- binary import/export -------------------------------------------------
#
# Layout (little-endian): magic 'NBCB', u32 version, u32 kind, u32 N,
# u32 S (polar) / M (far-field), u32 T (far-field) / 0, f64 wavelength,
# f64 spacing, then the codeword matrix row-major as interleaved re/im f64.
# Polar files append the ring distances as an (S, N) grid of plain f64, each
# ring's distance repeated at every angle; a grid that varies across angles
# is rejected on import. Kind 1 (narrow, S/M and T fields 0) is no longer
# written; older files of that kind read back as the T = 1 far-field
# codebook.

_HEADER = struct.Struct("<4sIIIIIdd")


def export_codebook(path, book: PolarCodebook | WideCodebook) -> None:
    """Write a codebook to ``path`` in the package binary format."""
    cfg = book.array
    if isinstance(book, PolarCodebook):
        kind, aux1, aux2 = _KIND_POLAR, book.num_rings, 0
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
            f.write(np.repeat(book.ring_distances, cfg.num_antennas).astype("<f8").tobytes())


def import_codebook(path) -> PolarCodebook | WideCodebook:
    """Read a codebook written by :func:`export_codebook`, or a kind-1 narrow
    file of an older export, which returns as the T = 1 far-field codebook.

    A header that no exported codebook has (N = 0, a polar file without
    rings, a wide file whose T does not divide N or whose M is not N/T, a
    non-zero unused field, a non-positive wavelength or spacing), a payload
    shorter or longer than the header declares, and a ring grid that varies
    across angles raise :class:`CodebookFormatError`.
    """
    with open(path, "rb") as f:
        raw = f.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise CodebookFormatError("truncated codebook header")
        magic, version, kind, n_ant, aux1, aux2, lam, spacing = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise CodebookFormatError(f"bad magic {magic!r}")
        if version != _FORMAT_VERSION:
            raise CodebookFormatError(f"unsupported codebook format version {version}")
        try:
            cfg = ArrayConfig(num_antennas=n_ant, carrier_wavelength=lam, antenna_spacing=spacing)
        except ValueError as exc:
            raise CodebookFormatError(f"bad array in codebook header: {exc}") from exc
        if kind == _KIND_POLAR:
            rows, valid = n_ant * aux1, aux1 >= 1 and aux2 == 0
        elif kind == _KIND_NARROW:
            rows, valid = n_ant, aux1 == 0 and aux2 == 0
        elif kind == _KIND_WIDE:
            rows, valid = aux1, aux2 >= 1 and aux1 * aux2 == n_ant
        else:
            raise CodebookFormatError(f"unknown codebook kind {kind}")
        if not valid:
            raise CodebookFormatError(
                f"inconsistent codebook header: kind {kind}, N={n_ant}, "
                f"S/M field {aux1}, T field {aux2}"
            )
        # the rest of the file, however large a size the header declares
        raw = f.read()
    words_size = rows * n_ant * 16
    payload = words_size + (aux1 * n_ant * 8 if kind == _KIND_POLAR else 0)
    if len(raw) < payload:
        raise CodebookFormatError(f"truncated codebook: the header declares {payload} "
                                  f"payload bytes, the file holds {len(raw)}")
    if len(raw) > payload:
        raise CodebookFormatError("unexpected bytes after the codebook payload")
    words = np.frombuffer(raw, dtype="<c16", count=rows * n_ant).reshape(rows, n_ant).copy()
    if kind == _KIND_POLAR:
        grid = np.frombuffer(raw, dtype="<f8", offset=words_size).reshape(aux1, n_ant)
        if not np.all(grid == grid[:, :1]):
            raise CodebookFormatError("ring-distance grid varies across angles")
        return PolarCodebook(array=cfg, angles=angle_grid(n_ant),
                             ring_distances=grid[:, 0].copy(), codewords=words)
    if kind == _KIND_NARROW:
        aux1, aux2 = n_ant, 1
    return WideCodebook(array=cfg, subarray_factor=aux2, angles=angle_grid(aux1), codewords=words)
