"""ULA geometry, near-field steering vectors, and multipath channel synthesis.

Conventions used throughout the package:

* the array is a uniform linear array centered on its reference point, so
  antenna n sits at offset ``delta_n = n - (N-1)/2`` spacings from the center;
* ``theta`` is the sine of the physical angle of arrival, in [-1, 1);
* distances are in meters, measured from the array reference point;
* steering phases use the exp(-j...) sign, matched-filter combining uses
  exp(+j...) (see :mod:`nearbeam.codebook`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

DEFAULT_WAVELENGTH = 0.00999308193333333  # c / 30 GHz


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array at the base station.

    Attributes:
        num_antennas:       number of antennas N.
        carrier_wavelength: carrier wavelength in meters (default 30 GHz).
        antenna_spacing:    element spacing in meters; None means half-wavelength.
    """

    num_antennas: int
    carrier_wavelength: float = DEFAULT_WAVELENGTH
    antenna_spacing: float | None = None

    def __post_init__(self):
        if self.num_antennas < 1:
            raise ValueError(f"num_antennas must be >= 1, got {self.num_antennas}")
        if self.antenna_spacing is None:
            object.__setattr__(self, "antenna_spacing", self.carrier_wavelength / 2.0)
        for name in ("carrier_wavelength", "antenna_spacing"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, Real) and 0 < value < math.inf):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class PathParams:
    """One propagation path: complex gain, distance and sine-angle."""

    gain: complex
    distance: float
    angle: float

    def __post_init__(self):
        if self.distance <= 0:
            raise ValueError(f"path distance must be positive, got {self.distance}")
        if not -1.0 <= self.angle < 1.0:
            raise ValueError(f"path angle must lie in [-1, 1), got {self.angle}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Multipath scenario: one LoS path followed by weaker NLoS scatterers.

    Gains are drawn circularly-symmetric complex Gaussian with the listed
    variances; distances and sine-angles are uniform over their ranges.
    The NLoS distance/angle distributions are modeling assumptions (the
    scatter geometry is not otherwise constrained).
    """

    num_paths: int = 3
    gain_variances: tuple[float, ...] = (1.0, 0.01, 0.01)
    distance_range: tuple[float, float] = (10.0, 60.0)
    angle_range: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self):
        if self.num_paths < 1:
            raise ValueError("num_paths must be >= 1")
        if len(self.gain_variances) != self.num_paths:
            raise ValueError(
                f"need {self.num_paths} gain variances, got {len(self.gain_variances)}"
            )
        if not all(0 <= v < math.inf for v in self.gain_variances):
            raise ValueError(f"gain variances must be finite and >= 0, got {self.gain_variances}")
        lo, hi = self.distance_range
        if not 0 < lo <= hi < math.inf:
            raise ValueError(f"invalid distance_range {self.distance_range}")
        lo, hi = self.angle_range
        if not -1.0 <= lo <= hi <= 1.0:
            raise ValueError(f"invalid angle_range {self.angle_range}")


def antenna_offsets(cfg: ArrayConfig) -> np.ndarray:
    """Per-antenna offsets from the array center, in units of spacings."""
    n = cfg.num_antennas
    return np.arange(n, dtype=np.float64) - (n - 1) / 2.0


def near_steering(cfg: ArrayConfig, theta: float, r: float) -> np.ndarray:
    """Unit-norm near-field steering vector b(theta, r).

    Entry n carries exp(-j*2*pi/lambda*(r_n - r)) / sqrt(N). The phase
    argument r_n - r is evaluated in the cancellation-free form
    (r_n^2 - r^2) / (r_n + r), which is exact algebra and keeps full
    precision at large r where r_n and r agree to many digits.
    """
    if r <= 0:
        raise ValueError(f"distance must be positive, got {r}")
    return _steering_rows(cfg, theta, r)


def _steering_rows(cfg: ArrayConfig, theta, r, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`near_steering` without the distance check. A (K, 1) array of
    angles and a (K, 1) array of positive distances, or one distance for
    every row, give a (K, N) block whose row k equals
    near_steering(cfg, theta[k], r[k]) bit for bit.

    The block is written into ``out`` when given (complex128, the broadcast
    shape, contiguous rows). Every operation is the one of the plain
    expression, in its order, so the values do not depend on how a caller
    splits its rows into blocks; the temporaries are the size of one block.
    """
    offset = antenna_offsets(cfg) * cfg.antenna_spacing
    excess = 2.0 * r * offset * theta
    np.subtract(offset * offset, excess, out=excess)  # r_n^2 - r^2
    # phase = -(2 pi / lambda) * excess / (sqrt(r^2 + excess) + r)
    phase = np.add(r * r, excess)
    np.sqrt(phase, out=phase)
    phase += r
    np.divide(excess, phase, out=phase)
    phase *= -(2.0 * np.pi / cfg.carrier_wavelength)
    if out is None:
        out = np.empty(phase.shape, dtype=np.complex128)
    np.multiply(1j, phase, out=out)
    np.exp(out, out=out)
    # numpy divides a complex by a real c as a product with 1/c; scaling the
    # float view does that product for the same bytes, without the division
    parts = out.view(np.float64)
    parts *= 1.0 / np.sqrt(cfg.num_antennas)
    return out


def synth_channel(cfg: ArrayConfig, paths: list[PathParams]) -> np.ndarray:
    """Multipath near-field channel h = sqrt(N/L) * sum_l g_l e^{-j2pi r_l/lam} b(theta_l, r_l)."""
    return synth_channels(cfg, [paths])[0]


def synth_channels(cfg: ArrayConfig, path_sets: list[list[PathParams]]) -> np.ndarray:
    """The (K, N) channels of K path sets of one length L; row k is
    :func:`synth_channel` of path set k.

    One :func:`_steering_rows` call builds the K*L steering rows. Each path
    term is its coefficient times its row, and each channel adds its terms
    in path order to zeros, so a row does not depend on K or on its place.
    """
    lengths = {len(paths) for paths in path_sets}
    if len(lengths) != 1 or 0 in lengths:
        raise ValueError(f"synth_channels needs path sets of one nonzero length, got {lengths}")
    (num_paths,) = lengths
    flat = [p for paths in path_sets for p in paths]
    gain = np.array([p.gain for p in flat], dtype=np.complex128)
    dist = np.array([p.distance for p in flat], dtype=np.float64)
    angle = np.array([p.angle for p in flat], dtype=np.float64)
    rows = _steering_rows(cfg, angle[:, None], dist[:, None])
    # g e^{-j2pi r/lam} rounded as the scalar expression of one path rounds
    # it: the exponent is divided by lam (numpy's complex division would
    # multiply by 1/lam), and each of the product's four terms is rounded
    # (numpy's complex array loop may fuse them)
    rot = np.zeros(len(flat), dtype=np.complex128)
    rot.imag = -2.0 * np.pi * dist / cfg.carrier_wavelength
    np.exp(rot, out=rot)
    coef = np.empty_like(rot)
    coef.real = gain.real * rot.real - gain.imag * rot.imag
    coef.imag = gain.real * rot.imag + gain.imag * rot.real
    # coef times row, the operand order of a scalar times a vector; the
    # in-place rows *= coef[:, None] rounds differently
    terms = np.multiply(coef[:, None], rows, out=rows).reshape(
        len(path_sets), num_paths, cfg.num_antennas)
    h = np.zeros((len(path_sets), cfg.num_antennas), dtype=np.complex128)
    for path in range(num_paths):
        h += terms[:, path]
    return np.multiply(np.sqrt(cfg.num_antennas / num_paths), h, out=h)


def sample_paths(rng: np.random.Generator, scenario: ScenarioConfig) -> list[PathParams]:
    """Draw the path set for one channel realization; path 0 is the LoS path.

    Each path takes, in this order, its gain's real and imaginary normals,
    then the uniforms of its distance and its angle, scaled as
    ``Generator.uniform`` scales them. Stored datasets depend on this order.
    """
    r_lo, r_hi = scenario.distance_range
    a_lo, a_hi = scenario.angle_range
    paths = []
    for var in scenario.gain_variances:
        g_re, g_im = rng.standard_normal(2).tolist()
        u_r, u_a = rng.random(2).tolist()
        gain = np.sqrt(var / 2.0) * complex(g_re, g_im)
        theta = a_lo + (a_hi - a_lo) * u_a
        # uniform() can return the closed upper end; the angle domain is half-open
        if theta >= 1.0:
            theta = np.nextafter(1.0, -1.0)
        paths.append(PathParams(gain=gain, distance=r_lo + (r_hi - r_lo) * u_r, angle=theta))
    return paths
