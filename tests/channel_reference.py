"""Reference draws and channel synthesis, one path at a time.

The path draws take four scalar draws per path and the channel adds one
near_steering vector per path, the recipe stored datasets were written with.
"""

import numpy as np

from nearbeam.geometry import PathParams, near_steering


def reference_paths(rng, scenario) -> list[PathParams]:
    r_lo, r_hi = scenario.distance_range
    a_lo, a_hi = scenario.angle_range
    paths = []
    for var in scenario.gain_variances:
        gain = np.sqrt(var / 2.0) * complex(rng.standard_normal(), rng.standard_normal())
        r = rng.uniform(r_lo, r_hi)
        theta = rng.uniform(a_lo, a_hi)
        if theta >= 1.0:
            theta = np.nextafter(1.0, -1.0)
        paths.append(PathParams(gain=gain, distance=r, angle=theta))
    return paths


def reference_channel(cfg, paths) -> np.ndarray:
    lam = cfg.carrier_wavelength
    h = np.zeros(cfg.num_antennas, dtype=np.complex128)
    for p in paths:
        h += p.gain * np.exp(-2j * np.pi * p.distance / lam) * near_steering(cfg, p.angle, p.distance)
    return np.sqrt(cfg.num_antennas / len(paths)) * h
