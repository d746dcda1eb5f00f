"""Independent reference computations and the correctness checks built on them.

Nothing here calls the package's geometry, codebook or measurement code: the
steering vectors use the plain Euclidean element distance, the grids are
written out from their definitions, and each check compares the program's
output with a property the method must have. Every check returns a list of
problem strings; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

# relative slack for comparisons between the program's arithmetic and this
# module's, which evaluate the same formulas in a different order
REL_TOL = 1e-9


def offsets(num_antennas: int, spacing: float) -> np.ndarray:
    """Element positions along the array axis, centred on the reference point."""
    return (np.arange(num_antennas) - (num_antennas - 1) / 2.0) * spacing


def steering(num_antennas, wavelength, spacing, theta, r) -> np.ndarray:
    """Unit-norm near-field steering vectors exp(-j2pi(r_n - r)/lambda)/sqrt(N).

    ``theta`` (sine of the angle) and ``r`` broadcast against each other; the
    result has their broadcast shape plus a trailing antenna axis.
    """
    theta = np.asarray(theta, dtype=np.float64)[..., None]
    r = np.asarray(r, dtype=np.float64)[..., None]
    x = offsets(num_antennas, spacing)
    r_n = np.sqrt(r * r + x * x - 2.0 * r * x * theta)
    return np.exp(-2j * np.pi / wavelength * (r_n - r)) / np.sqrt(num_antennas)


def polar_grid(num_antennas, num_rings, r_min, r_max):
    """Angle grid theta_n = -1 + (2n-1)/N and rings uniform in 1/r, ring 1 at r_max."""
    n = np.arange(1, num_antennas + 1)
    thetas = -1.0 + (2.0 * n - 1.0) / num_antennas
    if num_rings == 1:
        radii = np.array([r_max])
    else:
        s = np.arange(num_rings)
        radii = 1.0 / (1.0 / r_max + s * (1.0 / r_min - 1.0 / r_max) / (num_rings - 1))
    return thetas, radii


def polar_matrix(num_antennas, wavelength, spacing, num_rings, r_min, r_max) -> np.ndarray:
    """All N*S polar codewords, row (s-1)*N + (n-1) for ring s and angle n."""
    thetas, radii = polar_grid(num_antennas, num_rings, r_min, r_max)
    words = steering(num_antennas, wavelength, spacing, thetas[None, :], radii[:, None])
    return words.reshape(num_rings * num_antennas, num_antennas)


def wide_matrix(num_antennas, subarray_factor) -> np.ndarray:
    """M = N/T far-field wide beams on the first N/T antennas, unit norm."""
    m_count = num_antennas // subarray_factor
    m = np.arange(1, m_count + 1)
    thetas = -1.0 + (2.0 * m - 1.0) / m_count
    k = np.arange(m_count)
    words = np.zeros((m_count, num_antennas), dtype=np.complex128)
    words[:, :m_count] = np.exp(1j * np.pi * np.outer(thetas, k)) / np.sqrt(m_count)
    return words


def channel_from_seed(seed: int, config: dict):
    """Rebuild a dataset sample's channel and training SNR from its seed.

    Follows the documented draw order of one sample: for each path its complex
    gain (real then imaginary normal), distance and sine-angle, then the SNR.
    ``config`` is the generation config stored in the dataset file.
    """
    arr, sc = config["array"], config["scenario"]
    n_ant = arr["num_antennas"]
    lam, spacing = arr["carrier_wavelength"], arr["antenna_spacing"]
    rng = np.random.default_rng(int(seed))
    h = np.zeros(n_ant, dtype=np.complex128)
    for var in sc["gain_variances"]:
        gain = np.sqrt(var / 2.0) * complex(rng.standard_normal(), rng.standard_normal())
        r = rng.uniform(*sc["distance_range"])
        theta = min(rng.uniform(*sc["angle_range"]), np.nextafter(1.0, -1.0))
        h += gain * np.exp(-2j * np.pi * r / lam) * steering(n_ant, lam, spacing, theta, r)
    h *= np.sqrt(n_ant / len(sc["gain_variances"]))
    snr_db = rng.uniform(*config["snr_range_db"])
    return h, snr_db


def best_index(polar: np.ndarray, h: np.ndarray) -> tuple[int, np.ndarray]:
    """0-based row of the polar matrix with the largest |b^H h|, and all magnitudes."""
    corr = np.abs(polar.conj() @ h)
    return int(np.argmax(corr)), corr


# --- checks -----------------------------------------------------------------


def check_label(ds, i: int, polar: np.ndarray, wide: np.ndarray):
    """Check sample ``i`` of a generated dataset against its rebuilt channel.

    Returns (problems, noise) where ``noise`` holds y_m - sqrt(P) w_m^H h for
    the sample's M wide beams, for :func:`check_noise_power`.
    """
    problems = []
    h, snr_db = channel_from_seed(ds.seeds[i], ds.config)
    if not np.isclose(snr_db, ds.snr_db[i], rtol=1e-12, atol=0.0):
        problems.append(f"sample {i}: stored SNR {ds.snr_db[i]} != seed's {snr_db}")
    row = (int(ds.label_s[i]) - 1) * ds.num_angles + int(ds.label_n[i]) - 1
    best, corr = best_index(polar, h)
    if not 0 <= row < len(corr) or corr[row] < corr[best] * (1.0 - REL_TOL):
        problems.append(
            f"sample {i}: label (n={ds.label_n[i]}, s={ds.label_s[i]}) is not the "
            f"argmax over {len(corr)} codewords (best row {best})"
        )
    noise = ds.yw[i] - np.sqrt(10.0 ** (snr_db / 10.0)) * (wide.conj() @ h)
    return problems, noise


def check_noise_power(noise: np.ndarray, sigma2: float = 1.0) -> list[str]:
    """Mean |noise|^2 must be sigma2 within six standard errors.

    For circular Gaussian noise |n|^2 is exponential with mean and standard
    deviation sigma2, so the mean of ``count`` values has standard error
    sigma2/sqrt(count).
    """
    count = noise.size
    power = float(np.mean(np.abs(noise) ** 2))
    tol = 6.0 * sigma2 / np.sqrt(count)
    if abs(power - sigma2) > tol:
        return [f"wide-beam noise power {power:.4f} is not {sigma2} +- {tol:.4f} "
                f"over {count} values"]
    return []


def check_same_dataset(a, b) -> list[str]:
    """The reloaded dataset must equal the generated one exactly."""
    problems = []
    for name in ("num_angles", "num_rings", "num_wide", "subarray_factor",
                 "carrier_wavelength", "base_seed", "n_train", "n_val", "n_test", "config"):
        if getattr(a, name) != getattr(b, name):
            problems.append(f"reloaded dataset differs in {name}")
    for name in ("yw", "label_n", "label_s", "snr_db", "seeds"):
        x, y = getattr(a, name), getattr(b, name)
        if x.shape != y.shape or not np.array_equal(x, y):
            problems.append(f"reloaded dataset differs in {name}")
    return problems


def log10_cross_entropy(probs: np.ndarray, labels0: np.ndarray) -> float:
    """Mean -log10 p[label], with p floored at 1e-12 as the training loss is."""
    picked = probs[np.arange(len(labels0)), labels0]
    return float(-np.log10(np.maximum(picked, 1e-12)).mean())


def check_head(name, model, history, epochs, x_val, labels0) -> list[str]:
    """Training checks for one head.

    The history has exactly ``epochs`` entries, and the returned model, run
    in eval mode on the val split, scores the val loss recorded for its best
    epoch.
    """
    problems = []
    if len(history) != epochs:
        problems.append(f"{name}: history has {len(history)} epochs, expected {epochs}")
    if not history:
        return problems
    best = min(e.val_loss for e in history)
    loss = log10_cross_entropy(model.forward(x_val, training=False), labels0)
    if abs(loss - best) > REL_TOL * abs(best):
        problems.append(f"{name}: restored head scores val loss {loss!r}, "
                        f"its best epoch recorded {best!r}")
    return problems


def check_beats_uniform(name, history, classes) -> list[str]:
    """The best val loss must be below the uniform predictor's log10(C)."""
    best = min(e.val_loss for e in history)
    if not best < np.log10(classes):
        return [f"{name}: best val loss {best:.4f} is not below "
                f"uniform log10({classes}) = {np.log10(classes):.4f}"]
    return []


def is_top(chosen, probs: np.ndarray, k: int) -> bool:
    """Whether the 0-based classes ``chosen`` are a top-k set of ``probs``.

    ``chosen`` must hold k distinct classes, every class above the k-th
    largest probability, and only classes that reach it. The slack of 1e-9
    admits classes tied with the k-th within rounding, since the
    single-vector and batch forward passes may differ in the last bits.
    """
    chosen = {int(c) for c in chosen}
    kth = np.sort(probs)[::-1][k - 1]
    above = {int(c) for c in np.flatnonzero(probs > kth + 1e-9)}
    reach = {int(c) for c in np.flatnonzero(probs >= kth - 1e-9)}
    return len(chosen) == k and above <= chosen <= reach


def check_selection(sel, p_angle, p_ring, num_angles, k, l_rings, num_wide) -> list[str]:
    """Checks on one user's picks against the heads' batch probabilities.

    ``sel`` holds the improved and original picks (1-based flat indices),
    the improved scheme's candidates (1-based) and their measurements, the
    beams_tested counts and the G_N values. The candidates must be the
    top-k angles x top-l rings, and the improved pick the candidate with the
    strongest measurement, ties going to the smaller index.
    """
    problems = []
    u = sel["user"]
    for scheme in ("g_improved", "g_original"):
        if not sel[scheme] <= 1.0 + 1e-12:
            problems.append(f"user {u}: {scheme} = {sel[scheme]!r} exceeds 1")
    cands = np.asarray(sel["candidates"], dtype=np.int64)
    rings, angles = np.divmod(cands - 1, num_angles)
    grid = {int(s) * num_angles + int(n) + 1 for s in set(rings) for n in set(angles)}
    if (len(cands) != k * l_rings or set(cands.tolist()) != grid
            or not is_top(angles, p_angle, k) or not is_top(rings, p_ring, l_rings)):
        problems.append(f"user {u}: candidates {sorted(cands.tolist())} are not the "
                        f"top-{k} x top-{l_rings} set")
    mag = np.abs(np.asarray(sel["measurements"]))
    if len(mag) != len(cands) or sel["improved"] != int(cands[mag == mag.max()].min()):
        problems.append(f"user {u}: improved pick {sel['improved']} is not the candidate "
                        f"with the strongest measurement")
    if sel["beams_improved"] != num_wide + k * l_rings:
        problems.append(f"user {u}: improved tested {sel['beams_improved']} beams, "
                        f"expected {num_wide + k * l_rings}")
    s_org, n_org = divmod(sel["original"] - 1, num_angles)
    if not is_top([n_org], p_angle, 1) or not is_top([s_org], p_ring, 1):
        problems.append(f"user {u}: original pick {sel['original']} is not the argmax pair")
    if sel["beams_original"] != num_wide:
        problems.append(f"user {u}: original tested {sel['beams_original']} beams, "
                        f"expected {num_wide}")
    return problems


def check_oracle(u, oracle_index: int, polar: np.ndarray, h: np.ndarray) -> list[str]:
    """The program's oracle (1-based) must be the brute-force best codeword."""
    best, corr = best_index(polar, h)
    if corr[oracle_index - 1] < corr[best] * (1.0 - REL_TOL):
        return [f"user {u}: oracle {oracle_index} is not the best codeword {best + 1}"]
    return []


def check_gain_order(g_improved: float, g_original: float) -> list[str]:
    if not g_improved >= g_original:
        return [f"mean G_N improved {g_improved:.4f} < original {g_original:.4f}"]
    return []
