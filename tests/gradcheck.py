"""Central finite-difference gradient checking helpers shared by the test
suite and the acceptance module."""

import numpy as np

EPS = 1e-5
RTOL = 1e-4
ZERO_FLOOR = 1e-7  # treat both-gradients-below-this as agreeing at zero


def rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale < ZERO_FLOOR:
        return 0.0
    return abs(a - b) / scale


def check_param_grads(loss_fn, params, eps=EPS, rtol=RTOL, max_entries=None, rng=None):
    """Compare analytic gradients against central differences.

    ``params`` is an iterable of (name, value, grad) with analytic grads
    already populated for the current parameter values; ``loss_fn`` re-runs
    the forward pass and returns the scalar loss. Checks every entry unless
    ``max_entries`` caps the per-array count (sampled with ``rng``).
    Entries are perturbed by index, so a value may be a strided view.
    Returns the worst relative error seen.
    """
    worst = 0.0
    for name, value, grad in params:
        flat_g = grad.reshape(-1)
        idx = np.arange(value.size)
        if max_entries is not None and value.size > max_entries:
            idx = rng.choice(value.size, size=max_entries, replace=False)
        for j in idx:
            at = np.unravel_index(j, value.shape)
            orig = value[at]
            value[at] = orig + eps
            up = loss_fn()
            value[at] = orig - eps
            down = loss_fn()
            value[at] = orig
            numeric = (up - down) / (2 * eps)
            err = rel_err(numeric, flat_g[j])
            worst = max(worst, err)
            assert err <= rtol, (
                f"{name}[{j}]: analytic {flat_g[j]:.8e} vs numeric {numeric:.8e} "
                f"(rel err {err:.2e})"
            )
    return worst
