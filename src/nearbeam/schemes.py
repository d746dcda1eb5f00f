"""Beam-selection schemes: network-only selection, selection with additional
candidate tests, and the sweep/random/far-field baselines.

All schemes return 1-based codebook indices and account for every pilot
measurement they spent in ``beams_tested``. Ties always break toward the
smallest index so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codebook import PolarCodebook, WideCodebook
from .measurement import LinkConfig, MeasurementVector, measure, measure_wide, sweep_oracle


@dataclass
class SchemeResult:
    index: int               # chosen codeword, 1-based
    codeword: np.ndarray
    beams_tested: int
    aux: dict = field(default_factory=dict)


class FixedProbs:
    """Stand-in classifier that returns probabilities computed beforehand:
    a head's output, so that schemes given the same measurement run each
    head only once, or the one-hot or uniform vector of a stub run."""

    def __init__(self, probs):
        self.probs = np.asarray(probs)

    def predict_proba(self, values) -> np.ndarray:
        return self.probs


def _values(yw) -> np.ndarray:
    return yw.values if isinstance(yw, MeasurementVector) else np.asarray(yw)


def _head_probs(yw, dir_model, dist_model, book: PolarCodebook):
    values = _values(yw)
    p_angle = np.asarray(dir_model.predict_proba(values))
    p_ring = np.asarray(dist_model.predict_proba(values))
    if len(p_angle) != book.num_angles:
        raise ValueError(
            f"direction head size {len(p_angle)} != codebook angles {book.num_angles}"
        )
    if len(p_ring) != book.num_rings:
        raise ValueError(
            f"distance head size {len(p_ring)} != codebook rings {book.num_rings}"
        )
    return values, p_angle, p_ring


def original_scheme(yw, dir_model, dist_model, book: PolarCodebook) -> SchemeResult:
    """Pick the argmax of each head and combine: i* = (s*-1)N + n*.

    Costs only the M wide-beam pilots already spent on the input vector.
    """
    values, p_angle, p_ring = _head_probs(yw, dir_model, dist_model, book)
    n_star = int(np.argmax(p_angle)) + 1
    s_star = int(np.argmax(p_ring)) + 1
    i_star = book.index(s_star, n_star)
    return SchemeResult(
        index=i_star,
        codeword=book.codeword(i_star),
        beams_tested=len(values),
    )


def top_k(probs: np.ndarray, k: int) -> np.ndarray:
    """1-based indices of the k largest entries, descending; ties keep the
    smaller index first."""
    probs = np.asarray(probs)
    if not 1 <= k <= len(probs):
        raise ValueError(f"k={k} out of range 1..{len(probs)}")
    order = np.argsort(-probs, kind="stable")
    return order[:k] + 1


def candidate_indices(
    angle_candidates: np.ndarray, ring_candidates: np.ndarray, num_angles: int
) -> np.ndarray:
    """Flat codebook indices at the (ring, angle) intersections, enumerated
    ring-major to match the top-k orders."""
    return np.array([
        (int(g) - 1) * num_angles + int(s)
        for g in ring_candidates
        for s in angle_candidates
    ], dtype=np.int64)


def improved_scheme(
    yw,
    dir_model,
    dist_model,
    book: PolarCodebook,
    h: np.ndarray,
    link: LinkConfig,
    rng: np.random.Generator,
    k_angles: int,
    l_rings: int,
) -> SchemeResult:
    """Test the K*L codewords at the intersections of the top-K angles and
    top-L rings with fresh pilots; keep the strongest measurement."""
    values, p_angle, p_ring = _head_probs(yw, dir_model, dist_model, book)
    angle_cands = top_k(p_angle, k_angles)
    ring_cands = top_k(p_ring, l_rings)
    cands = candidate_indices(angle_cands, ring_cands, book.num_angles)
    meas = np.array([measure(book.codeword(int(b)), h, link, rng) for b in cands])
    mag = np.abs(meas)
    i_star = int(cands[mag == mag.max()].min())
    return SchemeResult(
        index=i_star,
        codeword=book.codeword(i_star),
        beams_tested=len(values) + k_angles * l_rings,
        aux={"candidates": cands, "measurements": meas},
    )


def sweep_scheme(book: PolarCodebook, h: np.ndarray) -> SchemeResult:
    """Noiseless exhaustive sweep over all I codewords (the oracle baseline)."""
    i_star = sweep_oracle(book, h)[0]
    return SchemeResult(
        index=i_star,
        codeword=book.codeword(i_star),
        beams_tested=book.size,
    )


def random_baseline(book: PolarCodebook, rng: np.random.Generator) -> SchemeResult:
    """Uniform pick over the codebook; spends no pilots."""
    i_star = int(rng.integers(1, book.size + 1))
    return SchemeResult(index=i_star, codeword=book.codeword(i_star), beams_tested=0)


def far_field_baseline(
    narrow: WideCodebook, h: np.ndarray, link: LinkConfig, rng: np.random.Generator
) -> SchemeResult:
    """Exhaustive noisy sweep of every beam of a far-field codebook: the N
    narrow beams of ``build_wide_codebook(cfg, 1)``."""
    meas = measure_wide(narrow, h, link, rng).values
    n_star = int(np.argmax(np.abs(meas))) + 1
    return SchemeResult(
        index=n_star,
        codeword=narrow.codewords[n_star - 1],
        beams_tested=narrow.num_wide,
        aux={"measurements": meas},
    )
