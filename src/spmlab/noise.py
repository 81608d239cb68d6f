"""Single-positive label corruption and flip-rate accounting.

Both simulators take a full multi-label ground-truth matrix and keep
exactly one true positive per row: the random protocol picks it uniformly
among the row's positives, the dominant protocol keeps the positive with
the largest scene extent. ``compute_flip_rates`` recovers the per-class
noise rates induced by a corruption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _write_csv
from .net import _check_binary, _check_extents, _check_rows_positive

__all__ = [
    "FlipRateTable",
    "simulate_random_spml",
    "simulate_dominant_spml",
    "compute_flip_rates",
]


def simulate_random_spml(y_true, rng: np.random.Generator) -> np.ndarray:
    """Keep one positive per row, chosen uniformly among the row's positives.

    Row i draws ``rng.integers(0, k_i)`` for its k_i positives, in row order,
    and keeps the positive of that 0-based rank; a row with one positive
    draws nothing. One bulk call makes exactly these draws.
    """
    y = _check_rows_positive(_check_binary(y_true, "y_true"), "y_true")
    counts = np.count_nonzero(y, axis=1)
    pick = rng.integers(0, counts)
    # the flat indices of all positives, row by row; row i's begin at its offset
    positives = np.flatnonzero(y)
    out = np.zeros_like(y)
    out.reshape(-1)[positives[np.cumsum(counts) - counts + pick]] = 1.0
    return out


def simulate_dominant_spml(y_true, extents) -> np.ndarray:
    """Keep the positive with the largest extent; ties go to the lowest index."""
    y = _check_binary(y_true, "y_true")
    e = _check_extents(extents, y)
    row_sums = e.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-9):
        raise ValueError("extent rows must sum to 1 over positive classes")
    out = np.zeros_like(y)
    # extents vanish off-support, so the row argmax is a true positive;
    # np.argmax returns the first maximum, giving the lowest-index tie rule
    out[np.arange(y.shape[0]), np.argmax(e, axis=1)] = 1.0
    return out


@dataclass
class FlipRateTable:
    """Per-class single-positive flip rates beta_c = 1 - kept_c / support_c."""

    beta: np.ndarray       # NaN for classes with zero true positives
    support: np.ndarray    # true positives per class
    micro: float           # 1 - total kept / total true positives
    macro: float           # unweighted mean of beta over supported classes

    def to_csv(self, path) -> None:
        _write_csv(path, [["class", "beta", "support"], *(
            [str(c), "" if np.isnan(b) else repr(float(b)), str(int(s))]
            for c, (b, s) in enumerate(zip(self.beta, self.support))),
            ["micro_average", repr(float(self.micro)), ""],
            ["macro_average", repr(float(self.macro)), ""]])


def compute_flip_rates(y_true, y_observed) -> FlipRateTable:
    """Flip rates of an observed labeling relative to the ground truth."""
    y = _check_binary(y_true, "y_true")
    obs = _check_binary(y_observed, "y_observed", y.shape, "y_true")
    if np.any(obs > y):
        raise ValueError("y_observed marks a positive the ground truth does not have")
    support = y.sum(axis=0)
    kept = obs.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        beta = np.where(support > 0, 1.0 - kept / support, np.nan)
    total_true = float(support.sum())
    if total_true == 0:
        raise ValueError("ground truth has no positive labels at all")
    micro = 1.0 - float(kept.sum()) / total_true
    macro = float(np.nanmean(beta))
    return FlipRateTable(
        beta=beta,
        support=support.astype(np.intp),
        micro=micro,
        macro=macro,
    )
