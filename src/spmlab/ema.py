"""Dual exponential moving averages for pseudo-label generation.

Two averages run side by side: a weight-space EMA (the teacher model,
updated once per optimizer step) and a prediction-space EMA (per-sample
smoothed student outputs, updated whenever a sample is forwarded).
Pseudo-labels fuse the two with a convex coefficient gamma.

Each public function checks its inputs with the rule helpers of ``net``
(sample indices in range, probabilities in [0, 1] and of the shape the
sample indices and classes give; an error names the argument and the
first offending value with its position), then calls one private kernel
(``_update_weights``, ``_update_predictions``, ``_pseudo_labels``); the
trainer checks once at construction and calls the kernels in each step.
Both updates change the state in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import _check_indices, _check_shape, _check_unit
from .records import _check_fields

__all__ = [
    "DualEmaState",
    "init_dual_ema",
    "ema_update_weights",
    "ema_update_predictions",
    "make_pseudo_labels",
]


@dataclass
class DualEmaState:
    teacher_params: np.ndarray        # flat copy of the student parameter vector
    smoothed_preds: np.ndarray        # n_train x C, rows valid once visited
    visited: np.ndarray               # bool per training sample
    beta_t: float = 0.999
    beta_s: float = 0.8
    gamma: float = 0.5

    def __post_init__(self):
        _check_fields(self, lambda: {name: (0.0 <= getattr(self, name) <= 1.0, "in [0, 1]")
                                     for name in ("beta_t", "beta_s", "gamma")})


def init_dual_ema(student_params, n_train: int, n_classes: int,
                  beta_t: float = 0.999, beta_s: float = 0.8,
                  gamma: float = 0.5) -> DualEmaState:
    """Teacher starts as a copy of the student; predictions start unvisited."""
    theta = np.asarray(student_params, dtype=np.float64).copy()
    return DualEmaState(
        teacher_params=theta,
        smoothed_preds=np.zeros((n_train, n_classes)),
        visited=np.zeros(n_train, dtype=bool),
        beta_t=beta_t,
        beta_s=beta_s,
        gamma=gamma,
    )


def ema_update_weights(state: DualEmaState, student_params) -> DualEmaState:
    """teacher <- beta_t * teacher + (1 - beta_t) * student, elementwise, in place."""
    theta = _check_shape(np.asarray(student_params, dtype=np.float64),
                         state.teacher_params.shape, "student_params", "teacher_params")
    _update_weights(state.teacher_params, theta, state.beta_t)
    return state


def _update_weights(teacher: np.ndarray, theta: np.ndarray, beta_t: float) -> None:
    # the same roundings as beta_t * teacher + (1 - beta_t) * theta
    teacher *= beta_t
    teacher += (1.0 - beta_t) * theta


def ema_update_predictions(state: DualEmaState, sample_indices, p_batch) -> DualEmaState:
    """Per-sample prediction smoothing; a first visit copies the prediction."""
    idx = _check_indices(sample_indices, state.smoothed_preds.shape[0], "sample_indices")
    p = _check_unit(p_batch, "p_batch", (idx.size, state.smoothed_preds.shape[1]),
                    "sample_indices and classes")
    _update_predictions(state, idx, p)
    return state


def _update_predictions(state: DualEmaState, idx: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Smooth the rows ``idx`` in place and return them (as stored, if ``idx`` has no repeats)."""
    seen = state.visited.take(idx)
    rows = state.beta_s * state.smoothed_preds.take(idx, axis=0) + (1.0 - state.beta_s) * p
    if not seen.all():  # a first visit copies the prediction
        rows = np.where(seen[:, None], rows, p)
        state.visited[idx] = True
    state.smoothed_preds[idx] = rows
    return rows


def make_pseudo_labels(state: DualEmaState, teacher_probs, sample_indices,
                       student_probs=None) -> np.ndarray:
    """Fuse teacher and smoothed-student predictions into pseudo-labels.

    t = gamma * p_teacher + (1 - gamma) * p_student_smoothed. Passing
    ``student_probs`` bypasses the prediction EMA (the raw-student
    ablation); otherwise the stored smoothed predictions are used and
    every requested sample must have been visited.
    """
    idx = _check_indices(sample_indices, state.smoothed_preds.shape[0], "sample_indices")
    p_t = _check_unit(teacher_probs, "teacher_probs", (idx.size, state.smoothed_preds.shape[1]),
                      "sample_indices and classes")
    if student_probs is None:
        if not np.all(state.visited[idx]):
            raise ValueError("pseudo-labels requested for samples never visited")
    else:
        student_probs = _check_unit(student_probs, "student_probs", p_t.shape, "teacher_probs")
    return _pseudo_labels(state, p_t, idx, student_probs)


def _pseudo_labels(state: DualEmaState, p_t: np.ndarray, idx: np.ndarray,
                   student_probs: np.ndarray | None) -> np.ndarray:
    p_s = state.smoothed_preds[idx] if student_probs is None else student_probs
    return state.gamma * p_t + (1.0 - state.gamma) * p_s
