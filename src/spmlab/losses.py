"""Training objectives on sigmoid probabilities.

Every operation returns a :class:`LossValue` holding the objective scalar
and its analytic gradient with respect to the logits, so a model gradient
is one ``Mlp.backward`` call away. Probabilities are clamped into
``[EPS_CLIP, 1 - EPS_CLIP]`` before any logarithm.

Each public function checks its inputs with the rule helpers of ``net``:
labels are binary, probabilities and pseudo-labels lie in [0, 1], and
every array has the shape of ``p``; an error names the argument and the
first offending value with its position. A scalar weight must be finite
and meet the rule ``TrainConfig.validate`` gives its field. It then
clamps and calls one private kernel (``_an_terms``, ``_bce_terms``,
``_an_ls_terms``, ``_epr_terms``, ``_iun_terms``, ``_adagc_terms``,
``_gc_core``) that takes clamped probabilities and returns
``(value, dlogits)``. ``_an_terms`` is BCE on binary targets, cell for
cell the value and gradient of ``_bce_terms``, in fewer operations;
``_bce_terms`` serves soft targets and a negative-term weight. The trainer
checks its inputs once, at construction, and calls the same kernels in
each step, so every formula lives in one place and the tests of the
public functions cover it.

Conventions:

* ``loss_an`` / ``loss_an_ls`` / ``loss_wan`` / ``loss_iun`` / ``loss_epr``
  are unnormalized sums over the batch; the training loop divides them
  by the batch size.
* the calibration regularizers (``reg_elr_mcc``, ``reg_gc_binary``,
  ``reg_gc``) and the combined ``loss_adagc`` are already averaged over
  the batch, so their weights transfer across batch sizes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .net import _check_binary, _check_param, _check_unit

__all__ = [
    "EPS_CLIP",
    "LossValue",
    "loss_an",
    "loss_an_ls",
    "loss_wan",
    "loss_epr",
    "loss_iun",
    "reg_elr_mcc",
    "reg_gc_binary",
    "reg_gc",
    "loss_adagc",
]

EPS_CLIP = 1e-12


class LossValue(NamedTuple):
    value: float
    dlogits: np.ndarray


def _clamp(p) -> np.ndarray:
    return _clip(_check_unit(p, "p"))


def _clip(p: np.ndarray) -> np.ndarray:
    """Probabilities in [0, 1] clamped into [EPS_CLIP, 1 - EPS_CLIP], unchecked."""
    out = np.maximum(p, EPS_CLIP)
    return np.minimum(out, 1.0 - EPS_CLIP, out=out)


def _bce_terms(p, targets, w_neg=1.0):
    """Cell-wise BCE with down-weighted negative terms; returns (sum, dlogits)."""
    neg = 1.0 - targets
    val_neg, grad_neg = neg * np.log1p(-p), neg * p
    if w_neg != 1.0:  # a weight of 1.0 multiplies exactly
        val_neg *= w_neg
        grad_neg *= w_neg
    val = targets * np.log(p) + val_neg
    grad = targets * (p - 1.0) + grad_neg
    return -float(val.sum()), grad  # negating the sum, not each cell, is exact


def _an_terms(p, y):
    """``_bce_terms(p, y)`` of binary ``y``: each cell takes its one nonzero term.

    In ``_bce_terms`` the other term is 0 times a finite log, a signed zero,
    and adding it leaves the nonzero term as it is.
    """
    val = np.where(y == 1.0, np.log(p), np.log1p(-p))
    return -float(val.sum()), p - y


def loss_an(p, y_observed) -> LossValue:
    """Assume-negative BCE: every unobserved label is treated as a negative."""
    p = _clamp(p)
    y = _check_binary(y_observed, "y_observed", p.shape, "p")
    return LossValue(*_an_terms(p, y))


def loss_an_ls(p, y_observed, eps_smooth: float) -> LossValue:
    """Assume-negative BCE against label-smoothed targets."""
    _check_param("eps_smooth", eps_smooth, 0.0 <= eps_smooth < 0.5, "in [0, 0.5)")
    p = _clamp(p)
    y = _check_binary(y_observed, "y_observed", p.shape, "p")
    return LossValue(*_an_ls_terms(p, y, eps_smooth))


def _an_ls_terms(p, y, eps_smooth):
    targets = y * (1.0 - eps_smooth) + (1.0 - y) * eps_smooth
    return _bce_terms(p, targets)


def loss_wan(p, y_observed, w_neg: float) -> LossValue:
    """Weak assume-negative BCE: negative terms scaled by ``w_neg``."""
    _check_param("w_neg", w_neg, 0.0 < w_neg <= 1.0, "in (0, 1]")
    p = _clamp(p)
    y = _check_binary(y_observed, "y_observed", p.shape, "p")
    return LossValue(*_bce_terms(p, y, w_neg))


def loss_epr(p, y_observed, k_expected: float, epr_weight: float = 1.0) -> LossValue:
    """Positive-only BCE plus a squared penalty on the expected label count.

    penalty = epr_weight * sum_i ((sum_c p_ic - k_expected) / C)^2, summed over rows as the BCE
    """
    p = _clamp(p)
    y = _check_binary(y_observed, "y_observed", p.shape, "p")
    n_classes = p.shape[1]
    _check_param("k_expected", k_expected, 0.0 < k_expected <= n_classes, f"in (0, {n_classes}]")
    _check_param("epr_weight", epr_weight, epr_weight >= 0, "non-negative")
    return LossValue(*_epr_terms(p, y, k_expected, epr_weight))


def _epr_terms(p, y, k_expected, epr_weight):
    n_classes = p.shape[1]
    pos_value = float(-(y * np.log(p)).sum())
    excess = p.sum(axis=1) - k_expected
    value = pos_value + epr_weight * float(((excess / n_classes) ** 2).sum())
    grad = y * (p - 1.0)
    grad = grad + (epr_weight * 2.0 * excess / n_classes**2)[:, None] * p * (1.0 - p)
    return value, grad


def loss_iun(p, y_observed, true_negative_mask) -> LossValue:
    """BCE restricted to observed positives and known true negatives.

    Cells outside both sets (the unobserved, possibly-positive labels)
    contribute neither loss nor gradient.
    """
    p = _clamp(p)
    y = _check_binary(y_observed, "y_observed", p.shape, "p")
    mask = _check_binary(true_negative_mask, "true_negative_mask", p.shape, "p")
    if np.any((mask == 1.0) & (y == 1.0)):
        raise ValueError("true_negative_mask marks an observed positive as negative")
    return LossValue(*_iun_terms(p, y, mask))


def _iun_terms(p, y, mask):
    value = float(-(y * np.log(p)).sum() - (mask * np.log1p(-p)).sum())
    grad = y * (p - 1.0) + mask * p
    return value, grad


def reg_elr_mcc(p_simplex, t_simplex) -> LossValue:
    """Multi-class calibration term (1/n) sum_i log(1 - <p_i, t_i>).

    Requires simplex rows (probability vectors). The returned gradient is
    taken with respect to softmax logits. Inner products at 1 are clamped
    to 1 - EPS_CLIP before the logarithm. Reference implementation only:
    the binary-label training path never uses it.
    """
    p = _check_unit(p_simplex, "p_simplex")
    t = _check_unit(t_simplex, "t_simplex", p.shape, "p_simplex")
    for name, arr in (("p_simplex", p), ("t_simplex", t)):
        sums = arr.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValueError(f"{name} rows must sum to 1 (tolerance 1e-9)")
    n = p.shape[0]
    ip = (p * t).sum(axis=1)
    ipc = np.minimum(ip, 1.0 - EPS_CLIP)
    value = float(np.log1p(-ipc).mean())
    # per-cell: p_c * sum_k (t_k - t_c) p_k / (1 - <p, t>)
    sp = p.sum(axis=1)
    g = p * (ip[:, None] - t * sp[:, None]) / (1.0 - ipc)[:, None]
    return LossValue(value, g / n)


def reg_gc_binary(p, t) -> LossValue:
    """Class-wise binary calibration over all cells.

    (1/n) sum_ic log(1 - <b_ic, t_ic>) with b = [p, 1-p] and the target
    vector [t, 1-t]; dominated by negative labels, kept as a reference.
    """
    p = _clamp(p)
    t = _check_unit(t, "t", p.shape, "p")
    n = p.shape[0]
    ip = p * t + (1.0 - p) * (1.0 - t)
    ipc = np.minimum(ip, 1.0 - EPS_CLIP)
    value = float(np.log1p(-ipc).sum() / n)
    grad = -(2.0 * t - 1.0) / (1.0 - ipc) * p * (1.0 - p) / n
    return LossValue(value, grad)


def _gc_core(p, t, include):
    """Shared calibration kernel over the cells selected by ``include``."""
    n = p.shape[0]
    pt = np.minimum(p * t, 1.0 - EPS_CLIP)
    value = float(np.where(include, np.log1p(-pt), 0.0).sum() / n)
    grad = np.where(include, -t / (1.0 - pt) * p * (1.0 - p), 0.0) / n
    return value, grad


def reg_gc(p, t, y_observed) -> LossValue:
    """Gradient calibration on unobserved labels only.

    (1/n) sum_i sum_{c: y_ic = 0} log(1 - p_ic * t_ic). The per-logit
    gradient on included cells is -t/(1 - p*t) * p*(1-p) / n, which is
    never positive: cells with a high pseudo-label score are pushed toward
    positive predictions instead of being penalized as false negatives.
    """
    p = _clamp(p)
    t = _check_unit(t, "t", p.shape, "p")
    y = _check_binary(y_observed, "y_observed", p.shape, "p")
    return LossValue(*_gc_core(p, t, y == 0.0))


def loss_adagc(p, y, t, lam: float) -> LossValue:
    """Batch-mean BCE plus ``lam`` times the calibration term.

    ``y`` may be soft (post-Mixup); calibration applies exactly where
    y == 0, i.e. to cells with no positive evidence from either Mixup
    source. Both terms are averaged over the batch so ``lam`` transfers
    across batch sizes.
    """
    _check_param("lam", lam, lam >= 0, "non-negative")
    p = _clamp(p)
    y = _check_unit(y, "y", p.shape, "p")
    t = _check_unit(t, "t", p.shape, "p")
    return LossValue(*_adagc_terms(p, y, t, lam))


def _adagc_terms(p, y, t, lam):
    n = p.shape[0]
    bce_value, bce_grad = _bce_terms(p, y)
    gc_value, gc_grad = _gc_core(p, t, y == 0.0)
    return bce_value / n + lam * gc_value, bce_grad / n + lam * gc_grad
