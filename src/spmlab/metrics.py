"""Multi-label evaluation metrics and the noisy-metric oracle.

Ranking metrics use a fixed deterministic tie rule: scores are ranked in
descending order, ties broken by ascending index (sample index for
average precision, class index for coverage). Coverage takes the rule from
one stable sort per row, AP from an unstable sort per class plus an exact
tie fix-up (``_class_order``), so no metric loops over rows. Ranking-loss
ties count as ordering errors. Labels must be binary (0/1) and scores
finite, or the metric raises ValueError naming the argument.

The public functions check their inputs, then call private kernels that
do not: ``compute_metric_report`` checks once for all metrics. AP has one
kernel: the positives of a label matrix are listed once in rank order
(class, depth, sample), and any matrix that only removes some of them is a
keep-mask over that list, so the Monte Carlo check sorts its fixed scores
once and scores a chunk of trials per call.

The noisy-metric side relates evaluation against corrupted single-positive
labels to evaluation against the clean ground truth: per-class counts obey
an exact identity in the flip rate beta and the recovered-flip fraction
alpha, and Monte Carlo checks confirm that random flips bias mAP downward
while dominant (instance-dependent) flips bias it upward, never above the
exact ceiling of flipping each class's lowest-ranked positives. The checks
make the same draws as a loop of one trial after another.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .net import _check_binary, _check_param, as_matrix

__all__ = [
    "MetricReport",
    "average_precision",
    "mean_average_precision",
    "coverage",
    "ranking_loss",
    "thresholded_metrics",
    "compute_metric_report",
    "NoisyMetricResult",
    "noisy_metric_transform",
    "estimate_proposition_bounds",
    "MonteCarloConfig",
    "MonteCarloReport",
    "monte_carlo_proposition_check",
]


def _checked(scores, labels, name: str = "scores"):
    """Finite 2-D scores and binary labels of the same shape, or ValueError."""
    s = as_matrix(scores, name)
    return s, _check_binary(labels, "labels", s.shape, name)


def _class_order(s: np.ndarray) -> np.ndarray:
    """Per class (row), the samples by descending score, ties by ascending index.

    An unstable sort of ``-s``, faster than a stable one, groups equal scores
    into runs; sorting the unique key ``run * n + sample`` then orders each
    run by index: the stable order, whatever algorithm either sort uses.
    """
    neg = np.negative(s.T, order="C")
    n_classes, n = neg.shape
    order = np.argsort(neg, axis=1)
    ranked = np.take(neg, order + n * np.arange(n_classes)[:, None]).ravel()
    # run numbers carry across rows; a row only needs them non-decreasing
    run = np.zeros(neg.shape, dtype=np.int64)
    np.cumsum(ranked[1:] != ranked[:-1], out=run.reshape(-1)[1:])
    run *= n
    return np.sort(run + order, axis=1) - run


def _ranked_positives(order: np.ndarray, y: np.ndarray):
    """Every positive of ``y`` (n x C) in class-major rank order.

    Returns the class segment bounds (C + 1 offsets: class c holds
    positions ``bounds[c]:bounds[c + 1]``), and each positive's 0-based
    depth in its class's ``_class_order`` ranking and its sample index.
    """
    n_classes = order.shape[0]
    hit = np.take(y, order * n_classes + np.arange(n_classes)[:, None]) == 1.0
    cls, depth = np.nonzero(hit)
    bounds = np.zeros(n_classes + 1, dtype=np.int64)
    np.cumsum(np.bincount(cls, minlength=n_classes), out=bounds[1:])
    return bounds, depth, order[cls, depth]


def _kept_average_precisions(bounds: np.ndarray, depth: np.ndarray,
                             keep: np.ndarray) -> np.ndarray:
    """Per-class AP (T x C) of T label matrices, each a subset of ranked positives.

    ``bounds`` and ``depth`` come from ``_ranked_positives``; row t of the
    boolean ``keep`` (T x m) says which of those m positives are still
    positive in matrix t. A kept positive's precision is its 1-based rank
    among its class's kept positives over (depth + 1). Classes with nothing
    kept get NaN. Each (matrix, class) segment of precisions is summed as
    one contiguous vector, as a one-class call would sum it, so the result
    does not depend on how many classes or matrices share a call.
    """
    n_trials, m = keep.shape
    # kept positives before each flat position; the leading 0 serves the
    # segments that start at position 0, empty classes included
    seen = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=seen[1:])
    at = seen[np.arange(n_trials)[:, None] * m + bounds]
    # the rank among the class's kept positives, read only where kept
    rank = seen[1:].reshape(n_trials, m) - np.repeat(at[:, :-1], np.diff(bounds), axis=1)
    prec = (rank / (depth + 1))[keep]
    counts = np.diff(at, axis=1).ravel()
    ends = np.cumsum(counts)
    filled = np.flatnonzero(counts)
    starts, stops = (ends - counts)[filled].tolist(), ends[filled].tolist()
    per_class = np.full(counts.size, np.nan)
    per_class[filled] = np.array(
        [prec[a:b].sum() for a, b in zip(starts, stops)]) / counts[filled]
    return per_class.reshape(n_trials, -1)


def _average_precisions(order: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-class AP of binary labels ``y`` (n x C) ranked by ``_class_order``.

    The one-matrix, all-kept case of ``_kept_average_precisions``: classes
    without positives get NaN, and the k-th positive of a class, at 0-based
    depth d, has precision k / (d + 1).
    """
    bounds, depth, _ = _ranked_positives(order, y)
    return _kept_average_precisions(bounds, depth, np.ones((1, depth.size), dtype=bool))[0]


def _macro_mean(per_class: np.ndarray) -> float:
    """Mean AP over the classes that have positives."""
    evaluable = ~np.isnan(per_class)
    if not evaluable.any():
        raise ValueError("no class has positive labels; mAP undefined")
    return float(per_class[evaluable].mean())


def average_precision(scores, labels) -> float:
    """Non-interpolated AP: mean precision at the ranks of the positives."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.ndim != 1 or s.shape != y.shape:
        raise ValueError(
            f"scores and labels must be 1-D of equal length, got shapes {s.shape} and {y.shape}"
        )
    s, y = _checked(s[:, None], y[:, None])
    ap = _average_precisions(_class_order(s), y)[0]
    if np.isnan(ap):
        raise ValueError("class has no positive labels and is not evaluable")
    return float(ap)


def mean_average_precision(scores, labels):
    """Macro mAP over evaluable classes; returns (map, per-class AP vector).

    Classes without positives get AP = NaN and are excluded from the mean.
    """
    s, y = _checked(scores, labels)
    per_class = _average_precisions(_class_order(s), y)
    return _macro_mean(per_class), per_class


def coverage(scores, labels) -> float:
    """Mean depth of the worst-ranked true label, minus one."""
    return _coverage(*_checked(scores, labels))


def _coverage(s: np.ndarray, y: np.ndarray) -> float:
    """``coverage`` of checked inputs."""
    n, n_classes = s.shape
    order = np.argsort(-s, axis=1, kind="stable")
    hits = np.take_along_axis(y, order, axis=1)
    # the deepest 0-based position a true label holds; -1 when there is none
    depth = np.where(hits == 1.0, np.arange(n_classes), -1).max(axis=1)
    empty = np.flatnonzero(depth < 0)
    if empty.size:
        raise ValueError(f"row {empty[0]} has no positive label")
    return float(depth.sum() / n)


def ranking_loss(scores, labels) -> float:
    """Average fraction of (positive, negative) pairs ordered wrongly.

    A tie counts as an error. Rows lacking a positive or a negative label
    are skipped; see ``compute_metric_report`` for the skipped count.
    """
    value, _ = _ranking_loss_counted(*_checked(scores, labels))
    return value


def _ranking_loss_counted(s: np.ndarray, y: np.ndarray):
    """``ranking_loss`` of checked inputs, and the number of rows skipped."""
    n_classes = s.shape[1]
    # descending score; on a tie the negative goes first, so it counts
    # against the positive it ties with
    order = np.lexsort((y, -s), axis=1)
    hits = np.take_along_axis(y, order, axis=1)
    violations = (np.cumsum(1.0 - hits, axis=1) * hits).sum(axis=1)
    n_pos = hits.sum(axis=1)
    valid = (n_pos > 0) & (n_pos < n_classes)
    if not valid.any():
        raise ValueError("no row has both a positive and a negative label")
    frac = violations[valid] / (n_pos[valid] * (n_classes - n_pos[valid]))
    # summed left to right, row by row; pairwise summation would round differently
    return float(np.cumsum(frac)[-1] / frac.size), int(valid.size - frac.size)


def thresholded_metrics(probs, labels, threshold: float = 0.5):
    """Cell accuracy and macro precision/recall/F1 at a decision threshold.

    Returns (oa, mf1, mprecision, mrecall, per-class precision, recall, f1).
    Empty denominators yield 0 rather than NaN.
    """
    return _thresholded(*_checked(probs, labels, "probs"), threshold)


def _thresholded(p: np.ndarray, y: np.ndarray, threshold: float):
    """``thresholded_metrics`` of checked probabilities and labels."""
    _check_param("threshold", threshold, 0.0 < threshold < 1.0, "in (0, 1)")
    pred = (p >= threshold).astype(np.float64)
    oa = float((pred == y).mean())   # normalized by n * C
    tp = (pred * y).sum(axis=0)
    pp = pred.sum(axis=0)
    pos = y.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(pp > 0, tp / pp, 0.0)
        recall = np.where(pos > 0, tp / pos, 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2.0 * precision * recall / np.where(denom > 0, denom, 1.0), 0.0)
    return (
        oa,
        float(f1.mean()),
        float(precision.mean()),
        float(recall.mean()),
        precision,
        recall,
        f1,
    )


@dataclass
class MetricReport:
    """Full evaluation summary: ranking metrics plus thresholded rates."""

    map: float
    coverage: float
    rankloss: float
    oa: float
    mf1: float
    mprecision: float
    mrecall: float
    threshold: float
    ap_per_class: np.ndarray
    precision_per_class: np.ndarray
    recall_per_class: np.ndarray
    f1_per_class: np.ndarray
    n_classes_evaluated: int
    rankloss_skipped_rows: int

    def to_json_dict(self) -> dict:
        """Every field by name; arrays become lists with NaN as None."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = [None if np.isnan(v) else float(v) for v in value]
            out[f.name] = value
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "MetricReport":
        """Inverse of ``to_json_dict``: lists become float arrays with None as NaN."""
        kwargs = {}
        for f in fields(cls):
            value = d[f.name]
            if isinstance(value, list):
                value = np.array([np.nan if v is None else float(v) for v in value],
                                 dtype=np.float64)
            kwargs[f.name] = value
        return cls(**kwargs)


def compute_metric_report(probs, labels, threshold: float = 0.5) -> MetricReport:
    """Evaluate probabilities against binary labels on every metric."""
    p, y = _checked(probs, labels, "probs")
    ap_per_class = _average_precisions(_class_order(p), y)
    map_value = _macro_mean(ap_per_class)
    cov = _coverage(p, y)
    rl, rl_skipped = _ranking_loss_counted(p, y)
    oa, mf1, mprec, mrec, prec_c, rec_c, f1_c = _thresholded(p, y, threshold)
    return MetricReport(
        map=map_value,
        coverage=cov,
        rankloss=rl,
        oa=oa,
        mf1=mf1,
        mprecision=mprec,
        mrecall=mrec,
        threshold=threshold,
        ap_per_class=ap_per_class,
        precision_per_class=prec_c,
        recall_per_class=rec_c,
        f1_per_class=f1_c,
        n_classes_evaluated=int((~np.isnan(ap_per_class)).sum()),
        rankloss_skipped_rows=rl_skipped,
    )


@dataclass
class NoisyMetricResult:
    """Noisy-vs-clean recall/precision for one class, both derivations.

    ``noisy_*`` comes straight from the counts, ``noisy_*_parametric``
    from the (alpha, beta) form; both are computed in exact rational
    arithmetic, so whenever neither is degenerate they agree exactly.
    """

    clean_recall: float
    clean_precision: float
    noisy_recall: float
    noisy_precision: float
    noisy_recall_parametric: float
    noisy_precision_parametric: float
    alpha: float
    beta: float
    degenerate: tuple = field(default_factory=tuple)


def noisy_metric_transform(p, tp, pp, f, pf):
    """Per-class noisy metrics from counts (P, TP, PP, F, PF).

    P: true positives in the clean labels; TP: correctly predicted clean
    positives; PP: predicted positives; F: positives flipped to negative
    by the corruption; PF: flipped positives the model still predicts
    positive. Counts must satisfy PF <= F <= P and PF <= TP.
    """
    arrays = [np.asarray(a) for a in (p, tp, pp, f, pf)]
    if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
        raise ValueError("count vectors must be 1-D and of equal length")
    results = []
    for c, row in enumerate(zip(*arrays)):
        for name, v in zip(("P", "TP", "PP", "F", "PF"), row):
            if not float(v).is_integer():
                raise ValueError(
                    f"class {c}: count {name} must be a whole number, got {float(v)!r}"
                )
        p_c, tp_c, pp_c, f_c, pf_c = (int(v) for v in row)
        if min(p_c, tp_c, pp_c, f_c, pf_c) < 0:
            raise ValueError(f"class {c}: counts must be non-negative")
        if not (pf_c <= f_c <= p_c):
            raise ValueError(f"class {c}: requires PF <= F <= P")
        if pf_c > tp_c:
            raise ValueError(f"class {c}: requires PF <= TP")
        if tp_c > p_c or tp_c > pp_c:
            raise ValueError(f"class {c}: requires TP <= P and TP <= PP")
        flags = []
        nan = float("nan")

        clean_rec = Fraction(tp_c, p_c) if p_c > 0 else None
        clean_prec = Fraction(tp_c, pp_c) if pp_c > 0 else None
        if clean_rec is None:
            flags.append("no_true_positives")
        if clean_prec is None:
            flags.append("no_predicted_positives")

        beta = Fraction(f_c, p_c) if p_c > 0 else None
        alpha = Fraction(pf_c, f_c) if f_c > 0 else None

        noisy_rec = Fraction(tp_c - pf_c, p_c - f_c) if p_c - f_c > 0 else None
        if noisy_rec is None and p_c > 0:
            flags.append("all_positives_flipped")
        noisy_prec = Fraction(tp_c - pf_c, pp_c) if pp_c > 0 else None

        if f_c == 0:
            # beta = 0: the corruption is empty and noisy equals clean
            rec_param, prec_param = clean_rec, clean_prec
        elif beta is None:
            rec_param = prec_param = None
        else:
            rec_param = (
                (clean_rec - alpha * beta) / (1 - beta) if beta != 1 else None
            )
            if clean_prec is None:
                prec_param = None
            elif clean_rec is None or clean_rec == 0:
                flags.append("parametric_precision_undefined")
                prec_param = noisy_prec
            else:
                prec_param = clean_prec * (1 - alpha * beta / clean_rec)

        def as_float(x):
            return nan if x is None else float(x)

        results.append(
            NoisyMetricResult(
                clean_recall=as_float(clean_rec),
                clean_precision=as_float(clean_prec),
                noisy_recall=as_float(noisy_rec),
                noisy_precision=as_float(noisy_prec),
                noisy_recall_parametric=as_float(rec_param),
                noisy_precision_parametric=as_float(prec_param),
                alpha=as_float(alpha),
                beta=as_float(beta),
                degenerate=tuple(flags),
            )
        )
    return results


def estimate_proposition_bounds(clean_ap, beta, regime: str) -> float:
    """Closed-form expected noisy mAP under a flip regime.

    random:   (1 - mean(beta)) * mAP* - Cov(beta, AP*)
    dominant: mean(1/(1-beta)) * mAP* + Cov(1/(1-beta), AP*)

    Covariances are population covariances across classes. The dominant
    value is a loose upper bound that can exceed 1 (about 2 at the Monte
    Carlo defaults); ``MonteCarloReport.ceiling_map`` is the exact one.
    """
    ap = np.asarray(clean_ap, dtype=np.float64)
    b = np.asarray(beta, dtype=np.float64)
    if ap.shape != b.shape or ap.ndim != 1:
        raise ValueError("clean_ap and beta must be 1-D vectors of equal length")
    for name, v in (("clean_ap", ap), ("beta", b)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} contains non-finite entries")
    if np.any(b <= 0.0) or np.any(b >= 1.0):
        raise ValueError("beta entries must lie in (0, 1)")
    def pop_cov(u, v):
        return float(np.mean(u * v) - np.mean(u) * np.mean(v))

    if regime == "random":
        return float((1.0 - b.mean()) * ap.mean() - pop_cov(b, ap))
    if regime == "dominant":
        w = 1.0 / (1.0 - b)
        return float(w.mean() * ap.mean() + pop_cov(w, ap))
    raise ValueError(f"unknown regime {regime!r}")


@dataclass
class MonteCarloConfig:
    """Synthetic score/label generator for the proposition checks; checked on creation."""

    n_samples: int = 2000
    n_classes: int = 19
    mean_positives: float = 5.0
    beta_low: float = 0.45
    beta_high: float = 0.8
    margin_low: float = 1.0
    margin_high: float = 2.5
    dominant_sharpness: float = 6.0
    seed: int = 0

    def __post_init__(self):
        _check_param("n_samples", self.n_samples, self.n_samples >= 1, "at least 1")
        _check_param("n_classes", self.n_classes, self.n_classes >= 1, "at least 1")
        _check_param("mean_positives", self.mean_positives, self.mean_positives > 0, "positive")
        _check_param("beta_low", self.beta_low, 0.0 <= self.beta_low < 1.0, "in [0, 1)")
        _check_param("beta_high", self.beta_high, self.beta_low <= self.beta_high <= 1.0
                     and self.beta_high > 0.0, "in [beta_low, 1] and positive")
        _check_param("margin_low", self.margin_low, True, "")
        _check_param("margin_high", self.margin_high, self.margin_high >= self.margin_low,
                     "at least margin_low")
        _check_param("dominant_sharpness", self.dominant_sharpness,
                     self.dominant_sharpness > 0, "positive")


@dataclass
class MonteCarloReport:
    """Clean, closed-form and per-trial noisy mAP of one Monte Carlo check.

    ``ceiling_map`` is the dominant regime's exact maximum: the noisy mAP
    when each class's round(beta_c * P_c) lowest-ranked positives flip. No
    trial exceeds it. It is None in the random regime.
    """

    clean_map: float
    predicted_map: float
    measured: np.ndarray
    measured_mean: float
    frac_below_clean: float
    frac_above_clean: float
    ceiling_map: float | None = None


# cells of random draws per chunk of trials: a few trials at a time keep
# the temporaries small; larger chunks buy no speed and cost memory
_CHUNK_CELLS = 320_000


def _trial_maps(per_class: np.ndarray) -> np.ndarray:
    """``_macro_mean`` of each row of a (T x C) per-class AP matrix."""
    complete = ~np.isnan(per_class).any(axis=1)
    maps = np.empty(per_class.shape[0])
    # a row-wise mean sums each row exactly as a 1-D mean would
    maps[complete] = per_class[complete].mean(axis=1)
    for t in np.flatnonzero(~complete):
        maps[t] = _macro_mean(per_class[t])
    return maps


def _lowest_flip_map(bounds: np.ndarray, depth: np.ndarray, n_flip: np.ndarray) -> float:
    """mAP when exactly the ``n_flip[c]`` lowest-ranked positives of each class flip.

    No other choice of n_flip[c] positives per class scores higher: the
    j-th kept positive is then at the smallest depth it can have, so each
    precision, and each partial sum of them, is the largest possible.
    """
    n_pos = np.diff(bounds)
    position = np.arange(depth.size) - np.repeat(bounds[:-1], n_pos)
    keep = position < np.repeat(n_pos - n_flip, n_pos)
    return float(_trial_maps(_kept_average_precisions(bounds, depth, keep[None]))[0])


def monte_carlo_proposition_check(config: MonteCarloConfig, regime: str,
                                  trials: int) -> MonteCarloReport:
    """Measure E[noisy mAP] under repeated flips of a fixed score matrix.

    Random regime: each true positive flips independently with its class
    rate beta_c. Dominant regime: per class, round(beta_c * P_c) positives
    flip, drawn without replacement with weights concentrated on the
    lowest-scored positives (the model "knows" the dominant class, so
    flipped positives are the ones it ranks poorly).

    A noisy matrix only removes positives, so each trial is a keep-mask
    over the clean positives in rank order, and trials are drawn and scored
    a chunk at a time. The draws are those of one trial after another: per
    trial, the random regime draws an n x C uniform matrix, and the
    dominant regime one uniform per positive of each class with flips, in
    class order and, within a class, in sample order.
    """
    try:
        trials = operator.index(trials)
    except TypeError:
        raise ValueError(f"trials must be an integer, got {trials!r}") from None
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    if regime not in ("random", "dominant"):
        raise ValueError(f"unknown regime {regime!r}")
    rng = np.random.default_rng(config.seed)
    n, n_classes = config.n_samples, config.n_classes

    base = rng.uniform(0.1, 1.0, n_classes)
    prevalence = np.clip(base * (config.mean_positives / base.sum()), 0.02, 0.9)
    y = (rng.random((n, n_classes)) < prevalence).astype(np.float64)
    empty = y.sum(axis=1) == 0
    if empty.any():
        forced = rng.choice(n_classes, size=int(empty.sum()), p=prevalence / prevalence.sum())
        y[np.flatnonzero(empty), forced] = 1.0

    margins = rng.uniform(config.margin_low, config.margin_high, n_classes)
    scores = y * margins + rng.standard_normal((n, n_classes))
    betas = rng.uniform(config.beta_low, config.beta_high, n_classes)

    # the scores never change, so one sort serves every trial
    order = _class_order(scores)
    clean_ap = _average_precisions(order, y)
    clean_map = _macro_mean(clean_ap)
    predicted = estimate_proposition_bounds(clean_ap, betas, regime)

    bounds, depth, sample = _ranked_positives(order, y)
    n_pos = np.diff(bounds)
    cls = np.repeat(np.arange(n_classes), n_pos)
    n_flip = np.array([int(round(betas[c] * n_pos[c])) for c in range(n_classes)])
    flipping = np.flatnonzero(n_flip)
    # per flipping class, its positives in sample order (the order of the
    # draws) as positions in the ranked list, and their base Gumbel keys
    # with weights exp(-sharpness * score): low scores flip first
    by_sample = [bounds[c] + np.argsort(sample[bounds[c]:bounds[c + 1]]) for c in flipping]
    base_keys = [-config.dominant_sharpness * scores[sample[r], c]
                 for r, c in zip(by_sample, flipping)]
    flat = sample * n_classes + cls

    chunk = max(1, _CHUNK_CELLS // (n * n_classes))
    measured = np.empty(trials)
    for first in range(0, trials, chunk):
        t = min(chunk, trials - first)
        if regime == "random":
            u = rng.random((t, n, n_classes))
            keep = ~(np.take(u.reshape(t, -1), flat, axis=1) < betas[cls])
        else:
            keep = np.ones((t, depth.size), dtype=bool)
            gumbel = np.log(-np.log(rng.random((t, n_pos[flipping].sum()))))
            offset = 0
            for c, rows, base in zip(flipping, by_sample, base_keys):
                # Gumbel top-k = weighted sampling without replacement
                keys = base - gumbel[:, offset:offset + rows.size]
                top = np.argpartition(keys, rows.size - n_flip[c], axis=1)[:, -n_flip[c]:]
                keep[np.arange(t)[:, None], rows[top]] = False
                offset += rows.size
        measured[first:first + t] = _trial_maps(_kept_average_precisions(bounds, depth, keep))

    ceiling = _lowest_flip_map(bounds, depth, n_flip) if regime == "dominant" else None
    return MonteCarloReport(
        clean_map=clean_map,
        predicted_map=predicted,
        measured=measured,
        measured_mean=float(measured.mean()),
        frac_below_clean=float((measured < clean_map).mean()),
        frac_above_clean=float((measured > clean_map).mean()),
        ceiling_map=ceiling,
    )
