"""Independent brute-force oracles used to cross-check the fast paths.

Everything here is deliberately written with explicit Python loops and
pairwise comparisons, sharing no code with the package implementations.
The exceptions in style are earlier forms of fast paths, kept verbatim so
their rewrites can be held to bit-equal results:

* ``reference_monte_carlo``: the per-trial Monte Carlo loop as it stood
  before the chunked rewrite, with its AP kernel; it takes the closed
  form, which the rewrite did not touch, from the package.
* ``reference_class_order``: the one stable argsort that ranked each class
  before the two-pass order.
* ``reference_mixup``: the Mixup body as it stood before it gathered each
  partner row once.
"""

import itertools
import math

import numpy as np

from spmlab.metrics import estimate_proposition_bounds


def fd_gradient(f, theta, h=1e-5):
    """Central finite differences of a scalar function of a flat vector."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.empty_like(theta)
    for k in range(theta.size):
        up = theta.copy()
        up[k] += h
        down = theta.copy()
        down[k] -= h
        grad[k] = (f(up) - f(down)) / (2.0 * h)
    return grad


def relative_error(analytic, reference):
    analytic = np.asarray(analytic, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    denom = max(np.linalg.norm(reference), 1e-12)
    return float(np.linalg.norm(analytic - reference) / denom)


def _rank_and_hits(scores, labels, i):
    """Pairwise rank of item i (descending scores, ties by ascending index)."""
    rank = 1
    hits = 1  # item i itself is a positive when this is called
    for j in range(len(scores)):
        if j == i:
            continue
        ahead = scores[j] > scores[i] or (scores[j] == scores[i] and j < i)
        if ahead:
            rank += 1
            if labels[j] == 1:
                hits += 1
    return rank, hits


def brute_average_precision(scores, labels):
    scores = list(scores)
    labels = list(labels)
    n_pos = sum(1 for v in labels if v == 1)
    assert n_pos > 0
    total = 0.0
    for i in range(len(scores)):
        if labels[i] != 1:
            continue
        rank, hits = _rank_and_hits(scores, labels, i)
        total += hits / rank
    return total / n_pos


def brute_mean_average_precision(scores, labels):
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    values = []
    for c in range(scores.shape[1]):
        if labels[:, c].sum() > 0:
            values.append(brute_average_precision(scores[:, c], labels[:, c]))
    return sum(values) / len(values)


def brute_coverage(scores, labels):
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    total = 0.0
    for i in range(scores.shape[0]):
        worst = 0
        for c in range(scores.shape[1]):
            if labels[i, c] != 1:
                continue
            rank = 1
            for k in range(scores.shape[1]):
                if k == c:
                    continue
                if scores[i, k] > scores[i, c] or (
                    scores[i, k] == scores[i, c] and k < c
                ):
                    rank += 1
            worst = max(worst, rank)
        total += worst - 1
    return total / scores.shape[0]


def brute_ranking_loss(scores, labels):
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    per_row = []
    for i in range(scores.shape[0]):
        pos = [c for c in range(scores.shape[1]) if labels[i, c] == 1]
        neg = [c for c in range(scores.shape[1]) if labels[i, c] == 0]
        if not pos or not neg:
            continue
        bad = 0
        for cp in pos:
            for cn in neg:
                if scores[i, cp] <= scores[i, cn]:
                    bad += 1
        per_row.append(bad / (len(pos) * len(neg)))
    return sum(per_row) / len(per_row)


def straight_line_mlp(layer_sizes, params, x_row):
    """Re-evaluate the affine/tanh chain with scalar loops only."""
    sizes = list(layer_sizes)
    params = list(params)
    acts = list(x_row)
    off = 0
    for li in range(len(sizes) - 1):
        fan_in, fan_out = sizes[li], sizes[li + 1]
        weights = []
        for r in range(fan_in):
            weights.append(params[off:off + fan_out])
            off += fan_out
        bias = params[off:off + fan_out]
        off += fan_out
        out = []
        for c in range(fan_out):
            s = bias[c]
            for r in range(fan_in):
                s += acts[r] * weights[r][c]
            out.append(s)
        if li < len(sizes) - 2:
            out = [math.tanh(v) for v in out]
        acts = out
    return acts


def brute_best_flip_ap(scores, labels, k):
    """Highest AP over every way to flip exactly k of the positives to negative."""
    positives = [i for i, v in enumerate(labels) if v == 1]
    best = -1.0
    for flipped in itertools.combinations(positives, k):
        noisy = [0 if i in flipped else v for i, v in enumerate(labels)]
        best = max(best, brute_average_precision(scores, noisy))
    return best


def reference_class_order(s):
    """Per class (row), the samples by descending score, ties by ascending index."""
    return np.argsort(-s.T, axis=1, kind="stable")


def reference_mixup(x, y, t, rng, alpha):
    """(x_mix, y_mix, t_mix, phi) with the draws and arithmetic of ``mixup_batch``."""
    arrays = [np.asarray(a, dtype=np.float64) for a in (x, y, t)]
    n = arrays[0].shape[0]
    partner = rng.integers(0, n, size=n)
    phi = rng.beta(alpha, alpha, size=n)
    mixed = []
    for a in arrays:
        w = phi.reshape((n,) + (1,) * (a.ndim - 1))
        m = w * a + (1.0 - w) * a[partner]
        same = a == a[partner]
        mixed.append(np.where(same, a, m))
    return mixed[0], mixed[1], mixed[2], phi


def _reference_average_precisions(order, y):
    n_classes = order.shape[0]
    hit = np.take(y, order * n_classes + np.arange(n_classes)[:, None]) == 1.0
    cls, depth = np.nonzero(hit)
    n_pos = np.bincount(cls, minlength=n_classes)
    ends = np.cumsum(n_pos)
    k = np.arange(1, cls.size + 1) - np.repeat(ends - n_pos, n_pos)
    prec = k / (depth + 1)
    per_class = np.full(n_classes, np.nan)
    for c in np.flatnonzero(n_pos):
        per_class[c] = prec[ends[c] - n_pos[c]:ends[c]].sum() / n_pos[c]
    return per_class


def _reference_macro_mean(per_class):
    evaluable = ~np.isnan(per_class)
    if not evaluable.any():
        raise ValueError("no class has positive labels; mAP undefined")
    return float(per_class[evaluable].mean())


def reference_monte_carlo(config, regime, trials):
    """(clean mAP, closed-form mAP, per-trial noisy mAP) one trial at a time."""
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

    order = reference_class_order(scores)
    clean_ap = _reference_average_precisions(order, y)
    clean_map = _reference_macro_mean(clean_ap)
    predicted = estimate_proposition_bounds(clean_ap, betas, regime)

    pos_index = [np.flatnonzero(y[:, c] == 1.0) for c in range(n_classes)]
    measured = np.empty(trials)
    for trial in range(trials):
        y_noisy = y.copy()
        if regime == "random":
            flip = (rng.random((n, n_classes)) < betas) & (y == 1.0)
            y_noisy[flip] = 0.0
        else:
            for c in range(n_classes):
                pos = pos_index[c]
                n_flip = int(round(betas[c] * pos.size))
                if n_flip == 0:
                    continue
                keys = -config.dominant_sharpness * scores[pos, c]
                keys = keys - np.log(-np.log(rng.random(pos.size)))
                y_noisy[pos[np.argsort(keys)[-n_flip:]], c] = 0.0
        measured[trial] = _reference_macro_mean(_reference_average_precisions(order, y_noisy))
    return clean_map, predicted, measured
