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
* ``reference_sigmoid``: ``net._sigmoid`` before it computed in place.
* ``reference_mixup``: the Mixup body as it stood before it gathered each
  partner row once.
* ``reference_write_csv``: the ``csv.writer`` call that wrote each dataset
  CSV before ``write_split_csv`` formatted its rows itself.
* ``reference_write_curves`` and ``reference_write_fliprates``: the
  ``csv.writer`` bodies that wrote curves.csv and fliprates.csv before both
  formatted their own cells for ``data._write_csv``.
* ``reference_random_spml``: the per-row loop of ``simulate_random_spml``
  before it drew every row's pick in one call.
* ``reference_generate_synthetic``: the body of ``generate_synthetic``
  when each row drew its classes with ``rng.choice``.
* ``reference_read_numeric_csv``: ``data._read_numeric_csv`` when every line
  went through ``csv.reader`` and every cell through its own ``float`` call.
* ``reference_coverage`` and ``reference_ranking_loss``: ``metrics._coverage``
  when it took the tie rule from a stable sort per row, and
  ``metrics._ranking_loss_counted`` when every row went through ``lexsort``.
"""

import csv
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


def reference_write_csv(path, array, dtype):
    """Write ``array.astype(dtype)`` to ``path`` through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(array.astype(dtype).tolist())


CURVE_FIELDS = ("epoch", "stage", "train_loss", "noisy_val_map", "noisy_val_map_student",
                "clean_val_map")


def reference_write_curves(path, logs):
    """curves.csv of ``EpochLog`` rows through ``csv.writer``; train_loss is headed loss."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["loss" if name == "train_loss" else name for name in CURVE_FIELDS])
        writer.writerows([getattr(log, name) for name in CURVE_FIELDS] for log in logs)


def reference_write_fliprates(path, table):
    """fliprates.csv of a ``FlipRateTable`` through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "beta", "support"])
        for c, (b, s) in enumerate(zip(table.beta, table.support)):
            writer.writerow([c, "" if np.isnan(b) else repr(float(b)), int(s)])
        writer.writerow(["micro_average", repr(float(table.micro)), ""])
        writer.writerow(["macro_average", repr(float(table.macro)), ""])


def reference_random_spml(y_true, rng):
    """One positive per row, drawn with one ``rng.integers`` call per row."""
    y = np.asarray(y_true, dtype=np.float64)
    out = np.zeros_like(y)
    for i, row in enumerate(y):
        positives = np.flatnonzero(row == 1.0)
        keep = positives[rng.integers(0, positives.size)]
        out[i, keep] = 1.0
    return out


def reference_generate_synthetic(spec):
    """(features, y, extents) of all ``spec.n_samples`` rows, one ``rng.choice`` per row."""
    rng = np.random.default_rng(spec.seed)
    n, n_classes, d = spec.n_samples, spec.n_classes, spec.n_features

    weights = np.linspace(1.0, 0.35, n_classes)
    weights = weights / weights.sum()
    prototypes = spec.separation * rng.standard_normal((n_classes, d)) / np.sqrt(d)

    p_extra = (spec.mean_positives - 1.0) / (n_classes - 1.0)
    cardinality = 1 + rng.binomial(n_classes - 1, p_extra, size=n)

    y = np.zeros((n, n_classes))
    extents = np.zeros((n, n_classes))
    alpha_full = spec.extent_concentration * n_classes * weights
    for i in range(n):
        classes = rng.choice(n_classes, size=cardinality[i], replace=False, p=weights)
        share = rng.dirichlet(alpha_full[classes])
        share = np.maximum(share, 1e-9)
        share = share / share.sum()
        y[i, classes] = 1.0
        extents[i, classes] = share

    features = extents @ prototypes + rng.standard_normal((n, d))
    return features, y, extents


def reference_read_numeric_csv(path, name):
    """(matrix, 1-based line of each row) of a CSV of finite numbers; blank lines are skipped."""
    rows, lines = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"{name} {path}: line {line_no} has {len(row)} columns, "
                                 f"expected {len(rows[0])}")
            parsed = []
            for col, cell in enumerate(row, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(f"{name} {path}: line {line_no}, column {col}: "
                                     f"not a number: {cell!r}") from None
            rows.append(parsed)
            lines.append(line_no)
    if not rows:
        raise ValueError(f"{name} {path}: file is empty")
    matrix = np.array(rows, dtype=np.float64)
    bad = ~np.isfinite(matrix)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"{name} {path}: line {lines[i]}, column {j + 1}: "
                         f"not a finite number: {float(matrix[i, j])!r}")
    return matrix, lines


def reference_coverage(s, y):
    """Coverage of checked scores and labels, from one stable sort per row."""
    n, n_classes = s.shape
    order = np.argsort(-s, axis=1, kind="stable")
    hits = np.take_along_axis(y, order, axis=1)
    # the deepest 0-based position a true label holds; -1 when there is none
    depth = np.where(hits == 1.0, np.arange(n_classes), -1).max(axis=1)
    empty = np.flatnonzero(depth < 0)
    if empty.size:
        raise ValueError(f"row {empty[0]} has no positive label")
    return float(depth.sum() / n)


def reference_ranking_loss(s, y):
    """(ranking loss, rows skipped) of checked scores and labels, one lexsort per row."""
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


def reference_sigmoid(z):
    """The clamped logistic of finite logits, through ``np.where``."""
    neg = np.exp(-np.abs(z))
    out = neg / (1.0 + neg)
    out = np.where(z >= 0.0, 1.0 - out, out)
    lo, hi = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
    return np.minimum(np.maximum(out, lo), hi)


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


def monte_carlo_instance(config, rng=None):
    """The clean labels, scores and class flip rates of a Monte Carlo check.

    They are the first draws of ``rng``, by default a new generator of the
    config's seed; the trials continue from the state this leaves.
    """
    if rng is None:
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
    return y, scores, betas


def reference_monte_carlo(config, regime, trials):
    """(clean mAP, closed-form mAP, per-trial noisy mAP) one trial at a time."""
    rng = np.random.default_rng(config.seed)
    n, n_classes = config.n_samples, config.n_classes
    y, scores, betas = monte_carlo_instance(config, rng)

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
