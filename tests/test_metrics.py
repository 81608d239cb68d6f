import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spmlab import losses as L
from spmlab import metrics
from spmlab.data import MultiLabelDataset
from spmlab.ema import (
    ema_update_predictions,
    ema_update_weights,
    init_dual_ema,
    make_pseudo_labels,
)
from spmlab.metrics import (
    MonteCarloConfig,
    average_precision,
    compute_metric_report,
    coverage,
    estimate_proposition_bounds,
    mean_average_precision,
    monte_carlo_proposition_check,
    noisy_metric_transform,
    ranking_loss,
    thresholded_metrics,
    _average_precisions,
    _class_average_precisions,
    _class_order,
    _coverage,
    _kept_average_precisions,
    _lowest_flip_map,
    _macro_mean,
    _ranked_positives,
    _ranking_loss_counted,
    _trial_maps,
)
from spmlab.net import make_rng
from spmlab.noise import compute_flip_rates, simulate_dominant_spml, simulate_random_spml

from oracles import (
    _reference_average_precisions,
    brute_best_flip_ap,
    brute_coverage,
    brute_mean_average_precision,
    brute_ranking_loss,
    monte_carlo_instance,
    reference_class_order,
    reference_coverage,
    reference_monte_carlo,
    reference_ranking_loss,
)


def random_instance(rng, tie_free=True):
    n = int(rng.integers(2, 31))
    n_classes = int(rng.integers(2, 9))
    scores = rng.standard_normal((n, n_classes))
    if not tie_free:
        scores = np.round(scores, 1)  # force frequent ties
    labels = (rng.random((n, n_classes)) < 0.4).astype(float)
    labels[labels.sum(axis=1) == 0, 0] = 1.0
    full = np.flatnonzero(labels.sum(axis=1) == n_classes)
    labels[full, 0] = 1.0  # keep rows from being all-positive only sometimes
    return scores, labels


class TestAveragePrecision:
    def test_hand_enumerated_case(self):
        ap = average_precision([0.9, 0.8, 0.1], [1, 0, 1])
        assert abs(ap - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12

    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_reversed_ranking(self):
        assert average_precision([0.9, 0.8, 0.7, 0.1], [0, 0, 0, 1]) == 0.25

    def test_zero_positives_rejected(self):
        with pytest.raises(ValueError, match="no positive"):
            average_precision([0.5, 0.4], [0, 0])

    def test_ties_break_by_ascending_index(self):
        # equal scores: sample 0 is ranked first by convention
        assert average_precision([0.5, 0.5], [1, 0]) == 1.0
        assert average_precision([0.5, 0.5], [0, 1]) == 0.5

    @pytest.mark.parametrize("scores, match", [
        ([np.nan, 1.0, 0.5], "non-finite"),
        ([np.inf, 1.0, 0.5], "non-finite"),
        ([[0.9, 0.8, 0.1]], "1-D"),
    ])
    def test_bad_scores_rejected(self, scores, match):
        with pytest.raises(ValueError, match=match):
            average_precision(scores, [1, 0, 0])

    def test_two_d_labels_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            average_precision([0.9, 0.8], [[1, 0]])

    def test_monotone_in_positive_score(self):
        rng = make_rng(0)
        for _ in range(50):
            scores = rng.standard_normal(12)
            labels = (rng.random(12) < 0.4).astype(float)
            if labels.sum() == 0:
                labels[3] = 1.0
            base = average_precision(scores, labels)
            k = int(rng.choice(np.flatnonzero(labels == 1.0)))
            raised = scores.copy()
            raised[k] += abs(rng.standard_normal()) + 1e-3
            assert average_precision(raised, labels) >= base - 1e-12


class TestMeanAveragePrecision:
    def test_perfect(self):
        value, _ = mean_average_precision(
            [[0.9, 0.1], [0.2, 0.8]], [[1, 0], [0, 1]]
        )
        assert value == 1.0

    def test_mean_of_mixed_classes(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.9], [0.1, 0.2]])
        labels = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        value, per_class = mean_average_precision(scores, labels)
        assert per_class[0] == 1.0
        assert abs(value - (per_class[0] + per_class[1]) / 2.0) < 1e-15

    def test_non_evaluable_class_excluded(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        labels = np.array([[1.0, 0.0], [1.0, 0.0]])
        value, per_class = mean_average_precision(scores, labels)
        assert np.isnan(per_class[1])
        assert value == per_class[0]

    def test_no_evaluable_class_rejected(self):
        with pytest.raises(ValueError, match="mAP undefined"):
            mean_average_precision([[0.5]], [[0.0]])


# Every public array boundary of the package checks the same rules and
# reports a violation as the metrics do: argument, rule, first offending
# value and its 0-based position.
P = [[0.9, 0.2], [0.3, 0.8]]
Y = [[1.0, 0.0], [0.0, 1.0]]
HALF = [[1.0, 0.5], [0.0, 1.0]]       # non-binary at [0, 1]
OVER = [[0.9, 1.5], [0.3, 0.8]]       # outside [0, 1] at [0, 1]
UNDER = [[0.9, 0.2], [-0.25, 0.8]]    # outside [0, 1] at [1, 0]
NOT_BINARY = "must be binary (0/1), found 0.5 at [0, 1]"
ABOVE_ONE = "must lie in [0, 1], found 1.5 at [0, 1]"
BELOW_ZERO = "must lie in [0, 1], found -0.25 at [1, 0]"
X = np.zeros((2, 3))


def fresh_ema():
    return init_dual_ema(np.zeros(3), 2, 2)


def visited_ema():
    state = fresh_ema()
    ema_update_predictions(state, [0, 1], P)
    return state


BOUNDARY_CASES = [
    *[pytest.param(f, "y_observed " + NOT_BINARY, id=f"{name}-y_observed") for name, f in [
        ("loss_an", lambda: L.loss_an(P, HALF)),
        ("loss_an_ls", lambda: L.loss_an_ls(P, HALF, 0.1)),
        ("loss_wan", lambda: L.loss_wan(P, HALF, 0.5)),
        ("loss_epr", lambda: L.loss_epr(P, HALF, 1.0)),
        ("loss_iun", lambda: L.loss_iun(P, HALF, np.zeros((2, 2)))),
        ("reg_gc", lambda: L.reg_gc(P, P, HALF)),
    ]],
    pytest.param(lambda: L.loss_iun(P, Y, HALF), "true_negative_mask " + NOT_BINARY,
                 id="loss_iun-true_negative_mask"),
    *[pytest.param(f, "p " + ABOVE_ONE, id=f"{name}-p") for name, f in [
        ("loss_an", lambda: L.loss_an(OVER, Y)),
        ("loss_an_ls", lambda: L.loss_an_ls(OVER, Y, 0.1)),
        ("loss_wan", lambda: L.loss_wan(OVER, Y, 0.5)),
        ("loss_epr", lambda: L.loss_epr(OVER, Y, 1.0)),
        ("loss_iun", lambda: L.loss_iun(OVER, Y, np.zeros((2, 2)))),
        ("reg_gc_binary", lambda: L.reg_gc_binary(OVER, P)),
        ("reg_gc", lambda: L.reg_gc(OVER, P, Y)),
        ("loss_adagc", lambda: L.loss_adagc(OVER, Y, P, 1.0)),
    ]],
    *[pytest.param(f, "t " + BELOW_ZERO, id=f"{name}-t") for name, f in [
        ("reg_gc_binary", lambda: L.reg_gc_binary(P, UNDER)),
        ("reg_gc", lambda: L.reg_gc(P, UNDER, Y)),
        ("loss_adagc", lambda: L.loss_adagc(P, Y, UNDER, 1.0)),
    ]],
    pytest.param(lambda: L.loss_adagc(P, UNDER, P, 1.0), "y " + BELOW_ZERO, id="loss_adagc-y"),
    pytest.param(lambda: L.reg_elr_mcc([[1.5, -0.5], [0.5, 0.5]], [[0.5, 0.5]] * 2),
                 "p_simplex must lie in [0, 1], found 1.5 at [0, 0]", id="reg_elr_mcc-p_simplex"),
    pytest.param(lambda: L.reg_elr_mcc([[0.5, 0.5]] * 2, [[0.5, 0.5], [-0.5, 1.5]]),
                 "t_simplex must lie in [0, 1], found -0.5 at [1, 0]", id="reg_elr_mcc-t_simplex"),
    pytest.param(lambda: L.loss_an(np.full((2, 3), 0.5), Y),
                 "y_observed must have shape (2, 3) to match p, found shape (2, 2)",
                 id="loss_an-shape"),
    pytest.param(lambda: ema_update_weights(fresh_ema(), np.zeros(4)),
                 "student_params must have shape (3,) to match teacher_params, found shape (4,)",
                 id="ema_update_weights-shape"),
    pytest.param(lambda: ema_update_predictions(fresh_ema(), [0, 1], OVER),
                 "p_batch " + ABOVE_ONE, id="ema_update_predictions-p_batch"),
    pytest.param(lambda: make_pseudo_labels(visited_ema(), OVER, [0, 1]),
                 "teacher_probs " + ABOVE_ONE, id="make_pseudo_labels-teacher_probs"),
    pytest.param(lambda: make_pseudo_labels(fresh_ema(), P, [0, 1], UNDER),
                 "student_probs " + BELOW_ZERO, id="make_pseudo_labels-student_probs"),
    pytest.param(lambda: simulate_random_spml(HALF, make_rng(0)), "y_true " + NOT_BINARY,
                 id="simulate_random_spml"),
    pytest.param(lambda: simulate_dominant_spml(HALF, Y), "y_true " + NOT_BINARY,
                 id="simulate_dominant_spml"),
    pytest.param(lambda: compute_flip_rates(HALF, Y), "y_true " + NOT_BINARY,
                 id="compute_flip_rates-y_true"),
    pytest.param(lambda: compute_flip_rates(Y, HALF), "y_observed " + NOT_BINARY,
                 id="compute_flip_rates-y_observed"),
    pytest.param(lambda: MultiLabelDataset(X, HALF), "y_true " + NOT_BINARY, id="dataset-y_true"),
    pytest.param(lambda: MultiLabelDataset(X, Y, HALF), "y_observed " + NOT_BINARY,
                 id="dataset-y_observed"),
    pytest.param(lambda: MultiLabelDataset(X, [[1.0, 0.0], [0.0, 0.0]]),
                 "y_true must have a positive label in every row, found no positive label in row 1",
                 id="dataset-empty-row"),
    pytest.param(lambda: MultiLabelDataset(X, Y, extents=[[1.5, -0.5], [0.3, 0.7]]),
                 "extents must be non-negative, found -0.5 at [0, 1]", id="dataset-negative-extent"),
    pytest.param(lambda: MultiLabelDataset(X, Y, extents=[[1.0, 0.0], [0.3, 0.7]]),
                 "extents must be zero where the label is 0, found 0.3 at [1, 0]",
                 id="dataset-extent-where-label-is-0"),
    pytest.param(lambda: MultiLabelDataset(X, Y, extents=[[1.0, 0.0], [0.0, 0.0]]),
                 "extents must be positive on a true-positive cell, found 0.0 at [1, 1]",
                 id="dataset-zero-extent-on-positive"),
]


class TestLabelsMustBeBinary:
    SCORES = [[0.9, 0.2], [0.3, 0.8]]

    @pytest.mark.parametrize("metric, labels, found", [
        (coverage, [[1, 0.5], [0.5, 1]], "0.5 at [0, 1]"),
        (ranking_loss, [[1, 2], [0, 1]], "2.0 at [0, 1]"),
        (thresholded_metrics, [[1, 0.5], [0, 1]], "0.5 at [0, 1]"),
        (mean_average_precision, [[-1, 1], [-1, 0]], "-1.0 at [0, 0]"),
        (compute_metric_report, [[1, 0], [0, 0.25]], "0.25 at [1, 1]"),
        (lambda s, y: average_precision(np.ravel(s), np.ravel(y)), [[1, 0], [3, 0]],
         "3.0 at [2, 0]"),
    ])
    def test_non_binary_labels_rejected_by_name_and_value(self, metric, labels, found):
        with pytest.raises(ValueError, match=r"labels must be binary \(0/1\), found " + re.escape(found)):
            metric(self.SCORES, labels)

    @pytest.mark.parametrize("call, message", BOUNDARY_CASES)
    def test_every_boundary_names_argument_value_and_position(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("call, message", BOUNDARY_CASES)
    def test_every_boundary_carries_argument_and_position(self, call, message):
        # the attributes say what the message says, for callers that re-map positions
        with pytest.raises(ValueError) as exc:
            call()
        at = re.search(r"(?:at \[([\d, ]+)\]|in row (\d+))$", message)
        position = None if at is None else tuple(int(i) for i in (at[1] or at[2]).split(", "))
        assert (exc.value.name, exc.value.position) == (message.split()[0], position)


class TestCoverage:
    def test_hand_ranked_row(self):
        assert coverage([[0.9, 0.5, 0.1]], [[1.0, 0.0, 1.0]]) == 2.0

    def test_top_one_truth(self):
        assert coverage([[0.9, 0.5, 0.1]], [[1.0, 0.0, 0.0]]) == 0.0

    def test_all_positive_row_is_forced(self):
        assert coverage([[0.3, 0.9, 0.5]], [[1.0, 1.0, 1.0]]) == 2.0

    def test_row_without_positive_rejected(self):
        with pytest.raises(ValueError, match="row 0"):
            coverage([[0.5, 0.5]], [[0.0, 0.0]])


class TestRankingLoss:
    def test_hand_pair_enumeration(self):
        assert ranking_loss([[0.9, 0.5, 0.1]], [[1.0, 0.0, 1.0]]) == 0.5

    def test_perfectly_separated(self):
        assert ranking_loss([[0.9, 0.8, 0.1]], [[1.0, 1.0, 0.0]]) == 0.0

    def test_tie_counts_as_violation(self):
        assert ranking_loss([[0.5, 0.5]], [[1.0, 0.0]]) == 1.0

    def test_invalid_rows_skipped(self):
        scores = [[0.9, 0.1], [0.7, 0.3]]
        labels = [[1.0, 1.0], [1.0, 0.0]]  # first row has no negative
        assert ranking_loss(scores, labels) == 0.0

    def test_no_valid_rows_rejected(self):
        with pytest.raises(ValueError, match="no row"):
            ranking_loss([[0.9, 0.1]], [[1.0, 1.0]])


class TestThresholded:
    def test_perfect_predictions(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        oa, mf1, mprec, mrec, *_ = thresholded_metrics(probs, labels, 0.5)
        assert oa == 1.0 and mf1 == 1.0 and mprec == 1.0 and mrec == 1.0

    def test_zero_division_rule(self):
        probs = np.array([[0.1], [0.2]])
        labels = np.array([[1.0], [1.0]])
        _, mf1, mprec, mrec, prec, rec, f1 = thresholded_metrics(probs, labels)
        assert prec[0] == 0.0 and rec[0] == 0.0 and f1[0] == 0.0

    def test_two_by_two_confusion(self):
        probs = np.array([[0.9, 0.2], [0.4, 0.7]])
        labels = np.array([[1.0, 0.0], [1.0, 1.0]])
        oa, mf1, mprec, mrec, prec, rec, f1 = thresholded_metrics(probs, labels, 0.5)
        assert oa == 0.75
        np.testing.assert_allclose(prec, [1.0, 1.0])
        np.testing.assert_allclose(rec, [0.5, 1.0])
        np.testing.assert_allclose(f1, [2.0 / 3.0, 1.0])
        assert abs(mf1 - 5.0 / 6.0) < 1e-15


class TestOracleAgreement:
    def test_ranking_metrics_match_brute_force(self):
        rng = make_rng(42)
        for k in range(40):
            scores, labels = random_instance(rng, tie_free=(k % 2 == 0))
            value, _ = mean_average_precision(scores, labels)
            assert abs(value - brute_mean_average_precision(scores, labels)) <= 1e-12
            assert abs(coverage(scores, labels) - brute_coverage(scores, labels)) <= 1e-12
            try:
                rl = ranking_loss(scores, labels)
            except ValueError:
                continue
            assert abs(rl - brute_ranking_loss(scores, labels)) <= 1e-12

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_tie_heavy_scores_match_brute_force(self, data):
        n = data.draw(st.integers(1, 25))
        n_classes = data.draw(st.integers(1, 7))
        levels = data.draw(st.integers(1, 4))
        cells = n * n_classes
        scores = np.array(data.draw(st.lists(st.integers(0, levels), min_size=cells,
                                             max_size=cells)), dtype=float)
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=cells,
                                             max_size=cells)), dtype=float)
        scores = scores.reshape(n, n_classes) / levels
        labels = labels.reshape(n, n_classes)
        labels[labels.sum(axis=1) == 0, 0] = 1.0
        value, _ = mean_average_precision(scores, labels)
        assert abs(value - brute_mean_average_precision(scores, labels)) <= 1e-12
        assert abs(coverage(scores, labels) - brute_coverage(scores, labels)) <= 1e-12
        if np.all(labels == 1.0):
            with pytest.raises(ValueError, match="no row"):
                ranking_loss(scores, labels)
        else:
            assert abs(ranking_loss(scores, labels) - brute_ranking_loss(scores, labels)) <= 1e-12

    def test_per_class_ap_equals_per_column_average_precision(self):
        rng = make_rng(47)
        for k in range(20):
            scores, labels = random_instance(rng, tie_free=(k % 2 == 0))
            _, per_class = mean_average_precision(scores, labels)
            expect = [average_precision(scores[:, c], labels[:, c])
                      if labels[:, c].any() else np.nan for c in range(labels.shape[1])]
            assert np.array_equal(per_class, expect, equal_nan=True)

    def test_presorted_kernel_equals_public_map(self):
        # the Monte Carlo loop ranks every trial's labels by one fixed order
        rng = make_rng(48)
        scores = np.round(rng.standard_normal((300, 7)), 1)
        clean = (rng.random((300, 7)) < 0.3).astype(float)
        order = _class_order(scores)
        for _ in range(50):
            noisy = clean * (rng.random(clean.shape) >= 0.6)
            per_class = _average_precisions(order, noisy)
            value, expect = mean_average_precision(scores, noisy)
            assert np.array_equal(per_class, expect, equal_nan=True)
            assert _macro_mean(per_class) == value

    def test_permutation_invariance(self):
        rng = make_rng(43)
        scores, labels = random_instance(rng)
        perm = rng.permutation(scores.shape[0])
        v1, _ = mean_average_precision(scores, labels)
        v2, _ = mean_average_precision(scores[perm], labels[perm])
        assert abs(v1 - v2) <= 1e-12
        assert abs(coverage(scores, labels) - coverage(scores[perm], labels[perm])) <= 1e-12
        assert abs(ranking_loss(scores, labels) - ranking_loss(scores[perm], labels[perm])) <= 1e-12


# score palettes that force ties: a few quantised levels, values one ulp
# apart at the top of the sigmoid's range, and zeros of both signs
CLASS_ORDER_PALETTES = {
    "quantised": np.linspace(-1.0, 1.0, 5),
    "saturated": np.array([1.0 - 2.0**-53, 1.0 - 2.0**-52, 0.5]),
    "signed-zero": np.array([0.0, -0.0, 2.0**-1074]),
}


class TestClassOrder:
    """The two-pass ``_class_order`` against the stable argsort it replaced."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_stable_argsort_on_ties(self, data):
        palette = CLASS_ORDER_PALETTES[data.draw(st.sampled_from(sorted(CLASS_ORDER_PALETTES)))]
        n = data.draw(st.integers(1, 40))
        n_classes = data.draw(st.integers(1, 6))
        codes = data.draw(st.lists(st.integers(0, palette.size - 1),
                                   min_size=n * n_classes, max_size=n * n_classes))
        scores = palette[np.array(codes)].reshape(n, n_classes)
        # some columns hold one value throughout
        flat = data.draw(st.lists(st.booleans(), min_size=n_classes, max_size=n_classes))
        scores[:, flat] = scores[0, flat]
        assert np.array_equal(_class_order(scores), reference_class_order(scores))

    @pytest.mark.parametrize("first, second", [(20, 150), (0, 1), (0, 199), (198, 199)])
    def test_a_single_tie_in_one_class(self, first, second):
        # one tie makes the second sort run; without it, the first sort's order stands
        scores = make_rng(54).random((200, 5))
        scores[second, 3] = scores[first, 3]
        assert sum(np.unique(col).size < col.size for col in scores.T) == 1
        assert np.array_equal(_class_order(scores), reference_class_order(scores))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (9, 1), (0, 3), (3, 0)])
    def test_degenerate_shapes(self, shape):
        scores = np.round(make_rng(51).standard_normal(shape), 0)
        order = _class_order(scores)
        assert order.shape == shape[::-1]
        assert np.array_equal(order, reference_class_order(scores))

    @pytest.mark.parametrize("shape, levels", [
        ((1000, 19), None), ((2000, 19), 20), ((5000, 80), None), ((3000, 5), 2),
    ])
    def test_equals_stable_argsort_at_benchmark_shapes(self, shape, levels):
        scores = make_rng(52).random(shape)
        if levels is not None:
            scores = np.round(scores * levels) / levels
        else:  # tie-free: the order of the first, unstable sort is returned as is
            assert all(np.unique(col).size == col.size for col in scores.T)
        assert np.array_equal(_class_order(scores), reference_class_order(scores))


# cell values of the counted-kernel tests: in [0, 1] the ranking loss sorts
# an integer key, any score outside it sends the matrix to lexsort
EDGES = [0.0, -0.0, 1.0, 2.0**-1074, 0.5, 1.0 - 2.0**-53]
KERNEL_SCORES = {
    "tied": st.integers(0, 4).map(lambda k: k / 4),
    "continuous": st.floats(0.0, 1.0) | st.sampled_from(EDGES),
    "edges": st.sampled_from(EDGES),
    "outside-tied": st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 1.5]),
    "outside": st.floats(-3.0, 3.0) | st.sampled_from(EDGES),
}


def outcome(kernel, *args):
    """What ``kernel(*args)`` returns, or the type and message of the ValueError it raises."""
    try:
        return kernel(*args)
    except ValueError as exc:
        return ValueError, str(exc)


class TestCountedKernels:
    """``_coverage`` and ``_ranking_loss_counted`` against the sorting bodies they replaced,
    the equal-count sums of ``_kept_average_precisions`` against its per-segment sums, and
    ``_class_average_precisions`` against the keep-mask kernel."""

    @given(st.data())
    @settings(max_examples=250, deadline=None, derandomize=True)
    def test_bit_equal_to_the_sorting_references(self, data):
        kind = data.draw(st.sampled_from(sorted(KERNEL_SCORES)))
        n, n_classes = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 9))
        cells = n * n_classes
        scores = np.array(data.draw(st.lists(KERNEL_SCORES[kind], min_size=cells,
                                             max_size=cells))).reshape(n, n_classes)
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=cells,
                                             max_size=cells)), dtype=float).reshape(n, n_classes)
        # some rows all positive, a few all negative
        rows = np.array(data.draw(st.lists(st.sampled_from("rrrran"), min_size=n, max_size=n)))
        labels[rows == "a"] = 1.0
        labels[rows == "n"] = 0.0
        assert outcome(_coverage, scores, labels) == outcome(reference_coverage, scores, labels)
        assert (outcome(_ranking_loss_counted, scores, labels)
                == outcome(reference_ranking_loss, scores, labels))

    @pytest.mark.parametrize("shape, levels", [((20000, 19), 20), ((5000, 80), None)])
    def test_bit_equal_to_the_sorting_references_at_benchmark_shapes(self, shape, levels):
        rng = make_rng(55)
        scores = rng.random(shape)
        if levels is not None:
            scores = np.round(scores * levels) / levels
        labels = (rng.random(shape) < 0.2).astype(float)
        labels[labels.sum(axis=1) == 0, 0] = 1.0
        assert _coverage(scores, labels) == reference_coverage(scores, labels)
        assert _ranking_loss_counted(scores, labels) == reference_ranking_loss(scores, labels)

    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_equal_counts_sum_as_the_per_segment_loop(self, data):
        # tie-heavy scores; classes may be empty, and a trial may keep nothing
        rng = make_rng(data.draw(st.integers(0, 2**32 - 1)))
        n, n_classes = data.draw(st.integers(1, 400)), data.draw(st.integers(1, 6))
        scores = np.round(rng.random((n, n_classes)) * 8)
        clean = (rng.random((n, n_classes)) < rng.random(n_classes)).astype(float)
        clean[:, data.draw(st.lists(st.integers(0, n_classes - 1), max_size=2))] = 0.0
        bounds, depth, _ = _ranked_positives(_class_order(scores), clean)
        n_pos = np.diff(bounds)
        kept = [data.draw(st.integers(0, p)) for p in n_pos.tolist()]
        if data.draw(st.booleans()):
            kept = [0] * n_classes
        n_trials = data.draw(st.integers(2, 8))
        keep = np.zeros((n_trials, depth.size), dtype=bool)
        for t in range(n_trials):
            for c in range(n_classes):
                keep[t, bounds[c] + rng.permutation(n_pos[c])[:kept[c]]] = True
        per_class = _kept_average_precisions(bounds, depth, keep)
        loop = np.vstack([_kept_average_precisions(bounds, depth, row[None]) for row in keep])
        assert np.array_equal(per_class, loop, equal_nan=True)

    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_class_helper_equals_the_mask_kernel_bit_for_bit(self, data):
        # tie-heavy scores; classes may be empty, keep none or keep all
        rng = make_rng(data.draw(st.integers(0, 2**32 - 1)))
        n, n_classes = data.draw(st.integers(1, 400)), data.draw(st.integers(1, 6))
        scores = np.round(rng.random((n, n_classes)) * 8)
        clean = (rng.random((n, n_classes)) < rng.random(n_classes)).astype(float)
        clean[:, data.draw(st.lists(st.integers(0, n_classes - 1), max_size=2))] = 0.0
        bounds, depth, _ = _ranked_positives(_class_order(scores), clean)
        n_trials = data.draw(st.integers(1, 4))
        keep = np.zeros((n_trials, depth.size), dtype=bool)
        helper = np.empty((n_trials, n_classes))
        for c, p in enumerate(np.diff(bounds).tolist()):
            k = data.draw(st.sampled_from([0, p, data.draw(st.integers(0, p))]))
            pos = np.sort(bounds[c] + np.argsort(rng.random((n_trials, p)))[:, :k], axis=1)
            np.put_along_axis(keep, pos, True, axis=1)
            helper[:, c] = _class_average_precisions(depth, pos)
        kernel = np.vstack([_kept_average_precisions(bounds, depth, row[None]) for row in keep])
        assert np.array_equal(helper, kernel, equal_nan=True)


class TestNoisyMetricTransform:
    def test_worked_counts(self):
        (res,) = noisy_metric_transform([10], [8], [9], [7], [6])
        assert abs(res.noisy_recall - 2.0 / 3.0) < 1e-15
        assert res.noisy_recall == res.noisy_recall_parametric
        assert abs(res.noisy_precision - 2.0 / 9.0) < 1e-15
        assert res.noisy_precision == res.noisy_precision_parametric

    def test_no_flips_means_noisy_equals_clean(self):
        (res,) = noisy_metric_transform([10], [6], [8], [0], [0])
        assert res.noisy_recall == res.clean_recall
        assert res.noisy_recall_parametric == res.clean_recall
        assert res.noisy_precision_parametric == res.clean_precision

    def test_perfect_model_keeps_unit_recall(self):
        (res,) = noisy_metric_transform([10], [10], [10], [4], [4])
        assert res.noisy_recall == 1.0
        assert res.noisy_recall_parametric == 1.0

    def test_degenerate_cases_flagged(self):
        (res,) = noisy_metric_transform([5], [0], [0], [3], [0])
        assert "no_predicted_positives" in res.degenerate

    def test_degenerate_class_without_positives(self):
        # P = 0 forces F = 0, so the transform is the identity on undefined recalls
        (res,) = noisy_metric_transform([0], [0], [3], [0], [0])
        assert np.isnan([res.clean_recall, res.noisy_recall, res.noisy_recall_parametric,
                         res.alpha, res.beta]).all()
        assert (res.clean_precision, res.noisy_precision,
                res.noisy_precision_parametric) == (0.0, 0.0, 0.0)
        assert res.degenerate == ("no_true_positives",)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError, match="PF <= F <= P"):
            noisy_metric_transform([5], [5], [5], [6], [0])
        with pytest.raises(ValueError, match="PF <= TP"):
            noisy_metric_transform([5], [1], [5], [3], [2])
        for counts in (([[5]], [1], [5], [0], [0]), ([5, 5], [1], [5], [0], [0])):
            with pytest.raises(ValueError, match="^count vectors must be 1-D and of equal length$"):
                noisy_metric_transform(*counts)
        with pytest.raises(ValueError, match="^class 0: counts must be non-negative$"):
            noisy_metric_transform([5], [-1], [5], [0], [0])
        for counts in (([5], [6], [7], [0], [0]), ([5], [3], [2], [0], [0])):
            with pytest.raises(ValueError, match=r"^class 0: requires TP <= P and TP <= PP$"):
                noisy_metric_transform(*counts)

    @pytest.mark.parametrize("counts, match", [
        (([10.7], [5.9], [9], [3], [1]), "class 0: count P must be a whole number, got 10.7"),
        (([10], [6], [9], [3], [np.nan]), "class 0: count PF must be a whole number, got nan"),
        (([10, 8], [6, 5], [9, np.inf], [3, 2], [1, 1]), "class 1: count PP .* got inf"),
    ])
    def test_non_integer_counts_rejected(self, counts, match):
        with pytest.raises(ValueError, match=match):
            noisy_metric_transform(*counts)

    def test_identity_on_random_integer_fixtures(self):
        rng = make_rng(44)
        for _ in range(100):
            p = int(rng.integers(1, 50))
            f = int(rng.integers(0, p + 1))
            tp = int(rng.integers(0, p + 1))
            pf = int(rng.integers(0, min(f, tp) + 1))
            pp = int(rng.integers(tp, tp + 30))
            results = noisy_metric_transform([p], [tp], [pp], [f], [pf])
            res = results[0]
            if np.isnan(res.noisy_recall) or np.isnan(res.noisy_recall_parametric):
                continue
            assert res.noisy_recall == res.noisy_recall_parametric
            if not np.isnan(res.noisy_precision_parametric):
                assert res.noisy_precision == res.noisy_precision_parametric


class TestPropositionBounds:
    def test_uniform_beta_has_no_covariance_term(self):
        value = estimate_proposition_bounds([0.9, 0.5], [0.3, 0.3], "random")
        assert abs(value - 0.7 * 0.7) < 1e-15

    def test_two_class_worked_example(self):
        value = estimate_proposition_bounds([0.9, 0.5], [0.2, 0.8], "random")
        assert abs(value - 0.41) < 1e-12

    def test_dominant_uniform_scale(self):
        value = estimate_proposition_bounds([0.6, 0.8], [0.5, 0.5], "dominant")
        assert abs(value - 2.0 * 0.7) < 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            estimate_proposition_bounds([0.5], [0.5, 0.6], "random")
        with pytest.raises(ValueError):
            estimate_proposition_bounds([0.5], [1.0], "random")
        with pytest.raises(ValueError):
            estimate_proposition_bounds([0.5], [0.5], "weird")

    @pytest.mark.parametrize("clean_ap, beta, name", [
        ([0.5, np.nan], [0.3, 0.4], "clean_ap"),
        ([0.5, 0.6], [np.nan, 0.4], "beta"),
        ([np.inf, 0.6], [0.3, 0.4], "clean_ap"),
    ])
    def test_non_finite_inputs_rejected(self, clean_ap, beta, name):
        with pytest.raises(ValueError, match=f"{name} contains non-finite"):
            estimate_proposition_bounds(clean_ap, beta, "random")


class TestMonteCarlo:
    def test_small_smoke_random_direction(self):
        cfg = MonteCarloConfig(n_samples=400, n_classes=6, seed=1)
        rep = monte_carlo_proposition_check(cfg, "random", 100)
        assert rep.frac_below_clean > 0.95
        assert rep.measured_mean < rep.clean_map

    def test_small_smoke_dominant_direction(self):
        cfg = MonteCarloConfig(n_samples=400, n_classes=6, seed=1)
        rep = monte_carlo_proposition_check(cfg, "dominant", 100)
        assert rep.frac_above_clean > 0.95

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValueError, match="100"):
            monte_carlo_proposition_check(MonteCarloConfig(), "random", 50)

    def test_non_integer_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be an integer, got 100.5"):
            monte_carlo_proposition_check(MonteCarloConfig(), "random", 100.5)

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError, match="^unknown regime 'none'$"):
            monte_carlo_proposition_check(MonteCarloConfig(), "none", 100)

    @pytest.mark.parametrize("changes, message", [
        ({"n_samples": 0}, "n_samples must be at least 1, got 0"),
        ({"n_classes": 0}, "n_classes must be at least 1, got 0"),
        ({"mean_positives": -1}, "mean_positives must be positive, got -1"),
        ({"mean_positives": float("inf")}, "mean_positives must be finite, got inf"),
        ({"beta_low": -0.1}, "beta_low must be in [0, 1), got -0.1"),
        # beta_c would be exactly 1, outside the closed form's (0, 1)
        ({"beta_low": 1.0, "beta_high": 1.0}, "beta_low must be in [0, 1), got 1.0"),
        ({"beta_high": float("nan")}, "beta_high must be finite, got nan"),
        ({"beta_low": 0.9}, "beta_high must be in [beta_low, 1] and positive, got 0.8"),
        ({"beta_high": 1.5}, "beta_high must be in [beta_low, 1] and positive, got 1.5"),
        # beta_c would be exactly 0
        ({"beta_low": 0.0, "beta_high": 0.0},
         "beta_high must be in [beta_low, 1] and positive, got 0.0"),
        ({"margin_low": float("-inf")}, "margin_low must be finite, got -inf"),
        ({"margin_high": float("nan")}, "margin_high must be finite, got nan"),
        ({"margin_low": 3.0}, "margin_high must be at least margin_low, got 2.5"),
        ({"dominant_sharpness": float("nan")}, "dominant_sharpness must be finite, got nan"),
        ({"dominant_sharpness": 0.0}, "dominant_sharpness must be positive, got 0.0"),
    ])
    def test_config_rule_names_field_and_value(self, changes, message):
        with pytest.raises(ValueError) as exc:
            MonteCarloConfig(**changes)
        assert str(exc.value) == message

    @pytest.mark.parametrize("field, value", [("n_samples", 300.5), ("n_classes", 4.5),
                                              ("seed", 1.0), ("seed", "3")])
    def test_integer_field_rejects_a_non_integer(self, field, value):
        MonteCarloConfig(**{field: np.int64(value)})  # NumPy integers pass
        with pytest.raises(ValueError) as exc:
            MonteCarloConfig(**{field: value})
        assert str(exc.value) == f"{field} must be an integer, got {value!r}"

    @pytest.mark.parametrize("changes", [
        {"beta_low": 0.0, "beta_high": 1.0},
        {"beta_low": 0.5, "beta_high": 0.5},
        {"margin_low": 2.0, "margin_high": 2.0},
        {"n_classes": 1, "mean_positives": 0.5},
    ])
    def test_config_bounds_are_usable(self, changes):
        config = MonteCarloConfig(n_samples=300, seed=2, **changes)
        for regime in ("random", "dominant"):
            rep = monte_carlo_proposition_check(config, regime, 100)
            assert np.isfinite(rep.measured).all()

    @pytest.mark.parametrize("regime", ["random", "dominant"])
    @pytest.mark.parametrize("config, trials", [
        pytest.param(MonteCarloConfig(seed=0), 500, id="bench-seed0"),
        pytest.param(MonteCarloConfig(seed=7), 500, id="bench-seed7"),
        # 3000 x 19 cells give chunks of 5 trials, so the last chunk has one
        pytest.param(MonteCarloConfig(n_samples=3000, seed=3), 101, id="partial-chunk"),
        # 12, 22 and 4 of 12, 24 and 4 positives flip: whole classes empty out
        pytest.param(MonteCarloConfig(n_samples=30, n_classes=3, mean_positives=1.2,
                                      beta_low=0.9, beta_high=0.97, seed=30), 100,
                     id="class-all-flipped"),
        # n_flip is 2, 1, 0, 0, 0: the last three classes draw nothing
        pytest.param(MonteCarloConfig(n_samples=60, n_classes=5, mean_positives=1.5,
                                      beta_low=0.005, beta_high=0.08, seed=0), 100,
                     id="no-flip-classes"),
        pytest.param(MonteCarloConfig(n_samples=300, n_classes=2, mean_positives=1.0,
                                      seed=4), 100, id="two-classes"),
    ])
    def test_trials_bit_equal_to_per_trial_reference(self, config, trials, regime):
        rep = monte_carlo_proposition_check(config, regime, trials)
        clean_map, predicted_map, measured = reference_monte_carlo(config, regime, trials)
        assert np.array_equal(rep.measured, measured)
        assert rep.clean_map == clean_map
        assert rep.predicted_map == predicted_map

    @pytest.mark.parametrize("regime", ["random", "dominant"])
    def test_trials_bit_equal_whatever_the_chunk_size(self, regime, monkeypatch):
        # 2000 x 19 cells give chunks of 8 trials, so the last chunk has 4
        config = MonteCarloConfig(n_samples=2000, seed=5)
        chunked = monte_carlo_proposition_check(config, regime, 100).measured
        for cells in (1, 2000 * 19 * 100):  # one trial per chunk, all trials in one
            monkeypatch.setattr(metrics, "_CHUNK_CELLS", cells)
            rep = monte_carlo_proposition_check(config, regime, 100)
            assert np.array_equal(rep.measured, chunked)

    @pytest.mark.parametrize("regime", ["random", "dominant"])
    @pytest.mark.parametrize("config", [
        pytest.param(MonteCarloConfig(seed=0), id="bench"),
        # few classes flip, so the uniforms of a trial are far fewer than its positives
        pytest.param(MonteCarloConfig(beta_low=0.0005, beta_high=0.002, seed=0), id="few-flips"),
    ])
    def test_chunk_keep_masks_stay_within_the_cell_bound(self, config, regime, monkeypatch):
        shapes = []

        def kept(bounds, depth, keep):
            shapes.append(keep.shape)
            return _kept_average_precisions(bounds, depth, keep)

        # a dominant chunk builds no keep-mask: its widest arrays are its
        # uniforms, one per positive of each class with flips, and its APs
        y, _, betas = monte_carlo_instance(config)
        n_pos = y.sum(axis=0)
        uniforms = sum(p for p, b in zip(n_pos, betas) if int(round(b * p)))

        def trial_maps(per_class):
            shapes.append((per_class.shape[0], max(uniforms, per_class.shape[1])))
            return _trial_maps(per_class)

        if regime == "random":
            monkeypatch.setattr(metrics, "_kept_average_precisions", kept)
        else:
            monkeypatch.setattr(metrics, "_trial_maps", trial_maps)
        monte_carlo_proposition_check(config, regime, 100)
        assert max(t * m for t, m in shapes) <= metrics._CHUNK_CELLS
        assert max(t for t, _ in shapes) > 1

    @pytest.mark.parametrize("regime", ["random", "dominant"])
    @pytest.mark.parametrize("config, error", [
        # classes 0 and 3 of 6 have no clean positive
        pytest.param(MonteCarloConfig(n_samples=12, n_classes=6, mean_positives=1.5, seed=34),
                     "clean_ap contains non-finite entries", id="empty-classes"),
        # every positive flips in some trial
        pytest.param(MonteCarloConfig(n_samples=4, n_classes=2, mean_positives=1.0,
                                      beta_low=0.9, beta_high=0.97, seed=0),
                     "no class has positive labels", id="all-flipped"),
    ])
    def test_same_error_as_per_trial_reference(self, config, error, regime):
        with pytest.raises(ValueError, match=error):
            reference_monte_carlo(config, regime, 100)
        with pytest.raises(ValueError, match=error):
            monte_carlo_proposition_check(config, regime, 100)

    def test_kept_kernel_with_empty_classes_equals_reference(self):
        # empty classes first, in the middle and last; some trials keep nothing
        rng = make_rng(49)
        scores = np.round(rng.standard_normal((40, 7)), 1)
        clean = (rng.random((40, 7)) < 0.3).astype(float)
        clean[:, [0, 3, 6]] = 0.0
        order = _class_order(scores)
        bounds, depth, sample = _ranked_positives(order, clean)
        cls = np.repeat(np.arange(7), np.diff(bounds))
        keep = rng.random((30, depth.size)) < rng.random((30, 1))
        keep[:3] = False
        per_class = _kept_average_precisions(bounds, depth, keep)
        for row, kept in zip(per_class, keep):
            noisy = np.zeros_like(clean)
            noisy[sample[kept], cls[kept]] = 1.0
            assert np.array_equal(row, _reference_average_precisions(order, noisy),
                                  equal_nan=True)

    @pytest.mark.parametrize("config, trials", [
        pytest.param(MonteCarloConfig(n_samples=2000, n_classes=19, seed=7), 500, id="seed7"),
        pytest.param(MonteCarloConfig(n_samples=400, n_classes=6, seed=1), 100, id="small"),
        pytest.param(MonteCarloConfig(n_samples=60, n_classes=3, mean_positives=1.2,
                                      dominant_sharpness=0.5, seed=2), 300, id="tiny-soft"),
    ])
    def test_dominant_trials_never_exceed_the_ceiling(self, config, trials):
        rep = monte_carlo_proposition_check(config, "dominant", trials)
        assert np.all(rep.measured <= rep.ceiling_map) and rep.ceiling_map <= 1.0
        assert monte_carlo_proposition_check(config, "random", 100).ceiling_map is None

    def test_lowest_flip_maximises_ap_over_all_flip_sets(self):
        # tie-heavy scores: the ceiling's ranking follows the documented tie rule
        rng = make_rng(50)
        for _ in range(60):
            n, n_classes = int(rng.integers(3, 10)), int(rng.integers(1, 4))
            scores = rng.integers(0, 3, (n, n_classes)).astype(float)
            labels = (rng.random((n, n_classes)) < 0.6).astype(float)
            labels[0] = 1.0  # every class has a positive
            n_pos = labels.sum(axis=0).astype(int)
            n_flip = np.array([int(rng.integers(0, p)) for p in n_pos])
            bounds, depth, _ = _ranked_positives(_class_order(scores), labels)
            best = [brute_best_flip_ap(scores[:, c], labels[:, c], n_flip[c])
                    for c in range(n_classes)]
            assert abs(_lowest_flip_map(bounds, depth, n_flip) - np.mean(best)) <= 1e-12


class TestMetricReport:
    def test_report_round_trips_through_json(self):
        rng = make_rng(45)
        scores, labels = random_instance(rng)
        report = compute_metric_report(np.clip(scores, 0.01, 0.99), labels)
        back = json.loads(json.dumps(report.to_json_dict()))
        assert back["map"] == report.map
        assert back["coverage"] == report.coverage
        assert [v is None for v in back["ap_per_class"]] == np.isnan(report.ap_per_class).tolist()

    def test_report_keys_match_table_names(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        d = compute_metric_report(probs, labels).to_json_dict()
        for key in ("map", "coverage", "rankloss", "oa", "mf1", "mprecision", "mrecall"):
            assert key in d
