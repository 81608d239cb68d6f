import numpy as np
import pytest

from spmlab.ema import (
    ema_update_predictions,
    ema_update_weights,
    init_dual_ema,
    make_pseudo_labels,
)
from spmlab.net import make_rng


def fresh_state(n_params=3, n_train=6, n_classes=2, **kw):
    return init_dual_ema(np.zeros(n_params), n_train, n_classes, **kw)


class TestWeightEma:
    def test_single_step(self):
        st = fresh_state(beta_t=0.999)
        ema_update_weights(st, np.ones(3))
        np.testing.assert_allclose(st.teacher_params, 0.001, atol=1e-15)

    def test_geometric_closed_form(self):
        st = fresh_state(beta_t=0.999)
        theta0 = st.teacher_params.copy()
        student = np.full(3, 2.5)
        for _ in range(100):
            ema_update_weights(st, student)
        expect = student + (theta0 - student) * 0.999**100
        np.testing.assert_allclose(st.teacher_params, expect, atol=1e-12)

    def test_beta_zero_copies_student(self):
        st = fresh_state(beta_t=0.0)
        ema_update_weights(st, np.full(3, 7.0))
        np.testing.assert_allclose(st.teacher_params, 7.0)

    def test_length_mismatch(self):
        st = fresh_state()
        with pytest.raises(ValueError, match="shape"):
            ema_update_weights(st, np.zeros(4))

    def test_low_pass_reduces_variance(self):
        # iid noise around a fixed point: the teacher trajectory must be
        # strictly calmer than the student sequence feeding it
        rng = make_rng(0)
        st = fresh_state(n_params=1, beta_t=0.95)
        st.teacher_params = np.array([1.0])
        student_vals, teacher_vals = [], []
        for _ in range(1000):
            s = 1.0 + rng.standard_normal(1)
            ema_update_weights(st, s)
            student_vals.append(s[0])
            teacher_vals.append(st.teacher_params[0])
        ratio = np.var(teacher_vals) / np.var(student_vals)
        assert ratio < 1.0


class TestPredictionEma:
    def test_first_visit_copies(self):
        st = fresh_state()
        ema_update_predictions(st, [2], np.array([[0.6, 0.4]]))
        np.testing.assert_allclose(st.smoothed_preds[2], [0.6, 0.4])
        assert st.visited[2]

    def test_recursion(self):
        st = fresh_state(beta_s=0.8)
        ema_update_predictions(st, [0], np.array([[0.5, 0.5]]))
        ema_update_predictions(st, [0], np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(st.smoothed_preds[0], 0.6)

    def test_batch_of_seen_and_unseen_samples(self):
        # the seen sample is smoothed and the unseen one copied, in one batch
        st = fresh_state(beta_s=0.8)
        ema_update_predictions(st, [0], np.array([[0.5, 0.5]]))
        ema_update_predictions(st, [0, 3], np.array([[1.0, 1.0], [0.3, 0.7]]))
        smoothed = 0.8 * 0.5 + (1.0 - 0.8) * 1.0
        assert np.array_equal(st.smoothed_preds[[0, 3]], [[smoothed, smoothed], [0.3, 0.7]])
        assert st.visited[[0, 3]].all()

    def test_converges_geometrically(self):
        st = fresh_state(beta_s=0.8)
        ema_update_predictions(st, [0], np.array([[0.0, 0.0]]))
        for k in range(1, 30):
            ema_update_predictions(st, [0], np.array([[1.0, 1.0]]))
            expect = 1.0 - 0.8**k
            np.testing.assert_allclose(st.smoothed_preds[0], expect, atol=1e-12)

    def test_index_out_of_range(self):
        st = fresh_state()
        with pytest.raises(ValueError, match="out of range"):
            ema_update_predictions(st, [6], np.array([[0.5, 0.5]]))

    def test_rejects_bad_probabilities(self):
        st = fresh_state()
        with pytest.raises(ValueError):
            ema_update_predictions(st, [0], np.array([[1.5, 0.5]]))

    @pytest.mark.parametrize("indices, message", [
        ([0, 6], "sample_indices must index the 6 samples, found 6 out of range at [1]"),
        ([-1], "sample_indices must index the 6 samples, found -1 out of range at [0]"),
    ], ids=["past-the-end", "negative"])
    def test_index_error_names_index_position_and_bound(self, indices, message):
        st = fresh_state()
        p = np.full((len(indices), 2), 0.5)
        with pytest.raises(ValueError) as exc:
            ema_update_predictions(st, indices, p)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            make_pseudo_labels(st, p, indices)
        assert str(exc.value) == message


class TestPseudoLabels:
    def test_gamma_one_is_teacher(self):
        st = fresh_state(gamma=1.0)
        ema_update_predictions(st, [0, 1], np.full((2, 2), 0.2))
        p_t = np.array([[0.9, 0.1], [0.3, 0.7]])
        np.testing.assert_array_equal(make_pseudo_labels(st, p_t, [0, 1]), p_t)

    def test_balanced_fusion(self):
        st = fresh_state(gamma=0.5)
        ema_update_predictions(st, [0], np.array([[0.8, 0.8]]))
        t = make_pseudo_labels(st, np.array([[0.6, 0.6]]), [0])
        np.testing.assert_allclose(t, 0.7)

    def test_convexity(self):
        rng = make_rng(1)
        st = fresh_state(n_train=50, gamma=0.3)
        idx = np.arange(50)
        p_s = rng.random((50, 2))
        ema_update_predictions(st, idx, p_s)
        p_t = rng.random((50, 2))
        t = make_pseudo_labels(st, p_t, idx)
        lo = np.minimum(p_t, st.smoothed_preds)
        hi = np.maximum(p_t, st.smoothed_preds)
        assert np.all(t >= lo - 1e-15) and np.all(t <= hi + 1e-15)
        assert np.all((t >= 0.0) & (t <= 1.0))

    def test_raw_student_bypass(self):
        st = fresh_state(gamma=0.5)
        ema_update_predictions(st, [0], np.array([[0.0, 0.0]]))
        raw = np.array([[1.0, 1.0]])
        t = make_pseudo_labels(st, np.array([[0.5, 0.5]]), [0], student_probs=raw)
        np.testing.assert_allclose(t, 0.75)  # smoothed history ignored

    def test_unvisited_sample_rejected(self):
        st = fresh_state()
        with pytest.raises(ValueError, match="never visited"):
            make_pseudo_labels(st, np.full((1, 2), 0.5), [3])


def test_coefficients_validated():
    with pytest.raises(ValueError):
        fresh_state(beta_t=1.5)
    with pytest.raises(ValueError):
        fresh_state(gamma=-0.1)


@pytest.mark.parametrize("changes, message", [
    ({"beta_t": 1.5}, "beta_t must be in [0, 1], got 1.5"),
    ({"beta_t": float("nan")}, "beta_t must be finite, got nan"),
    ({"beta_s": -0.1}, "beta_s must be in [0, 1], got -0.1"),
    ({"beta_s": float("inf")}, "beta_s must be finite, got inf"),
    ({"gamma": 2}, "gamma must be in [0, 1], got 2"),
    ({"gamma": float("-inf")}, "gamma must be finite, got -inf"),
    # two bad coefficients: the first declared is named
    ({"beta_s": 2.0, "beta_t": float("nan")}, "beta_t must be finite, got nan"),
])
def test_coefficient_rule_names_field_and_value(changes, message):
    with pytest.raises(ValueError) as exc:
        fresh_state(**changes)
    assert str(exc.value) == message
