import numpy as np
import pytest

from spmlab.net import Mlp, make_rng, sigmoid, softmax

from oracles import fd_gradient, relative_error, straight_line_mlp


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert float(sigmoid(np.zeros((1, 1)))[0, 0]) == 0.5

    def test_large_positive_saturates_below_one(self):
        # float64 has no value in (1 - 1e-17, 1); the closest admissible
        # output is one ulp below 1, which is what the clip produces
        v = float(sigmoid(np.array([[40.0]]))[0, 0])
        assert v < 1.0
        assert 1.0 - v <= 2.0**-52  # one ulp below 1, the closest float to it

    def test_large_negative_stays_positive(self):
        v = float(sigmoid(np.array([[-800.0]]))[0, 0])
        assert v > 0.0

    def test_quarter_closed_form(self):
        v = float(sigmoid(np.array([[-np.log(3.0)]]))[0, 0])
        assert abs(v - 0.25) < 1e-15

    def test_monotone(self):
        z = np.linspace(-30, 30, 2001).reshape(1, -1)
        s = sigmoid(z)
        assert np.all(np.diff(s[0]) >= 0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            sigmoid(np.array([[np.nan]]))


class TestForward:
    def test_zero_weights_give_zero_logits(self):
        m = Mlp((3, 2), np.zeros(8))
        x = make_rng(0).standard_normal((4, 3))
        assert np.array_equal(m.forward(x), np.zeros((4, 2)))

    def test_identity_one_by_one(self):
        m = Mlp((1, 1), np.array([1.0, 0.0]))
        assert m.forward([[2.0]])[0, 0] == 2.0

    def test_matches_straight_line_oracle(self):
        rng = make_rng(7)
        m = Mlp.init((4, 5, 3), rng)
        x = np.ones((2, 4))
        logits = m.forward(x)
        for i in range(2):
            expect = straight_line_mlp(m.layer_sizes, m.params, x[i])
            np.testing.assert_allclose(logits[i], expect, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch_names_sizes(self):
        m = Mlp((3, 2), np.zeros(8))
        with pytest.raises(ValueError, match="2.*expects 3|expects 3"):
            m.forward(np.zeros((1, 2)))

    def test_deterministic(self):
        rng = make_rng(3)
        m = Mlp.init((3, 4, 2), rng)
        x = make_rng(1).standard_normal((6, 3))
        assert np.array_equal(m.forward(x), m.forward(x))


class TestBackward:
    def test_zero_upstream_gives_zero_grad(self):
        rng = make_rng(2)
        m = Mlp.init((3, 4, 2), rng)
        x = rng.standard_normal((5, 3))
        g = m.backward(x, np.zeros((5, 2)))
        assert np.array_equal(g, np.zeros(m.n_params))

    def test_hand_chain_rule_single_param(self):
        m = Mlp((1, 1), np.array([0.5, -0.2]))
        g = m.backward([[3.0]], [[2.0]])
        np.testing.assert_allclose(g, [6.0, 2.0])

    def test_finite_difference_agreement(self):
        rng = make_rng(11)
        m = Mlp.init((3, 4, 3), rng)
        x = rng.standard_normal((4, 3))
        upstream = rng.standard_normal((4, 3))

        def scalar(theta):
            return float((upstream * m.with_params(theta).forward(x)).sum())

        analytic = m.backward(x, upstream)
        numeric = fd_gradient(scalar, m.params, h=1e-5)
        assert relative_error(analytic, numeric) < 1e-6

    def test_shape_mismatch(self):
        m = Mlp((3, 2), np.zeros(8))
        with pytest.raises(ValueError, match="shape"):
            m.backward(np.zeros((4, 3)), np.zeros((4, 3)))


class TestSgdStep:
    def test_zero_grad_keeps_params(self):
        m = Mlp((2, 2), np.arange(6, dtype=float))
        m2 = m.sgd_step(np.zeros(6), 0.1)
        assert np.array_equal(m2.params, m.params)

    def test_arithmetic(self):
        m = Mlp((1, 1), np.array([1.0, 0.0]))
        m2 = m.sgd_step(np.array([2.0, 0.0]), 0.5)
        assert m2.params[0] == 0.0

    def test_two_steps_equal_summed_grads(self):
        rng = make_rng(5)
        m = Mlp.init((3, 2), rng)
        g1 = rng.standard_normal(m.n_params)
        g2 = rng.standard_normal(m.n_params)
        via_two = m.sgd_step(g1, 0.01).sgd_step(g2, 0.01)
        via_one = m.sgd_step(g1 + g2, 0.01)
        np.testing.assert_allclose(via_two.params, via_one.params, atol=1e-15)

    def test_rejects_bad_lr_and_shape(self):
        m = Mlp((1, 1), np.zeros(2))
        with pytest.raises(ValueError):
            m.sgd_step(np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            m.sgd_step(np.zeros(3), 0.1)


class TestConstruction:
    def test_param_count(self):
        assert Mlp.param_count((32, 16, 19)) == 33 * 16 + 17 * 19
        assert Mlp.param_count((5, 3)) == 18

    def test_wrong_param_length_rejected(self):
        with pytest.raises(ValueError, match="expects 8"):
            Mlp((3, 2), np.zeros(7))

    def test_init_bounds_and_determinism(self):
        m1 = Mlp.init((16, 8, 4), make_rng(9))
        m2 = Mlp.init((16, 8, 4), make_rng(9))
        assert np.array_equal(m1.params, m2.params)
        first_layer = m1.params[: 17 * 8]
        assert np.all(np.abs(first_layer) <= 1.0 / 4.0)

    def test_rejects_nonfinite_params(self):
        with pytest.raises(ValueError):
            Mlp((1, 1), np.array([np.inf, 0.0]))

    def test_rejects_extra_layers(self):
        with pytest.raises(ValueError):
            Mlp((2, 2, 2, 2), np.zeros(18))


class TestCachedViews:
    """The kernels read ``params`` through views built once, at construction."""

    @pytest.mark.parametrize("sizes", [(5, 3), (5, 4, 3)])
    def test_in_place_update_reaches_forward_and_backprop(self, sizes):
        rng = make_rng(12)
        m = Mlp.init(sizes, rng)
        x = rng.standard_normal((6, sizes[0]))
        g = rng.standard_normal((6, sizes[-1]))
        m._forward_cached(x)
        m.params -= 0.5 * rng.standard_normal(m.n_params)
        fresh = Mlp(m.layer_sizes, m.params.copy())
        logits, acts = m._forward_cached(x)
        fresh_logits, fresh_acts = fresh._forward_cached(x)
        assert np.array_equal(logits, fresh_logits)
        assert all(np.array_equal(a, b) for a, b in zip(acts, fresh_acts))
        assert np.array_equal(m._backprop(acts, g), fresh._backprop(fresh_acts, g))

    def test_with_params_copy_ignores_later_updates(self):
        rng = make_rng(13)
        m = Mlp.init((5, 4, 3), rng)
        x = rng.standard_normal((6, 5))
        copy = m.with_params(m.params)
        before = copy.forward(x)
        m.params -= 1.0
        assert np.array_equal(copy.forward(x), before)
        assert not np.array_equal(m.forward(x), before)


def test_softmax_rows_sum_to_one():
    z = make_rng(4).standard_normal((6, 5)) * 30
    s = softmax(z)
    np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(s > 0)
