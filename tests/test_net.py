import numpy as np
import pytest

from spmlab.losses import _clip
from spmlab.net import Mlp, _sigmoid, make_rng, sigmoid, softmax

from oracles import fd_gradient, relative_error, reference_sigmoid, straight_line_mlp

EXTREME_LOGITS = np.array([[-800.0, -745.0, -40.0, -28.0, -1e-300, -0.0],
                           [0.0, 5e-324, 1e-8, 27.6, 37.0, 800.0]])


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

    def test_in_place_kernel_equals_reference_bit_for_bit(self):
        z = np.concatenate([EXTREME_LOGITS, make_rng(14).standard_normal((4, 6)) * 30])
        assert sigmoid(z).tobytes() == reference_sigmoid(z).tobytes()

    def test_unclamped_kernel_clips_to_the_same_probabilities(self):
        # the clamp into (0, 1) lies outside _clip's bounds, so skipping it changes nothing
        z = np.concatenate([EXTREME_LOGITS, make_rng(15).standard_normal((4, 6)) * 30])
        unclamped = _sigmoid(z, clamped=False)
        assert unclamped[0, 0] == 0.0 and unclamped[1, -1] == 1.0
        assert _clip(unclamped).tobytes() == _clip(_sigmoid(z)).tobytes()


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


class TestStackedPass:
    """A model over a (2, P) buffer forwards both rows in one pass."""

    @staticmethod
    def _pair(sizes, seed):
        rng = make_rng(seed)
        rows = [Mlp.init(sizes, rng) for _ in range(2)]
        buffer = np.stack([m.params for m in rows])
        return rows, buffer, Mlp._over(sizes, buffer), rng

    @pytest.mark.parametrize("sizes", [(8, 6), (8, 8, 6), (32, 19), (32, 8, 19)],
                             ids=["hidden0", "hidden8", "hidden0-suite", "hidden8-suite"])
    def test_equals_two_separate_passes_bit_for_bit(self, sizes):
        rows, buffer, pair, rng = self._pair(sizes, len(sizes))
        for n in (1, 7, 32):
            x = rng.standard_normal((n, sizes[0]))
            logits, acts = pair._forward_cached(x)
            assert logits.shape == (2, n, sizes[-1])
            for r, m in enumerate(rows):
                row_logits, row_acts = m._forward_cached(x)
                assert np.array_equal(logits[r], row_logits)
                assert all(np.array_equal(a if a.ndim == 2 else a[r], b)
                           for a, b in zip(acts, row_acts))

    @pytest.mark.parametrize("sizes", [(8, 6), (8, 8, 6)], ids=["hidden0", "hidden8"])
    def test_rows_view_the_buffer(self, sizes):
        rows, buffer, pair, rng = self._pair(sizes, 3)
        x = rng.standard_normal((5, sizes[0]))
        student = Mlp._over(sizes, buffer[0])
        assert all(np.shares_memory(v, buffer) for layer in pair._layers for v in layer)
        assert all(np.shares_memory(v, buffer[0]) for layer in student._layers for v in layer)
        buffer[1] *= 0.5
        assert np.array_equal(pair._forward_cached(x)[0][1],
                              Mlp(sizes, buffer[1])._forward_cached(x)[0])
        assert np.array_equal(pair._forward_cached(x)[0][0], student._forward_cached(x)[0])

    @pytest.mark.parametrize("sizes", [(8, 6), (8, 8, 6), (32, 19), (32, 8, 19)],
                             ids=["hidden0", "hidden8", "hidden0-suite", "hidden8-suite"])
    def test_two_stacked_batches_equal_four_separate_passes(self, sizes):
        # the calibrated step's (2, 1, n, d) pass: product [i, r] is row r on batch i,
        # and backprop through row 0's slices equals backprop after a separate pass
        rows, buffer, pair, rng = self._pair(sizes, len(sizes) + 10)
        for n in (1, 7, 32):
            x = rng.standard_normal((2, 1, n, sizes[0]))
            logits, acts = pair._forward_cached(x, n_checked=3)
            assert logits.shape == (2, 2, n, sizes[-1])
            g = rng.standard_normal((n, sizes[-1]))
            for i in range(2):
                for r, m in enumerate(rows):
                    row_logits, row_acts = m._forward_cached(x[i, 0].copy())
                    sliced = [a[i, min(r, a.shape[1] - 1)] for a in acts]
                    assert logits[i, r].tobytes() == row_logits.tobytes()
                    assert all(a.tobytes() == b.tobytes() for a, b in zip(sliced, row_acts))
                    if r == 0:
                        grad = m._backprop(sliced, g)
                        assert grad.tobytes() == m._backprop(row_acts, g).tobytes()

    @pytest.mark.parametrize("row", [0, 1])
    @pytest.mark.parametrize("sizes", [(8, 6), (8, 8, 6)], ids=["hidden0", "hidden8"])
    def test_only_the_checked_products_raise(self, sizes, row):
        # the last layer's first two inputs carry weights of 1e308 in model ``row``;
        # they are 0 on batch 0 and 1 on batch 1, so only product [1, row] overflows,
        # and n_checked=3 leaves out [1, 1]
        rows, buffer, pair, rng = self._pair(sizes, 6)
        pair._layers[-1][0][row, :2] = 1e308
        x = rng.standard_normal((2, 1, 4, sizes[0]))
        x[0, 0, :, :2], x[1, 0, :, :2] = 0.0, 1.0
        if len(sizes) == 3:  # hidden units 0 and 1 read feature 0 alone: tanh(0), tanh(100)
            w, b = pair._layers[0]
            w[row, :, :2], b[row, :, :2] = 0.0, 0.0
            w[row, 0, :2] = 100.0
        with np.errstate(over="ignore"):
            logits, _ = pair._forward_cached(x[:1])
            assert np.isfinite(logits).all()
            with pytest.raises(ValueError, match="^forward pass produced non-finite logits$"):
                pair._forward_cached(x)
            if row == 0:
                with pytest.raises(ValueError, match="^forward pass produced non-finite logits$"):
                    pair._forward_cached(x, n_checked=3)
            else:
                logits, _ = pair._forward_cached(x, n_checked=3)
                assert np.isfinite(logits.reshape(4, -1)[:3]).all()
                assert not np.isfinite(logits[1, 1]).all()

    @pytest.mark.parametrize("row", [0, 1])
    @pytest.mark.parametrize("sizes", [(8, 6), (8, 8, 6)], ids=["hidden0", "hidden8"])
    def test_non_finite_logit_in_either_row_raises(self, sizes, row):
        rows, buffer, pair, rng = self._pair(sizes, 4)
        buffer[row, -1] = np.inf  # the last output's bias
        with pytest.raises(ValueError, match="^forward pass produced non-finite logits$"):
            pair._forward_cached(rng.standard_normal((4, sizes[0])))


def test_softmax_rows_sum_to_one():
    z = make_rng(4).standard_normal((6, 5)) * 30
    s = softmax(z)
    np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(s > 0)
