import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spmlab import losses as L
from spmlab.net import Mlp, make_rng, sigmoid, softmax

from oracles import fd_gradient, relative_error

LN2 = float(np.log(2.0))


def one_cell(v):
    return np.array([[float(v)]])


class TestLossAn:
    def test_perfect_fit_is_tiny(self):
        y = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        lv = L.loss_an(y, y)  # probabilities equal to labels, clamped inside
        assert 0.0 <= lv.value <= y.size * 1e-11

    def test_single_cell_ln2(self):
        lv = L.loss_an(one_cell(0.5), one_cell(1.0))
        assert abs(lv.value - LN2) < 1e-12

    def test_gradient_is_p_minus_y(self):
        lv = L.loss_an(one_cell(0.8), one_cell(0.0))
        assert abs(lv.dlogits[0, 0] - 0.8) < 1e-15

    def test_rejects_soft_labels(self):
        with pytest.raises(ValueError, match="binary"):
            L.loss_an(one_cell(0.5), one_cell(0.3))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            L.loss_an(np.full((2, 3), 0.5), np.zeros((3, 2)))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_an_kernel_equals_bce_kernel_on_binary_targets(self, data):
        # the binary-target kernel drops terms that are 0 * a finite log: bit for bit
        n, c = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
        cells = st.one_of(st.sampled_from([L.EPS_CLIP, 1.0 - L.EPS_CLIP, 0.5]),
                          st.floats(L.EPS_CLIP, 1.0 - L.EPS_CLIP))
        p = np.array(data.draw(st.lists(cells, min_size=n * c, max_size=n * c))).reshape(n, c)
        y = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n * c,
                                        max_size=n * c))).reshape(n, c)
        value, grad = L._an_terms(p, y)
        ref_value, ref_grad = L._bce_terms(p, y)
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()


class TestLossAnLs:
    def test_zero_smoothing_equals_an_bitwise(self):
        rng = make_rng(0)
        p = rng.random((4, 5))
        y = (rng.random((4, 5)) < 0.3).astype(float)
        a = L.loss_an(p, y)
        b = L.loss_an_ls(p, y, 0.0)
        assert a.value == b.value
        assert np.array_equal(a.dlogits, b.dlogits)

    def test_smoothed_negative_cell(self):
        # y=0 with eps=0.1 is BCE against target 0.1
        lv = L.loss_an_ls(one_cell(0.1), one_cell(0.0), 0.1)
        expect = -(0.1 * np.log(0.1) + 0.9 * np.log(0.9))
        assert abs(lv.value - expect) < 1e-12

    def test_gradient_zero_at_smoothed_target(self):
        lv = L.loss_an_ls(one_cell(0.1), one_cell(0.0), 0.1)
        assert abs(lv.dlogits[0, 0]) < 1e-15

    def test_rejects_out_of_range_smoothing(self):
        for bad in (-0.01, 0.5, 0.9):
            with pytest.raises(ValueError):
                L.loss_an_ls(one_cell(0.5), one_cell(0.0), bad)


class TestLossWan:
    def test_unit_weight_equals_an_bitwise(self):
        rng = make_rng(1)
        p = rng.random((3, 4))
        y = (rng.random((3, 4)) < 0.3).astype(float)
        a = L.loss_an(p, y)
        b = L.loss_wan(p, y, 1.0)
        assert a.value == b.value
        assert np.array_equal(a.dlogits, b.dlogits)

    def test_scaled_negative_contribution(self):
        lv = L.loss_wan(one_cell(0.5), one_cell(0.0), 1.0 / 15.0)
        assert abs(lv.value - LN2 / 15.0) < 1e-12

    def test_gradient_linear_in_weight(self):
        g1 = L.loss_wan(one_cell(0.7), one_cell(0.0), 0.2).dlogits[0, 0]
        g2 = L.loss_wan(one_cell(0.7), one_cell(0.0), 0.4).dlogits[0, 0]
        assert abs(g2 / g1 - 2.0) < 1e-12

    def test_rejects_out_of_range(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                L.loss_wan(one_cell(0.5), one_cell(0.0), bad)


class TestLossEpr:
    def test_perfect_rows_have_zero_penalty(self):
        p = np.array([[1.0 - 1e-12, 0.0, 0.0, 1e-12]])  # row sum exactly 1
        y = np.array([[1.0, 0.0, 0.0, 0.0]])
        lv = L.loss_epr(p, y, 1.0)
        assert lv.value < 1e-10

    def test_penalty_closed_form(self):
        p = np.array([[0.9, 0.9, 0.9, 0.3]])  # row sum 3, C=4, k=1
        y = np.array([[1.0, 0.0, 0.0, 0.0]])
        lv = L.loss_epr(p, y, 1.0)
        penalty = lv.value - (-np.log(0.9))
        assert abs(penalty - 0.25) < 1e-12

    def test_batch_loss_is_the_sum_of_its_parts(self):
        # the penalty sums over rows, as the positive term does, so its weight does not
        # depend on the batch size: [A; B] costs A plus B, with each gradient row unchanged
        rng = make_rng(4)
        p = rng.uniform(0.05, 0.95, size=(7, 5))
        y = np.eye(5)[rng.integers(0, 5, size=7)]
        whole = L.loss_epr(p, y, 1.5, epr_weight=3.0)
        parts = [L.loss_epr(p[rows], y[rows], 1.5, epr_weight=3.0)
                 for rows in (slice(0, 3), slice(3, 7))]
        assert abs(whole.value - (parts[0].value + parts[1].value)) <= 1e-12 * whole.value
        assert np.array_equal(whole.dlogits, np.concatenate([part.dlogits for part in parts]))

    def test_rejects_out_of_range_k(self):
        with pytest.raises(ValueError):
            L.loss_epr(np.full((1, 4), 0.5), np.eye(4)[:1], 0.0)
        with pytest.raises(ValueError):
            L.loss_epr(np.full((1, 4), 0.5), np.eye(4)[:1], 5.0)


class TestLossIun:
    def test_empty_mask_is_positive_only_bce(self):
        rng = make_rng(2)
        p = rng.random((3, 4))
        y = np.zeros((3, 4))
        y[:, 0] = 1.0
        lv = L.loss_iun(p, y, np.zeros((3, 4)))
        pc = np.clip(p, L.EPS_CLIP, 1 - L.EPS_CLIP)
        assert abs(lv.value - (-(np.log(pc[:, 0])).sum())) < 1e-12

    def test_false_negative_cell_has_zero_gradient(self):
        y = np.array([[1.0, 0.0]])
        mask = np.array([[0.0, 0.0]])  # class 1 is an unobserved true positive
        for pv in (0.1, 0.5, 0.9):
            lv = L.loss_iun(np.array([[0.5, pv]]), y, mask)
            assert lv.dlogits[0, 1] == 0.0

    def test_full_mask_matches_hand_bce(self):
        p = np.array([[0.7, 0.2, 0.4], [0.3, 0.9, 0.6]])
        y = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        mask = 1.0 - y  # every other cell is a known true negative
        lv = L.loss_iun(p, y, mask)
        hand = -(np.log(0.7) + np.log(1 - 0.2) + np.log(1 - 0.4)
                 + np.log(1 - 0.3) + np.log(0.9) + np.log(1 - 0.6))
        assert abs(lv.value - hand) < 1e-12

    def test_mask_conflicting_with_positive_rejected(self):
        with pytest.raises(ValueError, match="observed positive"):
            L.loss_iun(one_cell(0.5), one_cell(1.0), one_cell(1.0))


class TestRegElrMcc:
    def test_uniform_two_class(self):
        p = np.array([[0.5, 0.5]])
        lv = L.reg_elr_mcc(p, p)
        assert abs(lv.value - (-LN2)) < 1e-12

    def test_degenerate_onehot_clamped(self):
        p = np.array([[1.0, 0.0]])
        lv = L.reg_elr_mcc(p, p)
        # inner product 1 is clamped to 1 - EPS_CLIP before the log
        assert abs(lv.value - np.log(L.EPS_CLIP)) < 1e-4
        assert np.all(np.isfinite(lv.dlogits))

    def test_sign_follows_pseudo_label_preference(self):
        rng = make_rng(3)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5), size=4)
            t = rng.dirichlet(np.ones(5), size=4)
            g = L.reg_elr_mcc(p, t).dlogits
            ip = (p * t).sum(axis=1, keepdims=True)
            # favored classes (t above the inner product) get negative pull
            assert np.all(np.sign(g) == np.sign(ip - t))

    def test_rejects_non_simplex(self):
        with pytest.raises(ValueError, match="sum to 1"):
            L.reg_elr_mcc(np.array([[0.6, 0.6]]), np.array([[0.5, 0.5]]))


class TestRegGcBinary:
    def test_half_half_cell(self):
        lv = L.reg_gc_binary(one_cell(0.5), one_cell(0.5))
        assert abs(lv.value - (-LN2)) < 1e-12

    def test_anti_correlated_bound(self):
        rng = make_rng(4)
        p = rng.random((5, 1)) * 0.98 + 0.01
        lv = L.reg_gc_binary(p, 1.0 - p)
        # <b, t> = 2p(1-p) <= 1/2, so every cell is at least log(1/2)
        # and the mean over single-cell rows inherits the bound
        assert lv.value >= np.log(0.5) - 1e-12


class TestRegGc:
    def test_zero_pseudo_labels_vanish(self):
        p = np.full((2, 3), 0.5)
        y = np.zeros((2, 3))
        y[:, 0] = 1.0
        lv = L.reg_gc(p, np.zeros((2, 3)), y)
        assert lv.value == 0.0
        assert np.array_equal(lv.dlogits, np.zeros((2, 3)))

    def test_gradient_closed_form(self):
        lv = L.reg_gc(one_cell(0.5), one_cell(1.0), one_cell(0.0))
        assert abs(lv.dlogits[0, 0] - (-0.5)) < 1e-12

    def test_scalar_closed_form(self):
        lv = L.reg_gc(one_cell(0.5), one_cell(0.5), one_cell(0.0))
        assert abs(lv.value - np.log(0.75)) < 1e-12

    def test_all_positive_rows_contribute_nothing(self):
        rng = make_rng(5)
        p = rng.random((3, 4))
        t = rng.random((3, 4))
        y = np.ones((3, 4))
        lv = L.reg_gc(p, t, y)
        assert lv.value == 0.0
        assert np.array_equal(lv.dlogits, np.zeros((3, 4)))

    @given(
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    @settings(max_examples=200, deadline=None)
    def test_gradient_never_positive(self, pv, tv):
        lv = L.reg_gc(one_cell(pv), one_cell(tv), one_cell(0.0))
        assert lv.dlogits[0, 0] <= 0.0

    def test_monotone_nonincreasing_in_t(self):
        rng = make_rng(6)
        for _ in range(30):
            p = rng.random((2, 4)) * 0.98 + 0.01
            t = rng.random((2, 4)) * 0.9
            y = np.zeros((2, 4))
            base = L.reg_gc(p, t, y).value
            i, j = rng.integers(0, 2), rng.integers(0, 4)
            t2 = t.copy()
            t2[i, j] += 0.05
            assert L.reg_gc(p, t2, y).value <= base + 1e-15


class TestLossAdagc:
    def test_lambda_zero_is_mean_soft_bce(self):
        rng = make_rng(7)
        p = rng.random((4, 3))
        y = rng.random((4, 3))
        t = rng.random((4, 3))
        lv = L.loss_adagc(p, y, t, 0.0)
        pc = np.clip(p, L.EPS_CLIP, 1 - L.EPS_CLIP)
        bce = -(y * np.log(pc) + (1 - y) * np.log1p(-pc)).sum() / 4
        assert abs(lv.value - bce) < 1e-12

    def test_one_cell_closed_form(self):
        lv = L.loss_adagc(one_cell(0.5), one_cell(0.0), one_cell(0.5), 3.0)
        expect = LN2 + 3.0 * np.log(0.75)
        assert abs(lv.value - expect) < 1e-9
        assert abs(lv.value - (-0.169899)) < 1e-6

    def test_gradient_additivity_bitwise(self):
        rng = make_rng(8)
        p = rng.random((3, 4))
        y = (rng.random((3, 4)) < 0.3).astype(float)
        t = rng.random((3, 4))
        lam = 3.0
        combined = L.loss_adagc(p, y, t, lam)
        parts = L.loss_an(p, y).dlogits / 3 + lam * L.reg_gc(p, t, y).dlogits
        assert np.array_equal(combined.dlogits, parts)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            L.loss_adagc(one_cell(0.5), one_cell(0.0), one_cell(0.5), -1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: L.loss_adagc(one_cell(0.5), one_cell(0.0), one_cell(0.5), float("nan")),
     "lam must be finite, got nan"),
    (lambda: L.loss_epr(one_cell(0.5), one_cell(1.0), 1.0, epr_weight=-1.0),
     "epr_weight must be non-negative, got -1.0"),
    (lambda: L.loss_epr(one_cell(0.5), one_cell(1.0), 1.0, epr_weight=float("nan")),
     "epr_weight must be finite, got nan"),
    (lambda: L.loss_wan(one_cell(0.5), one_cell(1.0), float("inf")),
     "w_neg must be finite, got inf"),
], ids=["adagc-lam-nan", "epr-weight-negative", "epr-weight-nan", "wan-w-neg-inf"])
def test_weights_follow_the_config_rules(call, message):
    # the same rule and message form as TrainConfig.validate
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def _random_instance(rng, n=5, sizes=(3, 4, 3)):
    model = Mlp.init(sizes, rng)
    x = rng.standard_normal((n, sizes[0]))
    y = (rng.random((n, sizes[-1])) < 0.4).astype(float)
    y[y.sum(axis=1) == 0, 0] = 1.0
    t = rng.random((n, sizes[-1])) * 0.9 + 0.05
    mask = ((y == 0) & (rng.random((n, sizes[-1])) < 0.5)).astype(float)
    return model, x, y, t, mask


LOSS_BUILDERS = {
    "an": lambda y, t, mask, C: (lambda p: L.loss_an(p, y)),
    "an_ls": lambda y, t, mask, C: (lambda p: L.loss_an_ls(p, y, 0.1)),
    "wan": lambda y, t, mask, C: (lambda p: L.loss_wan(p, y, 1.0 / max(C - 1, 1))),
    "epr": lambda y, t, mask, C: (lambda p: L.loss_epr(p, y, 1.5)),
    "iun": lambda y, t, mask, C: (lambda p: L.loss_iun(p, y, mask)),
    "elr_mcc": lambda y, t, mask, C: (
        lambda p: L.reg_elr_mcc(p, t / t.sum(axis=1, keepdims=True))
    ),
    "gc_binary": lambda y, t, mask, C: (lambda p: L.reg_gc_binary(p, t)),
    "gc": lambda y, t, mask, C: (lambda p: L.reg_gc(p, t, y)),
    "adagc": lambda y, t, mask, C: (lambda p: L.loss_adagc(p, y, t, 3.0)),
}


def model_gradient_check(name, rng):
    """Compose one loss with the MLP and compare against finite differences."""
    model, x, y, t, mask = _random_instance(rng)
    loss_fn = LOSS_BUILDERS[name](y, t, mask, y.shape[1])
    squash = softmax if name == "elr_mcc" else sigmoid

    def scalar(theta):
        return loss_fn(squash(model.with_params(theta).forward(x))).value

    lv = loss_fn(squash(model.forward(x)))
    analytic = model.backward(x, lv.dlogits)
    numeric = fd_gradient(scalar, model.params, h=1e-5)
    return relative_error(analytic, numeric)


@pytest.mark.parametrize("name", sorted(LOSS_BUILDERS))
def test_every_loss_matches_finite_differences(name):
    rng = make_rng(100)
    for _ in range(5):
        assert model_gradient_check(name, rng) < 1e-6
