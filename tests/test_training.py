import copy
import json
import math

import numpy as np
import pytest

from spmlab.cli import apply_regime
from spmlab.data import MultiLabelDataset, SyntheticSpec, generate_synthetic
from spmlab.ema import ema_update_predictions, ema_update_weights, make_pseudo_labels
from spmlab.losses import (
    EPS_CLIP,
    loss_adagc,
    loss_an,
    loss_an_ls,
    loss_epr,
    loss_iun,
    loss_wan,
)
from spmlab.net import Mlp, make_rng, sigmoid
from spmlab.training import (
    METHODS,
    DetectorState,
    TrainConfig,
    Trainer,
    detect_early_learning,
    evaluate,
    mixup_batch,
    train,
)

from oracles import brute_average_precision, reference_mixup


def walk_detector(series, patience):
    state = DetectorState()
    for v in series:
        detect_early_learning(state, v, patience)
    return state


class TestDetector:
    def test_patience_walk(self):
        state = walk_detector([0.50, 0.55, 0.57, 0.56, 0.55, 0.54], 3)
        assert state.triggered
        assert state.trigger_epoch == 5  # fires on the sixth value
        assert state.best_epoch == 2

    def test_strictly_increasing_never_triggers(self):
        state = walk_detector([0.1, 0.2, 0.3, 0.4, 0.5, 0.6], 3)
        assert not state.triggered
        assert state.trigger_epoch is None

    def test_equal_value_counts_toward_patience(self):
        state = walk_detector([0.5, 0.5], 1)
        assert state.triggered and state.trigger_epoch == 1

    def test_improvement_resets_counter(self):
        state = walk_detector([0.5, 0.4, 0.6, 0.5, 0.5, 0.4], 3)
        assert state.triggered and state.trigger_epoch == 5
        assert state.best_epoch == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            detect_early_learning(DetectorState(), 1.5, 3)


class _StubRng:
    """Deterministic stand-in driving mixup to chosen partners and phis."""

    def __init__(self, partner, phi):
        self._partner = np.asarray(partner)
        self._phi = np.asarray(phi, dtype=float)

    def integers(self, low, high, size=None):
        return self._partner

    def beta(self, a, b, size=None):
        return self._phi


class TestMixup:
    def test_phi_one_returns_originals_exactly(self):
        rng = _StubRng([1, 0], [1.0, 1.0])
        x = np.array([[1.3, -2.0], [0.5, 4.0]])
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        t = np.array([[0.25, 0.5], [0.75, 0.1]])
        xm, ym, tm, phi = mixup_batch(x, y, t, rng, 1.0)
        assert np.array_equal(xm, x)
        assert np.array_equal(ym, y)
        assert np.array_equal(tm, t)

    def test_midpoint_labels(self):
        rng = _StubRng([1, 0], [0.5, 0.5])
        x = np.zeros((2, 1))
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        t = y.copy()
        _, ym, _, _ = mixup_batch(x, y, t, rng, 1.0)
        np.testing.assert_allclose(ym, 0.5)

    def test_labels_stay_in_unit_interval_exactly(self):
        rng = make_rng(0)
        x = rng.standard_normal((64, 3))
        y = (rng.random((64, 5)) < 0.4).astype(float)
        t = rng.random((64, 5))
        for _ in range(50):
            _, ym, tm, phi = mixup_batch(x, y, t, rng, 1.0)
            assert np.all(phi >= 0.0) and np.all(phi <= 1.0)
            assert np.all(ym >= 0.0) and np.all(ym <= 1.0)
            assert np.all(tm >= 0.0) and np.all(tm <= 1.0)

    def test_shared_phi_across_streams(self):
        rng = _StubRng([1, 1], [0.25, 0.75])
        x = np.array([[4.0], [0.0]])
        y = np.array([[1.0, 0.0], [0.0, 0.0]])
        t = np.array([[0.8, 0.0], [0.0, 0.0]])
        xm, ym, tm, _ = mixup_batch(x, y, t, rng, 1.0)
        assert xm[0, 0] == 1.0       # 0.25 * 4
        assert ym[0, 0] == 0.25      # 0.25 * 1
        assert tm[0, 0] == 0.2       # 0.25 * 0.8

    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_equal_to_reference(self, ndim, seed):
        # few distinct values and self-pairing make a == a[partner] common
        rng = make_rng(seed)
        shape = (16,) if ndim == 1 else (16, 5)
        x = rng.standard_normal((16, 3) if ndim == 2 else 16)
        y = (rng.random(shape) < 0.3).astype(float)
        t = np.round(rng.random(shape), 1)
        rng_ref = make_rng([seed, 1])
        rng_new = make_rng([seed, 1])
        for _ in range(20):
            expected = reference_mixup(x, y, t, rng_ref, 0.7)
            got = mixup_batch(x, y, t, rng_new, 0.7)
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    def test_bit_equal_to_reference_on_partner_ties(self):
        # every sample is its own partner or an exact copy of it
        rng = _StubRng([1, 0, 3, 2], [0.3, 0.6, 0.1, 0.9])
        x = np.array([[1.0, 2.0], [1.0, 2.0], [0.5, 0.5], [0.5, -0.5]])
        y = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        t = np.array([[0.2, 0.4], [0.2, 0.4], [0.3, 0.3], [0.3, 0.7]])
        got = mixup_batch(x, y, t, rng, 1.0)
        expected = reference_mixup(x, y, t, rng, 1.0)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        assert np.array_equal(got[0][:2], x[:2]) and np.array_equal(got[1][:2], y[:2])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mixup_batch(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2)),
                        make_rng(0), 1.0)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            mixup_batch(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                        make_rng(0), 0.0)

    @pytest.mark.parametrize("alpha, message", [
        (math.inf, "alpha must be finite, got inf"),
        (math.nan, "alpha must be finite, got nan"),
        (-1.0, "alpha must be positive, got -1.0"),
    ])
    def test_alpha_rule_names_value(self, alpha, message):
        with pytest.raises(ValueError) as exc:
            mixup_batch(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                        make_rng(0), alpha)
        assert str(exc.value) == message


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            TrainConfig(method="focal").validate()

    def test_mixup_alpha_required_for_calibrated(self):
        with pytest.raises(ValueError, match="mixup_alpha"):
            TrainConfig(method="adagc", mixup_alpha=0.0).validate()

    def test_baselines_allow_zero_alpha(self):
        TrainConfig(method="an", mixup_alpha=0.0).validate()

    def test_bounds(self):
        for bad in (
            dict(lam=-1.0),
            dict(patience=0),
            dict(epochs=0),
            dict(beta_t=1.2),
            dict(threshold=0.0),
            dict(eps_smooth=0.7),
        ):
            with pytest.raises(ValueError):
                TrainConfig(**bad).validate()

    @pytest.mark.parametrize("field, value", [
        ("lam", math.nan),
        ("lam", math.inf),
        ("learning_rate", math.inf),
        ("learning_rate", math.nan),
        ("beta_t", math.nan),
        ("gamma", -math.inf),
        ("mixup_alpha", math.nan),
        ("w_neg", math.nan),
        ("k_expected", math.nan),
        ("k_expected", 0.0),
        ("epr_weight", math.nan),
        ("epr_weight", -1.0),
        ("threshold", math.nan),
    ])
    def test_rejects_field_naming_it_and_value(self, field, value):
        # every method: a bad field fails before training, not mid-run
        with pytest.raises(ValueError, match=rf"^{field} must be .*, got {value!r}$"):
            TrainConfig(method="an", **{field: value}).validate()

    @pytest.mark.parametrize("k_expected", [6.5, 100.0])
    def test_resolved_k_expected_checked_against_class_count(self, k_expected):
        tr, va, te = small_data()  # 6 classes
        with pytest.raises(ValueError, match=rf"k_expected must be in \(0, 6\], got {k_expected}"):
            Trainer(small_config(method="an", k_expected=k_expected), tr, va)

    def test_iun_rejects_observed_positive_outside_truth(self):
        tr, va, te = small_data()
        bad = tr.y_observed.copy()
        bad[0] = 0.0
        bad[0, np.flatnonzero(tr.y_true[0] == 0.0)[0]] = 1.0
        with pytest.raises(ValueError, match="observed positive"):
            Trainer(small_config(method="iun"), tr.with_observed(bad), va)


def small_data(regime="random", seed=0, n=600, n_classes=6, d=8):
    spec = SyntheticSpec(n_samples=n, n_classes=n_classes, n_features=d, seed=seed)
    splits = generate_synthetic(spec)
    rng = make_rng([seed, 9157])
    return (
        apply_regime(splits["train"], regime, rng),
        apply_regime(splits["val"], regime, rng),
        splits["test"],
    )


def small_config(**kw):
    base = dict(
        method="an", epochs=12, seed=0, learning_rate=0.1, hidden=8,
        beta_t=0.99, batch_size=32, patience=2,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainerMechanics:
    def test_baseline_never_leaves_warmup(self):
        tr, va, te = small_data()
        result = train(small_config(method="an"), tr, va)
        assert all(log.stage == "warmup" for log in result.logs)

    def test_stage_switches_at_most_once_and_sticks(self):
        tr, va, te = small_data()
        result = train(
            small_config(method="adagc", epochs=30, learning_rate=0.4), tr, va
        )
        stages = [log.stage for log in result.logs]
        assert result.detector.triggered
        flips = sum(1 for a, b in zip(stages, stages[1:]) if a != b)
        assert flips == 1
        first_gc = stages.index("gc")
        assert all(s == "gc" for s in stages[first_gc:])
        assert result.detector.trigger_epoch == first_gc - 1

    def test_identical_seeds_reproduce_logs_bitwise(self):
        tr, va, te = small_data()
        cfg = small_config(method="adagc", epochs=15)
        a = train(cfg, tr, va)
        b = train(cfg, tr, va)
        assert [l.noisy_val_map for l in a.logs] == [l.noisy_val_map for l in b.logs]
        assert np.array_equal(a.student.params, b.student.params)
        assert np.array_equal(a.teacher.params, b.teacher.params)

    def test_single_positive_required_for_weak_methods(self):
        tr, va, te = small_data()
        multi = tr.with_observed(tr.y_true.copy())
        with pytest.raises(ValueError, match="single-positive"):
            train(small_config(method="an"), multi, va)

    def test_gt_and_iun_accept_full_observed(self):
        tr, va, te = small_data()
        full_tr = tr.with_observed(tr.y_true.copy())
        full_va = va.with_observed(va.y_true.copy())
        for method in ("gt", "iun"):
            result = train(small_config(method=method, epochs=3), full_tr, full_va)
            assert len(result.logs) == 3

    def test_checkpoint_resume_is_bit_identical(self):
        # resume both before and after the stage switch (trigger is ~20)
        tr, va, te = small_data()
        cfg = small_config(method="adagc", epochs=30, learning_rate=0.4)
        full = Trainer(cfg, tr, va)
        full.run()
        assert full.stage == "gc"
        for stop in (15, 25):
            part = Trainer(cfg, tr, va)
            part.run(max_epochs=stop)
            ckpt = json.loads(json.dumps(part.checkpoint()))
            resumed = Trainer.from_checkpoint(ckpt, tr, va)
            resumed.run()
            assert np.array_equal(full.model.params, resumed.model.params)
            assert np.array_equal(full.ema.teacher_params, resumed.ema.teacher_params)
            assert [l.noisy_val_map for l in full.logs] == [
                l.noisy_val_map for l in resumed.logs
            ]

    def test_checkpoint_with_epoch_wall_time_loads(self):
        # checkpoints from before per-epoch timing left the logs carry wall_time
        tr, va, te = small_data()
        part = Trainer(small_config(method="adagc", epochs=6), tr, va)
        part.run(max_epochs=3)
        ckpt = json.loads(json.dumps(part.checkpoint()))
        for log in ckpt["logs"]:
            log["wall_time"] = 0.25
        resumed = Trainer.from_checkpoint(ckpt, tr, va)
        assert resumed.logs == part.logs
        resumed.run()
        assert resumed.epoch == 6

    @pytest.mark.parametrize("edit, error", [
        (lambda c: c.update(format="x"), "checkpoint: not a trainer checkpoint"),
        (lambda c: c.update(version=2),
         "checkpoint: unsupported checkpoint version 2, expected 1"),
    ], ids=["format", "version"])
    def test_checkpoint_format_and_version_checked(self, edit, error):
        tr, va, te = small_data()
        part = Trainer(small_config(method="an", epochs=1), tr, va)
        ckpt = part.checkpoint()
        edit(ckpt)
        with pytest.raises(ValueError) as exc:
            Trainer.from_checkpoint(ckpt, tr, va)
        assert str(exc.value) == error

    @pytest.mark.parametrize("edit, error", [
        (lambda c: c["config"].update(bogus=1), "checkpoint: unknown config field 'bogus'"),
        (lambda c: c.update(config=5), "checkpoint: config is not a JSON object"),
        (lambda c: c.pop("config"), "checkpoint: config is not a JSON object"),
    ], ids=["unknown-field", "not-an-object", "missing"])
    def test_checkpoint_config_checked(self, edit, error):
        tr, va, te = small_data()
        ckpt = Trainer(small_config(method="an", epochs=1), tr, va).checkpoint()
        edit(ckpt)
        with pytest.raises(ValueError) as exc:
            Trainer.from_checkpoint(ckpt, tr, va)
        assert str(exc.value) == error

    @pytest.mark.parametrize("edit, load_data, error", [
        pytest.param(lambda c: None, dict(d=5), "layers", id="other-features"),
        pytest.param(lambda c: None, dict(n=400), "prediction EMA", id="other-train-size"),
        pytest.param(lambda c: c["smoothed_preds"][0].__setitem__(0, 1.5), {},
                     r"smoothed_preds must lie in \[0, 1\]", id="prediction-range"),
        pytest.param(lambda c: c.update(stage="gc", visited=[0] * len(c["visited"])), {},
                     "unvisited", id="gc-unvisited"),
    ])
    def test_checkpoint_checked_on_load(self, edit, load_data, error):
        # the steps no longer check the state a checkpoint restores
        tr, va, te = small_data()
        part = Trainer(small_config(method="adagc", epochs=6), tr, va)
        part.run(max_epochs=2)
        ckpt = json.loads(json.dumps(part.checkpoint()))
        edit(ckpt)
        other_tr, other_va, _ = small_data(**load_data)
        with pytest.raises(ValueError, match=error):
            Trainer.from_checkpoint(ckpt, other_tr, other_va)

    @pytest.mark.parametrize("stage, method, lam, raw_student", [
        *[pytest.param("warmup", m, 3.0, False, id=f"warmup-{m}") for m in METHODS],
        pytest.param("gc", "adagc", 0.0, False, id="gc-lam0"),
        pytest.param("gc", "adagc", 3.0, False, id="gc-lam3"),
        pytest.param("gc", "adagc", 3.0, True, id="gc-lam3-raw-student"),
    ])
    def test_lambda_zero_gc_stage_equals_soft_bce_on_mixup(self, stage, method, lam,
                                                          raw_student):
        # replay one epoch by hand through the checked public functions; the
        # trainer's kernels must give bit-identical student, teacher and
        # prediction EMA. With lam=0 the calibrated stage is plain mean BCE
        # on the mixed batch.
        tr, va, te = small_data()
        cfg = small_config(method=method, lam=lam, raw_student_pseudo=raw_student, epochs=40)
        trainer = Trainer(cfg, tr, va)
        trainer.run(max_epochs=10 if stage == "gc" else 1)
        trainer.stage = stage

        replay_model = trainer.model  # a copy: run_epoch must not change it
        replay_ema = copy.deepcopy(trainer.ema)
        replay_rng = make_rng(0)
        replay_rng.bit_generator.state = trainer.rng.bit_generator.state

        trainer.run_epoch()
        assert trainer.logs[-1].stage == stage

        n = tr.n_samples
        order = replay_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if stage == "gc":
                x, dlogits = _replay_gc_batch(cfg, replay_model, replay_ema, replay_rng, tr, idx)
            else:
                x, dlogits = _replay_warmup_batch(trainer, replay_model, replay_ema, idx)
            grad = replay_model.backward(x, dlogits)
            replay_model = replay_model.sgd_step(grad, cfg.learning_rate)
            ema_update_weights(replay_ema, replay_model.params)
        assert np.array_equal(trainer.model.params, replay_model.params)
        assert np.array_equal(trainer.ema.teacher_params, replay_ema.teacher_params)
        assert np.array_equal(trainer.ema.smoothed_preds, replay_ema.smoothed_preds)

    @pytest.mark.parametrize("method", ["an", "adagc"])
    def test_models_taken_from_trainer_never_change(self, method):
        # the trainer updates its buffers in place; what it hands out is a copy
        tr, va, te = small_data()
        trainer = Trainer(small_config(method=method, epochs=24, learning_rate=0.4), tr, va)
        trainer.run(max_epochs=2)
        taken = [trainer.model, trainer.teacher]
        params = [m.params.copy() for m in taken]
        outputs = [m.forward(va.features) for m in taken]
        trainer.run()
        assert trainer.stage == "gc" or method == "an"
        for m, p, out in zip(taken, params, outputs):
            assert np.array_equal(m.params, p)
            assert np.array_equal(m.forward(va.features), out)
        assert not np.array_equal(trainer.model.params, params[0])
        assert not np.array_equal(trainer.teacher.params, params[1])

    def test_work_per_step(self, monkeypatch):
        # a warm-up step forwards once, a calibrated step three times
        # (student, teacher, mixed batch), and each epoch validates the
        # teacher and the student; models are built per run, not per step
        counts = {"_forward_cached": 0, "__init__": 0}
        for name in counts:
            original = getattr(Mlp, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(Mlp, name, counted)
        tr, va, te = small_data()
        cfg = small_config(method="adagc", epochs=24, learning_rate=0.4)
        trainer = Trainer(cfg, tr, va)
        trainer.run()
        stages = [log.stage for log in trainer.logs]
        assert stages.count("warmup") > 0 and stages.count("gc") > 0
        steps = math.ceil(tr.n_samples / cfg.batch_size)
        expected = (stages.count("warmup") * steps + 3 * stages.count("gc") * steps
                    + 2 * len(stages))
        assert counts["_forward_cached"] == expected
        assert counts["__init__"] <= len(stages)

    @pytest.mark.parametrize("method", ["an", "adagc"])
    @pytest.mark.parametrize("hidden, step, error", [
        pytest.param(0, 0, "parameters contain non-finite entries", id="linear"),
        pytest.param(8, 2, "forward pass produced non-finite logits", id="tanh"),
    ])
    def test_diverging_run_names_method_epoch_and_step(self, method, hidden, step, error):
        tr, va, te = small_data()
        cfg = small_config(method=method, hidden=hidden, learning_rate=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=f"^method '{method}', epoch 0, step {step}: {error}$"):
                train(cfg, tr, va)


def _replay_warmup_batch(trainer, model, ema, idx):
    """(batch, dlogits) of one warm-up step, from the public loss functions."""
    cfg, ds = trainer.config, trainer.train_ds
    x, y_obs = ds.features[idx], ds.y_observed[idx]
    p = sigmoid(model.forward(x))
    if cfg.method == "adagc":
        ema_update_predictions(ema, idx, p)
    loss = {
        "adagc": lambda: loss_an(p, y_obs),
        "an": lambda: loss_an(p, y_obs),
        "an_ls": lambda: loss_an_ls(p, y_obs, cfg.eps_smooth),
        "wan": lambda: loss_wan(p, y_obs, trainer.w_neg),
        "epr": lambda: loss_epr(p, y_obs, trainer.k_expected, cfg.epr_weight),
        "iun": lambda: loss_iun(p, y_obs, (ds.y_true[idx] == 0.0).astype(float)),
        "gt": lambda: loss_an(p, ds.y_true[idx]),
    }[cfg.method]()
    return x, loss.dlogits / idx.size


def _replay_gc_batch(cfg, model, ema, rng, ds, idx):
    """(mixed batch, dlogits) of one calibrated step, from the public functions."""
    xb, yb = ds.features[idx], ds.y_observed[idx]
    p_student = sigmoid(model.forward(xb))
    ema_update_predictions(ema, idx, p_student)
    p_teacher = sigmoid(model.with_params(ema.teacher_params).forward(xb))
    t = make_pseudo_labels(ema, p_teacher, idx,
                           student_probs=p_student if cfg.raw_student_pseudo else None)
    x_mix, y_mix, t_mix, _ = mixup_batch(xb, yb, t, rng, cfg.mixup_alpha)
    p_mix = sigmoid(model.forward(x_mix))
    if cfg.lam == 0.0:
        p_mix = np.clip(p_mix, EPS_CLIP, 1 - EPS_CLIP)
        return x_mix, (y_mix * (p_mix - 1.0) + (1.0 - y_mix) * p_mix) / idx.size
    return x_mix, loss_adagc(p_mix, y_mix, t_mix, cfg.lam).dlogits


class TestEvaluate:
    def test_perfect_oracle_model(self):
        # features equal the labels, so an identity readout ranks perfectly
        rng = make_rng(1)
        y = (rng.random((80, 4)) < 0.4).astype(float)
        y[y.sum(axis=1) == 0, 0] = 1.0
        y[y.sum(axis=1) == 4, 3] = 0.0
        features = y * 10.0 - 5.0
        ds = MultiLabelDataset(features, y)
        params = np.concatenate([np.eye(4).ravel(), np.zeros(4)])
        report = evaluate(Mlp((4, 4), params), ds)
        assert report.map == 1.0
        assert report.rankloss == 0.0

    def test_constant_model_matches_brute_oracle(self):
        tr, va, te = small_data()
        model = Mlp((te.n_features, te.n_classes),
                    np.zeros(Mlp.param_count((te.n_features, te.n_classes))))
        report = evaluate(model, te)
        probs = sigmoid(model.forward(te.features))
        for c in range(te.n_classes):
            expect = brute_average_precision(probs[:, c], te.y_true[:, c])
            assert abs(report.ap_per_class[c] - expect) <= 1e-12

    def test_gt_dominates_weak_baselines(self):
        tr, va, te = small_data(n=800)
        maps = {}
        for method in ("gt", "an", "an_ls", "wan", "epr"):
            cfg = small_config(method=method, epochs=20)
            maps[method] = train(cfg, tr, va, te).report.map
        for method in ("an", "an_ls", "wan", "epr"):
            assert maps["gt"] >= maps[method]

    def test_large_separation_linear_gt_is_near_perfect(self):
        spec = SyntheticSpec(
            n_samples=1600, seed=5, separation=80.0, extent_concentration=25.0
        )
        splits = generate_synthetic(spec)
        rng = make_rng([5, 9157])
        tr = apply_regime(splits["train"], "none", rng)
        va = apply_regime(splits["val"], "none", rng)
        cfg = TrainConfig(method="gt", epochs=40, seed=5, learning_rate=0.1, hidden=0)
        result = train(cfg, tr, va, splits["test"])
        assert result.report.map >= 0.99


class TestSuiteProperties:
    def test_teacher_curve_smoother_than_student(self, suite_runs):
        def local_maxima(series):
            v = np.asarray(series)
            return int(np.sum((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])))

        for regime in ("random", "dominant"):
            for seed in (0, 1, 2):
                run = suite_runs(regime, seed, "an")
                teacher = [l.noisy_val_map for l in run.logs]
                student = [l.noisy_val_map_student for l in run.logs]
                assert local_maxima(teacher) < local_maxima(student)
