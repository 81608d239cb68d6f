"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The directional experiments reuse the shared desk-scale suite from
conftest (train 2000 / val 1000 / test 1000, 19 classes, 70 epochs,
3 seeds per regime).
"""

import time
from contextlib import contextmanager

import numpy as np
from scipy import stats

from spmlab.cli import ExperimentSpec, run_experiment
from spmlab.data import SyntheticSpec
from spmlab.ema import ema_update_weights, init_dual_ema
from spmlab.losses import reg_gc
from spmlab.metrics import (
    MonteCarloConfig,
    coverage,
    mean_average_precision,
    monte_carlo_proposition_check,
    noisy_metric_transform,
    ranking_loss,
)
from spmlab.net import make_rng
from spmlab.training import TrainConfig, mixup_batch

from conftest import SUITE_SEEDS
from oracles import (
    brute_coverage,
    brute_mean_average_precision,
    brute_ranking_loss,
)
from test_losses import LOSS_BUILDERS, model_gradient_check
from test_metrics import random_instance


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:02d} {name}: FAIL")
        raise
    print(f"[acceptance] criterion {num:02d} {name}: PASS")


def test_criterion_01_gradient_correctness():
    with criterion(1, "loss gradients match finite differences"):
        t0 = time.perf_counter()
        rng = make_rng(2024)
        for name in sorted(LOSS_BUILDERS):
            worst = 0.0
            for _ in range(50):
                worst = max(worst, model_gradient_check(name, rng))
            assert worst < 1e-6, f"{name}: worst relative error {worst}"
        assert time.perf_counter() - t0 < 30.0


def test_criterion_02_calibration_sign_law():
    with criterion(2, "calibration gradient is never positive"):
        grid = np.linspace(1e-6, 1.0 - 1e-6, 100)
        p, t = np.meshgrid(grid, grid)
        y = np.zeros_like(p)
        g = reg_gc(p, t, y).dlogits
        assert np.all(g <= 0.0)
        rng = make_rng(2025)
        p = rng.random((100, 100))
        t = rng.random((100, 100))
        g = reg_gc(p, t, np.zeros_like(p)).dlogits
        assert np.all(g <= 0.0)


def test_criterion_03_metric_oracle_equivalence():
    with criterion(3, "ranking metrics equal brute-force oracles"):
        t0 = time.perf_counter()
        rng = make_rng(2026)
        checked_rankloss = 0
        for k in range(200):
            scores, labels = random_instance(rng, tie_free=(k % 3 != 0))
            value, _ = mean_average_precision(scores, labels)
            assert abs(value - brute_mean_average_precision(scores, labels)) <= 1e-12
            assert abs(coverage(scores, labels) - brute_coverage(scores, labels)) <= 1e-12
            try:
                rl = ranking_loss(scores, labels)
            except ValueError:
                continue
            assert abs(rl - brute_ranking_loss(scores, labels)) <= 1e-12
            checked_rankloss += 1
        assert checked_rankloss > 150
        assert time.perf_counter() - t0 < 10.0


def test_criterion_04_noisy_metric_identity():
    with criterion(4, "count-based and parametric noisy metrics agree exactly"):
        rng = make_rng(2027)
        checked = 0
        while checked < 100:
            p = int(rng.integers(1, 60))
            f = int(rng.integers(0, p))  # keep at least one noisy positive
            tp = int(rng.integers(0, p + 1))
            pf = int(rng.integers(0, min(f, tp) + 1))
            pp = int(rng.integers(tp, tp + 40))
            (res,) = noisy_metric_transform([p], [tp], [pp], [f], [pf])
            assert res.noisy_recall == res.noisy_recall_parametric
            if not np.isnan(res.noisy_precision_parametric):
                assert res.noisy_precision == res.noisy_precision_parametric
            checked += 1


def test_criterion_05_random_flip_lower_bound():
    with criterion(5, "random flips bias mAP down, matching the closed form"):
        t0 = time.perf_counter()
        report = monte_carlo_proposition_check(
            MonteCarloConfig(n_samples=2000, n_classes=19, seed=7), "random", 500
        )
        assert report.frac_below_clean >= 0.99
        assert abs(report.measured_mean - report.predicted_map) <= 0.02
        assert time.perf_counter() - t0 < 60.0


def test_criterion_06_dominant_flip_upper_bound():
    with criterion(6, "dominant flips bias mAP up"):
        t0 = time.perf_counter()
        report = monte_carlo_proposition_check(
            MonteCarloConfig(n_samples=2000, n_classes=19, seed=7), "dominant", 500
        )
        assert report.frac_above_clean >= 0.99
        assert time.perf_counter() - t0 < 60.0


def test_criterion_07_trigger_tracks_clean_peak(suite_runs):
    with criterion(7, "trigger epoch tracks the clean-validation argmax"):
        patience = TrainConfig().patience
        for regime in ("random", "dominant"):
            hits = 0
            for seed in SUITE_SEEDS:
                run = suite_runs(regime, seed, "an")
                clean = [log.clean_val_map for log in run.logs]
                trigger = run.detector.trigger_epoch
                if trigger is None:
                    continue
                if abs(trigger - int(np.argmax(clean))) <= patience + 2:
                    hits += 1
            assert hits >= 2, f"{regime}: trigger aligned in only {hits}/3 seeds"


def test_criterion_08_directional_ordering(suite_runs):
    with criterion(8, "clean test mAP orders GT > calibrated > assume-negative"):
        for regime in ("random", "dominant"):
            for seed in SUITE_SEEDS:
                gt = suite_runs(regime, seed, "gt").report.map
                ag = suite_runs(regime, seed, "adagc").report.map
                an = suite_runs(regime, seed, "an").report.map
                assert ag > an, f"{regime} seed {seed}: {ag} <= {an}"
                assert gt > ag, f"{regime} seed {seed}: {gt} <= {ag}"
            assert suite_runs.wall[regime] < 300.0


def test_criterion_09_dual_ema_beats_raw_student(suite_runs):
    with criterion(9, "dual-EMA pseudo-labels beat raw student predictions"):
        margins = []
        for seed in SUITE_SEEDS:
            dual = suite_runs("dominant", seed, "adagc").report.map
            raw = suite_runs(
                "dominant", seed, "adagc", gamma=0.0, raw_student_pseudo=True
            ).report.map
            assert dual >= raw, f"seed {seed}: {dual} < {raw}"
            margins.append(dual - raw)
        assert np.mean(margins) > 0.01


def test_criterion_10_teacher_ema_closed_form():
    with criterion(10, "teacher EMA matches its geometric closed form"):
        rng = make_rng(2028)
        theta0 = rng.standard_normal(40)
        student = rng.standard_normal(40)
        state = init_dual_ema(theta0, 1, 1, beta_t=0.999)
        for _ in range(100):
            ema_update_weights(state, student)
        expect = student + (theta0 - student) * 0.999**100
        assert np.max(np.abs(state.teacher_params - expect)) <= 1e-12


def test_criterion_11_mixup_distribution_and_bounds():
    with criterion(11, "mixup coefficients are uniform and labels stay convex"):
        rng = make_rng(2029)
        n = 100_000
        x = rng.standard_normal((n, 2))
        y = (rng.random((n, 3)) < 0.4).astype(float)
        t = rng.random((n, 3))
        state_before = rng.bit_generator.state
        xm, ym, tm, phi = mixup_batch(x, y, t, rng, 1.0)
        assert stats.kstest(phi, "uniform").pvalue > 0.01
        # replay the partner draw to verify exact per-cell convex bounds
        replay = make_rng(0)
        replay.bit_generator.state = state_before
        partner = replay.integers(0, n, size=n)
        for mixed, source in ((ym, y), (tm, t)):
            lo = np.minimum(source, source[partner])
            hi = np.maximum(source, source[partner])
            assert np.all(mixed >= lo) and np.all(mixed <= hi)
        assert np.all((ym >= 0.0) & (ym <= 1.0))


def test_criterion_12_experiment_determinism(tmp_path):
    with criterion(12, "same seed reproduces byte-identical artifacts"):
        def spec(outdir):
            return ExperimentSpec(
                train_config=TrainConfig(
                    method="adagc", epochs=30, seed=11, learning_rate=0.4,
                    hidden=8, beta_t=0.99, patience=2, log_clean_val=True,
                ),
                outdir=str(outdir),
                regime="random",
                synthetic=SyntheticSpec(
                    n_samples=600, n_classes=6, n_features=8, seed=11
                ),
            )

        run_experiment(spec(tmp_path / "a"))
        run_experiment(spec(tmp_path / "b"))
        for name in ("metrics.json", "curves.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
