"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup``, then
runs the same timed operations once per ``repeat`` and checks every output.
Operations are called through the package's public modules at call time
(``training.train``, ``cli.main``), so the traced run sees them.

* ``train_suite``: the paper's experiment. One suite-scale ``train`` for
  ``adagc`` and one for ``an`` on the test suite's data (synthetic seed 0,
  random regime). ``an`` never enters the calibrated stage, so it bypasses
  changes to the calibrated loss, Mixup and pseudo-labels.
* ``eval_oracle``: no training. Metric reports on a tie-heavy and a
  many-class score matrix, the Monte Carlo proposition check in both
  regimes, and the noise simulators. ``metrics`` and ``noise`` do the work.
* ``cli_pipeline``: the file-based user path ``gen``, ``corrupt``,
  ``train`` and ``eval`` through ``spmlab.cli.main``, where CSV and
  artifact I/O are a large share of the time.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spmlab import cli, data, metrics, noise, training
from spmlab.net import make_rng

# Test mAP must match the recorded reference this closely; reruns of the
# same code are bit-identical, so any drift means the results changed.
MAP_TOLERANCE = 1e-9
# The oracle check compares against brute-force loops in exact order.
ORACLE_TOLERANCE = 1e-12
# Criterion 5 of the acceptance suite: random-flip Monte Carlo mean vs closed form.
MC_TOLERANCE = 0.02


class Checks:
    """Counts correctness checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


class Ops:
    """Times the operations of one repeat; under tracing each is a root span.

    Untraced, each operation runs inside a calibration window, and
    ``wall_norm`` adds up its time (minus the probes' own time) divided by
    the window's mean probe time.
    """

    def __init__(self, calibration=None, tracer=None):
        self.tracer = tracer
        self.calibration = calibration
        self.seconds: dict[str, float] = {}
        self.wall_norm = 0.0

    def __call__(self, name, fn, *args, **kwargs):
        if self.tracer is not None:
            t0 = time.perf_counter()
            result = self.tracer.call(f"bench.{name}", fn, args, kwargs)
            seconds = time.perf_counter() - t0
        else:
            result, seconds, norm = self.calibration.timed(fn, *args, **kwargs)
            self.wall_norm += norm
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        return result

    @property
    def wall_s(self) -> float:
        return sum(self.seconds.values())


def _median(values) -> float:
    return float(np.median(values))


class Workload:
    """``setup`` builds inputs (timed); ``prepare`` runs once, untimed, before
    the first repeat; ``repeat`` runs the timed operations and their checks."""

    def prepare(self, state):
        pass

    def close(self):
        pass


# --------------------------------------------------------------------------
# train_suite


# The desk-scale suite of tests/conftest.py (suite_synthetic_spec and
# suite_train_config for the random regime).
SUITE_SPEC = dict(n_classes=19, n_features=32, separation=16.0,
                  mean_positives=2.9, extent_concentration=3.0)
SUITE_CONFIG = dict(lam=3.0, batch_size=32, learning_rate=0.1, hidden=32,
                    beta_t=0.99, log_clean_val=True)
METHODS = ("adagc", "an")


@dataclass
class TrainSizes:
    n_samples: int   # split 2:1:1 into train/val/test
    epochs: int


class TrainSuite(Workload):
    """Suite-scale ``adagc`` then ``an`` on synthetic seed 0, random regime.

    The workload seed picks the training seed (initialisation, batch order,
    Mixup draws) from the ones whose results ``references.json`` records.
    """

    name = "train_suite"
    sizes = {"full": TrainSizes(4000, 70), "smoke": TrainSizes(400, 8)}

    def __init__(self, scale, seed, root, scratch, references):
        self.size = self.sizes[scale]
        table = references["train_suite"][scale]
        self.train_seed = sorted(int(k) for k in table)[seed % len(table)]
        self.reference = table[str(self.train_seed)]

    def setup(self):
        splits = data.generate_synthetic(
            data.SyntheticSpec(n_samples=self.size.n_samples, seed=0, **SUITE_SPEC))
        rng = make_rng([0, cli.NOISE_STREAM])
        return {
            "train": cli.apply_regime(splits["train"], "random", rng),
            "val": cli.apply_regime(splits["val"], "random", rng),
            "test": splits["test"],
        }

    def config(self, method):
        return training.TrainConfig(method=method, epochs=self.size.epochs,
                                    seed=self.train_seed, **SUITE_CONFIG)

    def repeat(self, state, ops, checks, index):
        out = {}
        for method in METHODS:
            result = ops(f"{method}_train", training.train, self.config(method),
                         state["train"], state["val"], state["test"])
            ref = self.reference[method]
            got_map = result.report.map
            checks.expect(abs(got_map - ref["test_map"]) <= MAP_TOLERANCE,
                          f"{method} test mAP {got_map!r} != reference {ref['test_map']!r}")
            trigger = result.detector.trigger_epoch
            checks.expect(trigger == ref["trigger_epoch"],
                          f"{method} trigger epoch {trigger} != reference {ref['trigger_epoch']}")
            out[f"{method}_test_map"] = got_map
        n_train = state["train"].n_samples
        out["samples"] = len(METHODS) * n_train * self.size.epochs
        return out

    @staticmethod
    def breakdown(samples):
        return {
            "adagc_train_s": _median([s["seconds"]["adagc_train"] for s in samples]),
            "an_train_s": _median([s["seconds"]["an_train"] for s in samples]),
            "train_samples_per_s": _median([s["samples"] / s["wall_s"] for s in samples]),
            "adagc_test_map": samples[-1]["adagc_test_map"],
            "an_test_map": samples[-1]["an_test_map"],
        }


# --------------------------------------------------------------------------
# eval_oracle


def _load_oracles(root: Path):
    """The brute-force reference loops that the test suite also uses."""
    spec = importlib.util.spec_from_file_location("spmlab_test_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class OracleSizes:
    tied: tuple          # rows, classes of the quantised score matrix
    wide: tuple          # rows, classes of the many-class matrix
    levels: int          # quantisation levels of the tied matrix
    mc_samples: int
    mc_trials: int
    sim_rows: int
    oracle_rows: int     # subsample checked against the brute-force loops


def _scored_labels(rng, rows, classes, levels=None):
    """Binary labels (>= 1 positive per row) and sigmoid scores that favour them."""
    prevalence = rng.uniform(0.04, 0.3, classes)
    y = (rng.random((rows, classes)) < prevalence).astype(np.float64)
    empty = np.flatnonzero(y.sum(axis=1) == 0)
    y[empty, rng.integers(0, classes, empty.size)] = 1.0
    margins = rng.uniform(0.5, 2.5, classes)
    scores = 1.0 / (1.0 + np.exp(-(y * margins + rng.standard_normal((rows, classes)) - 1.0)))
    if levels is not None:
        scores = np.round(scores * levels) / levels
    return scores, y


# the fields of a full-size report that references.json records
REPORT_FIELDS = ("map", "coverage", "rankloss", "oa", "mf1", "mprecision", "mrecall",
                 "threshold", "ap_per_class")


class EvalOracle(Workload):
    """Metric reports, the Monte Carlo check and the noise simulators.

    The workload seed picks the data seed (score matrices, Monte Carlo
    draws, simulated labels) from the ones whose full-size reports and Monte
    Carlo means ``references.json`` records.
    """

    name = "eval_oracle"
    sizes = {
        "full": OracleSizes((20000, 19), (5000, 80), 20, 2000, 500, 8000, 120),
        "smoke": OracleSizes((2000, 19), (500, 80), 20, 2000, 100, 800, 40),
    }

    def __init__(self, scale, seed, root, scratch, references):
        self.size = self.sizes[scale]
        table = references["eval_oracle"][scale]
        self.seed = sorted(int(k) for k in table)[seed % len(table)]
        self.reference = table[str(self.seed)]
        self.root = root
        self.expected = {}

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        size = self.size
        tied = _scored_labels(rng, *size.tied, levels=size.levels)
        wide = _scored_labels(rng, *size.wide)
        sims = data.generate_synthetic(
            data.SyntheticSpec(n_samples=size.sim_rows, seed=self.seed, split_ratio=(98, 1, 1)))
        mc = metrics.MonteCarloConfig(n_samples=size.mc_samples, seed=self.seed)
        return {"tied": tied, "wide": wide, "sims": sims["train"], "mc": mc}

    def reference_values(self, state):
        """The full-size results that ``references.json`` records for this seed."""
        out = {}
        for key in ("tied", "wide"):
            report = metrics.compute_metric_report(*state[key]).to_json_dict()
            out[key] = {field: report[field] for field in REPORT_FIELDS}
        for regime in ("random", "dominant"):
            mc = metrics.monte_carlo_proposition_check(state["mc"], regime, self.size.mc_trials)
            out[f"mc_{regime}"] = {"measured_mean": mc.measured_mean, "clean_map": mc.clean_map,
                                   "predicted_map": mc.predicted_map}
        return out

    def _oracle_values(self, state):
        """Brute-force metrics of the leading rows of each score matrix."""
        oracles = _load_oracles(self.root)
        out = {}
        for key in ("tied", "wide"):
            scores, y = (a[:self.size.oracle_rows] for a in state[key])
            out[key] = {
                "map": oracles.brute_mean_average_precision(scores, y),
                "coverage": oracles.brute_coverage(scores, y),
                "rankloss": oracles.brute_ranking_loss(scores, y),
            }
        return out

    def prepare(self, state):
        self.expected = {"oracle": self._oracle_values(state)}

    def repeat(self, state, ops, checks, index):
        size = self.size
        reports = {}
        for key in ("tied", "wide"):
            scores, y = state[key]
            reports[key] = ops("report", metrics.compute_metric_report, scores, y).to_json_dict()
        self._check_reports(state, reports, checks)

        mc_random = ops("monte_carlo", metrics.monte_carlo_proposition_check,
                        state["mc"], "random", size.mc_trials)
        mc_dominant = ops("monte_carlo", metrics.monte_carlo_proposition_check,
                          state["mc"], "dominant", size.mc_trials)
        for regime, mc in (("random", mc_random), ("dominant", mc_dominant)):
            for field, want in self.reference[f"mc_{regime}"].items():
                got = getattr(mc, field)
                checks.expect(abs(got - want) <= ORACLE_TOLERANCE,
                              f"{regime} Monte Carlo {field} {got!r} != reference {want!r}")
        gap = abs(mc_random.measured_mean - mc_random.predicted_map)
        checks.expect(gap <= MC_TOLERANCE, f"random Monte Carlo mean off the closed form by {gap}")
        checks.expect(mc_random.measured_mean < mc_random.clean_map < mc_dominant.measured_mean,
                      "Monte Carlo means not ordered random < clean < dominant")

        sims = state["sims"]
        y_random = ops("simulate", noise.simulate_random_spml, sims.y_true,
                       make_rng([self.seed, cli.NOISE_STREAM]))
        y_dominant = ops("simulate", noise.simulate_dominant_spml, sims.y_true, sims.extents)
        flips = {name: ops("flip_rates", noise.compute_flip_rates, sims.y_true, y_obs)
                 for name, y_obs in (("random", y_random), ("dominant", y_dominant))}
        self._check_noise(sims, y_random, y_dominant, flips, checks)

        counts = _flip_counts(sims, y_random)
        results = ops("noisy_transform", metrics.noisy_metric_transform, *counts)
        self._check_transform(counts, results, checks)

        rows = size.tied[0] + size.wide[0]
        return {"rows": rows, "trials": 2 * size.mc_trials}

    def _check_reports(self, state, reports, checks):
        for key, report in reports.items():
            scores, y = (a[:self.size.oracle_rows] for a in state[key])
            sub = metrics.compute_metric_report(scores, y)
            for field, want in self.expected["oracle"][key].items():
                got = getattr(sub, field)
                checks.expect(abs(got - want) <= ORACLE_TOLERANCE,
                              f"{key} subsample {field} {got!r} != brute force {want!r}")
            for field, want in self.reference[key].items():
                checks.expect(_close(report[field], want),
                              f"{key} full report {field} differs from the reference")

    def _check_noise(self, sims, y_random, y_dominant, flips, checks):
        y_true = sims.y_true
        for name, y_obs in (("random", y_random), ("dominant", y_dominant)):
            checks.expect(np.all(y_obs.sum(axis=1) == 1.0) and np.all(y_obs <= y_true),
                          f"{name} corruption is not one true positive per row")
            support = y_true.sum(axis=0)
            beta = 1.0 - y_obs.sum(axis=0) / support
            checks.expect(np.allclose(flips[name].beta, beta, rtol=0, atol=1e-12),
                          f"{name} flip rates differ from the counted rates")
        rows = np.arange(y_true.shape[0])
        checks.expect(np.all(y_dominant[rows, np.argmax(sims.extents, axis=1)] == 1.0),
                      "dominant corruption did not keep the largest-extent label")
        first = self.expected.setdefault("y_random", y_random)
        checks.expect(np.array_equal(y_random, first), "random corruption not reproducible from its seed")

    @staticmethod
    def _check_transform(counts, results, checks):
        p, tp, pp, f, pf = counts
        ok = len(results) == p.size
        for c, res in enumerate(results):
            if p[c] - f[c] > 0:
                ok &= res.noisy_recall == (tp[c] - pf[c]) / (p[c] - f[c])
                ok &= res.noisy_recall == res.noisy_recall_parametric
        checks.expect(ok, "noisy metric identity does not hold on the counts")

    @staticmethod
    def breakdown(samples):
        return {
            "report_rows_per_s": _median([s["rows"] / s["seconds"]["report"] for s in samples]),
            "mc_trials_per_s": _median([s["trials"] / s["seconds"]["monte_carlo"] for s in samples]),
        }


def _close(got, want) -> bool:
    """Equal within ORACLE_TOLERANCE; lists elementwise, None (no positives) only to None."""
    if isinstance(want, list):
        return len(got) == len(want) and all(_close(g, w) for g, w in zip(got, want))
    if want is None or got is None:
        return got is want
    return abs(got - want) <= ORACLE_TOLERANCE


def _flip_counts(sims, y_observed):
    """(P, TP, PP, F, PF) per class for a fixed predictor on the simulated labels."""
    y = sims.y_true == 1.0
    pred = (sims.extents > 0.15) | (sims.features[:, :y.shape[1]] > 2.0)
    flipped = y & (y_observed == 0.0)
    return tuple(a.sum(axis=0).astype(np.int64) for a in
                 (y, pred & y, pred, flipped, pred & flipped))


# --------------------------------------------------------------------------
# cli_pipeline


ARTIFACTS = ("config.json", "metrics.json", "curves.csv", "fliprates.csv", "checkpoint.json")
# every artifact but the checkpoint must already rerun byte-identically;
# the checkpoint is only counted (it stores per-epoch wall time)
REPRODUCIBLE = ARTIFACTS[:4]


@dataclass
class CliSizes:
    n_samples: int
    epochs: int


def _main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliPipeline(Workload):
    """``gen``, ``corrupt --regime dominant``, ``train`` and ``eval`` via ``cli.main``.

    The seed is both the data seed and the training seed. ``train`` keeps the
    CLI's default teacher coefficient, under which the detector does not fire
    within 20 epochs, so every seed does the same amount of work.
    """

    name = "cli_pipeline"
    sizes = {"full": CliSizes(4000, 20), "smoke": CliSizes(400, 3)}

    def __init__(self, scale, seed, root, scratch, references):
        self.size = self.sizes[scale]
        self.seed = seed
        self.dir = scratch
        self.expected = {}

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        return data.generate_synthetic(data.SyntheticSpec(n_samples=self.size.n_samples, seed=self.seed))

    def repeat(self, state, ops, checks, index):
        # the same paths every repeat: config.json records the data directory
        rep = self.dir / "rep"
        shutil.rmtree(rep, ignore_errors=True)
        datadir, rundir, evalout = rep / "data", rep / "run", rep / "eval.json"
        seed = str(self.seed)
        rc = ops("cli_prepare", _main, ["gen", "--outdir", str(datadir), "--n-samples",
                                        str(self.size.n_samples), "--data-seed", seed])
        checks.expect(rc == 0, f"gen exited with {rc}")
        rc = ops("cli_prepare", _main, ["corrupt", "--data-dir", str(datadir), "--regime", "dominant"])
        checks.expect(rc == 0, f"corrupt exited with {rc}")
        self._check_data(state, datadir, checks)
        rc = ops("cli_train", _main, ["train", "--data-dir", str(datadir), "--regime", "dominant",
                                      "--method", "adagc", "--lam", "5", "--epochs",
                                      str(self.size.epochs), "--seed", seed, "--outdir", str(rundir)])
        checks.expect(rc == 0, f"train exited with {rc}")
        rc = ops("cli_eval", _main, ["eval", "--checkpoint", str(rundir / "checkpoint.json"),
                                     "--data-dir", str(datadir), "--split", "test",
                                     "--out", str(evalout)])
        checks.expect(rc == 0, f"eval exited with {rc}")
        if rc == 0:
            written = json.loads((rundir / "metrics.json").read_text())
            checks.expect(json.loads(evalout.read_text()) == written,
                          "eval of the checkpoint differs from the metrics.json train wrote")
        return {"identical_artifacts": self._compare_artifacts(rundir, checks)}

    def _check_data(self, expected, datadir, checks):
        """First repeat: CSVs match the in-memory dataset; later: same bytes."""
        files = sorted(datadir.glob("*.csv"))
        digests = {p.name: _digest(p) for p in files}
        if "data" in self.expected:
            checks.expect(digests == self.expected["data"], "gen/corrupt output differs from the first repeat")
            return
        self.expected["data"] = digests
        ok = True
        for split, ds in expected.items():
            def load(kind):
                return np.loadtxt(datadir / f"{split}_{kind}.csv", delimiter=",", ndmin=2)
            ok &= np.array_equal(load("features"), ds.features)
            ok &= np.array_equal(load("labels"), ds.y_true)
            ok &= np.array_equal(load("extents"), ds.extents)
            if split != "test":
                obs = load("observed")
                keep = np.zeros_like(obs)
                keep[np.arange(obs.shape[0]), np.argmax(ds.extents, axis=1)] = 1.0
                ok &= np.array_equal(obs, keep)
        checks.expect(ok, "CSV files do not hold the generated and corrupted dataset")

    def _compare_artifacts(self, rundir, checks):
        digests = {name: _digest(rundir / name) for name in ARTIFACTS if (rundir / name).exists()}
        checks.expect(len(digests) == len(ARTIFACTS), "train did not write all five artifacts")
        first = self.expected.setdefault("artifacts", digests)
        for name in REPRODUCIBLE:
            checks.expect(digests.get(name) == first.get(name), f"{name} differs from the first repeat")
        return sum(digests.get(name) == first.get(name) for name in ARTIFACTS)

    @staticmethod
    def breakdown(samples):
        return {key: _median([s["seconds"][op] for s in samples])
                for key, op in (("cli_prepare_s", "cli_prepare"), ("cli_train_s", "cli_train"),
                                ("cli_eval_s", "cli_eval"))}

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (TrainSuite, EvalOracle, CliPipeline)}
