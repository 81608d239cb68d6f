"""Two-stage training pipeline and baseline single-stage modes.

The calibrated method warms up on the assume-negative loss while a
teacher EMA and per-sample prediction EMA run alongside. A patience
detector watches the teacher's mAP on the noisy (single-positive)
validation labels; once it plateaus, training switches to the calibrated
objective on Mixup batches with fused pseudo-labels. Baseline modes are
single-stage runs of the corresponding loss.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import losses
from .data import MultiLabelDataset, atomic_open
from .ema import _pseudo_labels, _update_predictions, _update_weights, init_dual_ema
from .metrics import (
    MetricReport,
    _average_precisions,
    _class_order,
    _macro_mean,
    compute_metric_report,
)
from .net import Mlp, _check_param, _check_shape, _check_unit, _sigmoid, make_rng, sigmoid

__all__ = [
    "METHODS",
    "TrainConfig",
    "DetectorState",
    "detect_early_learning",
    "EpochLog",
    "mixup_batch",
    "Trainer",
    "TrainResult",
    "train",
    "evaluate",
    "save_checkpoint",
    "load_checkpoint",
]

METHODS = ("adagc", "an", "an_ls", "wan", "epr", "iun", "gt")

CHECKPOINT_FORMAT = "spmlab-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    method: str = "adagc"
    lam: float = 3.0
    beta_t: float = 0.999
    beta_s: float = 0.8
    gamma: float = 0.5
    mixup_alpha: float = 1.0
    patience: int = 3
    eps_smooth: float = 0.1
    w_neg: float | None = None        # None: resolved to 1/(C-1)
    k_expected: float | None = None   # None: resolved to mean true cardinality
    epr_weight: float = 1.0
    epochs: int = 70
    batch_size: int = 32
    learning_rate: float = 0.1
    seed: int = 0
    threshold: float = 0.5
    hidden: int = 32                  # 0: linear model
    raw_student_pseudo: bool = False  # ablation: bypass the prediction EMA
    log_clean_val: bool = False       # diagnostic only, never used for decisions

    def validate(self) -> None:
        """Reject a bad field through ``net._check_param``, naming it and its value."""
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        rules = {
            "lam": (self.lam >= 0, "non-negative"),
            "beta_t": (0.0 <= self.beta_t <= 1.0, "in [0, 1]"),
            "beta_s": (0.0 <= self.beta_s <= 1.0, "in [0, 1]"),
            "gamma": (0.0 <= self.gamma <= 1.0, "in [0, 1]"),
            "mixup_alpha": (self.method != "adagc" or self.mixup_alpha > 0,
                            "positive for the calibrated method"),
            "patience": (self.patience >= 1, "at least 1"),
            "eps_smooth": (0.0 <= self.eps_smooth < 0.5, "in [0, 0.5)"),
            "w_neg": (self.w_neg is None or 0.0 < self.w_neg <= 1.0, "in (0, 1]"),
            "k_expected": (self.k_expected is None or self.k_expected > 0, "positive"),
            "epr_weight": (self.epr_weight >= 0, "non-negative"),
            "epochs": (self.epochs >= 1, "at least 1"),
            "batch_size": (self.batch_size >= 1, "at least 1"),
            "learning_rate": (self.learning_rate > 0, "positive"),
            "threshold": (0.0 < self.threshold < 1.0, "in (0, 1)"),
            "hidden": (self.hidden >= 0, "non-negative"),
        }
        for f in fields(self):
            ok, requirement = rules.get(f.name, (True, ""))
            _check_param(f.name, getattr(self, f.name), ok, requirement)

    @property
    def reports_teacher(self) -> bool:
        """Whether a run reports its teacher (the calibrated method) or its student."""
        return self.method == "adagc"


@dataclass
class DetectorState:
    """Patience bookkeeping over the teacher's noisy-validation mAP."""

    best_map: float = float("-inf")
    best_epoch: int = -1
    since_improvement: int = 0
    triggered: bool = False
    trigger_epoch: int | None = None
    n_seen: int = 0


def detect_early_learning(state: DetectorState, noisy_val_map: float,
                          patience: int) -> DetectorState:
    """Advance the detector by one epoch of teacher noisy-validation mAP.

    Only a strict improvement resets the patience counter; the trigger
    fires the first time the counter reaches ``patience``.
    """
    _check_param("noisy_val_map", noisy_val_map, 0.0 <= noisy_val_map <= 1.0, "in [0, 1]")
    epoch = state.n_seen
    if noisy_val_map > state.best_map:
        state.best_map = noisy_val_map
        state.best_epoch = epoch
        state.since_improvement = 0
    else:
        state.since_improvement += 1
        if not state.triggered and state.since_improvement >= patience:
            state.triggered = True
            state.trigger_epoch = epoch
    state.n_seen = epoch + 1
    return state


@dataclass
class EpochLog:
    epoch: int
    stage: str                        # "warmup" or "gc"
    train_loss: float
    noisy_val_map: float              # teacher model vs single-positive labels
    noisy_val_map_student: float
    clean_val_map: float | None


def mixup_batch(x, y, t, rng: np.random.Generator, alpha: float):
    """Convex pairing inside a batch: returns (x_mix, y_mix, t_mix, phi).

    Each sample draws a uniform partner from the batch and its own
    phi ~ Beta(alpha, alpha) shared across features, labels, and
    pseudo-labels. Cells where both sources agree pass through untouched,
    so mixed values never leave the convex hull of their endpoints.
    """
    _check_param("alpha", alpha, alpha > 0, "positive")
    arrays = [np.asarray(a, dtype=np.float64) for a in (x, y, t)]
    n = arrays[0].shape[0]
    if n == 0:
        raise ValueError("cannot mix an empty batch")
    if any(a.shape[0] != n for a in arrays):
        raise ValueError("x, y, t must share the batch dimension")
    partner = rng.integers(0, n, size=n)
    phi = rng.beta(alpha, alpha, size=n)
    rest = 1.0 - phi
    mixed = []
    for a in arrays:
        shape, b = (n,) + (1,) * (a.ndim - 1), a[partner]
        mixed.append(np.where(a == b, a, phi.reshape(shape) * a + rest.reshape(shape) * b))
    return mixed[0], mixed[1], mixed[2], phi


class Trainer:
    """Owns all mutable training state; one instance drives one run.

    Each step updates the student parameters and the teacher EMA in place
    (``ema.teacher_params`` is the teacher model's own buffer). ``model``
    and ``teacher`` hand out copies, so a model taken from a trainer never
    changes afterwards. Inputs are checked here, once; the steps call the
    unchecked kernels of ``net``, ``losses`` and ``ema``.
    """

    def __init__(self, config: TrainConfig, train_ds: MultiLabelDataset,
                 val_ds: MultiLabelDataset):
        config.validate()
        self.config = config
        self.train_ds = train_ds
        self.val_ds = val_ds
        self.w_neg = config.w_neg
        if self.w_neg is None:
            self.w_neg = 1.0 / max(train_ds.n_classes - 1, 1)
        self.k_expected = config.k_expected
        if self.k_expected is None:
            self.k_expected = float(train_ds.y_true.sum(axis=1).mean())
        self._check_datasets()

        self.rng = make_rng(config.seed)
        sizes = (train_ds.n_features, config.hidden, train_ds.n_classes)
        if config.hidden == 0:
            sizes = (train_ds.n_features, train_ds.n_classes)
        student = Mlp.init(sizes, self.rng)
        self.ema = init_dual_ema(
            student.params, train_ds.n_samples, train_ds.n_classes,
            beta_t=config.beta_t, beta_s=config.beta_s, gamma=config.gamma,
        )
        self._adopt(student)
        self.detector = DetectorState()
        self.logs: list[EpochLog] = []
        self.epoch = 0
        self.stage = "warmup"
        if config.method == "iun":
            self._true_neg_mask = (train_ds.y_true == 0.0).astype(np.float64)

    def _check_datasets(self) -> None:
        train_ds, val_ds = self.train_ds, self.val_ds
        if val_ds.n_features != train_ds.n_features:
            raise ValueError(
                f"validation features have {val_ds.n_features} columns, "
                f"training has {train_ds.n_features}"
            )
        if val_ds.n_classes != train_ds.n_classes:
            raise ValueError("train and validation class counts differ")
        for name, ds in (("training", train_ds), ("validation", val_ds)):
            if ds.y_observed is None:
                raise ValueError(f"{name} set has no observed labels")
        method = self.config.method
        if method not in ("gt", "iun"):
            sums = train_ds.y_observed.sum(axis=1)
            if not np.all(sums == 1.0):
                raise ValueError(
                    f"method {method!r} requires single-positive "
                    f"observed training labels"
                )
        if method == "iun" and np.any((train_ds.y_observed == 1.0) & (train_ds.y_true == 0.0)):
            raise ValueError("method 'iun' requires every observed positive to be a true positive")
        _check_param("k_expected", self.k_expected, 0.0 < self.k_expected <= train_ds.n_classes,
                     f"in (0, {train_ds.n_classes}]")

    def _adopt(self, student: Mlp) -> None:
        """Make ``student`` and the teacher EMA the buffers the steps update."""
        self._student = student
        self._teacher = student.with_params(self.ema.teacher_params)
        self.ema.teacher_params = self._teacher.params

    @property
    def model(self) -> Mlp:
        """A copy of the student."""
        return self._student.with_params(self._student.params)

    @property
    def teacher(self) -> Mlp:
        """A copy of the teacher."""
        return self._student.with_params(self.ema.teacher_params)

    def _baseline_loss(self, p, idx):
        """(value, dlogits) of the single-stage loss on clamped probabilities."""
        cfg = self.config
        y_obs = self.train_ds.y_observed[idx]
        if cfg.method in ("an", "adagc"):
            return losses._bce_terms(p, y_obs)
        if cfg.method == "an_ls":
            return losses._an_ls_terms(p, y_obs, cfg.eps_smooth)
        if cfg.method == "wan":
            return losses._bce_terms(p, y_obs, self.w_neg)
        if cfg.method == "epr":
            return losses._epr_terms(p, y_obs, self.k_expected, cfg.epr_weight)
        if cfg.method == "iun":
            return losses._iun_terms(p, y_obs, self._true_neg_mask[idx])
        if cfg.method == "gt":
            return losses._bce_terms(p, self.train_ds.y_true[idx])
        raise AssertionError(cfg.method)

    def _step(self, acts, dlogits) -> None:
        """SGD step on the student, then the teacher EMA, both in place."""
        theta = self._student.params
        theta -= self.config.learning_rate * self._student._backprop(acts, dlogits)
        if not np.isfinite(theta).all():
            raise ValueError("parameters contain non-finite entries")
        _update_weights(self.ema.teacher_params, theta, self.ema.beta_t)

    def _warmup_iteration(self, idx) -> float:
        logits, acts = self._student._forward_cached(self.train_ds.features[idx])
        p = _sigmoid(logits)
        if self.config.method == "adagc":
            _update_predictions(self.ema, idx, p)
        value, dlogits = self._baseline_loss(losses._clip(p), idx)
        nb = idx.size
        self._step(acts, dlogits / nb)
        return value / nb

    def _gc_iteration(self, idx) -> float:
        cfg = self.config
        xb = self.train_ds.features[idx]
        yb = self.train_ds.y_observed[idx]
        # pseudo-labels come from the un-mixed batch: two forward-only
        # passes feed the prediction EMA and the teacher-student fusion
        p_student = _sigmoid(self._student._forward_cached(xb)[0])
        _update_predictions(self.ema, idx, p_student)
        p_teacher = _sigmoid(self._teacher._forward_cached(xb)[0])
        t = _pseudo_labels(self.ema, p_teacher, idx,
                           p_student if cfg.raw_student_pseudo else None)
        x_mix, y_mix, t_mix, _ = mixup_batch(xb, yb, t, self.rng, cfg.mixup_alpha)
        logits, acts = self._student._forward_cached(x_mix)
        p_mix = losses._clip(_sigmoid(logits))
        value, dlogits = losses._adagc_terms(p_mix, y_mix, t_mix, cfg.lam)
        self._step(acts, dlogits)
        return value

    def _val_map(self, model: Mlp, *label_sets) -> list:
        """Validation mAP of ``model`` against each label set, from one sort."""
        order = _class_order(sigmoid(model.forward(self.val_ds.features)))
        # the validation labels were checked when the dataset was built
        return [_macro_mean(_average_precisions(order, y)) for y in label_sets]

    def run_epoch(self) -> EpochLog:
        cfg = self.config
        n = self.train_ds.n_samples
        order = self.rng.permutation(n)
        stage = self.stage
        iteration = self._gc_iteration if stage == "gc" else self._warmup_iteration
        loss_sum = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            try:
                loss_sum += iteration(order[start:start + cfg.batch_size])
            except ValueError as exc:
                raise ValueError(
                    f"method {cfg.method!r}, epoch {self.epoch}, step {n_batches}: {exc}"
                ) from exc
            n_batches += 1

        val = self.val_ds
        teacher_labels = (val.y_observed, val.y_true) if cfg.log_clean_val else (val.y_observed,)
        noisy_map, *clean = self._val_map(self._teacher, *teacher_labels)
        clean_map = clean[0] if clean else None
        (noisy_map_student,) = self._val_map(self._student, val.y_observed)

        detect_early_learning(self.detector, noisy_map, cfg.patience)
        if cfg.method == "adagc" and self.detector.triggered:
            self.stage = "gc"

        log = EpochLog(
            epoch=self.epoch,
            stage=stage,
            train_loss=loss_sum / n_batches,
            noisy_val_map=noisy_map,
            noisy_val_map_student=noisy_map_student,
            clean_val_map=clean_map,
        )
        self.logs.append(log)
        self.epoch += 1
        return log

    def run(self, max_epochs: int | None = None) -> None:
        target = self.config.epochs
        if max_epochs is not None:
            target = min(target, self.epoch + max_epochs)
        while self.epoch < target:
            self.run_epoch()

    def checkpoint(self) -> dict:
        """Everything needed to resume the run bit-identically."""
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "epoch": self.epoch,
            "stage": self.stage,
            "layer_sizes": list(self._student.layer_sizes),
            "student_params": self._student.params.tolist(),
            "teacher_params": self.ema.teacher_params.tolist(),
            "smoothed_preds": self.ema.smoothed_preds.tolist(),
            "visited": self.ema.visited.astype(int).tolist(),
            "detector": asdict(self.detector),
            "rng_state": self.rng.bit_generator.state,
            "logs": [asdict(log) for log in self.logs],
        }

    @classmethod
    def from_checkpoint(cls, ckpt: dict, train_ds: MultiLabelDataset,
                        val_ds: MultiLabelDataset) -> "Trainer":
        _check_checkpoint(ckpt, "checkpoint")
        config = TrainConfig(**ckpt["config"])
        trainer = cls(config, train_ds, val_ds)
        student = Mlp(tuple(ckpt["layer_sizes"]), np.array(ckpt["student_params"]))
        ema = trainer.ema
        if student.layer_sizes != trainer._student.layer_sizes:
            raise ValueError(f"checkpoint model has layers {student.layer_sizes}, "
                             f"config and data give {trainer._student.layer_sizes}")
        smoothed = _check_unit(np.array(ckpt["smoothed_preds"], dtype=np.float64), "smoothed_preds",
                               ema.smoothed_preds.shape, "the prediction EMA of the training set")
        visited = _check_shape(np.array(ckpt["visited"], dtype=bool), ema.visited.shape,
                               "visited", "the prediction EMA of the training set")
        if ckpt["stage"] == "gc" and not config.raw_student_pseudo and not visited.all():
            raise ValueError("checkpoint in the calibrated stage has unvisited samples")
        ema.teacher_params = np.array(ckpt["teacher_params"], dtype=np.float64)
        ema.smoothed_preds, ema.visited = smoothed, visited
        trainer._adopt(student)
        trainer.detector = DetectorState(**ckpt["detector"])
        trainer.rng.bit_generator.state = ckpt["rng_state"]
        trainer.epoch = ckpt["epoch"]
        trainer.stage = ckpt["stage"]
        # logs of older checkpoints also carry a per-epoch wall_time
        trainer.logs = [EpochLog(**{k: v for k, v in d.items() if k != "wall_time"})
                        for d in ckpt["logs"]]
        return trainer


@dataclass
class TrainResult:
    """A finished run: its trainer (resolved config, logs, checkpoint) and report."""

    trainer: Trainer
    report: MetricReport | None = None

    @property
    def student(self) -> Mlp:
        return self.trainer.model

    @property
    def teacher(self) -> Mlp:
        return self.trainer.teacher

    @property
    def logs(self) -> list:
        return self.trainer.logs

    @property
    def detector(self) -> DetectorState:
        return self.trainer.detector

    @property
    def final_model(self) -> Mlp:
        """The model the run reports: see ``TrainConfig.reports_teacher``."""
        return self.teacher if self.trainer.config.reports_teacher else self.student


def train(config: TrainConfig, train_ds: MultiLabelDataset,
          val_ds: MultiLabelDataset,
          test_ds: MultiLabelDataset | None = None) -> TrainResult:
    """Run a full training and optionally evaluate on a clean test set."""
    trainer = Trainer(config, train_ds, val_ds)
    trainer.run()
    result = TrainResult(trainer)
    if test_ds is not None:
        result.report = evaluate(result.final_model, test_ds, config.threshold)
    return result


def evaluate(model: Mlp, dataset: MultiLabelDataset,
             threshold: float = 0.5) -> MetricReport:
    """Full metric report of a model against the dataset's true labels."""
    probs = sigmoid(model.forward(dataset.features))
    return compute_metric_report(probs, dataset.y_true, threshold)


def save_checkpoint(ckpt: dict, path) -> None:
    with atomic_open(path) as fh:
        json.dump(ckpt, fh)
        fh.write("\n")


def _check_checkpoint(ckpt, source: str) -> dict:
    """Return ``ckpt`` if it is a trainer checkpoint of this format version."""
    if not isinstance(ckpt, dict) or ckpt.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{source}: not a trainer checkpoint")
    if ckpt.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{source}: unsupported checkpoint version "
                         f"{ckpt.get('version')!r}, expected {CHECKPOINT_VERSION}")
    config = ckpt.get("config")
    if not isinstance(config, dict):
        raise ValueError(f"{source}: config is not a JSON object")
    known = {f.name for f in fields(TrainConfig)}
    unknown = next((key for key in config if key not in known), None)
    if unknown is not None:
        raise ValueError(f"{source}: unknown config field {unknown!r}")
    return ckpt


def load_checkpoint(path) -> dict:
    with open(path) as fh:
        try:
            ckpt = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    return _check_checkpoint(ckpt, str(path))
