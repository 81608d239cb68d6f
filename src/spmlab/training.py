"""Two-stage training pipeline and baseline single-stage modes.

The calibrated method warms up on the assume-negative loss while a
teacher EMA and per-sample prediction EMA run alongside. A patience
detector watches the teacher's mAP on the noisy (single-positive)
validation labels; once it plateaus, training switches to the calibrated
objective on Mixup batches with fused pseudo-labels. Baseline modes are
single-stage runs of the corresponding loss. A checkpoint is one record, ``TrainState``, that
holds its config and no fact that follows from another, each array as the base64 of its
``'<f8'`` bytes: ``Trainer.checkpoint`` writes it, ``load_checkpoint`` reads it, and its
``validate()`` checks every rule between fields.
``train`` returns the finished ``Trainer``, with the test report when given a test set.
"""

from __future__ import annotations

import base64
import json
import reprlib
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import losses
from .data import MultiLabelDataset
from .ema import _pseudo_labels, _update_predictions, _update_weights, init_dual_ema
from .metrics import (
    MetricReport,
    _average_precisions,
    _class_order,
    _macro_mean,
    compute_metric_report,
)
from .net import (Mlp, _check_cells, _check_derived, _check_param, _check_rules, _check_shape,
                  _sigmoid, make_rng, sigmoid)
from .records import _check_fields, _check_type, _read_record, atomic_open, read_json

__all__ = [
    "METHODS",
    "TrainConfig",
    "DetectorState",
    "detect_early_learning",
    "EpochLog",
    "TrainState",
    "mixup_batch",
    "Trainer",
    "train",
    "evaluate",
    "save_checkpoint",
    "load_checkpoint",
]

METHODS = ("adagc", "an", "an_ls", "wan", "epr", "iun", "gt")

CHECKPOINT_FORMAT = "spmlab-checkpoint"
CHECKPOINT_VERSION = 3


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
        """Reject a bad field through ``records._check_fields``, naming it and its value."""
        _check_fields(self, lambda: {
            "method": (self.method in METHODS, f"one of {METHODS}"),
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
            "seed": (self.seed >= 0, "non-negative"),
            "threshold": (0.0 < self.threshold < 1.0, "in (0, 1)"),
            "hidden": (self.hidden >= 0, "non-negative"),
        })

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


def _stage(config: TrainConfig, detector: DetectorState) -> str:
    """The stage a run is in: ``gc`` once the calibrated method's detector has fired."""
    return "gc" if config.method == "adagc" and detector.triggered else "warmup"


def _replay(config: TrainConfig, logs) -> tuple:
    """The detector the logs' noisy-validation mAPs leave, and the stage before each epoch and
    after the last: what a run with these logs holds."""
    detector = DetectorState()
    stages = [_stage(config, detector)]
    for log in logs:
        detect_early_learning(detector, log.noisy_val_map, config.patience)
        stages.append(_stage(config, detector))
    return detector, stages


@dataclass
class EpochLog:
    epoch: int
    stage: str
    train_loss: float
    noisy_val_map: float              # teacher model vs single-positive labels
    noisy_val_map_student: float
    clean_val_map: float | None

    def validate(self) -> None:
        """Reject a non-finite field, or a mAP outside [0, 1] (the clean one may be None)."""
        _check_fields(self, lambda: {
            "noisy_val_map": (0.0 <= self.noisy_val_map <= 1.0, "in [0, 1]"),
            "noisy_val_map_student": (0.0 <= self.noisy_val_map_student <= 1.0, "in [0, 1]"),
            "clean_val_map": (self.clean_val_map is None or 0.0 <= self.clean_val_map <= 1.0,
                              "None or in [0, 1]"),
        })


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
    partner, phi = _mixup_draws(rng, n, alpha)
    x_mix, y_mix, t_mix = (_blend(v.reshape(n, -1), partner, phi).reshape(v.shape)
                           for v in arrays)
    return x_mix, y_mix, t_mix, phi


def _mixup_draws(rng: np.random.Generator, n: int, alpha: float):
    """Mixup's draws for a batch of ``n``: each sample's partner, then its phi."""
    partner = rng.integers(0, n, size=n)
    return partner, rng.beta(alpha, alpha, size=n)


def _blend(a: np.ndarray, partner: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Each sample (axis -2 of ``a``) mixed with its partner, unchanged where they agree."""
    b, w = a.take(partner, axis=-2), phi[:, None]
    return np.where(a == b, a, w * a + (1.0 - w) * b)


def _layer_sizes(config: TrainConfig, n_inputs: int, n_outputs: int) -> tuple:
    """A model's layers: one hidden layer of ``config.hidden`` units, or none when it is 0."""
    return (n_inputs, *((config.hidden,) if config.hidden else ()), n_outputs)


def _read_sizes(raw, name: str) -> tuple:
    if (not isinstance(raw, (list, tuple)) or len(raw) not in (2, 3)
            or not all(type(s) is int and s >= 1 for s in raw)):
        raise ValueError(f"{name} must be 2 or 3 positive integers, found {reprlib.repr(raw)}")
    return tuple(raw)


def _encode_floats(a: np.ndarray) -> str:
    """The array ``a`` as a checkpoint stores it: the base64 of its C-order ``'<f8'`` bytes."""
    return base64.b64encode(np.asarray(a, "<f8").tobytes()).decode("ascii")


def _read_floats(raw, name: str, ok, rule: str) -> np.ndarray:
    """The flat float64 array that the string ``raw`` encodes, read strictly; a value that is
    not ``ok`` breaks ``rule``."""
    try:
        data = base64.b64decode(raw, validate=True) if isinstance(raw, str) else None
    except ValueError:  # binascii.Error, or a character that is not ASCII
        data = None
    if data is None:
        raise ValueError(f"{name} must be a base64 string, found {reprlib.repr(raw)}")
    if len(data) % 8:
        raise ValueError(f"{name} has {len(data)} bytes, not a whole number of float64 values")
    values = np.frombuffer(data, "<f8").astype(np.float64)
    return _check_cells(values, ~ok(values), name, rule)


def _read_params(raw, name: str) -> np.ndarray:
    return _read_floats(raw, name, np.isfinite, "be finite")


def _read_preds(raw, name: str) -> np.ndarray | None:
    return None if raw is None else _read_floats(raw, name, lambda p: (p >= 0.0) & (p <= 1.0),
                                                 "lie in [0, 1]")


def _read_rng_state(raw, name: str) -> dict:
    """A PCG64 ``bit_generator.state``, checked by its structure: NumPy's own setter takes
    ``1.5`` or ``True`` where an integer belongs and silently truncates it."""
    inner = raw.get("state") if isinstance(raw, dict) else None
    if (not isinstance(inner, dict) or inner.keys() != {"state", "inc"}
            or raw.keys() != {"bit_generator", "state", "has_uint32", "uinteger"}):
        raise ValueError(f"{name} must be the state of a PCG64 generator, "
                         f"found {reprlib.repr(raw)}")
    values = {"bit_generator": raw["bit_generator"], "state.state": inner["state"],
              "state.inc": inner["inc"], "has_uint32": raw["has_uint32"],
              "uinteger": raw["uinteger"]}

    def below(key: str, bits: int) -> bool:
        return type(values[key]) is int and 0 <= values[key] < 2 ** bits

    _check_rules(values, f"{name}.", {
        "bit_generator": (values["bit_generator"] == "PCG64", "'PCG64'"),
        "state.state": (below("state.state", 128), "an integer in [0, 2**128)"),
        "state.inc": (below("state.inc", 128), "an integer in [0, 2**128)"),
        "has_uint32": (below("has_uint32", 1), "0 or 1"),
        "uinteger": (below("uinteger", 32), "an integer in [0, 2**32)"),
    })
    return raw


def _read_logs(raw, name: str) -> list:
    if not isinstance(raw, list):
        raise ValueError(f"{name} must be a list, found {reprlib.repr(raw)}")
    return [_read_record(EpochLog, entry, f"{name}[{i}].", f"{name}[{i}]")
            for i, entry in enumerate(raw)]


@dataclass
class TrainState:
    """A run's resumable state, its config first: a checkpoint's fields after format and version.
    The epoch, the stages and the detector are not stored: they are the ``_replay`` of the logs.
    ``smoothed_preds``, the prediction EMA flat, is None until an ``adagc`` epoch has run."""

    config: TrainConfig
    layer_sizes: tuple = field(metadata={"read": _read_sizes})
    student_params: np.ndarray = field(metadata={"read": _read_params})
    teacher_params: np.ndarray = field(metadata={"read": _read_params})
    smoothed_preds: np.ndarray | None = field(metadata={"read": _read_preds})
    rng_state: dict = field(metadata={"read": _read_rng_state})
    logs: list = field(metadata={"read": _read_logs})  # an EpochLog per epoch

    def validate(self) -> None:
        """The rules between fields: layers from ``config.hidden``, the logs' epochs and stages
        from their ``_replay``, their clean maps from ``config.log_clean_val``, and
        ``smoothed_preds`` from ``config.method`` and the logs, in whole rows."""
        sizes, config, logs = self.layer_sizes, self.config, self.logs
        _check_derived({"layer_sizes": (sizes, _layer_sizes(config, sizes[0], sizes[-1]))},
                       "config.hidden gives")
        for name in ("student_params", "teacher_params"):
            size, expected = getattr(self, name).size, Mlp.param_count(sizes)
            if size != expected:
                raise ValueError(f"{name} has {size} entries, "
                                 f"model with layers {sizes} expects {expected}")
        stages = _replay(config, logs)[1]
        _check_derived({f"logs[{i}].{key}": pair for i, log in enumerate(logs)
                        for key, pair in (("epoch", (log.epoch, i)),
                                          ("stage", (log.stage, stages[i])))}, "the logs replay")
        maps = {f"logs[{i}].clean_val_map": log.clean_val_map for i, log in enumerate(logs)}
        clean = f"{'a number' if config.log_clean_val else 'None'} (as config.log_clean_val gives)"
        _check_rules(maps, "", {key: ((value is None) != config.log_clean_val, clean)
                                for key, value in maps.items()})
        preds = config.method == "adagc" and bool(logs)  # an adagc epoch visits every sample
        _check_rules(vars(self), "", {"smoothed_preds": (
            (self.smoothed_preds is not None) == preds,
            f"{'rows of numbers' if preds else 'None'} (as config.method and the logs give)")})
        if preds and (self.smoothed_preds.size == 0 or self.smoothed_preds.size % sizes[-1]):
            raise ValueError(f"smoothed_preds has {self.smoothed_preds.size} entries, "
                             f"not a positive whole number of rows of {sizes[-1]}")


class Trainer:
    """Owns a run's mutable state, the fields of a ``TrainState``; one instance drives one run.
    ``epoch`` and ``stage`` are not stored: they follow from the logs and the detector.

    Each step updates the student and the teacher EMA in place: ``_student`` views
    row 0 of one (2, P) buffer, ``_teacher`` and ``ema.teacher_params`` row 1, and
    ``_pair`` the whole, to forward both in one pass. Every step makes one forward
    pass: a warm-up step forwards the student, a calibrated step forwards the pair on
    the batch stacked over its Mixup blend. ``model`` and ``teacher`` hand out copies,
    so a model taken from a trainer never changes afterwards. Inputs are checked
    here, once; the steps call the unchecked kernels of ``net``, ``losses`` and ``ema``.
    """

    def __init__(self, config: TrainConfig, train_ds: MultiLabelDataset,
                 val_ds: MultiLabelDataset):
        config.validate()
        # the defaults resolved once, so the config and the checkpoint hold what the run used
        self.config = config = replace(
            config,
            w_neg=1.0 / max(train_ds.n_classes - 1, 1) if config.w_neg is None else config.w_neg,
            k_expected=(float(train_ds.y_true.sum(axis=1).mean()) if config.k_expected is None
                        else config.k_expected))
        self.train_ds = train_ds
        self.val_ds = val_ds
        self._check_datasets()

        self.rng = make_rng(config.seed)
        student = Mlp.init(_layer_sizes(config, train_ds.n_features, train_ds.n_classes), self.rng)
        self.ema = init_dual_ema(
            student.params, train_ds.n_samples, train_ds.n_classes,
            beta_t=config.beta_t, beta_s=config.beta_s, gamma=config.gamma,
        )
        self._adopt(student.layer_sizes, student.params, self.ema.teacher_params)
        self.detector = DetectorState()
        self.logs: list[EpochLog] = []
        self.report: MetricReport | None = None  # set by ``train`` from the test set
        if config.method == "iun":
            self._true_neg_mask = (train_ds.y_true == 0.0).astype(np.float64)

    def _check_datasets(self) -> None:
        train_ds, val_ds = self.train_ds, self.val_ds
        if val_ds.n_features != train_ds.n_features:
            raise ValueError(f"validation features have {val_ds.n_features} columns, "
                             f"training has {train_ds.n_features}")
        if val_ds.n_classes != train_ds.n_classes:
            raise ValueError("train and validation class counts differ")
        for name, ds in (("training", train_ds), ("validation", val_ds)):
            if ds.y_observed is None:
                raise ValueError(f"{name} set has no observed labels")
        method = self.config.method
        if method not in ("gt", "iun") and not np.all(train_ds.y_observed.sum(axis=1) == 1.0):
            raise ValueError(f"method {method!r} requires single-positive observed training labels")
        if method == "iun" and np.any((train_ds.y_observed == 1.0) & (train_ds.y_true == 0.0)):
            raise ValueError("method 'iun' requires every observed positive to be a true positive")
        k, n_classes = self.config.k_expected, train_ds.n_classes
        _check_param("k_expected", k, 0.0 < k <= n_classes, f"in (0, {n_classes}]")

    def _adopt(self, sizes: tuple, student_params, teacher_params) -> None:
        """Stack the student and the teacher EMA as the rows of the buffer the steps update."""
        pair = np.stack([student_params, teacher_params])
        self._pair, self._student, self._teacher = (Mlp._over(sizes, buffer)
                                                    for buffer in (pair, *pair))
        self.ema.teacher_params = self._teacher.params

    @property
    def epoch(self) -> int:
        return len(self.logs)

    @property
    def stage(self) -> str:
        return _stage(self.config, self.detector)

    @property
    def model(self) -> Mlp:
        """A copy of the student."""
        return self._student.with_params(self._student.params)

    @property
    def teacher(self) -> Mlp:
        """A copy of the teacher."""
        return self._student.with_params(self.ema.teacher_params)

    @property
    def final_model(self) -> Mlp:
        """The model the run reports: see ``TrainConfig.reports_teacher``."""
        return self.teacher if self.config.reports_teacher else self.model

    def _baseline_loss(self, p, idx):
        """(value, dlogits) of the single-stage loss on clamped probabilities."""
        cfg = self.config
        y_obs = self.train_ds.y_observed[idx]
        if cfg.method in ("an", "adagc"):
            return losses._an_terms(p, y_obs)
        if cfg.method == "an_ls":
            return losses._an_ls_terms(p, y_obs, cfg.eps_smooth)
        if cfg.method == "wan":
            return losses._bce_terms(p, y_obs, cfg.w_neg)
        if cfg.method == "epr":
            return losses._epr_terms(p, y_obs, cfg.k_expected, cfg.epr_weight)
        if cfg.method == "iun":
            return losses._iun_terms(p, y_obs, self._true_neg_mask[idx])
        if cfg.method == "gt":
            return losses._an_terms(p, self.train_ds.y_true[idx])
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
        smoothing = self.config.method == "adagc"
        p = _sigmoid(logits, clamped=smoothing)  # otherwise only _clip reads it
        if smoothing:
            _update_predictions(self.ema, idx, p)
        value, dlogits = self._baseline_loss(losses._clip(p), idx)
        nb = idx.size
        self._step(acts, dlogits / nb)
        return value / nb

    def _gc_iteration(self, idx) -> float:
        cfg = self.config
        xb, yb = (a.take(idx, axis=0) for a in (self.train_ds.features, self.train_ds.y_observed))
        # Mixup draws first, so one pass of the pair over the batch stacked on its
        # blend gives products [batch, model]: [0, 0] and [0, 1] feed the prediction
        # EMA and the pseudo-labels, [1, 0] the loss; [1, 1] goes unused and unchecked
        partner, phi = _mixup_draws(self.rng, idx.size, cfg.mixup_alpha)
        x = np.concatenate([xb, _blend(xb, partner, phi)]).reshape(2, 1, *xb.shape)
        logits, acts = self._pair._forward_cached(x, n_checked=3)
        p_student, p_teacher = _sigmoid(logits[0])
        smoothed = _update_predictions(self.ema, idx, p_student)  # idx holds no repeats
        t = _pseudo_labels(self.ema, p_teacher, idx,
                           p_student if cfg.raw_student_pseudo else smoothed)
        y_mix, t_mix = _blend(np.concatenate([yb, t]).reshape(2, *t.shape), partner, phi)
        p_mix = losses._clip(_sigmoid(logits[1, 0], clamped=False))
        value, dlogits = losses._adagc_terms(p_mix, y_mix, t_mix, cfg.lam)
        self._step([a[1, 0] for a in acts], dlogits)
        return value

    def _val_map(self, model: Mlp, *label_sets) -> list:
        """Validation mAP of ``model`` against each label set, from one sort."""
        # the validation set was checked when the dataset was built
        order = _class_order(_sigmoid(model._forward_cached(self.val_ds.features)[0]))
        return [_macro_mean(_average_precisions(order, y)) for y in label_sets]

    def run_epoch(self) -> EpochLog:
        cfg = self.config
        n = self.train_ds.n_samples
        order = self.rng.permutation(n)
        stage = self.stage
        iteration = self._gc_iteration if stage == "gc" else self._warmup_iteration
        loss_sum = 0.0
        n_batches = 0
        with np.errstate(over="ignore", invalid="ignore"):  # the step's checks name a divergence
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
        log = EpochLog(
            epoch=self.epoch,
            stage=stage,
            train_loss=loss_sum / n_batches,
            noisy_val_map=noisy_map,
            noisy_val_map_student=noisy_map_student,
            clean_val_map=clean_map,
        )
        self.logs.append(log)
        return log

    def run(self, max_epochs: int | None = None) -> None:
        """Run to ``config.epochs``, or at most ``max_epochs`` (a non-negative integer) more."""
        target = self.config.epochs
        if _check_type("max_epochs", max_epochs, int | None) is not None:
            _check_param("max_epochs", max_epochs, max_epochs >= 0, "non-negative")
            target = min(target, self.epoch + max_epochs)
        while self.epoch < target:
            self.run_epoch()

    def checkpoint(self) -> dict:
        """Everything needed to resume the run bit-identically: a ``TrainState``."""
        ema = self.ema
        state = TrainState(self.config, self._student.layer_sizes, self._student.params,
                           ema.teacher_params,
                           ema.smoothed_preds.ravel() if ema.visited.all() else None,
                           self.rng.bit_generator.state, self.logs)
        return {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
                **{k: _encode_floats(v) if isinstance(v, np.ndarray) else v
                   for k, v in asdict(state).items()}}

    @classmethod
    def from_checkpoint(cls, ckpt: dict, train_ds: MultiLabelDataset,
                        val_ds: MultiLabelDataset) -> "Trainer":
        """Read the parsed checkpoint's state, check it against the data, then adopt it."""
        state = _read_checkpoint(ckpt, "checkpoint")
        try:  # the data's checks name the checkpoint, as its fields' do
            trainer = cls(state.config, train_ds, val_ds)
            if state.layer_sizes != trainer._student.layer_sizes:
                raise ValueError(f"model has layers {state.layer_sizes}, "
                                 f"config and data give {trainer._student.layer_sizes}")
            if state.smoothed_preds is not None:  # every sample visited
                trainer.ema.smoothed_preds = _check_shape(
                    state.smoothed_preds.reshape(-1, state.layer_sizes[-1]),
                    trainer.ema.smoothed_preds.shape, "smoothed_preds",
                    "the prediction EMA of the training set")
                trainer.ema.visited[:] = True
        except ValueError as exc:
            raise ValueError(f"checkpoint: {exc}") from None
        trainer._adopt(state.layer_sizes, state.student_params, state.teacher_params)
        trainer.rng.bit_generator.state = state.rng_state
        trainer.detector, trainer.logs = _replay(trainer.config, state.logs)[0], state.logs
        return trainer


def train(config: TrainConfig, train_ds: MultiLabelDataset,
          val_ds: MultiLabelDataset,
          test_ds: MultiLabelDataset | None = None) -> Trainer:
    """Run a full training and, given a clean test set, set the trainer's ``report``."""
    trainer = Trainer(config, train_ds, val_ds)
    trainer.run()
    if test_ds is not None:
        trainer.report = evaluate(trainer.final_model, test_ds, config.threshold)
    return trainer


def evaluate(model: Mlp, dataset: MultiLabelDataset,
             threshold: float = 0.5) -> MetricReport:
    """Full metric report of a model against the dataset's true labels."""
    probs = sigmoid(model.forward(dataset.features))
    return compute_metric_report(probs, dataset.y_true, threshold)


def save_checkpoint(ckpt: dict, path) -> None:
    """Write ``ckpt`` atomically, as the bytes of ``json.dump`` plus a newline."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(ckpt) + "\n")


def _read_checkpoint(ckpt, source) -> TrainState:
    """The checked ``TrainState`` of a parsed checkpoint; errors name ``source``."""
    if not isinstance(ckpt, dict) or ckpt.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{source}: not a trainer checkpoint")
    if ckpt.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{source}: unsupported checkpoint version "
                         f"{ckpt.get('version')!r}, expected {CHECKPOINT_VERSION}")
    try:
        return _read_record(TrainState, ckpt, "", "checkpoint", ("format", "version"))
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def load_checkpoint(path) -> TrainState:
    return _read_checkpoint(read_json(path), str(path))
