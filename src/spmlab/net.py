"""Flat-parameter dense classifier with hand-written forward/backward.

The model is a plain MLP head: input -> optional tanh hidden layer ->
output logits. Parameters live in one float64 vector (per layer: row-major
weights, then biases), which keeps optimizer steps, teacher EMA copies,
and finite-difference checks trivial.

The public API checks its inputs and never changes an ``Mlp``:
``sgd_step`` returns a new model. The private kernels ``_forward_cached``
(logits plus the activations backprop needs) and ``_backprop`` skip the
input checks; the trainer calls them on student and teacher models whose
parameter buffers it owns and updates in place, and hands out copies as
snapshots. A model builds its (W, b) views into ``params`` once, so
``params`` is only ever updated in place, never rebound. ``Mlp._over`` views
the trainer's (2, P) student-teacher buffer, to forward both in one pass:
on a (2, 1, n, d) stack of two batches, the broadcast matmuls give the
(2, 2, n, out) products of each batch (first index) with each model
(second index), each slice with the bytes of its own 2-D pass.

Every module checks its array inputs with the helpers beside
``as_matrix``, one per rule: binary labels (``_check_binary``), values
in [0, 1] (``_check_unit``), a matching shape (``_check_shape``), a
positive label in every row (``_check_rows_positive``), extents
supported on the true labels (``_check_extents``) and sample indices in
range (``_check_indices``). Each raises ValueError through ``_reject``,
naming the argument, the rule and the first offending value with its
0-based position, also kept as attributes for CSV ingestion to map to a
file, line and column. Every value rule lives here too: ``_check_rules`` is the one table
checker, rejecting the first failing ``{key: (ok, requirement)}`` entry and naming the key
and its value, ``_check_derived`` a table of stored values against the values they follow
from, and ``_check_param`` checks one finite scalar. Records (type hints, JSON,
atomic writes) live in ``records``; this module imports no other module of the package.
"""

from __future__ import annotations

import math
import reprlib

import numpy as np

__all__ = ["Mlp", "as_matrix", "make_rng", "sigmoid", "softmax"]


def make_rng(seed) -> np.random.Generator:
    """All randomness in the package flows from generators made here."""
    return np.random.default_rng(seed)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array or raise ValueError."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def _reject(name: str, rule: str, found: str, position: tuple | None = None) -> ValueError:
    """The error every input rule raises: argument, rule, and what was found.

    It keeps ``name`` and the 0-based ``position`` (row, or row and column) as attributes.
    """
    exc = ValueError(f"{name} must {rule}, found {found}")
    exc.name, exc.position = name, position
    return exc


def _check_cells(a: np.ndarray, bad: np.ndarray, name: str, rule: str) -> np.ndarray:
    """Return ``a`` unless the mask ``bad`` flags an entry; name the first one."""
    if bad.any():
        at = tuple(int(i) for i in np.argwhere(bad)[0])
        raise _reject(name, rule, f"{float(a[at])!r} at [{', '.join(map(str, at))}]", at)
    return a


def _check_shape(a: np.ndarray, shape: tuple | None, name: str, ref: str) -> np.ndarray:
    """Return the array ``a`` if it has ``shape`` (if not None), the shape ``ref`` gives it."""
    if shape is not None and a.shape != shape:
        raise _reject(name, f"have shape {shape} to match {ref}", f"shape {a.shape}")
    return a


def _check_binary(a, name: str, shape=None, ref: str = "") -> np.ndarray:
    """``as_matrix(a, name)``, with only 0/1 entries (and ``shape``, if given)."""
    y = _check_shape(as_matrix(a, name), shape, name, ref)
    return _check_cells(y, (y != 0.0) & (y != 1.0), name, "be binary (0/1)")


def _check_unit(a, name: str, shape=None, ref: str = "") -> np.ndarray:
    """``as_matrix(a, name)``, with entries in [0, 1] (and ``shape``, if given)."""
    p = _check_shape(as_matrix(a, name), shape, name, ref)
    return _check_cells(p, (p < 0.0) | (p > 1.0), name, "lie in [0, 1]")


def _check_rows_positive(y: np.ndarray, name: str) -> np.ndarray:
    """Return the binary matrix ``y`` if every row has a positive label."""
    empty = ~y.any(axis=1)
    if empty.any():
        row = int(np.flatnonzero(empty)[0])
        raise _reject(name, "have a positive label in every row",
                      f"no positive label in row {row}", (row,))
    return y


def _check_indices(sample_indices, n_samples: int, name: str) -> np.ndarray:
    """``sample_indices`` as an intp vector, each in [0, n_samples)."""
    idx = np.asarray(sample_indices, dtype=np.intp)
    bad = np.flatnonzero((idx < 0) | (idx >= n_samples))
    if bad.size:
        raise _reject(name, f"index the {n_samples} samples",
                      f"{idx.flat[bad[0]]} out of range at [{bad[0]}]", (int(bad[0]),))
    return idx


def _check_rules(values: dict, prefix: str, rules: dict) -> None:
    """Reject the first key of ``rules`` whose ``(ok, requirement)`` fails, naming it with
    ``prefix``, its requirement and its entry in ``values``."""
    for key, (ok, requirement) in rules.items():
        if not ok:
            raise ValueError(f"{prefix}{key} must be {requirement}, "
                             f"got {reprlib.repr(values[key])}")


def _check_derived(facts: dict, basis: str) -> None:
    """Reject the first ``{name: (stored, derived)}`` fact whose stored value is not the one
    derived from ``basis``, naming it, the derived value and the stored one."""
    _check_rules({name: stored for name, (stored, _) in facts.items()}, "",
                 {name: (stored == derived, f"{derived!r} (as {basis})")
                  for name, (stored, derived) in facts.items()})


def _check_param(name: str, value, ok: bool, requirement: str):
    """Return a scalar hyperparameter if it is finite and ``ok`` (it meets ``requirement``)."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    _check_rules({name: value}, "", {name: (ok, requirement)})
    return value


def _check_extents(extents, y_true: np.ndarray) -> np.ndarray:
    """``as_matrix(extents)``: non-negative, zero where ``y_true`` is 0, positive where 1."""
    e = _check_shape(as_matrix(extents, "extents"), y_true.shape, "extents", "y_true")
    _check_cells(e, e < 0.0, "extents", "be non-negative")
    _check_cells(e, (e != 0.0) & (y_true == 0.0), "extents", "be zero where the label is 0")
    return _check_cells(e, (e == 0.0) & (y_true == 1.0), "extents",
                        "be positive on a true-positive cell")


# Smallest/largest float64 strictly inside (0, 1); sigmoid outputs are
# clipped here so downstream logs never see an exact 0 or 1.
_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


def sigmoid(logits) -> np.ndarray:
    """Numerically stable logistic, with outputs in the open interval (0, 1)."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(z).all():
        raise ValueError("logits contain non-finite entries")
    return _sigmoid(z)


def _sigmoid(z: np.ndarray, clamped: bool = True) -> np.ndarray:
    """``sigmoid`` of finite float64 logits, unchecked.

    ``clamped=False`` skips the clamp into (0, 1), for a caller that clips tighter.
    """
    out = np.exp(-np.abs(z))     # in (0, 1], never overflows
    out /= 1.0 + out             # sigmoid(-|z|)
    np.subtract(1.0, out, out=out, where=z >= 0.0)
    if clamped:
        np.minimum(np.maximum(out, _SIG_LO, out=out), _SIG_HI, out=out)
    return out


def softmax(logits) -> np.ndarray:
    """Row-wise softmax (max-shifted for stability)."""
    z = as_matrix(logits, "logits")
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class Mlp:
    """Sigmoid-output classifier: linear map or one tanh hidden layer.

    ``layer_sizes`` is ``(n_in, n_out)`` or ``(n_in, n_hidden, n_out)``.
    Public methods never change an instance; ``sgd_step`` returns a new model.
    """

    def __init__(self, layer_sizes, params):
        sizes = tuple(int(s) for s in layer_sizes)
        if len(sizes) not in (2, 3):
            raise ValueError(f"layer_sizes must have 2 or 3 entries, got {sizes}")
        if any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")
        expected = Mlp.param_count(sizes)
        theta = np.asarray(params, dtype=np.float64)
        if theta.ndim != 1 or theta.size != expected:
            raise ValueError(
                f"model with layers {sizes} expects {expected} parameters, "
                f"got array of shape {theta.shape}"
            )
        if not np.isfinite(theta).all():
            raise ValueError("parameters contain non-finite entries")
        self._bind(sizes, theta.copy())

    @classmethod
    def _over(cls, layer_sizes, params: np.ndarray) -> "Mlp":
        """An unchecked model on the buffer ``params`` itself; a 2-D one stacks a model per row."""
        model = cls.__new__(cls)
        model._bind(tuple(layer_sizes), params)
        return model

    def _bind(self, sizes: tuple, params: np.ndarray) -> None:
        """Keep ``params`` and its per-layer views, W as (..., fi, fo) and b as (..., 1, fo)."""
        self.layer_sizes, self.params, self._layers = sizes, params, []
        lead, off = params.shape[:-1], 0
        for fi, fo in zip(sizes[:-1], sizes[1:]):
            mid, end = off + fi * fo, off + (fi + 1) * fo
            self._layers.append((params[..., off:mid].reshape(lead + (fi, fo)),
                                 params[..., mid:end].reshape(lead + (1, fo))))
            off = end

    @staticmethod
    def param_count(layer_sizes) -> int:
        sizes = tuple(layer_sizes)
        return int(sum((fi + 1) * fo for fi, fo in zip(sizes[:-1], sizes[1:])))

    @classmethod
    def init(cls, layer_sizes, rng: np.random.Generator) -> "Mlp":
        """Draw parameters uniformly on [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
        sizes = tuple(int(s) for s in layer_sizes)
        chunks = []
        for fi, fo in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / math.sqrt(fi)
            chunks.append(rng.uniform(-bound, bound, size=(fi + 1) * fo))
        return cls(sizes, np.concatenate(chunks))

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]

    @property
    def n_params(self) -> int:
        return self.params.size

    def with_params(self, params) -> "Mlp":
        return Mlp(self.layer_sizes, params)

    def _check_batch(self, batch) -> np.ndarray:
        x = as_matrix(batch, "batch")
        if x.shape[1] != self.n_inputs:
            raise ValueError(
                f"batch has {x.shape[1]} feature columns, model expects {self.n_inputs}"
            )
        return x

    def forward(self, batch) -> np.ndarray:
        """Raw logits for a batch, shape (n, n_outputs)."""
        logits, _ = self._forward_cached(self._check_batch(batch))
        return logits

    def _forward_cached(self, x: np.ndarray, n_checked: int | None = None):
        """(logits, per-layer inputs) of a checked batch, a stack per row of a stacked model.

        One check covers every (n, out) product of the pass, or only the first
        ``n_checked`` of them in row-major order, when the caller leaves the rest unused.
        """
        acts = [x]
        for w, b in self._layers[:-1]:
            acts.append(np.tanh(acts[-1] @ w + b))
        w, b = self._layers[-1]
        logits = acts[-1] @ w + b
        checked = logits
        if n_checked is not None:
            checked = logits.reshape(-1, *logits.shape[-2:])[:n_checked]
        if not np.isfinite(checked).all():
            raise ValueError("forward pass produced non-finite logits")
        return logits, acts

    def backward(self, batch, dloss_dlogits) -> np.ndarray:
        """Chain an upstream logit gradient back to a flat parameter gradient."""
        x = self._check_batch(batch)
        g = _check_shape(as_matrix(dloss_dlogits, "dloss_dlogits"),
                         (x.shape[0], self.n_outputs), "dloss_dlogits", "batch and outputs")
        _, acts = self._forward_cached(x)
        return self._backprop(acts, g)

    def _backprop(self, acts, g: np.ndarray) -> np.ndarray:
        """Flat parameter gradient from ``_forward_cached``'s activations."""
        parts = []  # per layer, last first: db, then dW
        delta = g
        for i in range(len(self._layers) - 1, -1, -1):
            parts += [delta.sum(axis=0), (acts[i].T @ delta).ravel()]
            if i > 0:
                delta = (delta @ self._layers[i][0].T) * (1.0 - acts[i] ** 2)  # tanh'
        return np.concatenate(parts[::-1])

    def sgd_step(self, grad, lr: float) -> "Mlp":
        """Plain gradient step: theta' = theta - lr * grad."""
        g = _check_shape(np.asarray(grad, dtype=np.float64), self.params.shape, "grad", "params")
        _check_param("lr", lr, lr > 0, "positive")
        return Mlp(self.layer_sizes, self.params - lr * g)
