"""Datasets: synthetic multi-label generation and CSV ingestion.

A sample is a feature vector plus a full multi-label ground truth, an
optional single-positive observed labeling, and per-class extent scores
(the fraction of the scene each positive class occupies) that drive the
dominant corruption protocol.

Synthetic features are extent-weighted mixtures of per-class Gaussian
prototypes plus unit noise, so dominant classes are the most visible and
minor classes carry proportionally weaker signal.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .net import (
    _check_binary,
    _check_extents,
    _check_param,
    _check_rows_positive,
    as_matrix,
    make_rng,
)

__all__ = [
    "MultiLabelDataset",
    "SyntheticSpec",
    "generate_synthetic",
    "ingest_csv",
    "write_split_csv",
    "load_split_csv",
    "write_spec_json",
    "read_spec_json",
]


@contextmanager
def atomic_open(path, newline=None):
    """Write text to a temporary file beside ``path``, renamed over it on success.

    A writer that raises or is killed partway leaves the previous file intact.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class MultiLabelDataset:
    features: np.ndarray              # n x d
    y_true: np.ndarray                # n x C binary, >= 1 positive per row
    y_observed: np.ndarray | None = None   # n x C binary
    extents: np.ndarray | None = None      # n x C, support matches y_true

    def __post_init__(self):
        self.features = as_matrix(self.features, "features")
        self.y_true = _check_binary(self.y_true, "y_true")
        if self.features.shape[0] != self.y_true.shape[0]:
            raise ValueError(
                f"features have {self.features.shape[0]} rows, "
                f"labels have {self.y_true.shape[0]}"
            )
        _check_rows_positive(self.y_true, "y_true")
        if self.y_observed is not None:
            self.y_observed = _check_binary(self.y_observed, "y_observed",
                                            self.y_true.shape, "y_true")
        if self.extents is not None:
            self.extents = _check_extents(self.extents, self.y_true)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return self.y_true.shape[1]

    def with_observed(self, y_observed) -> "MultiLabelDataset":
        return MultiLabelDataset(self.features, self.y_true, y_observed, self.extents)


@dataclass
class SyntheticSpec:
    """Generator settings; defaults give the 2000/1000/1000 desk-scale suite."""

    n_samples: int = 4000
    n_classes: int = 19
    n_features: int = 32
    separation: float = 16.0
    mean_positives: float = 2.9
    extent_concentration: float = 3.0
    seed: int = 0
    split_ratio: tuple = (2, 1, 1)

    def __post_init__(self):
        self.split_ratio = tuple(self.split_ratio)  # JSON stores it as a list

    def validate(self) -> None:
        _check_param("n_samples", self.n_samples, self.n_samples >= 4, "at least 4")
        _check_param("n_classes", self.n_classes, self.n_classes >= 2, "at least 2")
        _check_param("n_features", self.n_features, self.n_features >= 1, "at least 1")
        _check_param("separation", self.separation, self.separation > 0, "positive")
        _check_param("mean_positives", self.mean_positives,
                     1.0 <= self.mean_positives <= self.n_classes, f"in [1, {self.n_classes}]")
        _check_param("extent_concentration", self.extent_concentration,
                     self.extent_concentration > 0, "positive")
        if len(self.split_ratio) != 3 or any(r <= 0 for r in self.split_ratio):
            raise ValueError("split_ratio must be three positive numbers")


def generate_synthetic(spec: SyntheticSpec) -> dict:
    """Generate seeded train/val/test splits of a synthetic dataset."""
    spec.validate()
    rng = make_rng(spec.seed)
    n, n_classes, d = spec.n_samples, spec.n_classes, spec.n_features

    # class weights decay with the index: low-index classes are globally
    # dominant (larger extents, more occurrences), high-index ones minor
    weights = np.linspace(1.0, 0.35, n_classes)
    weights = weights / weights.sum()
    prototypes = spec.separation * rng.standard_normal((n_classes, d)) / np.sqrt(d)

    if n_classes > 1:
        p_extra = (spec.mean_positives - 1.0) / (n_classes - 1.0)
    else:
        p_extra = 0.0
    cardinality = 1 + rng.binomial(n_classes - 1, p_extra, size=n)

    y = np.zeros((n, n_classes))
    extents = np.zeros((n, n_classes))
    alpha_full = spec.extent_concentration * n_classes * weights
    for i in range(n):
        classes = rng.choice(n_classes, size=cardinality[i], replace=False, p=weights)
        share = rng.dirichlet(alpha_full[classes])
        share = np.maximum(share, 1e-9)
        share = share / share.sum()
        y[i, classes] = 1.0
        extents[i, classes] = share

    features = extents @ prototypes + rng.standard_normal((n, d))

    ratio = np.asarray(spec.split_ratio, dtype=np.float64)
    n_train = int(round(n * ratio[0] / ratio.sum()))
    n_val = int(round(n * ratio[1] / ratio.sum()))
    bounds = [0, n_train, n_train + n_val, n]
    names = ("train", "val", "test")
    return {
        name: MultiLabelDataset(
            features[a:b], y[a:b], extents=extents[a:b]
        )
        for name, a, b in zip(names, bounds[:-1], bounds[1:])
    }


def _float_rows(array):
    return [[repr(float(v)) for v in row] for row in array]


def _int_rows(array):
    return [[str(int(v)) for v in row] for row in array]


def write_split_csv(ds: MultiLabelDataset, outdir, prefix: str) -> list:
    """Write one split as prefix_{features,labels[,extents][,observed]}.csv."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(kind, rows):
        path = outdir / f"{prefix}_{kind}.csv"
        with atomic_open(path, newline="") as fh:
            csv.writer(fh).writerows(rows)
        written.append(path)

    emit("features", _float_rows(ds.features))
    emit("labels", _int_rows(ds.y_true))
    if ds.extents is not None:
        emit("extents", _float_rows(ds.extents))
    if ds.y_observed is not None:
        emit("observed", _int_rows(ds.y_observed))
    return written


def _read_numeric_csv(path, name):
    rows = []
    width = None
    with open(path, newline="") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(
                    f"{name} {path}: line {line_no} has {len(row)} columns, expected {width}"
                )
            parsed = []
            for col, cell in enumerate(row, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{name} {path}: line {line_no}, column {col}: "
                        f"not a number: {cell!r}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{name} {path}: file is empty")
    return np.array(rows, dtype=np.float64)


def ingest_csv(features_path, labels_path, extents_path=None) -> MultiLabelDataset:
    """Build a validated dataset from CSV files (no observed labels)."""
    features = _read_numeric_csv(features_path, "features")
    labels = _read_numeric_csv(labels_path, "labels")
    if labels.shape[0] != features.shape[0]:
        raise ValueError(
            f"labels {labels_path} has {labels.shape[0]} rows, "
            f"features {features_path} has {features.shape[0]}"
        )
    bad = np.flatnonzero(~np.all((labels == 0.0) | (labels == 1.0), axis=1))
    if bad.size:
        raise ValueError(
            f"labels {labels_path}: line {bad[0] + 1} contains a non-binary entry"
        )
    empty = np.flatnonzero(labels.sum(axis=1) == 0)
    if empty.size:
        raise ValueError(
            f"labels {labels_path}: line {empty[0] + 1} has no positive label"
        )
    extents = None
    if extents_path is not None:
        extents = _read_numeric_csv(extents_path, "extents")
        if extents.shape != labels.shape:
            raise ValueError(
                f"extents {extents_path} has shape {extents.shape}, "
                f"labels have {labels.shape}"
            )
        if np.any(extents < 0.0):
            i, j = np.argwhere(extents < 0.0)[0]
            raise ValueError(
                f"extents {extents_path}: line {i + 1}, column {j + 1}: negative extent"
            )
        conflict = (extents > 0.0) & (labels == 0.0)
        if np.any(conflict):
            i, j = np.argwhere(conflict)[0]
            raise ValueError(
                f"extents {extents_path}: line {i + 1}, column {j + 1}: "
                f"nonzero extent where the label is 0"
            )
        missing = (extents == 0.0) & (labels == 1.0)
        if np.any(missing):
            i, j = np.argwhere(missing)[0]
            raise ValueError(
                f"extents {extents_path}: line {i + 1}, column {j + 1}: "
                f"zero extent on a positive label"
            )
    return MultiLabelDataset(features, labels, extents=extents)


def load_split_csv(datadir, prefix: str) -> MultiLabelDataset:
    """Load a split written by ``write_split_csv`` (observed file optional)."""
    datadir = Path(datadir)
    features = datadir / f"{prefix}_features.csv"
    labels = datadir / f"{prefix}_labels.csv"
    for path in (features, labels):
        if not path.exists():
            raise FileNotFoundError(f"missing dataset file: {path}")
    extents = datadir / f"{prefix}_extents.csv"
    ds = ingest_csv(features, labels, extents if extents.exists() else None)
    observed = datadir / f"{prefix}_observed.csv"
    if observed.exists():
        obs = _read_numeric_csv(observed, "observed labels")
        ds = ds.with_observed(obs)
    return ds


def write_spec_json(spec: SyntheticSpec, path) -> None:
    with atomic_open(path) as fh:
        json.dump(asdict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_spec_json(path) -> SyntheticSpec:
    with open(path) as fh:
        return SyntheticSpec(**json.load(fh))
