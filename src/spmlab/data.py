"""Datasets: synthetic multi-label generation, CSV ingestion, and the file formats.

A sample is a feature vector plus a full multi-label ground truth, an
optional single-positive observed labeling, and per-class extent scores
(the fraction of the scene each positive class occupies) that drive the
dominant corruption protocol.

Synthetic features are extent-weighted mixtures of per-class Gaussian
prototypes plus unit noise, so dominant classes are the most visible and
minor classes carry proportionally weaker signal. A row's classes are
``rng.choice``'s draws and its extent shares ``rng.dirichlet``'s, both made
without the per-call checks. The row loop only draws: the first round's CDF
is built once per call, and ``rng.dirichlet``'s division, the clamp and the
normalisation run after the loop, once per row cardinality.

CSV files are only parsed here: a cell is whatever Python's ``float`` takes
(``1_0``, ``３`` and `` 7`` too) and must be finite, and every row is as wide
as the first. A file of plain numbers (only digits, ``.``, ``,``, ``e``,
``E``, ``+``, ``-`` and line ends, no blank line, no line longer than the field
size limit), as ``_write_csv`` writes them, is parsed by ``np.loadtxt``'s C reader:
it reads a cell with the same ``PyOS_string_to_double`` as ``float``, so the
values are the same bits. Any other file, and one ``loadtxt`` does not take
whole, goes to the exact reader, ``csv.reader`` itself: the cells and line
numbers are its own, and its errors (an oversize cell) are named like the rest.
Each row is one ``map(float)``. So the values, line numbers and every error are
those of ``csv.reader`` either way. The rules on the arrays are those of
``MultiLabelDataset``, the one check each split gets; ``ingest_csv``
prefixes a rejection with the file, line and column it points at.

``_split_paths`` alone names a split's files. CSV rows are written by ``_write_csv``
(commas, CRLF: the bytes of the ``csv`` module) through ``records.atomic_open``; a spec.json
is written and read through ``records``, like every JSON artifact.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from bisect import bisect_right
from dataclasses import asdict, dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .net import (_check_binary, _check_extents, _check_rows_positive, _check_shape, as_matrix,
                  make_rng)
from .records import _check_fields, _json_dump, _read_json_record, atomic_open

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


@dataclass
class MultiLabelDataset:
    features: np.ndarray              # n x d
    y_true: np.ndarray                # n x C binary, >= 1 positive per row
    y_observed: np.ndarray | None = None   # n x C binary
    extents: np.ndarray | None = None      # n x C, support matches y_true

    def __post_init__(self):
        self.features = as_matrix(self.features, "features")
        self.y_true = _check_binary(self.y_true, "y_true")
        _check_shape(self.y_true, (self.n_samples, self.n_classes), "y_true", "the feature rows")
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
    split_ratio: tuple[float, ...] = (2, 1, 1)

    def __post_init__(self):
        if isinstance(self.split_ratio, list):  # as JSON stores it
            self.split_ratio = tuple(self.split_ratio)

    def validate(self) -> None:
        ratio = self.split_ratio
        _check_fields(self, lambda: {
            "n_samples": (self.n_samples >= 4, "at least 4"),
            "n_classes": (self.n_classes >= 2, "at least 2"),
            "n_features": (self.n_features >= 1, "at least 1"),
            "separation": (self.separation > 0, "positive"),
            "mean_positives": (1.0 <= self.mean_positives <= self.n_classes,
                               f"in [1, {self.n_classes}]"),
            "extent_concentration": (self.extent_concentration > 0, "positive"),
            "seed": (self.seed >= 0, "non-negative"),
            "split_ratio": (len(ratio) == 3 and all(math.isfinite(r) and r > 0 for r in ratio),
                            "three finite, positive numbers"),
        })
        sizes = _split_sizes(self.n_samples, ratio)
        if min(sizes) < 1:
            raise ValueError(f"split_ratio must give every split at least one row, got {ratio!r} "
                             f"(train/val/test rows {sizes} of {self.n_samples})")


def _split_sizes(n: int, ratio) -> tuple:
    """Train, val and test rows of ``n`` samples split by ``ratio``."""
    ratio = np.asarray(ratio, dtype=np.float64)
    n_train = int(round(n * ratio[0] / ratio.sum()))
    n_val = int(round(n * ratio[1] / ratio.sum()))
    return n_train, n_val, n - n_train - n_val


def _cdf(weights: list) -> list:
    """``rng.choice``'s CDF of ``weights``: sums left to right, each divided by the last."""
    cdf = list(accumulate(weights))
    total = cdf[-1]
    return [c / total for c in cdf]


def _draw_classes(rng, weights: list, cdf: list, k) -> list:
    """The rounds and draws of ``rng.choice(len(weights), k, replace=False, p=weights)``,
    whose first round's CDF is ``cdf``. A later round's leaves out the classes found."""
    found = {}  # ordered: a class keeps its first draw's place
    while True:
        for x in rng.random(k - len(found)).tolist():
            found[bisect_right(cdf, x)] = None
        if len(found) == k:
            return list(found)
        cdf = _cdf([0.0 if c in found else w for c, w in enumerate(weights)])


def generate_synthetic(spec: SyntheticSpec) -> dict:
    """Generate seeded train/val/test splits of a synthetic dataset: the rows are those of one
    ``rng.choice`` and one ``rng.dirichlet`` call each, drawn in a loop that does nothing else."""
    spec.validate()
    rng = make_rng(spec.seed)
    n, n_classes, d = spec.n_samples, spec.n_classes, spec.n_features

    # class weights decay with the index: low-index classes are globally
    # dominant (larger extents, more occurrences), high-index ones minor
    weights = np.linspace(1.0, 0.35, n_classes)
    weights = weights / weights.sum()
    prototypes = spec.separation * rng.standard_normal((n_classes, d)) / np.sqrt(d)

    p_extra = (spec.mean_positives - 1.0) / (n_classes - 1.0)  # validate: n_classes >= 2
    cardinality = 1 + rng.binomial(n_classes - 1, p_extra, size=n)

    # the loop only draws; the arithmetic runs after it, once per row cardinality
    y = np.zeros((n, n_classes))
    extents = np.zeros((n, n_classes))
    alpha = spec.extent_concentration * n_classes * weights
    weights, alphas = weights.tolist(), alpha.tolist()
    cdf = _cdf(weights)
    drawn, raw = array("q"), array("d")
    for k in cardinality.tolist():
        classes = _draw_classes(rng, weights, cdf, k)
        drawn.extend(classes)
        a = [alphas[c] for c in classes]
        # rng.dirichlet's draws: a broken stick if every alpha is below 0.1, else gammas
        raw.extend(rng.dirichlet(a).tolist() if max(a) < 0.1 else map(rng.standard_gamma, a))
    drawn, raw = np.frombuffer(drawn, dtype=np.int64), np.frombuffer(raw)

    starts = np.cumsum(cardinality) - cardinality
    for k in np.flatnonzero(np.bincount(cardinality)):  # np.unique would import numpy.ma
        rows = np.flatnonzero(cardinality == k)
        at = starts[rows, None] + np.arange(k)
        share = raw[at]
        # a gamma row times 1 / its sum left to right, as NumPy does; a stick row is done
        total = sum(share.T[1:], share[:, 0])
        share *= np.where(alpha[drawn[at]].max(axis=1) < 0.1, 1.0, 1.0 / total)[:, None]
        # a C-contiguous row sums exactly as the row's own 1-D sum
        share = np.maximum(share, 1e-9)
        share = share / share.sum(axis=1, keepdims=True)
        y[rows[:, None], drawn[at]] = 1.0
        extents[rows[:, None], drawn[at]] = share
    del drawn, raw  # freed before the features are made, which sets peak memory

    features = extents @ prototypes + rng.standard_normal((n, d))

    n_train, n_val, _ = _split_sizes(n, spec.split_ratio)
    bounds = [0, n_train, n_train + n_val, n]
    return {name: MultiLabelDataset(features[a:b], y[a:b], extents=extents[a:b])
            for name, a, b in zip(("train", "val", "test"), bounds[:-1], bounds[1:])}


def _write_csv(path, rows, dtype=None) -> None:
    """Stream ``rows`` of text cells, or with a ``dtype`` a matrix's ``repr`` cells, to ``path``."""
    if dtype is not None:
        rows = (map(repr, row) for row in rows.astype(dtype).tolist())
    with atomic_open(path, newline="") as fh:
        fh.writelines(",".join(row) + "\r\n" for row in rows)


def _split_paths(datadir, prefix: str) -> dict:
    """A split's ``{prefix}_{kind}.csv`` in ``datadir`` by kind: features, labels, extents,
    observed."""
    return {kind: Path(datadir) / f"{prefix}_{kind}.csv"
            for kind in ("features", "labels", "extents", "observed")}


def write_split_csv(ds: MultiLabelDataset, outdir, prefix: str) -> list:
    """Write one split's files (``_split_paths``) of ``repr`` cells; a None array has none."""
    Path(outdir).mkdir(parents=True, exist_ok=True)
    arrays = ((ds.features, float), (ds.y_true, int), (ds.extents, float), (ds.y_observed, int))
    written = []
    for path, (array, dtype) in zip(_split_paths(outdir, prefix).values(), arrays):
        if array is not None:
            _write_csv(path, array, dtype)
            written.append(path)
    return written


_PLAIN = b"0123456789.,eE+-\r\n"


def _plain_matrix(data: bytes):
    """``np.loadtxt``'s matrix of ``data``, or None unless ``data`` is non-empty, holds only
    ``_PLAIN`` bytes, has no blank line and no line longer than ``csv.field_size_limit()``
    (which ``csv.reader`` applies to a cell), and ``loadtxt`` takes every cell. ``float``
    differs from ``loadtxt``'s cell parser, ``PyOS_string_to_double``, only in whitespace
    and underscores, which ``_PLAIN`` leaves out."""
    if not data or data.translate(None, _PLAIN):
        return None
    lines = data.decode("ascii").splitlines()  # as newline="" splits them
    if "" in lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:  # ragged rows, an empty cell, "1e": the exact reader names it
        return None


def _read_csv_rows(data, path, name):
    """(matrix, 1-based line of each row) of the UTF-8 text ``data``, whose lines are the
    records of ``csv.reader``; a blank one, of no cells, is skipped."""
    values, lines, width, line_no = array("d"), [], None, 0
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh:
        try:
            for line_no, row in enumerate(csv.reader(fh), start=1):
                if not row:
                    continue
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise ValueError(f"{name} {path}: line {line_no} has {len(row)} columns, "
                                     f"expected {width}")
                try:
                    values.extend(map(float, row))
                except ValueError:  # find the cell again, to name its column
                    for col, cell in enumerate(row, start=1):
                        try:
                            float(cell)
                        except ValueError:
                            raise ValueError(f"{name} {path}: line {line_no}, column {col}: "
                                             f"not a number: {cell!r}") from None
                lines.append(line_no)
        except csv.Error as exc:  # the record after the last one read
            raise ValueError(f"{name} {path}: line {line_no + 1}: {exc}") from None
        except UnicodeDecodeError as exc:  # decoded a block at a time, so no line
            raise ValueError(f"{name} {path}: not UTF-8 text ({exc.reason})") from None
    if not lines:
        raise ValueError(f"{name} {path}: file is empty")
    return np.frombuffer(values).reshape(len(lines), width), lines


def _read_numeric_csv(path, name):
    """(matrix, 1-based line of each row) of a CSV of finite numbers; blank lines are skipped.

    The file is read once. ``_plain_matrix`` parses a file of plain numbers in C, and its
    rows are lines 1 to n; any other file, or one it does not take whole, goes to
    ``_read_csv_rows``. The values, lines and every error are the same either way."""
    with open(path, "rb") as fh:
        data = fh.read()
    matrix = _plain_matrix(data)
    if matrix is None:
        matrix, lines = _read_csv_rows(data, path, name)
    else:
        lines = list(range(1, len(matrix) + 1))
    bad = ~np.isfinite(matrix)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"{name} {path}: line {lines[i]}, column {j + 1}: "
                         f"not a finite number: {float(matrix[i, j])!r}")
    return matrix, lines


def ingest_csv(features_path, labels_path, extents_path=None,
               observed_path=None) -> MultiLabelDataset:
    """Build a dataset from CSV files, checked once by ``MultiLabelDataset``. Without a
    ``features_path``, for a caller that uses only the labels, the features have the
    labels' rows and no columns.

    A rejection reads ``<kind> <path>: line L, column C: <rule>``, the cell's
    1-based line and column; a row rule gives the line only, a shape rule neither.
    """
    sources = {"features": ("features", features_path), "y_true": ("labels", labels_path),
               "extents": ("extents", extents_path),
               "y_observed": ("observed labels", observed_path)}
    arrays, lines = {}, {}
    for arg, (kind, path) in sources.items():
        if path is not None:
            arrays[arg], lines[arg] = _read_numeric_csv(path, kind)
    arrays.setdefault("features", np.empty((len(lines["y_true"]), 0)))
    try:
        return MultiLabelDataset(**arrays)
    except ValueError as exc:
        arg = getattr(exc, "name", None)
        if arg not in lines:
            raise
        kind, path = sources[arg]
        where = f"{kind} {path}"
        if exc.position:
            where += f": line {lines[arg][exc.position[0]]}"
            if len(exc.position) > 1:
                where += f", column {exc.position[1] + 1}"
        raise ValueError(f"{where}: {exc}") from None


def _split_files(datadir, prefix: str) -> list:
    """A split's features, labels, extents and observed files; a missing optional one is None."""
    paths = list(_split_paths(datadir, prefix).values())
    for path in paths[:2]:
        if not path.exists():
            raise FileNotFoundError(f"missing dataset file: {path}")
    return paths[:2] + [path if path.exists() else None for path in paths[2:]]


def load_split_csv(datadir, prefix: str) -> MultiLabelDataset:
    """Load a split written by ``write_split_csv``; its extents and observed files are optional."""
    return ingest_csv(*_split_files(datadir, prefix))


def write_spec_json(spec: SyntheticSpec, path) -> None:
    _json_dump(asdict(spec), path)


def read_spec_json(path) -> SyntheticSpec:
    """The checked ``SyntheticSpec`` in a spec.json; a rejection names the file."""
    return _read_json_record(SyntheticSpec, path, "spec")
