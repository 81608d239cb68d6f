"""Command-line entry point: dataset generation, corruption, experiments.

Subcommands: ``gen`` (synthetic dataset to CSV), ``corrupt`` (apply a
single-positive noise regime), ``train`` (run one experiment and write its
artifacts), ``eval`` (re-score a checkpoint), ``grid`` (one experiment per
hyperparameter value). Errors leave a machine-readable JSON object on
stderr and a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from .data import (
    MultiLabelDataset,
    SyntheticSpec,
    _split_files,
    _split_paths,
    _write_csv,
    generate_synthetic,
    ingest_csv,
    read_spec_json,
    write_spec_json,
    write_split_csv,
)
from .net import Mlp, make_rng
from .noise import compute_flip_rates, simulate_dominant_spml, simulate_random_spml
from .records import _check_fields, _check_known, _field_type, _hints, _json_dump, _read_json_record
from .training import (
    EpochLog,
    TrainConfig,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)

__all__ = ["ExperimentSpec", "run_experiment", "main"]

NOISE_REGIMES = ("random", "dominant")  # the regimes that corrupt draws
REGIMES = (*NOISE_REGIMES, "none")
# stream tag mixed into the data seed so corruption draws are independent
# of generation draws but still reproducible from one seed
NOISE_STREAM = 9157


def _validate_outdir(path, name="outdir") -> None:
    """Check, before any data is read or generated, that a directory ``path`` exists or can be
    made: the nearest of it and its parents that exists must be a directory, or mkdir fails."""
    absolute = Path(path).absolute()
    if not next(p for p in (absolute, *absolute.parents) if p.exists()).is_dir():
        raise ValueError(f"{name} must be a directory or a path where one can be made, "
                         f"got {str(path)!r}")


@dataclass
class ExperimentSpec:
    """One run; its config.json is these fields as resolved, minus outdir, plus trigger_epoch."""

    train_config: TrainConfig
    outdir: str
    regime: str = "random"
    synthetic: SyntheticSpec | None = None
    data_dir: str | None = None
    noise_seed: int | None = None

    def validate(self) -> None:
        self.train_config.validate()
        _check_fields(self, lambda: {
            "regime": (self.regime in REGIMES, f"one of {REGIMES}"),
            "noise_seed": (self.noise_seed is None or self.noise_seed >= 0, "None or non-negative"),
            "data_dir": (self.data_dir is None or isinstance(self.data_dir, str), "a str or None")})
        if (self.synthetic is None) == (self.data_dir is None):
            raise ValueError("exactly one of synthetic spec or data_dir is required")
        _validate_outdir(self.outdir)
        if self.regime == "none" and self.train_config.method not in ("gt", "iun"):
            raise ValueError(
                "regime 'none' keeps full labels and is only valid with "
                "methods 'gt' or 'iun'"
            )


@dataclass
class NoiseRecord:
    """A data directory's noise.json: the seed and regime ``corrupt`` drew its labels with."""

    noise_seed: int
    regime: str

    def validate(self) -> None:
        _check_fields(self, lambda: {
            "noise_seed": (self.noise_seed >= 0, "non-negative"),
            "regime": (self.regime in NOISE_REGIMES, f"one of {NOISE_REGIMES}")})


def _load_clean(datadir, name: str, regime="none", features=True,
                copy=False) -> MultiLabelDataset:
    """The files of a split that a command uses, each checked as ``ingest_csv`` reads it:
    the labels; the features unless not ``features``; the extents under the dominant
    ``regime``, or wherever they exist to ``copy`` the split. Its ``*_observed.csv`` is never
    read. A missing features or labels file is an error even where it is not read, and so
    is a missing extents file under the dominant ``regime``; each error names the file."""
    features_path, labels_path, extents_path = _split_files(datadir, name)[:3]
    if regime == "dominant" and extents_path is None:
        raise ValueError("dominant regime requires extent scores: missing dataset file "
                         f"{_split_paths(datadir, name)['extents']}")
    return ingest_csv(features_path if features else None, labels_path,
                      extents_path if copy or regime == "dominant" else None)


def _load_splits(spec: ExperimentSpec) -> dict:
    if spec.synthetic is not None:
        return generate_synthetic(spec.synthetic)
    splits = {name: _load_clean(spec.data_dir, name, spec.regime) for name in ("train", "val")}
    return dict(splits, test=_load_clean(spec.data_dir, "test"))


def _resolve_noise_seed(noise_seed, synthetic=None, data_dir=None) -> int:
    """The explicit seed (its caller's record checks it), else the synthetic seed, else the
    seed of the data's noise.json (written by ``corrupt``), else its spec.json seed, else 0."""
    if noise_seed is not None:
        return noise_seed
    if synthetic is not None:
        return synthetic.seed
    if data_dir is not None:
        path = Path(data_dir, "noise.json")
        if path.exists():
            return _read_json_record(NoiseRecord, path, "noise").noise_seed
        spec_path = Path(data_dir, "spec.json")
        if spec_path.exists():
            return read_spec_json(spec_path).seed
    return 0


def apply_regime(ds: MultiLabelDataset, regime: str,
                 rng: np.random.Generator) -> MultiLabelDataset:
    """Attach observed labels for one split under a noise regime."""
    if regime == "none":
        return ds.with_observed(ds.y_true.copy())
    if regime == "random":
        return ds.with_observed(simulate_random_spml(ds.y_true, rng))
    if regime == "dominant":
        if ds.extents is None:
            raise ValueError("dominant regime requires extent scores")
        return ds.with_observed(simulate_dominant_spml(ds.y_true, ds.extents))
    raise ValueError(f"unknown regime {regime!r}")


def _corrupt_splits(splits: dict, regime: str, noise_seed: int):
    """Train then val with observed labels from one noise RNG, and the train flip rates."""
    rng = make_rng([noise_seed, NOISE_STREAM])
    observed = {name: apply_regime(splits[name], regime, rng) for name in ("train", "val")}
    return observed, compute_flip_rates(observed["train"].y_true, observed["train"].y_observed)


def read_config_json(path) -> ExperimentSpec:
    """The checked spec of a config.json, to replay the run into the file's directory; an
    error names the file and field. Its trigger_epoch is an outcome, not a setting."""
    return _read_json_record(ExperimentSpec, path, "config", ("trigger_epoch",),
                             outdir=str(Path(path).parent))


# (EpochLog field, curves.csv header) per column; train_loss is the one
# column not named after its field
_CURVE_COLUMNS = [(f.name, "loss" if f.name == "train_loss" else f.name) for f in fields(EpochLog)]


def _write_curves(path, logs) -> None:
    """A header row, then a row per epoch: a None cell is left empty, any other is its ``str``."""
    rows = ([getattr(log, name) for name, _ in _CURVE_COLUMNS] for log in logs)
    _write_csv(path, [[header for _, header in _CURVE_COLUMNS],
                      *(["" if value is None else str(value) for value in row] for row in rows)])


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run one experiment and write its five artifacts; returns their paths by stem."""
    spec.validate()
    splits = _load_splits(spec)
    noise_seed = _resolve_noise_seed(spec.noise_seed, spec.synthetic, spec.data_dir)
    observed, flips = _corrupt_splits(splits, spec.regime, noise_seed)
    trainer = train(spec.train_config, observed["train"], observed["val"], splits["test"])
    # the run directory exists only once the run has succeeded, so a file
    # failing its checks, or splits that disagree, leave none
    outdir = Path(spec.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {Path(name).stem: outdir / name for name in
             ("config.json", "metrics.json", "curves.csv", "fliprates.csv", "checkpoint.json")}
    flips.to_csv(paths["fliprates"])
    resolved = replace(spec, noise_seed=noise_seed, train_config=trainer.config)
    config = {k: v for k, v in asdict(resolved).items() if k != "outdir"}
    _json_dump(dict(config, trigger_epoch=trainer.detector.trigger_epoch), paths["config"])
    _json_dump(trainer.report.to_json_dict(), paths["metrics"])
    _write_curves(paths["curves"], trainer.logs)
    save_checkpoint(trainer.checkpoint(), paths["checkpoint"])
    return paths


# config fields whose flag is not the field name in kebab case; None: no flag
_FLAG_EXCEPTIONS = {
    (SyntheticSpec, "seed"): "--data-seed",
    (SyntheticSpec, "split_ratio"): None,
}


def _config_flags(cls) -> list:
    """(field name, flag, type hint, default) for each flagged field of ``cls``; a field
    hinted as a dataclass (a nested record) has no flag."""
    flags = [(f, _FLAG_EXCEPTIONS.get((cls, f.name), "--" + f.name.replace("_", "-")))
             for f in fields(cls) if not is_dataclass(_field_type(_hints(cls)[f.name])[0])]
    return [(f.name, flag, _hints(cls)[f.name], f.default) for f, flag in flags if flag]


def _parse_value(cls, name: str, raw: str):
    """Parse a flag or grid value for field ``name`` of ``cls`` by its type hint.

    Bools take only ``true``/``false``; optional fields also take ``none``, None's spelling.
    """
    hint, optional = _field_type(_hints(cls)[name])
    if optional and raw == "none":
        return None
    try:
        return {"true": True, "false": False}[raw] if hint is bool else hint(raw)
    except (KeyError, ValueError):
        expected = "true or false" if hint is bool else hint.__name__
        if optional:
            expected += " or none"
        raise ValueError(f"field {name}: expected {expected}, got {raw!r}") from None


def _flag_value(cls, name: str, raw: str):
    try:
        return _parse_value(cls, name, raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_config_flags(parser, cls) -> None:
    """A flag per field of ``cls``; a field without a default is a required flag."""
    for name, flag, hint, default in _config_flags(cls):
        if hint is bool:
            parser.add_argument(flag, action="store_true")
        else:
            parser.add_argument(flag, type=partial(_flag_value, cls, name), default=default,
                                required=default is MISSING)


def _config_from_flags(cls, args, **given):
    """``cls`` from its flags in ``args``, and the fields ``given``."""
    return cls(**{name: getattr(args, flag[2:].replace("-", "_"))
                  for name, flag, _, _ in _config_flags(cls)}, **given)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spmlab",
        description="single-positive multi-label learning lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset as CSV splits")
    _add_config_flags(p_gen, SyntheticSpec)
    p_gen.add_argument("--outdir", required=True)

    p_cor = sub.add_parser("corrupt", help="apply a noise regime to a dataset")
    p_cor.add_argument("--data-dir", required=True)
    p_cor.add_argument("--regime", required=True, help=f"one of {NOISE_REGIMES}")
    p_cor.add_argument("--noise-seed", type=int, default=None)
    p_cor.add_argument("--outdir", default=None,
                       help="defaults to the dataset directory")

    # the flags of one experiment, shared by train and grid
    run = argparse.ArgumentParser(add_help=False)
    _add_config_flags(run, SyntheticSpec)
    _add_config_flags(run, TrainConfig)
    _add_config_flags(run, ExperimentSpec)
    sub.add_parser("train", parents=[run], help="run one experiment")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data-dir", required=True)
    p_eval.add_argument("--split", choices=["train", "val", "test"], default="test")
    p_eval.add_argument("--threshold", type=float, default=None,
                        help="defaults to the threshold of the run")
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--use-student", action="store_true",
                        help="score the student even where the run reports its teacher")

    p_grid = sub.add_parser("grid", parents=[run], help="run a grid of experiments")
    p_grid.add_argument("--grid", action="append", required=True,
                        metavar="FIELD=V1,V2,...",
                        help="repeatable; cartesian product over fields")
    p_grid.add_argument("--jobs", type=int, default=1)

    return parser


def _write_data_dir(outdir: Path, splits: dict, spec: SyntheticSpec | None) -> None:
    """Make ``outdir``, remove every dataset file of older data from it (one would pair with
    the new labels), then write each split's files and the ``spec``, if any, as spec.json."""
    outdir.mkdir(parents=True, exist_ok=True)
    stale = [outdir / name for name in ("spec.json", "fliprates.csv", "noise.json")]
    for name in ("train", "val", "test"):
        stale += _split_paths(outdir, name).values()
    for path in stale:
        path.unlink(missing_ok=True)
    for name, ds in splits.items():
        write_split_csv(ds, outdir, name)
    if spec is not None:
        write_spec_json(spec, outdir / "spec.json")


def _cmd_gen(args) -> int:
    _validate_outdir(args.outdir)
    spec = _config_from_flags(SyntheticSpec, args)
    outdir = Path(args.outdir)
    _write_data_dir(outdir, generate_synthetic(spec), spec)
    print(outdir)
    return 0


def _cmd_corrupt(args) -> int:
    """Draw train and val observed labels from their clean files, never the old observed ones.
    The noise record (seed, regime) is checked before any dataset file is read. In place it
    reads only the draw's inputs; a copy reads every clean file and spec.json before
    ``_write_data_dir`` writes them. Then the observed labels, flip rates and record follow."""
    if args.outdir:
        _validate_outdir(args.outdir)
    datadir = Path(args.data_dir)
    record = NoiseRecord(_resolve_noise_seed(args.noise_seed, data_dir=datadir), args.regime)
    record.validate()
    outdir = Path(args.outdir) if args.outdir else datadir
    # in place when outdir is the data directory; a missing one is named by _load_clean
    in_place = datadir.exists() and outdir.exists() and outdir.samefile(datadir)
    splits = {name: _load_clean(datadir, name, record.regime, features=not in_place,
                                copy=not in_place) for name in ("train", "val")}
    observed, flips = _corrupt_splits(splits, record.regime, record.noise_seed)
    if not in_place:
        splits["test"] = _load_clean(datadir, "test", copy=True)
        spec = datadir / "spec.json"
        _write_data_dir(outdir, splits, read_spec_json(spec) if spec.exists() else None)
    for name, ds in observed.items():
        _write_csv(_split_paths(outdir, name)["observed"], ds.y_observed, int)
    flips.to_csv(outdir / "fliprates.csv")
    # last, so train --data-dir <outdir> redraws exactly these labels
    _json_dump(asdict(record), outdir / "noise.json")
    print(outdir)
    return 0


def _spec_from_train_args(args) -> ExperimentSpec:
    synthetic = None if args.data_dir else _config_from_flags(SyntheticSpec, args)
    return _config_from_flags(ExperimentSpec, args, synthetic=synthetic,
                              train_config=_config_from_flags(TrainConfig, args))


def _cmd_train(args) -> int:
    run_experiment(_spec_from_train_args(args))
    print(args.outdir)
    return 0


def _cmd_eval(args) -> int:
    """Score the model the run reports at the run's threshold, unless overridden, on y_true.

    Every checkpoint field is checked first, also one only a resume reads. A split whose
    feature or class count is not the model's is named with the checkpoint. An ``--out`` and a
    ``--threshold`` are checked before the checkpoint is read; the out may not be it or a file
    of the split, and a missing directory of it is made once the report is ready."""
    out = Path(args.out) if args.out else None
    paths = _split_paths(args.data_dir, args.split)
    if out is not None:
        if out.is_dir():
            raise ValueError(f"out must be a file path, got {args.out!r}, a directory")
        for read in (Path(args.checkpoint), *paths.values()):
            if read.resolve() == out.resolve():
                raise ValueError(f"out must not be eval's input {str(read)!r}, got {args.out!r}")
        _validate_outdir(out.parent, "out's directory")
    if args.threshold is not None:  # the rule of a run's threshold
        TrainConfig(threshold=args.threshold).validate()
    state = load_checkpoint(args.checkpoint)
    teacher = state.config.reports_teacher and not args.use_student
    sizes = state.layer_sizes
    model = Mlp(sizes, state.teacher_params if teacher else state.student_params)
    threshold = state.config.threshold if args.threshold is None else args.threshold
    ds = _load_clean(args.data_dir, args.split)
    if ds.n_features != sizes[0]:
        raise ValueError(f"{args.checkpoint}: model with layers {sizes} expects {sizes[0]} "
                         f"feature columns, features {paths['features']} has {ds.n_features}")
    if ds.n_classes != sizes[-1]:
        raise ValueError(f"{args.checkpoint}: model with layers {sizes} scores {sizes[-1]} "
                         f"classes, labels {paths['labels']} has {ds.n_classes}")
    report = evaluate(model, ds, threshold)
    payload = report.to_json_dict()
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        _json_dump(payload, out)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _parse_grid(items) -> list:
    """(field, raw values) per grid entry; a field or a value may appear only once."""
    axes = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"grid entry {item!r} is not FIELD=V1,V2,...")
        key, values = item.split("=", 1)
        key = key.replace("-", "_")
        _check_known(TrainConfig, [key], "grid")
        if key in axes:
            raise ValueError(f"grid field {key!r} is given twice")
        values = values.split(",")
        repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if repeated is not None:
            raise ValueError(f"grid field {key!r} lists value {repeated!r} twice")
        axes[key] = values
    return list(axes.items())


def _grid_cells(axes) -> list:
    """A dict of (field, raw value) per cell of the product of ``axes``, the last axis fastest."""
    keys = [key for key, _ in axes]
    return [dict(zip(keys, cell)) for cell in product(*(values for _, values in axes))]


def _cmd_grid(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    base = _spec_from_train_args(args)
    specs = []  # every cell is parsed and validated before any cell runs
    for cell in _grid_cells(_parse_grid(args.grid)):
        config = replace(base.train_config, **{
            key: _parse_value(TrainConfig, key, raw) for key, raw in cell.items()})
        subdir = "_".join(f"{k}={v}" for k, v in cell.items())
        specs.append(replace(base, train_config=config, outdir=str(Path(args.outdir) / subdir)))
        specs[-1].validate()
    workers = min(args.jobs, len(specs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_experiment, specs))
    else:
        for spec in specs:
            run_experiment(spec)
    for spec in specs:
        print(spec.outdir)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "corrupt": _cmd_corrupt,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "grid": _cmd_grid,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
