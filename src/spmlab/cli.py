"""Command-line entry point: dataset generation, corruption, experiments.

Subcommands: ``gen`` (synthetic dataset to CSV), ``corrupt`` (apply a
single-positive noise regime), ``train`` (run one experiment and write its
artifacts), ``eval`` (re-score a checkpoint), ``grid`` (one experiment per
hyperparameter value). Errors leave a machine-readable JSON object on
stderr and a nonzero exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .data import (
    MultiLabelDataset,
    SyntheticSpec,
    atomic_open,
    generate_synthetic,
    load_split_csv,
    read_spec_json,
    write_spec_json,
    write_split_csv,
)
from .net import Mlp, make_rng
from .noise import compute_flip_rates, simulate_dominant_spml, simulate_random_spml
from .training import (
    TrainConfig,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)

__all__ = ["ExperimentSpec", "run_experiment", "main"]

REGIMES = ("random", "dominant", "none")
# stream tag mixed into the data seed so corruption draws are independent
# of generation draws but still reproducible from one seed
NOISE_STREAM = 9157


@dataclass
class ExperimentSpec:
    train_config: TrainConfig
    outdir: str
    regime: str = "random"
    synthetic: SyntheticSpec | None = None
    data_dir: str | None = None
    noise_seed: int | None = None
    emit_curves: bool = True

    def validate(self) -> None:
        self.train_config.validate()
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if (self.synthetic is None) == (self.data_dir is None):
            raise ValueError("exactly one of synthetic spec or data_dir is required")
        if self.regime == "none" and self.train_config.method not in ("gt", "iun"):
            raise ValueError(
                "regime 'none' keeps full labels and is only valid with "
                "methods 'gt' or 'iun'"
            )


def _load_splits(spec: ExperimentSpec) -> dict:
    if spec.synthetic is not None:
        return generate_synthetic(spec.synthetic)
    datadir = Path(spec.data_dir)
    return {name: load_split_csv(datadir, name) for name in ("train", "val", "test")}


def _resolve_noise_seed(noise_seed, synthetic=None, data_dir=None) -> int:
    """The explicit seed, else the synthetic seed, else the data's spec.json seed, else 0."""
    if noise_seed is not None:
        return noise_seed
    if synthetic is not None:
        return synthetic.seed
    if data_dir is not None:
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


def _json_dump(obj, path) -> None:
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_curves(path, logs) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch", "stage", "loss", "noisy_val_map",
             "noisy_val_map_student", "clean_val_map"]
        )
        for log in logs:
            writer.writerow([
                log.epoch,
                log.stage,
                repr(log.train_loss),
                repr(log.noisy_val_map),
                repr(log.noisy_val_map_student),
                "" if log.clean_val_map is None else repr(log.clean_val_map),
            ])


def read_curves(path) -> list:
    """Re-ingest a curves.csv written by ``run_experiment``."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for row in rows:
        out.append({
            "epoch": int(row["epoch"]),
            "stage": row["stage"],
            "loss": float(row["loss"]),
            "noisy_val_map": float(row["noisy_val_map"]),
            "noisy_val_map_student": float(row["noisy_val_map_student"]),
            "clean_val_map": None if row["clean_val_map"] == ""
            else float(row["clean_val_map"]),
        })
    return out


def read_config_json(path) -> ExperimentSpec:
    """Rebuild an experiment spec from a written config.json."""
    with open(path) as fh:
        payload = json.load(fh)
    synthetic = payload["synthetic"]
    return ExperimentSpec(
        train_config=TrainConfig(**payload["train_config"]),
        outdir=str(Path(path).parent),
        regime=payload["regime"],
        synthetic=None if synthetic is None else SyntheticSpec(**synthetic),
        data_dir=payload["data_dir"],
        noise_seed=payload["noise_seed"],
    )


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run one experiment and write its artifacts; returns their paths."""
    spec.validate()
    outdir = Path(spec.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    splits = _load_splits(spec)
    noise_seed = _resolve_noise_seed(spec.noise_seed, spec.synthetic, spec.data_dir)
    noise_rng = make_rng([noise_seed, NOISE_STREAM])
    train_ds = apply_regime(splits["train"], spec.regime, noise_rng)
    val_ds = apply_regime(splits["val"], spec.regime, noise_rng)

    flips = compute_flip_rates(train_ds.y_true, train_ds.y_observed)
    flips.to_csv(outdir / "fliprates.csv")

    result = train(spec.train_config, train_ds, val_ds, splits["test"])
    trainer = result.trainer
    resolved = asdict(spec.train_config)
    resolved["w_neg"] = trainer.w_neg
    resolved["k_expected"] = trainer.k_expected
    config_payload = {
        "train_config": resolved,
        "regime": spec.regime,
        "noise_seed": noise_seed,
        "synthetic": None if spec.synthetic is None else asdict(spec.synthetic),
        "data_dir": spec.data_dir,
        "trigger_epoch": trainer.detector.trigger_epoch,
    }
    _json_dump(config_payload, outdir / "config.json")
    _json_dump(result.report.to_json_dict(), outdir / "metrics.json")
    if spec.emit_curves:
        _write_curves(outdir / "curves.csv", trainer.logs)
    save_checkpoint(trainer.checkpoint(), outdir / "checkpoint.json")

    paths = {
        "config": outdir / "config.json",
        "metrics": outdir / "metrics.json",
        "fliprates": outdir / "fliprates.csv",
        "checkpoint": outdir / "checkpoint.json",
    }
    if spec.emit_curves:
        paths["curves"] = outdir / "curves.csv"
    return paths


# config fields whose flag is not the field name in kebab case; None: no flag
_FLAG_EXCEPTIONS = {
    (SyntheticSpec, "seed"): "--data-seed",
    (SyntheticSpec, "split_ratio"): None,
}


def _config_flags(cls) -> list:
    """(field name, flag, type hint, default) for each flagged field of ``cls``."""
    hints = get_type_hints(cls)
    out = []
    for f in fields(cls):
        flag = _FLAG_EXCEPTIONS.get((cls, f.name), "--" + f.name.replace("_", "-"))
        if flag is not None:
            out.append((f.name, flag, hints[f.name], f.default))
    return out


def _parse_value(cls, name: str, raw: str):
    """Parse a flag or grid value for field ``name`` of ``cls`` by its type hint.

    Bools take only ``true``/``false``; optional fields also take ``none``.
    """
    hint = get_type_hints(cls)[name]
    optional = type(None) in get_args(hint)
    if optional and raw == "none":
        return None
    if optional:
        (hint,) = set(get_args(hint)) - {type(None)}
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
    for name, flag, hint, default in _config_flags(cls):
        if hint is bool:
            parser.add_argument(flag, action="store_true")
        else:
            parser.add_argument(flag, type=partial(_flag_value, cls, name), default=default)


def _config_from_flags(cls, args):
    return cls(**{name: getattr(args, flag[2:].replace("-", "_"))
                  for name, flag, _, _ in _config_flags(cls)})


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
    p_cor.add_argument("--regime", choices=["random", "dominant"], required=True)
    p_cor.add_argument("--noise-seed", type=int, default=None)
    p_cor.add_argument("--outdir", default=None,
                       help="defaults to the dataset directory")

    # the flags of one experiment, shared by train and grid
    run = argparse.ArgumentParser(add_help=False)
    _add_config_flags(run, SyntheticSpec)
    _add_config_flags(run, TrainConfig)
    run.add_argument("--data-dir", default=None)
    run.add_argument("--regime", choices=list(REGIMES), default="random")
    run.add_argument("--noise-seed", type=int, default=None)
    run.add_argument("--outdir", required=True)
    run.add_argument("--no-curves", action="store_true")
    sub.add_parser("train", parents=[run], help="run one experiment")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data-dir", required=True)
    p_eval.add_argument("--split", choices=["train", "val", "test"], default="test")
    p_eval.add_argument("--threshold", type=float, default=0.5)
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--use-student", action="store_true",
                        help="score the student parameters instead of the teacher")

    p_grid = sub.add_parser("grid", parents=[run], help="run a grid of experiments")
    p_grid.add_argument("--grid", action="append", required=True,
                        metavar="FIELD=V1,V2,...",
                        help="repeatable; cartesian product over fields")
    p_grid.add_argument("--jobs", type=int, default=1)

    return parser


def _cmd_gen(args) -> int:
    spec = _config_from_flags(SyntheticSpec, args)
    splits = generate_synthetic(spec)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, ds in splits.items():
        write_split_csv(ds, outdir, name)
    write_spec_json(spec, outdir / "spec.json")
    print(outdir)
    return 0


def _cmd_corrupt(args) -> int:
    datadir = Path(args.data_dir)
    outdir = Path(args.outdir) if args.outdir else datadir
    outdir.mkdir(parents=True, exist_ok=True)
    rng = make_rng([_resolve_noise_seed(args.noise_seed, data_dir=datadir), NOISE_STREAM])
    flips = None
    for name in ("train", "val"):
        ds = load_split_csv(datadir, name)
        ds = apply_regime(ds, args.regime, rng)
        write_split_csv(ds, outdir, name)
        if name == "train":
            flips = compute_flip_rates(ds.y_true, ds.y_observed)
    flips.to_csv(outdir / "fliprates.csv")
    if outdir != datadir:
        # keep the clean test split alongside the corrupted training data
        write_split_csv(load_split_csv(datadir, "test"), outdir, "test")
    print(outdir)
    return 0


def _spec_from_train_args(args) -> ExperimentSpec:
    synthetic = None if args.data_dir else _config_from_flags(SyntheticSpec, args)
    return ExperimentSpec(
        train_config=_config_from_flags(TrainConfig, args),
        outdir=args.outdir,
        regime=args.regime,
        synthetic=synthetic,
        data_dir=args.data_dir,
        noise_seed=args.noise_seed,
        emit_curves=not args.no_curves,
    )


def _cmd_train(args) -> int:
    run_experiment(_spec_from_train_args(args))
    print(args.outdir)
    return 0


def _cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    params_key = "student_params" if args.use_student else "teacher_params"
    model = Mlp(tuple(ckpt["layer_sizes"]), np.array(ckpt[params_key]))
    report = evaluate(model, load_split_csv(args.data_dir, args.split), args.threshold)
    payload = report.to_json_dict()
    if args.out:
        _json_dump(payload, args.out)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _parse_grid(items) -> list:
    """(field, raw values) per grid entry; a field or a value may appear only once."""
    axes = {}
    valid = {f.name for f in fields(TrainConfig)}
    for item in items:
        if "=" not in item:
            raise ValueError(f"grid entry {item!r} is not FIELD=V1,V2,...")
        key, values = item.split("=", 1)
        key = key.replace("-", "_")
        if key not in valid:
            raise ValueError(f"unknown config field {key!r} in grid")
        if key in axes:
            raise ValueError(f"grid field {key!r} is given twice")
        values = values.split(",")
        repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if repeated is not None:
            raise ValueError(f"grid field {key!r} lists value {repeated!r} twice")
        axes[key] = values
    return list(axes.items())


def _grid_cells(axes) -> list:
    cells = [{}]
    for key, values in axes:
        cells = [dict(cell, **{key: v}) for cell in cells for v in values]
    return cells


def _cmd_grid(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    base = _spec_from_train_args(args)
    specs = []  # every value is parsed before any cell runs
    for cell in _grid_cells(_parse_grid(args.grid)):
        config = replace(base.train_config, **{
            key: _parse_value(TrainConfig, key, raw) for key, raw in cell.items()})
        subdir = "_".join(f"{k}={v}" for k, v in cell.items())
        specs.append(replace(base, train_config=config, outdir=str(Path(args.outdir) / subdir)))
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
