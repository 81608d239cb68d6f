import base64
import copy
import csv
import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from spmlab import cli, data, records
from spmlab.cli import (
    ExperimentSpec,
    main,
    read_config_json,
    run_experiment,
)
from spmlab.data import MultiLabelDataset, SyntheticSpec, load_split_csv, write_spec_json
from spmlab.metrics import MonteCarloConfig, monte_carlo_proposition_check
from spmlab.net import Mlp
from spmlab.noise import FlipRateTable
from spmlab.training import (
    METHODS,
    EpochLog,
    TrainConfig,
    Trainer,
    evaluate,
    load_checkpoint,
    save_checkpoint,
)

from oracles import reference_write_curves

DROP = object()  # a parameter that removes the field
# the state fields a checkpoint holds after its format, version and config
STATE_KEYS = ["layer_sizes", "student_params", "teacher_params", "smoothed_preds", "rng_state",
              "logs"]
# the fields only a version-1 checkpoint held, each with a value it held
REMOVED_FIELDS = {"epoch": 4, "stage": "gc", "detector": {"n_seen": 4}, "visited": [1] * 100}
# (path in rng_state, value, rule, case id)
RNG_MUTATIONS = [
    ("state.state", 1.5, "an integer in [0, 2**128)", "rng-state-float"),
    ("state.state", 2 ** 128, "an integer in [0, 2**128)", "rng-state-large"),
    ("state.inc", True, "an integer in [0, 2**128)", "rng-inc-bool"),
    ("has_uint32", 5, "0 or 1", "rng-has-uint32"),
    ("uinteger", -1, "an integer in [0, 2**32)", "rng-uinteger"),
    ("bit_generator", "MT19937", "'PCG64'", "rng-generator"),
]


def set_at(target, path, value):
    """Set the entry of ``target`` at the dotted ``path`` (list indices as digits) to ``value``,
    or to ``value(entry)`` if ``value`` is callable."""
    *parents, key = [int(k) if k.isdigit() else k for k in path.split(".")]
    for parent in parents:
        target = target[parent]
    target[key] = value(target[key]) if callable(value) else value


def stored(values) -> str:
    """An array as a checkpoint stores it: the base64 of its C-order little-endian float64s."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def unstored(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype="<f8").copy()


def recoded(edit):
    """A ``set_at`` value: the stored array decoded, passed through ``edit``, re-encoded."""
    return lambda text: stored(edit(unstored(text)))


def first_set(value):
    """A ``recoded`` edit: the array with its first entry set to ``value``."""
    return lambda a: np.r_[value, a[1:]]

# a warmup row without a clean mAP, a gc row with one, and floats whose reprs differ most
CURVE_LOGS = [EpochLog(0, "warmup", -0.0, 1e-300, 5e-324, None),
              EpochLog(1, "gc", np.float64(1 / 3), 1.0, 0.0, np.float64(0.1))]
FLIP_TABLES = [FlipRateTable(np.array([np.nan, -0.0, 1e-300, 5e-324]), np.array([0, 3, 2, 1]),
                             5e-324, 1e-300),
               FlipRateTable(np.array([0.5, np.nan]), np.array([4, 0]), 0.5, 0.5)]


def tiny_spec(outdir, method="an", **config_kw):
    base = dict(
        method=method, epochs=6, seed=3, learning_rate=0.1, hidden=6,
        beta_t=0.99, patience=2,
    )
    base.update(config_kw)
    return ExperimentSpec(
        train_config=TrainConfig(**base),
        outdir=str(outdir),
        regime="random",
        synthetic=SyntheticSpec(n_samples=200, n_classes=5, n_features=6, seed=3),
    )


@pytest.fixture
def reads(monkeypatch):
    """The names of the dataset CSVs read, in order: ``data._read_numeric_csv`` parses each."""
    names, original = [], data._read_numeric_csv

    def recorded(path, name):
        names.append(path.name)
        return original(path, name)

    monkeypatch.setattr(data, "_read_numeric_csv", recorded)
    return names


class TestGenCorrupt:
    def test_gen_writes_splits_and_spec(self, tmp_path):
        rc = main([
            "gen", "--outdir", str(tmp_path / "d"), "--n-samples", "200",
            "--n-classes", "4", "--n-features", "5", "--data-seed", "1",
        ])
        assert rc == 0
        for prefix in ("train", "val", "test"):
            ds = load_split_csv(tmp_path / "d", prefix)
            assert ds.n_classes == 4
        assert (tmp_path / "d" / "spec.json").exists()

    def test_gen_same_seed_byte_identical(self, tmp_path):
        args = ["--n-samples", "120", "--n-classes", "4", "--n-features", "5",
                "--data-seed", "2"]
        main(["gen", "--outdir", str(tmp_path / "a"), *args])
        main(["gen", "--outdir", str(tmp_path / "b"), *args])
        for name in ("train_features.csv", "val_labels.csv", "test_extents.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_corrupt_emits_observed_and_fliprates(self, tmp_path):
        main(["gen", "--outdir", str(tmp_path / "d"), "--n-samples", "200",
              "--n-classes", "4", "--n-features", "5", "--data-seed", "1"])
        rc = main(["corrupt", "--data-dir", str(tmp_path / "d"),
                   "--regime", "random"])
        assert rc == 0
        ds = load_split_csv(tmp_path / "d", "train")
        assert ds.y_observed is not None
        assert np.all(ds.y_observed.sum(axis=1) == 1.0)
        with open(tmp_path / "d" / "fliprates.csv", newline="") as fh:
            micro = next(row for row in csv.reader(fh) if row[0] == "micro_average")
        assert 0.0 <= float(micro[1]) <= 1.0

    def test_corrupt_dominant_is_deterministic(self, tmp_path):
        main(["gen", "--outdir", str(tmp_path / "d"), "--n-samples", "150",
              "--n-classes", "4", "--n-features", "5", "--data-seed", "4"])
        main(["corrupt", "--data-dir", str(tmp_path / "d"), "--regime", "dominant"])
        first = (tmp_path / "d" / "train_observed.csv").read_bytes()
        main(["corrupt", "--data-dir", str(tmp_path / "d"), "--regime", "dominant"])
        assert (tmp_path / "d" / "train_observed.csv").read_bytes() == first

    def test_corrupt_in_place_replaces_a_bad_observed_file(self, tmp_path):
        d = tmp_path / "d"
        main(["gen", "--outdir", str(d), "--n-samples", "100", "--n-classes", "4",
              "--n-features", "5", "--data-seed", "2"])
        main(["corrupt", "--data-dir", str(d), "--regime", "random"])
        path = d / "train_observed.csv"
        lines = path.read_text().splitlines()
        lines[2] = "2" + lines[2][1:]
        path.write_text("\n".join(lines) + "\n")
        assert main(["corrupt", "--data-dir", str(d), "--regime", "random"]) == 0
        observed = np.loadtxt(path, delimiter=",")
        assert np.array_equal(observed.sum(axis=1), np.ones(len(lines)))

    def test_corrupt_in_place_rewrites_only_the_observed_files(self, tmp_path, reads):
        d = tmp_path / "d"
        main(["gen", "--outdir", str(d), "--n-samples", "100", "--n-classes", "4",
              "--n-features", "5", "--data-seed", "2"])
        main(["corrupt", "--data-dir", str(d), "--regime", "random"])
        clean = [d / f"{split}_{kind}.csv" for split in ("train", "val")
                 for kind in ("features", "labels", "extents")]
        before = {path: (path.stat().st_ino, path.read_bytes()) for path in clean}
        reads.clear()
        assert main(["corrupt", "--data-dir", str(d), "--regime", "dominant"]) == 0
        assert {path: (path.stat().st_ino, path.read_bytes()) for path in clean} == before
        # the draw uses the labels and the extents, never the features
        assert sorted(reads) == sorted(path.name for path in clean
                                       if not path.name.endswith("_features.csv"))

    def test_corrupt_in_place_leaves_hand_written_labels(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        labels = "1.0,0.0\n1.0,1.0\n0.0,1.0\n"
        for split in ("train", "val"):
            (d / f"{split}_features.csv").write_text("0.5,1.5\n2.5,3.5\n-1.0,0.0\n")
            (d / f"{split}_labels.csv").write_text(labels)
        assert main(["corrupt", "--data-dir", str(d), "--regime", "random"]) == 0
        assert (d / "train_labels.csv").read_text() == labels
        ds = load_split_csv(d, "train")
        assert np.array_equal(ds.y_observed.sum(axis=1), np.ones(3))
        assert np.all(ds.y_observed <= ds.y_true)

    @pytest.mark.parametrize("regime, error", [
        ("dominant", "dominant regime requires extent scores"),
        ("bogus", "unknown regime 'bogus'"),
    ])
    def test_apply_regime_names_a_draw_it_cannot_make(self, regime, error):
        ds = MultiLabelDataset(np.zeros((2, 1)), [[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError) as exc:
            cli.apply_regime(ds, regime, np.random.default_rng(0))
        assert str(exc.value) == error

    @pytest.mark.parametrize("flags, message", [
        (["--regime", "bogus"], "regime must be one of ('random', 'dominant'), got 'bogus'"),
        (["--regime", "none"], "regime must be one of ('random', 'dominant'), got 'none'"),
        (["--regime", "random", "--noise-seed", "-1"], "noise_seed must be non-negative, got -1"),
    ], ids=["regime-bogus", "regime-none", "noise-seed"])
    @pytest.mark.parametrize("outdir", [None, "c"], ids=["in-place", "outdir"])
    def test_corrupt_checks_its_noise_record_before_any_dataset_file(
            self, tmp_path, capsys, reads, flags, message, outdir):
        # the labels file is not numeric, yet the record's error is the one named
        d = tmp_path / "d"
        main(["gen", "--outdir", str(d), "--n-samples", "100", "--n-classes", "4",
              "--n-features", "5", "--data-seed", "2"])
        (d / "train_labels.csv").write_text("x\n", encoding="utf-8")
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        reads.clear()
        capsys.readouterr()
        argv = ["corrupt", "--data-dir", str(d), *flags]
        assert main(argv + (["--outdir", str(tmp_path / outdir)] if outdir else [])) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1 and reads == []
        assert json.loads(err) == {"error": "ValueError", "message": message}
        assert {path: path.read_bytes() for path in tmp_path.rglob("*")
                if path.is_file()} == before
        assert sorted(tmp_path.iterdir()) == [d]

    @pytest.mark.parametrize("content, error", [
        ('{"seed": 1, "bogus": 2}', "unknown spec field 'bogus'"),
        ("[1, 2]", "not a JSON object"),
        ("not json", "not valid JSON (Expecting value: line 1 column 1 (char 0))"),
        ('{"seed": 1.5}', "seed must be an integer, got 1.5"),
        ('{"n_samples": "many"}', "n_samples must be an integer, got 'many'"),
    ], ids=["unknown-field", "not-an-object", "not-json", "bad-value", "wrong-type"])
    def test_corrupt_names_a_bad_spec_json(self, tmp_path, capsys, content, error):
        main(["gen", "--outdir", str(tmp_path / "d"), "--n-samples", "100",
              "--n-classes", "4", "--n-features", "5", "--data-seed", "4"])
        path = tmp_path / "d" / "spec.json"
        path.write_text(content)
        capsys.readouterr()
        assert main(["corrupt", "--data-dir", str(tmp_path / "d"), "--regime", "random"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": f"{path}: {error}"}

    def test_corrupt_names_a_long_bad_seed_briefly(self, tmp_path, capsys):
        # a rejected value is shown cut short (reprlib.repr), however long it is
        main(["gen", "--outdir", str(tmp_path / "d"), "--n-samples", "100",
              "--n-classes", "4", "--n-features", "5", "--data-seed", "4"])
        path = tmp_path / "d" / "spec.json"
        path.write_text(json.dumps({"seed": "9" * 5000}))
        capsys.readouterr()
        assert main(["corrupt", "--data-dir", str(tmp_path / "d"), "--regime", "random"]) == 1
        message = json.loads(capsys.readouterr().err.strip())["message"]
        assert message.startswith(f"{path}: seed must be an integer, got '999")
        assert len(message) < 200

    @pytest.mark.parametrize("command", [
        ["train", "--data-dir", "{data}", "--outdir", "{out}", "--epochs", "1"],
        ["corrupt", "--data-dir", "{data}", "--regime", "random"],
        ["corrupt", "--data-dir", "{data}", "--regime", "random", "--outdir", "{out}"],
    ], ids=["train", "corrupt-in-place", "corrupt-outdir"])
    def test_missing_dataset_creates_no_directory(self, tmp_path, capsys, command):
        data, out = tmp_path / "nodata", tmp_path / "run"
        assert main([a.format(data=data, out=out) for a in command]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "FileNotFoundError",
                       "message": f"missing dataset file: {data / 'train_features.csv'}"}
        assert list(tmp_path.iterdir()) == []

    def test_splits_that_disagree_create_no_run_directory(self, tmp_path, capsys):
        d = tmp_path / "d"
        main(["gen", "--outdir", str(d), "--n-samples", "100", "--n-classes", "4",
              "--n-features", "5", "--data-seed", "2"])
        path = d / "val_features.csv"
        path.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                for line in path.read_text().splitlines()))
        capsys.readouterr()
        assert main(["train", "--data-dir", str(d), "--epochs", "1",
                     "--outdir", str(tmp_path / "run")]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError",
                       "message": "validation features have 4 columns, training has 5"}
        assert not (tmp_path / "run").exists()

    def test_train_and_eval_read_no_observed_file(self, tmp_path):
        # train redraws the observed labels and eval scores y_true, so observed
        # files that fail every check change no byte
        d = tmp_path / "d"
        main(["gen", "--outdir", str(d), "--n-samples", "200", "--n-classes", "4",
              "--n-features", "5", "--data-seed", "5"])
        run = ["train", "--data-dir", str(d), "--regime", "dominant", "--method", "adagc",
               "--epochs", "3", "--hidden", "4"]
        assert main([*run, "--outdir", str(tmp_path / "clean")]) == 0
        assert main(["corrupt", "--data-dir", str(d), "--regime", "dominant"]) == 0
        path = d / "train_observed.csv"
        lines = path.read_text().splitlines()
        lines[2] = "2" + lines[2][1:]
        path.write_text("\n".join(lines) + "\n")
        for split in ("val", "test"):
            (d / f"{split}_observed.csv").write_text("2\n")
        assert main([*run, "--outdir", str(tmp_path / "dirty")]) == 0
        for name in ("config.json", "metrics.json", "curves.csv", "fliprates.csv",
                     "checkpoint.json"):
            assert (tmp_path / "dirty" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()
        assert main(["eval", "--checkpoint", str(tmp_path / "dirty" / "checkpoint.json"),
                     "--data-dir", str(d), "--out", str(tmp_path / "e.json")]) == 0
        assert (tmp_path / "e.json").read_bytes() == (tmp_path / "clean" / "metrics.json").read_bytes()

    @pytest.mark.parametrize("command, expected", [
        ("corrupt --data-dir {d} --regime random", "train_labels val_labels"),
        ("corrupt --data-dir {d} --regime dominant",
         "train_labels train_extents val_labels val_extents"),
        ("corrupt --data-dir {d} --regime random --outdir {out}",
         " ".join(f"{split}_{kind}" for split in ("train", "val", "test")
                  for kind in ("features", "labels", "extents"))),
        ("train --data-dir {d} --regime random --epochs 1 --outdir {out}",
         "train_features train_labels val_features val_labels test_features test_labels"),
        ("train --data-dir {d} --regime dominant --epochs 1 --outdir {out}",
         "train_features train_labels train_extents val_features val_labels val_extents "
         "test_features test_labels"),
        ("eval --checkpoint {run}/checkpoint.json --data-dir {d} --split val",
         "val_features val_labels"),
    ], ids=["corrupt-random", "corrupt-dominant", "corrupt-outdir", "train-random",
            "train-dominant", "eval"])
    def test_each_command_reads_only_the_files_it_uses(self, tmp_path, reads, command,
                                                       expected):
        # once each, in this order; a missing features or labels file still fails
        # a command that does not read it (test_missing_dataset_creates_no_directory)
        d, out, run = tmp_path / "d", tmp_path / "out", tmp_path / "run"
        main(["gen", "--outdir", str(d), "--n-samples", "100", "--n-classes", "4",
              "--n-features", "5", "--data-seed", "2"])
        main(["corrupt", "--data-dir", str(d), "--regime", "dominant"])
        main(["train", "--data-dir", str(d), "--epochs", "1", "--outdir", str(run)])
        reads.clear()
        assert main(command.format(d=d, out=out, run=run).split()) == 0
        assert reads == [f"{name}.csv" for name in expected.split()]

    def test_a_bad_features_file_fails_the_command_that_reads_it(self, tmp_path, capsys):
        # corrupt in place draws the same labels from a copy whose training features
        # hold a non-number; train, which reads them, names the file, line and column
        clean, bad, run = tmp_path / "clean", tmp_path / "bad", tmp_path / "run"
        main(["gen", "--outdir", str(clean), "--n-samples", "100", "--n-classes", "4",
              "--n-features", "5", "--data-seed", "2"])
        shutil.copytree(clean, bad)
        path = bad / "train_features.csv"
        lines = path.read_bytes().split(b"\r\n")
        cells = lines[2].split(b",")
        cells[1] = b"x"
        lines[2] = b",".join(cells)
        path.write_bytes(b"\r\n".join(lines))
        for d in (clean, bad):
            assert main(["corrupt", "--data-dir", str(d), "--regime", "dominant"]) == 0
        for name in ("train_observed.csv", "val_observed.csv", "fliprates.csv", "noise.json"):
            assert (bad / name).read_bytes() == (clean / name).read_bytes()
        capsys.readouterr()
        assert main(["train", "--data-dir", str(bad), "--regime", "dominant", "--epochs", "1",
                     "--outdir", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and not run.exists()
        assert json.loads(err) == {"error": "ValueError", "message": f"features {path}: "
                                   "line 3, column 2: not a number: 'x'"}


class TestRunExperiment:
    def test_curves_have_the_bytes_of_csv_writer(self, tmp_path):
        cli._write_curves(tmp_path / "curves.csv", CURVE_LOGS)
        reference_write_curves(tmp_path / "reference.csv", CURVE_LOGS)
        assert (tmp_path / "curves.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_tiny_run_writes_all_artifacts_quickly(self, tmp_path):
        t0 = time.perf_counter()
        paths = run_experiment(tiny_spec(tmp_path / "run"))
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        for key in ("config", "metrics", "curves", "fliprates", "checkpoint"):
            assert paths[key].exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        run_experiment(tiny_spec(tmp_path / "r1", method="adagc", epochs=8))
        run_experiment(tiny_spec(tmp_path / "r2", method="adagc", epochs=8))
        for name in ("metrics.json", "curves.csv", "checkpoint.json", "config.json",
                     "fliprates.csv"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b

    def test_curves_have_one_row_per_epoch(self, tmp_path):
        spec = tiny_spec(tmp_path / "run", method="adagc", epochs=9)
        run_experiment(spec)
        with open(tmp_path / "run" / "curves.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        assert [int(r["epoch"]) for r in rows] == list(range(9))
        stages = [r["stage"] for r in rows]
        assert sum(1 for a, b in zip(stages, stages[1:]) if a != b) <= 1

    def test_metrics_json_is_reingestable(self, tmp_path):
        run_experiment(tiny_spec(tmp_path / "run"))
        with open(tmp_path / "run" / "metrics.json") as fh:
            report = json.load(fh)
        assert 0.0 <= report["map"] <= 1.0

    def test_checkpoint_is_loadable(self, tmp_path):
        run_experiment(tiny_spec(tmp_path / "run"))
        state = load_checkpoint(tmp_path / "run" / "checkpoint.json")
        assert state.config.epochs == 6
        assert len(state.logs) == 6

    def test_config_json_reproduces_the_run(self, tmp_path):
        # config.json carries enough to re-run the experiment exactly, in all five artifacts
        paths = run_experiment(tiny_spec(tmp_path / "r1"))
        spec = read_config_json(tmp_path / "r1" / "config.json")
        assert spec.outdir == str(tmp_path / "r1")
        spec.outdir = str(tmp_path / "r2")
        for name, path in run_experiment(spec).items():
            assert path.read_bytes() == paths[name].read_bytes(), name

    @pytest.mark.parametrize("field, value, error", [
        ("train_config", None, "train_config must be a JSON object, found None"),
        ("train_config.lam", "3", "train_config.lam must be a number, got '3'"),
        ("train_config.lam", -1.0, "train_config.lam must be non-negative, got -1.0"),
        ("synthetic.split_ratio", "ab",
         "synthetic.split_ratio must be a list of numbers, got 'ab'"),
        ("synthetic.n_samples", 2, "synthetic.n_samples must be at least 4, got 2"),
        ("bogus", 1, "unknown config field 'bogus'"),
        ("train_config.bogus", 1, "unknown train_config field 'bogus'"),
        ("train_config", DROP, "train_config is missing"),
        ("regime", "x", "regime must be one of ('random', 'dominant', 'none'), got 'x'"),
        ("noise_seed", 1.5, "noise_seed must be an integer or None, got 1.5"),
        ("data_dir", 5, "data_dir must be a str or None, got 5"),
        ("synthetic", None, "exactly one of synthetic spec or data_dir is required"),
        (None, [1], "not a JSON object"),
    ], ids=["train-config-null", "lam-string", "lam-negative", "split-ratio-string",
            "synthetic-rule", "unknown-field", "unknown-nested-field", "missing-field",
            "regime", "noise-seed", "data-dir", "no-data-source", "not-an-object"])
    def test_read_config_json_names_a_bad_field(self, tmp_path, field, value, error):
        run_experiment(tiny_spec(tmp_path / "run", epochs=1))
        config = json.loads((tmp_path / "run" / "config.json").read_text())
        if field is None:
            config = value
        elif value is DROP:
            del config[field]
        else:
            set_at(config, field, value)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(config))
        with pytest.raises(ValueError) as exc:
            read_config_json(path)
        assert str(exc.value) == f"{path}: {error}"

    def test_read_config_json_needs_no_trigger_epoch(self, tmp_path):
        # the trigger epoch is an outcome of the run, not one of its settings
        run_experiment(tiny_spec(tmp_path / "run", epochs=1))
        config = json.loads((tmp_path / "run" / "config.json").read_text())
        del config["trigger_epoch"]
        path = tmp_path / "run" / "edited.json"
        path.write_text(json.dumps(config))
        assert read_config_json(path) == read_config_json(tmp_path / "run" / "config.json")

    @pytest.mark.parametrize("write, old, new", [
        (save_checkpoint, {"epoch": 1}, {"epoch": 2}),
        (cli._json_dump, {"map": 0.5}, {"map": 0.6}),
        (write_spec_json, SyntheticSpec(seed=1), SyntheticSpec(seed=2)),
        (lambda logs, path: cli._write_curves(path, logs), CURVE_LOGS[:1], CURVE_LOGS),
        (FlipRateTable.to_csv, *FLIP_TABLES),
    ], ids=["checkpoint", "json_dump", "spec", "curves", "fliprates"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, write, old, new):
        path = tmp_path / "artifact.json"
        write(old, path)
        before = path.read_bytes()

        class KilledMidWrite:
            """A file whose first write puts its text down, then raises."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

            def write(self, text):
                self.fh.write(text)
                raise RuntimeError("killed mid-write")

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

        # every writer opens its file through records.atomic_open
        monkeypatch.setattr(records, "open", lambda *a, **kw: KilledMidWrite(open(*a, **kw)),
                            raising=False)
        with pytest.raises(RuntimeError, match="mid-write"):
            write(new, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_regime_none_restricted_to_full_label_methods(self, tmp_path):
        spec = tiny_spec(tmp_path / "run")
        spec.regime = "none"
        with pytest.raises(ValueError, match="none"):
            run_experiment(spec)
        spec.train_config.method = "gt"
        run_experiment(spec)  # allowed

    def test_requires_exactly_one_data_source(self, tmp_path):
        spec = tiny_spec(tmp_path / "run")
        spec.data_dir = str(tmp_path)
        with pytest.raises(ValueError, match="exactly one"):
            run_experiment(spec)


class TestCliSurface:
    @pytest.mark.parametrize("command, noise_seed, message", [
        (["gen", "--outdir", "{out}", "--data-seed", "-1"], None,
         "seed must be non-negative, got -1"),
        (["corrupt", "--data-dir", "{data}", "--regime", "random", "--noise-seed", "-3",
          "--outdir", "{out}"], None, "noise_seed must be non-negative, got -3"),
        (["train", "--data-dir", "{data}", "--outdir", "{out}", "--seed", "-2"], None,
         "seed must be non-negative, got -2"),
        (["train", "--data-dir", "{data}", "--outdir", "{out}"], -4,
         "{data}/noise.json: noise_seed must be non-negative, got -4"),
        (None, None, "seed must be non-negative, got -1"),
    ], ids=["gen-data-seed", "corrupt-noise-seed", "train-seed", "noise-json", "monte-carlo"])
    def test_negative_seed_is_named(self, tmp_path, capsys, command, noise_seed, message):
        data, out = tmp_path / "d", tmp_path / "out"
        if command is None:  # the Monte Carlo check, which no command runs
            with pytest.raises(ValueError) as exc:
                monte_carlo_proposition_check(MonteCarloConfig(seed=-1), "random", 100)
            assert str(exc.value) == message
            return
        main(["gen", "--outdir", str(data), "--n-samples", "100", "--n-classes", "4",
              "--n-features", "5"])
        if noise_seed is not None:
            (data / "noise.json").write_text(json.dumps({"noise_seed": noise_seed,
                                                         "regime": "random"}))
        capsys.readouterr()
        assert main([a.format(data=data, out=out) for a in command]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "ValueError", "message": message.format(data=data)}
        assert not out.exists()

    def test_train_on_csv_dataset(self, tmp_path, capsys):
        main(["gen", "--outdir", str(tmp_path / "d"), "--n-samples", "200",
              "--n-classes", "4", "--n-features", "5", "--data-seed", "5"])
        rc = main([
            "train", "--data-dir", str(tmp_path / "d"), "--regime", "random",
            "--method", "wan", "--epochs", "3", "--learning-rate", "0.1",
            "--hidden", "6", "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 0
        assert (tmp_path / "out" / "metrics.json").exists()

    def test_train_on_data_dir_uses_the_noise_seed_of_corrupt(self, tmp_path):
        # both commands seed the noise from spec.json when no --noise-seed is given
        main(["gen", "--outdir", str(tmp_path / "d"), "--n-samples", "200",
              "--n-classes", "4", "--n-features", "5", "--data-seed", "3"])
        assert main(["corrupt", "--data-dir", str(tmp_path / "d"), "--regime", "random"]) == 0
        rc = main([
            "train", "--data-dir", str(tmp_path / "d"), "--regime", "random",
            "--method", "an", "--epochs", "1", "--hidden", "4",
            "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 0
        written = (tmp_path / "d" / "fliprates.csv").read_bytes()
        assert (tmp_path / "out" / "fliprates.csv").read_bytes() == written
        with open(tmp_path / "out" / "config.json") as fh:
            assert json.load(fh)["noise_seed"] == 3

    @pytest.mark.parametrize("outdir", [None, "c"], ids=["in-place", "outdir"])
    def test_train_on_data_dir_uses_the_noise_seed_given_to_corrupt(self, tmp_path, outdir):
        # corrupt records --noise-seed in noise.json, which train reads before spec.json
        d = tmp_path / "d"
        main(["gen", "--outdir", str(d), "--n-samples", "200", "--n-classes", "4",
              "--n-features", "5", "--data-seed", "1"])
        c = tmp_path / outdir if outdir else d
        assert main(["corrupt", "--data-dir", str(d), "--regime", "random",
                     "--noise-seed", "5", *(["--outdir", str(c)] if outdir else [])]) == 0
        assert json.loads((c / "noise.json").read_text()) == {"noise_seed": 5,
                                                              "regime": "random"}
        assert main(["train", "--data-dir", str(c), "--regime", "random", "--method", "an",
                     "--epochs", "1", "--hidden", "4", "--outdir", str(tmp_path / "out")]) == 0
        written = (c / "fliprates.csv").read_bytes()
        assert (tmp_path / "out" / "fliprates.csv").read_bytes() == written
        with open(tmp_path / "out" / "config.json") as fh:
            assert json.load(fh)["noise_seed"] == 5

    def test_gen_deletes_a_stale_noise_json(self, tmp_path):
        d = tmp_path / "d"
        gen = ["gen", "--outdir", str(d), "--n-samples", "100", "--n-classes", "4",
               "--n-features", "5", "--data-seed", "1"]
        main(gen)
        assert main(["corrupt", "--data-dir", str(d), "--regime", "random",
                     "--noise-seed", "5"]) == 0
        assert main(gen) == 0
        assert not (d / "noise.json").exists()

    def test_gen_deletes_stale_observed_and_flip_rate_files(self, tmp_path):
        # observed labels of older data would pair with the new labels
        d = tmp_path / "d"
        gen = ["gen", "--outdir", str(d), "--n-samples", "200", "--n-classes", "4"]
        assert main(gen + ["--data-seed", "1"]) == 0
        assert main(["corrupt", "--data-dir", str(d), "--regime", "random"]) == 0
        assert main(gen + ["--data-seed", "2"]) == 0
        for name in ("train_observed.csv", "val_observed.csv", "fliprates.csv", "noise.json"):
            assert not (d / name).exists()
        assert load_split_csv(d, "train").y_observed is None

    def test_corrupt_outdir_deletes_the_files_of_older_data(self, tmp_path, capsys):
        # the source has no extents and no spec.json; the outdir holds a corrupted older
        # dataset and a test_observed.csv, none of which may pair with the new labels
        src, out = tmp_path / "src", tmp_path / "out"
        gen = ["gen", "--n-samples", "100", "--n-classes", "4", "--n-features", "5"]
        assert main(gen + ["--outdir", str(src), "--data-seed", "1"]) == 0
        for path in [*src.glob("*_extents.csv"), src / "spec.json"]:
            path.unlink()
        assert main(gen + ["--outdir", str(out), "--data-seed", "2"]) == 0
        assert main(["corrupt", "--data-dir", str(out), "--regime", "dominant"]) == 0
        shutil.copy(out / "val_observed.csv", out / "test_observed.csv")
        assert main(["corrupt", "--data-dir", str(src), "--regime", "random",
                     "--outdir", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "fliprates.csv", "noise.json", "test_features.csv", "test_labels.csv",
            "train_features.csv", "train_labels.csv", "train_observed.csv",
            "val_features.csv", "val_labels.csv", "val_observed.csv"]
        capsys.readouterr()
        assert main(["train", "--data-dir", str(out), "--regime", "dominant", "--epochs", "1",
                     "--outdir", str(tmp_path / "run")]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "dominant regime requires extent scores: "
            f"missing dataset file {out / 'train_extents.csv'}"}

    @pytest.mark.parametrize("name, content, error", [
        ("test_labels.csv", "x\r\n", "labels {path}: line 1, column 1: not a number: 'x'"),
        ("spec.json", "[1, 2]", "{path}: not a JSON object"),
    ], ids=["test-labels", "spec"])
    def test_a_failed_corrupt_copy_leaves_the_outdir_as_it_was(self, tmp_path, capsys, name,
                                                               content, error):
        # the test split and the spec are read before any older file is removed
        src, out = tmp_path / "src", tmp_path / "out"
        gen = ["gen", "--n-samples", "100", "--n-classes", "4", "--n-features", "5"]
        assert main(gen + ["--outdir", str(src), "--data-seed", "1"]) == 0
        assert main(gen + ["--outdir", str(out), "--data-seed", "2"]) == 0
        path = src / name
        path.write_text(content, encoding="utf-8")
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        capsys.readouterr()
        assert main(["corrupt", "--data-dir", str(src), "--regime", "random", "--noise-seed",
                     "5", "--outdir", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError",
                                                       "message": error.format(path=path)}
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    @pytest.mark.parametrize("content, rule", [
        ('{"noise_seed": "5", "regime": "random"}', "noise_seed must be an integer, got '5'"),
        ('{"noise_seed": true, "regime": "random"}', "noise_seed must be an integer, got True"),
        ("[5]", "not a JSON object"), ("{}", "noise_seed is missing"),
        ('{"noise_seed": 5, "bogus": 1}', "unknown noise field 'bogus'"),
        ('{"noise_seed": 5, "regime": 7}', "regime must be one of ('random', 'dominant'), got 7"),
        ('{"noise_seed": 5, "regime": "bogus"}',
         "regime must be one of ('random', 'dominant'), got 'bogus'"),
    ], ids=["string", "bool", "not-an-object", "no-seed", "unknown-field", "regime-int",
            "regime-unknown"])
    def test_train_names_a_bad_noise_json(self, tmp_path, capsys, content, rule):
        d = tmp_path / "d"
        main(["gen", "--outdir", str(d), "--n-samples", "100", "--n-classes", "4",
              "--n-features", "5", "--data-seed", "1"])
        (d / "noise.json").write_text(content)
        capsys.readouterr()
        assert main(["train", "--data-dir", str(d), "--epochs", "1",
                     "--outdir", str(tmp_path / "run")]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": f"{d / 'noise.json'}: {rule}"}
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, split", [
        ["corrupt --data-dir {d} --regime dominant", "train"],
        ["corrupt --data-dir {d} --regime dominant --outdir {out}", "val"],
        ["train --data-dir {d} --regime dominant --epochs 1 --outdir {out}", "train"],
        ["train --data-dir {d} --regime dominant --epochs 1 --outdir {out}", "val"],
    ], ids=["corrupt-in-place", "corrupt-outdir", "train", "train-val"])
    def test_dominant_regime_names_a_missing_extents_file(self, tmp_path, capsys, command,
                                                           split):
        d, out = tmp_path / "d", tmp_path / "out"
        main(["gen", "--outdir", str(d), "--n-samples", "100", "--n-classes", "4",
              "--n-features", "5", "--data-seed", "1"])
        path = d / f"{split}_extents.csv"
        path.unlink()
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(command.format(d=d, out=out).split()) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": "dominant regime requires extent "
                       f"scores: missing dataset file {path}"}
        # no directory, and no noise.json from the failed corrupt
        assert sorted(tmp_path.rglob("*")) == before

    # --regime is ExperimentSpec.regime's flag, checked by its validate(), not by argparse
    @pytest.mark.parametrize("field, value", [("method", "nope"), ("regime", "bogus")])
    def test_bad_arguments_emit_error_json(self, tmp_path, capsys, field, value):
        rc = main([
            "train", f"--{field}", value, "--outdir", str(tmp_path / "x"),
            "--epochs", "1",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        err = json.loads(err)
        assert err["error"] == "ValueError"
        assert field in err["message"] and repr(value) in err["message"]
        assert not (tmp_path / "x").exists()

    def test_non_finite_flag_exits_before_training(self, tmp_path, capsys):
        rc = main(["train", "--lam", "nan", "--outdir", str(tmp_path / "x"), "--epochs", "1"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": "lam must be finite, got nan"}
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, cell", [
        ("train", None), ("train --data-dir {d}", None), ("grid --grid lam=0,1", "lam=0"),
        ("gen", None), ("corrupt --data-dir {d} --regime dominant", None),
    ], ids=["train", "train-data-dir", "grid", "gen", "corrupt"])
    @pytest.mark.parametrize("outdir", ["afile", "afile/sub"])
    def test_an_outdir_that_is_a_file_fails_before_any_data(self, tmp_path, capsys,
                                                            monkeypatch, command, cell, outdir):
        (tmp_path / "afile").write_text("kept\n")

        def refuse(*args):
            raise AssertionError("a dataset was read or generated")

        for name in ("generate_synthetic", "ingest_csv", "train"):
            monkeypatch.setattr(cli, name, refuse)
        path = tmp_path / outdir
        argv = command.format(d=tmp_path / "d").split() + ["--outdir", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        named = str(path / cell) if cell else str(path)
        assert json.loads(err) == {"error": "ValueError", "message": "outdir must be a "
                                   f"directory or a path where one can be made, got {named!r}"}
        assert (tmp_path / "afile").read_text() == "kept\n"

    @pytest.mark.parametrize("out, message", [
        ("afile/x.json", "out's directory must be a directory or a path where one can be made, "
                         "got {afile!r}"),
        ("adir", "out must be a file path, got {adir!r}, a directory"),
    ], ids=["under-a-file", "a-directory"])
    def test_an_eval_out_that_cannot_be_written_fails_before_the_checkpoint_is_read(
            self, tmp_path, capsys, out, message):
        (tmp_path / "afile").write_text("kept\n")
        (tmp_path / "adir").mkdir()
        paths = {name: str(tmp_path / name) for name in ("afile", "adir")}
        assert main(["eval", "--checkpoint", str(tmp_path / "missing.json"), "--data-dir",
                     str(tmp_path), "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "ValueError", "message": message.format(**paths)}
        assert sorted(path.name for path in tmp_path.iterdir()) == ["adir", "afile"]
        assert (tmp_path / "afile").read_text() == "kept\n"

    def test_eval_makes_a_missing_out_directory(self, csv_data, tmp_path):
        assert train_on_csv(csv_data, tmp_path / "run", "an") == 0
        out = tmp_path / "missing" / "x.json"
        assert main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                     "--data-dir", str(csv_data), "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "run" / "metrics.json").read_bytes()

    def test_diverging_run_prints_one_json_error(self, tmp_path):
        # a process of its own, so NumPy's warnings would reach its stderr
        proc = subprocess.run(
            [sys.executable, "-m", "spmlab.cli", "train", "--n-samples", "200", "--epochs", "2",
             "--learning-rate", "1e308", "--outdir", str(tmp_path / "div")],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert json.loads(proc.stderr) == {
            "error": "ValueError",
            "message": "method 'adagc', epoch 0, step 1: forward pass produced non-finite logits"}
        assert not (tmp_path / "div").exists()

    def test_grid_emits_one_directory_per_value(self, tmp_path):
        rc = main([
            "grid", "--n-samples", "160", "--n-classes", "4", "--n-features", "5",
            "--data-seed", "6", "--method", "an", "--epochs", "2",
            "--learning-rate", "0.1", "--hidden", "4",
            "--outdir", str(tmp_path / "g"), "--grid", "gamma=0,0.5,1",
        ])
        assert rc == 0
        dirs = sorted(p.name for p in (tmp_path / "g").iterdir())
        assert dirs == ["gamma=0", "gamma=0.5", "gamma=1"]
        for d in dirs:
            with open(tmp_path / "g" / d / "config.json") as fh:
                cfg = json.load(fh)
            assert cfg["train_config"]["gamma"] == float(d.split("=")[1])

    def test_grid_parallel_jobs(self, tmp_path):
        rc = main([
            "grid", "--n-samples", "160", "--n-classes", "4", "--n-features", "5",
            "--data-seed", "6", "--method", "an", "--epochs", "2",
            "--learning-rate", "0.1", "--hidden", "4",
            "--outdir", str(tmp_path / "g"), "--grid", "lam=1,2",
            "--jobs", "2",
        ])
        assert rc == 0
        assert sorted(p.name for p in (tmp_path / "g").iterdir()) == ["lam=1", "lam=2"]

    def test_grid_unknown_field_rejected(self, tmp_path, capsys):
        rc = main([
            "grid", "--outdir", str(tmp_path / "g"), "--grid", "bogus=1,2",
        ])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "bogus" in err["message"]

    @pytest.mark.parametrize("grid, message", [
        (["lam=1,2", "lam=3"], "grid field 'lam' is given twice"),
        (["eps-smooth=0.1", "eps_smooth=0.2"], "grid field 'eps_smooth' is given twice"),
        (["gamma=0.5,1,0.5"], "grid field 'gamma' lists value '0.5' twice"),
        (["lam"], "grid entry 'lam' is not FIELD=V1,V2,..."),
    ])
    def test_grid_repeats_rejected_before_any_run(self, tmp_path, capsys, grid, message):
        argv = ["grid", "--outdir", str(tmp_path / "g")]
        for item in grid:
            argv += ["--grid", item]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": message}
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("flags, grid, message", [
        ([], "lam=1,-1", "lam must be non-negative, got -1.0"),
        (["--regime", "none"], "method=gt,an", "regime 'none' keeps full labels and is only "
                                                "valid with methods 'gt' or 'iun'"),
    ], ids=["lam", "regime-none"])
    def test_grid_validates_every_cell_before_any_runs(self, tmp_path, capsys, flags, grid,
                                                       message):
        rc = main(["grid", "--n-samples", "120", "--n-classes", "4", "--n-features", "4",
                   "--epochs", "1", "--hidden", "2", *flags,
                   "--outdir", str(tmp_path / "g"), "--grid", grid])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "ValueError", "message": message}
        assert not (tmp_path / "g").exists()

    def test_run_flags_are_the_experiment_spec_fields(self):
        args = cli._build_parser().parse_args(
            ["train", "--outdir", "x", "--regime", "dominant", "--data-dir", "none",
             "--noise-seed", "4"])
        spec = cli._spec_from_train_args(args)
        assert spec == ExperimentSpec(TrainConfig(), "x", "dominant", SyntheticSpec(), None, 4)

    def test_empty_train_argv_builds_default_configs(self):
        args = cli._build_parser().parse_args(["train", "--outdir", "x"])
        spec = cli._spec_from_train_args(args)
        assert spec.train_config == TrainConfig()
        assert spec.synthetic == SyntheticSpec()

    def test_bad_flag_value_is_an_argparse_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--hidden", "3.5", "--outdir", str(tmp_path / "x")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--hidden" in err and "'3.5'" in err

    @pytest.mark.parametrize("field, value", [
        ("log_clean_val", "flase"),
        ("hidden", "3.5"),
        ("w_neg", "0.5x"),
    ])
    def test_grid_bad_value_names_field_and_value(self, tmp_path, capsys, field, value):
        rc = main(["grid", "--outdir", str(tmp_path / "g"),
                   "--grid", f"{field}={value}"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert field in err["message"] and repr(value) in err["message"]
        assert not (tmp_path / "g").exists()

    def test_grid_optional_field_takes_none(self, tmp_path):
        rc = main([
            "grid", "--n-samples", "160", "--n-classes", "5", "--n-features", "5",
            "--data-seed", "6", "--method", "wan", "--epochs", "1", "--hidden", "4",
            "--outdir", str(tmp_path / "g"), "--grid", "w_neg=none,0.5",
            "--grid", "log_clean_val=true",
        ])
        assert rc == 0
        resolved = {}
        for d in sorted((tmp_path / "g").iterdir()):
            with open(d / "config.json") as fh:
                cfg = json.load(fh)["train_config"]
            assert cfg["log_clean_val"] is True
            resolved[d.name] = cfg["w_neg"]
        assert resolved == {"w_neg=0.5_log_clean_val=true": 0.5,
                            "w_neg=none_log_clean_val=true": 0.25}

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_grid_rejects_jobs_below_one(self, tmp_path, capsys, jobs):
        rc = main(["grid", "--outdir", str(tmp_path / "g"), "--grid", "lam=1,2",
                   "--jobs", jobs])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "--jobs" in err["message"] and jobs in err["message"]

    @pytest.mark.parametrize("jobs, cpus, expected", [
        (64, 8, 3),      # capped by the number of cells
        (64, 2, 2),      # capped by the CPU count
        (2, 8, 2),
        (64, None, None),  # unknown CPU count: one worker, no pool
    ])
    def test_grid_caps_worker_count(self, tmp_path, monkeypatch, jobs, cpus, expected):
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return []

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        rc = main([
            "grid", "--n-samples", "120", "--n-classes", "4", "--n-features", "4",
            "--method", "an", "--epochs", "1", "--hidden", "2",
            "--outdir", str(tmp_path / "g"), "--grid", "lam=1,2,3", "--jobs", str(jobs),
        ])
        assert rc == 0
        assert pools == ([] if expected is None else [expected])

    def test_eval_checkpoint_round_trip(self, tmp_path, capsys):
        main(["gen", "--outdir", str(tmp_path / "d"), "--n-samples", "200",
              "--n-classes", "4", "--n-features", "5", "--data-seed", "7"])
        main(["train", "--data-dir", str(tmp_path / "d"), "--regime", "random",
              "--method", "an", "--epochs", "3", "--learning-rate", "0.1",
              "--hidden", "4", "--outdir", str(tmp_path / "out")])
        capsys.readouterr()
        rc = main([
            "eval", "--checkpoint", str(tmp_path / "out" / "checkpoint.json"),
            "--data-dir", str(tmp_path / "d"), "--split", "test",
            "--use-student", "--out", str(tmp_path / "eval.json"),
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        with open(tmp_path / "eval.json") as fh:
            saved = json.load(fh)
        assert payload["map"] == saved["map"]


@pytest.fixture(scope="module")
def csv_data(tmp_path_factory):
    datadir = tmp_path_factory.mktemp("data")
    main(["gen", "--outdir", str(datadir), "--n-samples", "200", "--n-classes", "4",
          "--n-features", "5", "--data-seed", "7"])
    return datadir


def train_on_csv(datadir, outdir, method, *flags):
    regime = "none" if method == "gt" else "random"
    return main(["train", "--data-dir", str(datadir), "--regime", regime, "--method", method,
                 "--epochs", "4", "--hidden", "4", "--beta-t", "0.9", "--patience", "1",
                 "--outdir", str(outdir), *flags])


@pytest.fixture(scope="module")
def checkpoints(csv_data, tmp_path_factory):
    """By source: the checkpoint of a run on ``csv_data``, then its training and validation
    sets. ``adagc`` triggers at epoch 1 of 4, ``adagc-1`` stops after 1 epoch, ``an`` runs 4."""
    root, runs = tmp_path_factory.mktemp("checkpoints"), {}
    for source, method, flags in (("adagc", "adagc", []), ("adagc-1", "adagc", ["--epochs", "1"]),
                                  ("an", "an", [])):
        assert train_on_csv(csv_data, root / source, method, *flags) == 0
        spec = read_config_json(root / source / "config.json")
        observed, _ = cli._corrupt_splits(cli._load_splits(spec), spec.regime, spec.noise_seed)
        runs[source] = (json.loads((root / source / "checkpoint.json").read_text()),
                        observed["train"], observed["val"])
    return runs


class TestRunDirectory:
    @pytest.mark.parametrize("method", METHODS)
    def test_eval_rescores_what_train_reported(self, csv_data, tmp_path, method):
        # no flags: the model the run reports, at the run's own threshold
        assert train_on_csv(csv_data, tmp_path / "run", method, "--threshold", "0.4") == 0
        assert main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                     "--data-dir", str(csv_data), "--split", "test",
                     "--out", str(tmp_path / "e.json")]) == 0
        written = (tmp_path / "run" / "metrics.json").read_bytes()
        assert (tmp_path / "e.json").read_bytes() == written

    @pytest.mark.parametrize("flags, params, threshold", [
        (["--use-student"], "student_params", 0.4),
        (["--threshold", "0.6"], "teacher_params", 0.6),
        (["--use-student", "--threshold", "0.6"], "student_params", 0.6),
    ], ids=["student", "threshold", "both"])
    def test_eval_flags_override_model_and_threshold(self, csv_data, tmp_path,
                                                     flags, params, threshold):
        run = tmp_path / "run"
        assert train_on_csv(csv_data, run, "adagc", "--threshold", "0.4") == 0
        assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                     "--data-dir", str(csv_data), "--out", str(tmp_path / "e.json"),
                     *flags]) == 0
        state = load_checkpoint(run / "checkpoint.json")
        model = Mlp(state.layer_sizes, getattr(state, params))
        report = evaluate(model, load_split_csv(csv_data, "test"), threshold)
        cli._json_dump(report.to_json_dict(), tmp_path / "expected.json")
        assert (tmp_path / "e.json").read_bytes() == (tmp_path / "expected.json").read_bytes()

    @pytest.mark.parametrize("payload, error", [
        ({"format": "x"}, "not a trainer checkpoint"),
        ([1, 2], "not a trainer checkpoint"),
        ({"format": "spmlab-checkpoint", "version": 99},
         "unsupported checkpoint version 99, expected 3"),
    ], ids=["format", "not-an-object", "version"])
    def test_eval_names_a_file_that_is_not_a_checkpoint(self, csv_data, tmp_path, capsys,
                                                        payload, error):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["eval", "--checkpoint", str(path), "--data-dir", str(csv_data)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": f"{path}: {error}"}

    @pytest.mark.parametrize("field, flags", [
        ("teacher_params", []),
        ("student_params", ["--use-student"]),
    ], ids=["teacher", "student"])
    def test_eval_names_a_parameter_list_of_the_wrong_length(self, csv_data, tmp_path, capsys,
                                                             field, flags):
        assert train_on_csv(csv_data, tmp_path / "run", "adagc") == 0
        path = tmp_path / "run" / "checkpoint.json"
        ckpt = json.loads(path.read_text())
        set_at(ckpt, field, recoded(lambda a: a[:-1]))
        path.write_text(json.dumps(ckpt))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(path), "--data-dir", str(csv_data),
                     *flags]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": f"{path}: {field} has 43 entries, "
                       "model with layers (5, 4, 4) expects 44"}

    @pytest.mark.parametrize("source, field, value, rule", [
        *[pytest.param("adagc", key, DROP, f"{key} is missing", id=f"no-{key}")
          for key in STATE_KEYS],
        pytest.param("adagc", "version", 1, "unsupported checkpoint version 1, expected 3",
                     id="version-1"),
        pytest.param("adagc", "version", 2, "unsupported checkpoint version 2, expected 3",
                     id="version-2"),
        pytest.param("adagc", "version", "3", "unsupported checkpoint version '3', expected 3",
                     id="version-string"),
        pytest.param("adagc", "version", DROP, "unsupported checkpoint version None, expected 3",
                     id="no-version"),
        # version 1 stored what follows from other fields: a v3 file holds none of it
        *[pytest.param("adagc", key, value, f"unknown checkpoint field {key!r}", id=f"has-{key}")
          for key, value in REMOVED_FIELDS.items()],
        pytest.param("adagc", "logs.0.wall_time", 0.25, "unknown logs[0] field 'wall_time'",
                     id="log-wall-time"),
        pytest.param("adagc", "logs", 5, "logs must be a list, found 5", id="logs-int"),
        pytest.param("adagc", "logs", [5], "logs[0] must be a JSON object, found 5",
                     id="logs-int-entry"),
        pytest.param("adagc", "logs", [{}], "logs[0].epoch is missing", id="logs-empty-entry"),
        pytest.param("adagc", "rng_state", 5,
                     "rng_state must be the state of a PCG64 generator, found 5", id="rng-int"),
        pytest.param("adagc", "rng_state", {},
                     "rng_state must be the state of a PCG64 generator, found {}",
                     id="rng-empty"),
        # rng_state by its structure: NumPy's setter truncates 1.5 to 1 and takes True and 5
        *[pytest.param("adagc", f"rng_state.{path}", value,
                       f"rng_state.{path} must be {rule}, got {value!r}", id=case)
          for path, value, rule, case in RNG_MUTATIONS],
        pytest.param("adagc", "config.raw_student_pseudo", "yes",
                     "config.raw_student_pseudo must be a bool, got 'yes'", id="config-bool"),
        pytest.param("adagc", "config.hidden", True, "config.hidden must be an integer, got True",
                     id="config-int"),
        pytest.param("adagc", "layer_sizes", None,
                     "layer_sizes must be 2 or 3 positive integers, found None", id="sizes-null"),
        pytest.param("adagc", "layer_sizes", [5, "x"],
                     "layer_sizes must be 2 or 3 positive integers, found [5, 'x']",
                     id="sizes-string"),
        pytest.param("adagc", "layer_sizes", [5, -1, 4],
                     "layer_sizes must be 2 or 3 positive integers, found [5, -1, 4]",
                     id="sizes-negative"),
        # each array is one string, the base64 of its float64 bytes, read strictly
        pytest.param("adagc", "student_params", [[1.0]],
                     "student_params must be a base64 string, found [[1.0]]",
                     id="params-nested"),
        pytest.param("adagc", "student_params", "abc",
                     "student_params must be a base64 string, found 'abc'",
                     id="params-string"),
        pytest.param("adagc", "teacher_params", lambda text: text[:-5] + "*" + text[-4:],
                     "teacher_params must be a base64 string, found 'z2aqOVpWvz8g...NQsbN5N3*vw=='",
                     id="params-not-base64"),
        pytest.param("adagc", "teacher_params", lambda text: text + "\n",
                     "teacher_params must be a base64 string, "
                     "found 'z2aqOVpWvz8g...sbN5N3Ivw==\\n'",
                     id="params-newline"),
        pytest.param("adagc", "student_params", "\u00e9" * 4,
                     "student_params must be a base64 string, found '\u00e9\u00e9\u00e9\u00e9'",
                     id="params-not-ascii"),
        pytest.param("adagc", "teacher_params", lambda text: text[:-4],
                     "teacher_params has 351 bytes, not a whole number of float64 values",
                     id="params-truncated"),
        pytest.param("adagc", "student_params", lambda text: unstored(text).tolist(),
                     "student_params must be a base64 string, found [0.12191026307691477, "
                     "-0.2148206395453155, -0.3682403262266079, -0.43121195539746837, "
                     "0.28421124882525783, 0.3971661343175504, ...]",
                     id="params-v2-list"),
        pytest.param("adagc", "student_params", 5,
                     "student_params must be a base64 string, found 5", id="params-int"),
        pytest.param("adagc", "student_params", recoded(lambda a: a[:-1]),
                     "student_params has 43 entries, model with layers (5, 4, 4) expects 44",
                     id="params-short"),
        pytest.param("adagc", "teacher_params", recoded(lambda a: np.r_[a, 0.0]),
                     "teacher_params has 45 entries, model with layers (5, 4, 4) expects 44",
                     id="params-long"),
        pytest.param("adagc", "teacher_params", recoded(first_set(np.nan)),
                     "teacher_params must be finite, found nan at [0]", id="params-nan"),
        pytest.param("adagc", "student_params", recoded(first_set(-np.inf)),
                     "student_params must be finite, found -inf at [0]", id="params-inf"),
        pytest.param("adagc", "smoothed_preds", recoded(first_set(1.5)),
                     "smoothed_preds must lie in [0, 1], found 1.5 at [0]",
                     id="prediction-range"),
        pytest.param("adagc", "smoothed_preds", recoded(first_set(np.nan)),
                     "smoothed_preds must lie in [0, 1], found nan at [0]",
                     id="prediction-nan"),
        pytest.param("adagc", "smoothed_preds", recoded(first_set(-0.5)),
                     "smoothed_preds must lie in [0, 1], found -0.5 at [0]",
                     id="prediction-negative"),
        pytest.param("adagc", "smoothed_preds", "abc",
                     "smoothed_preds must be a base64 string, found 'abc'",
                     id="preds-string"),
        pytest.param("adagc", "smoothed_preds", [0.5] * 4,
                     "smoothed_preds must be a base64 string, found [0.5, 0.5, 0.5, 0.5]",
                     id="preds-flat"),
        pytest.param("adagc", "smoothed_preds", [[0.5] * 4] * 100,
                     "smoothed_preds must be a base64 string, found ["
                     + "[0.5, 0.5, 0.5, 0.5], " * 6 + "...]",
                     id="preds-v2-rows"),
        pytest.param("adagc", "smoothed_preds", [[0.5] * 4, [0.5]],
                     "smoothed_preds must be a base64 string, "
                     "found [[0.5, 0.5, 0.5, 0.5], [0.5]]", id="preds-ragged"),
        pytest.param("adagc", "smoothed_preds", lambda text: text[:-4],
                     "smoothed_preds has 3198 bytes, not a whole number of float64 values",
                     id="preds-truncated"),
        pytest.param("adagc", "smoothed_preds", recoded(lambda a: a[:-1]),
                     "smoothed_preds has 399 entries, not a positive whole number of rows of 4",
                     id="preds-partial-row"),
        pytest.param("adagc", "smoothed_preds", "",
                     "smoothed_preds has 0 entries, not a positive whole number of rows of 4",
                     id="preds-empty"),
        # the hidden layer follows from the config
        pytest.param("adagc", "config.hidden", 7,
                     "layer_sizes must be (5, 7, 4) (as config.hidden gives), got (5, 4, 4)",
                     id="config-hidden-other"),
        pytest.param("adagc", "config.hidden", 0,
                     "layer_sizes must be (5, 4) (as config.hidden gives), got (5, 4, 4)",
                     id="config-hidden-zero"),
        # the logs' maps checked against themselves, their epochs and stages against their
        # replay: the run triggered at epoch 1, so it logged warmup, warmup, gc, gc
        pytest.param("adagc", "logs.0.stage", "foo",
                     "logs[0].stage must be 'warmup' (as the logs replay), got 'foo'",
                     id="log-stage"),
        pytest.param("adagc", "logs.0.stage", "gc",
                     "logs[0].stage must be 'warmup' (as the logs replay), got 'gc'",
                     id="log-stage-flipped"),
        pytest.param("adagc", "logs.3.stage", "warmup",
                     "logs[3].stage must be 'gc' (as the logs replay), got 'warmup'",
                     id="log-stage-unflipped"),
        pytest.param("adagc", "logs.0.epoch", 7,
                     "logs[0].epoch must be 0 (as the logs replay), got 7", id="log-epoch"),
        pytest.param("adagc", "config.method", "an",
                     "logs[2].stage must be 'warmup' (as the logs replay), got 'gc'",
                     id="config-method-an"),
        pytest.param("adagc", "logs.1.noisy_val_map", 1.5,
                     "logs[1].noisy_val_map must be in [0, 1], got 1.5", id="log-map"),
        pytest.param("adagc", "logs.1.noisy_val_map_student", -0.5,
                     "logs[1].noisy_val_map_student must be in [0, 1], got -0.5",
                     id="log-student-map"),
        pytest.param("adagc", "logs.1.clean_val_map", 2.0,
                     "logs[1].clean_val_map must be None or in [0, 1], got 2.0",
                     id="log-clean-map"),
        # a clean map is logged exactly when config.log_clean_val asks for it
        pytest.param("adagc", "logs.0.clean_val_map", 0.5,
                     "logs[0].clean_val_map must be None (as config.log_clean_val gives), got 0.5",
                     id="log-clean-map-unasked"),
        pytest.param("adagc", "config.log_clean_val", True,
                     "logs[0].clean_val_map must be a number (as config.log_clean_val gives), "
                     "got None", id="log-clean-map-missing"),
        pytest.param("adagc", "logs.0.train_loss", float("nan"),
                     "logs[0].train_loss must be finite, got nan", id="log-loss-nan"),
        pytest.param("adagc", "logs.0.train_loss", float("inf"),
                     "logs[0].train_loss must be finite, got inf", id="log-loss-inf"),
        # smoothed predictions are stored exactly when an adagc epoch has visited every sample
        pytest.param("an", "smoothed_preds", stored([0.5] * 400),
                     "smoothed_preds must be None (as config.method and the logs give), "
                     "got array([0.5, 0....5, 0.5, 0.5])", id="an-preds"),
        pytest.param("adagc-1", "smoothed_preds", None,
                     "smoothed_preds must be rows of numbers (as config.method and the logs "
                     "give), got None", id="adagc-no-preds"),
        pytest.param("adagc", "logs", [],
                     "smoothed_preds must be None (as config.method and the logs give), "
                     "got array([0.3864..., 0.3458979 ])", id="adagc-no-logs-preds"),
    ])
    @pytest.mark.parametrize("reader", ["load", "eval"])
    def test_checkpoint_edit_is_one_named_error(self, csv_data, checkpoints, tmp_path, capsys,
                                                reader, source, field, value, rule):
        # each reader alone: on load for a resume, and by eval, which reads every field, also
        # one it does not use
        ckpt, train_ds, val_ds = checkpoints[source]
        ckpt = copy.deepcopy(ckpt)
        if value is DROP:
            del ckpt[field]
        else:
            set_at(ckpt, field, value)
        if reader == "load":
            with pytest.raises(ValueError) as exc:
                Trainer.from_checkpoint(ckpt, train_ds, val_ds)
            assert str(exc.value) == f"checkpoint: {rule}"
            return
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(ckpt))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(path), "--data-dir", str(csv_data),
                     "--use-student"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert json.loads(err) == {"error": "ValueError", "message": f"{path}: {rule}"}

    def test_eval_names_a_file_that_is_not_json(self, csv_data, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        assert main(["eval", "--checkpoint", str(path), "--data-dir", str(csv_data)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": f"{path}: not valid JSON "
                       "(Expecting value: line 1 column 1 (char 0))"}

    @pytest.mark.parametrize("target", ["run/checkpoint.json", "data/test_features.csv",
                                        "data/test_labels.csv", "data/test_observed.csv"])
    @pytest.mark.parametrize("spelling", ["plain", "dot-dot"])
    def test_eval_out_may_not_be_a_file_eval_reads(self, csv_data, tmp_path, capsys, reads,
                                                   monkeypatch, target, spelling):
        # the checkpoint, or any file of the split, observed labels too
        data = tmp_path / "data"
        shutil.copytree(csv_data, data)
        assert train_on_csv(data, tmp_path / "run", "an") == 0
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}

        def refuse(path):
            raise AssertionError("the checkpoint was read")

        monkeypatch.setattr(cli, "load_checkpoint", refuse)
        reads.clear()
        capsys.readouterr()
        read = tmp_path / target
        out = str(read if spelling == "plain" else read.parent / ".." / read.parent.name
                  / read.name)
        assert main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                     "--data-dir", str(data), "--out", out]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1 and reads == []
        assert json.loads(err) == {"error": "ValueError",
                                   "message": f"out must not be eval's input {str(read)!r}, "
                                              f"got {out!r}"}
        assert {path: path.read_bytes() for path in tmp_path.rglob("*")
                if path.is_file()} == before

    @pytest.mark.parametrize("threshold, message", [
        ("2", "threshold must be in (0, 1), got 2.0"),
        ("nan", "threshold must be finite, got nan"),
    ], ids=["above-one", "nan"])
    def test_a_bad_eval_threshold_fails_before_any_file_is_read(
            self, csv_data, tmp_path, capsys, reads, threshold, message):
        # the features file is not numeric, yet the threshold is the one named
        data = tmp_path / "data"
        shutil.copytree(csv_data, data)
        assert train_on_csv(data, tmp_path / "run", "an") == 0
        (data / "test_features.csv").write_text("x\n", encoding="utf-8")
        reads.clear()
        capsys.readouterr()
        out = tmp_path / "e.json"
        assert main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                     "--data-dir", str(data), "--out", str(out), "--threshold", threshold]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1 and reads == [] and not out.exists()
        assert json.loads(err) == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("name", ["checkpoint.json", "noise.json"])
    def test_a_json_path_that_is_a_directory_is_one_named_error(self, csv_data, tmp_path,
                                                                capsys, name):
        # eval reads the checkpoint, train --data-dir the noise seed's record
        data = tmp_path / "data"
        shutil.copytree(csv_data, data)
        path = (tmp_path / "run" if name == "checkpoint.json" else data) / name
        path.mkdir(parents=True)
        out = tmp_path / "out"
        command = (["eval", "--checkpoint", str(path), "--out", str(out)]
                   if name == "checkpoint.json" else
                   ["train", "--regime", "random", "--epochs", "1", "--outdir", str(out)])
        assert main([*command, "--data-dir", str(data)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1 and not out.exists()
        assert json.loads(err) == {"error": "ValueError",
                                   "message": f"{path}: a directory, not a JSON file"}

    @pytest.mark.parametrize("name", ["checkpoint.json", "noise.json"])
    def test_a_json_file_that_is_not_utf8_is_one_named_error(self, csv_data, tmp_path, capsys,
                                                              name):
        # eval reads the checkpoint, train --data-dir the noise seed's record
        assert train_on_csv(csv_data, tmp_path / "run", "an") == 0
        data = tmp_path / "data"
        shutil.copytree(csv_data, data)
        path = (tmp_path / "run" if name == "checkpoint.json" else data) / name
        path.write_bytes(b"\xff" + (path.read_bytes() if path.exists() else b"{}"))
        out = tmp_path / "out"
        command = (["eval", "--checkpoint", str(path), "--out", str(out)]
                   if name == "checkpoint.json" else
                   ["train", "--regime", "random", "--epochs", "1", "--outdir", str(out)])
        capsys.readouterr()
        assert main([*command, "--data-dir", str(data)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1 and not out.exists()
        assert json.loads(err) == {"error": "ValueError",
                                   "message": f"{path}: not UTF-8 text (invalid start byte)"}

    def test_a_csv_file_that_is_not_utf8_is_one_named_error(self, csv_data, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(csv_data, data)
        path = data / "test_features.csv"
        text = path.read_bytes()
        path.write_bytes(text[:text.index(b",") + 1] + b"\xff" + text[text.index(b",") + 2:])
        out = tmp_path / "run"
        assert train_on_csv(data, out, "an") == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1 and not out.exists()
        assert json.loads(err) == {"error": "ValueError", "message": f"features {path}: "
                                   "not UTF-8 text (invalid start byte)"}

    def test_eval_names_the_true_line_of_a_bad_label_row(self, csv_data, tmp_path, capsys):
        # a blank line, then an all-zero row in place of the last one
        assert train_on_csv(csv_data, tmp_path / "run", "an") == 0
        bad = tmp_path / "bad"
        bad.mkdir()
        for name in ("test_features.csv", "test_labels.csv"):
            (bad / name).write_bytes((csv_data / name).read_bytes())
        lines = (bad / "test_labels.csv").read_text().splitlines()
        (bad / "test_labels.csv").write_text("\n".join(lines[:-1] + ["", "0,0,0,0", ""]))
        assert main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                     "--data-dir", str(bad), "--split", "test"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"].startswith(
            f"labels {bad / 'test_labels.csv'}: line {len(lines) + 1}: "
            "y_true must have a positive label in every row")

    @pytest.mark.parametrize("flag, rule", [
        ("--n-features", "model with layers (5, 4, 4) expects 5 feature columns, "
                         "features {data}/test_features.csv has 6"),
        ("--n-classes", "model with layers (5, 4, 4) scores 4 classes, "
                        "labels {data}/test_labels.csv has 6"),
    ], ids=["features", "classes"])
    def test_eval_names_both_files_of_a_split_that_does_not_fit_the_model(
            self, csv_data, tmp_path, capsys, flag, rule):
        assert train_on_csv(csv_data, tmp_path / "run", "an") == 0
        data = tmp_path / "data"
        sizes = {"--n-features": "5", "--n-classes": "4", flag: "6"}
        main(["gen", "--outdir", str(data), "--n-samples", "200", "--data-seed", "7",
              *(arg for item in sizes.items() for arg in item)])
        path = tmp_path / "run" / "checkpoint.json"
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(path), "--data-dir", str(data),
                     "--out", str(tmp_path / "e.json")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "e.json").exists()
        assert json.loads(err) == {"error": "ValueError",
                                   "message": f"{path}: " + rule.format(data=data)}

    @pytest.mark.parametrize("command, split", [
        (["train", "--data-dir", "{data}", "--epochs", "1", "--outdir", "{out}"], "train"),
        (["corrupt", "--data-dir", "{data}", "--regime", "random", "--outdir", "{out}"], "val"),
        (["eval", "--checkpoint", "{run}/checkpoint.json", "--data-dir", "{data}",
          "--out", "{out}"], "test"),
    ], ids=["train", "corrupt", "eval"])
    def test_an_oversize_cell_is_one_named_error(self, csv_data, tmp_path, capsys, command,
                                                 split):
        # csv.reader's own error, not a traceback, and nothing written
        assert train_on_csv(csv_data, tmp_path / "run", "an") == 0
        data = tmp_path / "data"
        data.mkdir()
        for path in csv_data.iterdir():
            (data / path.name).write_bytes(path.read_bytes())
        path = data / f"{split}_features.csv"
        text = path.read_text()
        limit = csv.field_size_limit()
        path.write_text("1" * (limit + 1) + text[text.index(","):])
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([a.format(data=data, run=tmp_path / "run", out=out) for a in command]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and not out.exists()
        assert json.loads(err) == {"error": "ValueError", "message": f"features {path}: line 1: "
                                   f"field larger than field limit ({limit})"}

    def test_eval_rejects_an_unknown_config_field(self, csv_data, tmp_path, capsys):
        assert train_on_csv(csv_data, tmp_path / "run", "an") == 0
        path = tmp_path / "run" / "checkpoint.json"
        ckpt = json.loads(path.read_text())
        ckpt["config"]["bogus"] = 1
        path.write_text(json.dumps(ckpt))
        assert main(["eval", "--checkpoint", str(path), "--data-dir", str(csv_data)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError",
                       "message": f"{path}: unknown config field 'bogus'"}

    @pytest.mark.parametrize("field, value, rule", [
        ("method", 3, f"config.method must be one of {METHODS}, got 3"),
        ("threshold", "0.5", "config.threshold must be a number, got '0.5'"),
        ("threshold", 2.0, "config.threshold must be in (0, 1), got 2.0"),
    ], ids=["method", "threshold-string", "threshold-range"])
    def test_eval_names_a_bad_checkpoint_config(self, csv_data, tmp_path, capsys, field, value,
                                                rule):
        assert train_on_csv(csv_data, tmp_path / "run", "an") == 0
        path = tmp_path / "run" / "checkpoint.json"
        ckpt = json.loads(path.read_text())
        ckpt["config"][field] = value
        path.write_text(json.dumps(ckpt))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(path), "--data-dir", str(csv_data)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "ValueError", "message": f"{path}: {rule}"}

    def test_run_experiment_returns_its_five_artifacts(self, tmp_path):
        paths = run_experiment(tiny_spec(tmp_path / "run", epochs=1))
        assert sorted(paths) == ["checkpoint", "config", "curves", "fliprates", "metrics"]
        assert sorted(paths.values()) == sorted((tmp_path / "run").iterdir())

    def test_corrupt_outdir_is_a_complete_data_directory(self, tmp_path):
        # train on the copy redraws exactly the labels corrupt wrote there
        main(["gen", "--outdir", str(tmp_path / "d"), "--n-samples", "200",
              "--n-classes", "4", "--n-features", "5", "--data-seed", "3"])
        assert main(["corrupt", "--data-dir", str(tmp_path / "d"), "--regime", "random",
                     "--outdir", str(tmp_path / "c")]) == 0
        assert main(["train", "--data-dir", str(tmp_path / "c"), "--regime", "random",
                     "--method", "an", "--epochs", "1", "--hidden", "4",
                     "--outdir", str(tmp_path / "out")]) == 0
        written = (tmp_path / "c" / "fliprates.csv").read_bytes()
        assert (tmp_path / "out" / "fliprates.csv").read_bytes() == written
        with open(tmp_path / "out" / "config.json") as fh:
            assert json.load(fh)["noise_seed"] == 3
