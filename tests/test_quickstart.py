"""The README's command-line quickstart at toy size, run in-process through ``cli.main``.

Each test is a check of the chain that no other test holds. CI runs the chain once more
through the installed ``spmlab`` console script.
"""

import json
import re
import shutil

import pytest

from spmlab import data
from spmlab.cli import main, read_config_json, run_experiment

ARTIFACTS = ("config.json", "metrics.json", "curves.csv", "fliprates.csv", "checkpoint.json")
# an adagc run on the quickstart's data that reaches the calibrated stage
CALIBRATED = ["--regime", "dominant", "--method", "adagc", "--lam", "5", "--beta-t", "0.9",
              "--patience", "1", "--epochs", "15"]


def run(*argv):
    assert main([str(a) for a in argv]) == 0


def train_calibrated(root, outdir, *flags):
    run("train", "--data-dir", root / "data", *CALIBRATED, *flags, "--outdir", outdir)
    curves = (outdir / "curves.csv").read_text(encoding="utf-8")
    assert re.search(r"^\d+,gc,", curves, re.MULTILINE)


def assert_same_artifacts(a, b):
    for name in ARTIFACTS:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.fixture(scope="module")
def quickstart(tmp_path_factory):
    """A directory holding the quickstart's ``data`` after ``gen`` and an in-place dominant
    ``corrupt``, and ``gc1``, a calibrated run on it."""
    root = tmp_path_factory.mktemp("quickstart")
    run("gen", "--outdir", root / "data", "--n-samples", 200, "--data-seed", 0)
    run("corrupt", "--data-dir", root / "data", "--regime", "dominant")
    train_calibrated(root, root / "gc1")
    return root


def refuse_records(data, path, name):
    raise AssertionError(f"csv.reader read {path}, a file of plain numbers")


@pytest.mark.parametrize("respell", [
    lambda text: text.replace("\r\n", "\n"),
    lambda text: text.replace("\r\n", "\r"),
    lambda text: "".join(",".join("%.17e" % float(cell) for cell in row.split(",")) + "\r\n"
                         for row in text.splitlines()),
], ids=["lf", "cr", "e17"])
def test_eval_reads_a_plain_respelling_of_the_features(quickstart, tmp_path, monkeypatch,
                                                       respell):
    # NumPy's parser reads each respelling, and eval writes the bytes of metrics.json
    shutil.copytree(quickstart / "data", tmp_path / "data")
    path = tmp_path / "data" / "test_features.csv"
    text = path.read_bytes().decode()
    path.write_bytes(respell(text).encode())
    assert path.read_bytes() != text.encode()
    monkeypatch.setattr(data, "_read_csv_rows", refuse_records)
    run("eval", "--checkpoint", quickstart / "gc1" / "checkpoint.json",
        "--data-dir", tmp_path / "data", "--split", "test", "--out", tmp_path / "eval.json")
    written = (quickstart / "gc1" / "metrics.json").read_bytes()
    assert (tmp_path / "eval.json").read_bytes() == written


@pytest.mark.parametrize("flags", [[], ["--hidden", "0"]], ids=["mlp", "linear"])
def test_a_calibrated_run_reruns_byte_identically(quickstart, tmp_path, flags):
    # the linear model's stacked calibrated pass caches no hidden layer
    for name in ("a", "b"):
        train_calibrated(quickstart, tmp_path / name, *flags)
    assert_same_artifacts(tmp_path / "a", tmp_path / "b")


def test_config_json_replays_a_calibrated_run(quickstart, tmp_path):
    spec = read_config_json(quickstart / "gc1" / "config.json")
    spec.outdir = str(tmp_path / "gc3")
    run_experiment(spec)
    assert_same_artifacts(quickstart / "gc1", tmp_path / "gc3")


def test_the_checkpoint_is_its_json_dump_with_the_prediction_ema_as_a_string(quickstart):
    text = (quickstart / "gc1" / "checkpoint.json").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text)) + "\n"
    assert isinstance(json.loads(text)["smoothed_preds"], str)
