"""Record the golden artifacts in ``tests/golden.json``.

    PYTHONPATH=src python3 tests/record_golden.py

Each case is run in-process through ``cli.main``:

* one case per method: ``spmlab train`` at toy size (``ARGV``, with
  ``--regime none`` for ``gt``), the seven-method check; its five artifacts;
* ``data``: a small data directory after ``gen`` and an in-place
  ``corrupt --regime dominant``; every file in it;
* ``eval``: ``eval --out`` of the ``adagc`` run's checkpoint on that
  directory's test split.

The file keeps the sha256 of each artifact, the values of each metric
report (``metrics.json``, ``eval.json``), and the Python and NumPy versions
it was recorded with; ``tests/test_golden.py`` reruns the cases and
compares. Re-record only when a change is meant to alter an artifact, and
say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from spmlab.cli import main
from spmlab.training import METHODS

GOLDEN = Path(__file__).with_name("golden.json")
ARGV = ["--n-samples", "600", "--epochs", "12", "--beta-t", "0.99", "--patience", "2",
        "--hidden", "8", "--seed", "1", "--data-seed", "2", "--log-clean-val"]
ARTIFACTS = ("config.json", "metrics.json", "curves.csv", "fliprates.csv", "checkpoint.json")
CASES = (*METHODS, "data", "eval")
REPORTS = ("metrics.json", "eval.json")


def _main(*argv) -> None:
    status = main([str(a) for a in argv])
    if status != 0:
        raise RuntimeError(f"spmlab {' '.join(map(str, argv))} exited {status}")


def run_case(case: str, root: Path) -> dict:
    """The artifacts of ``case``, as bytes by file name, made under the directory ``root``."""
    if case == "data":
        datadir = root / "data"
        _main("gen", "--outdir", datadir, "--n-samples", "200", "--data-seed", "0")
        _main("corrupt", "--data-dir", datadir, "--regime", "dominant")
        return {path.name: path.read_bytes() for path in sorted(datadir.iterdir())}
    if case == "eval":
        run_case("adagc", root)
        run_case("data", root)
        _main("eval", "--checkpoint", root / "adagc" / "checkpoint.json",
              "--data-dir", root / "data", "--split", "test", "--out", root / "eval.json")
        return {"eval.json": (root / "eval.json").read_bytes()}
    regime = ["--regime", "none"] if case == "gt" else []
    _main("train", "--method", case, *ARGV, *regime, "--outdir", root / case)
    return {name: (root / case / name).read_bytes() for name in ARTIFACTS}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record() -> dict:
    golden = {"python": platform.python_version(), "numpy": np.__version__,
              "argv": ARGV, "sha256": {}, "metrics": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            artifacts = run_case(case, Path(tmp) / case)
            golden["sha256"][case] = {name: sha256(data) for name, data in artifacts.items()}
            golden["metrics"].update({case: json.loads(artifacts[name])
                                      for name in REPORTS if name in artifacts})
    return golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=2) + "\n")
    print(GOLDEN, file=sys.stderr)
