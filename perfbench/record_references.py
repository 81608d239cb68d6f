"""Record the references that the benchmark checks its outputs against.

    python3 perfbench/record_references.py

For each seed in the table, at full and smoke sizes, trains the suite
configuration of ``workloads.TrainSuite`` and writes the clean test mAP and
trigger epoch of each method, and computes the full-size metric reports and
Monte Carlo means of ``workloads.EvalOracle``; all go to ``references.json``.
Run it only when a change is meant to alter these results, and say so in
CHANGES.md: the benchmark treats any other difference as a failure.
"""

from __future__ import annotations

import json
import sys

import run  # sets the BLAS thread cap before NumPy loads

sys.path.insert(0, str(run.SRC))

from spmlab import training  # noqa: E402
from workloads import METHODS, EvalOracle, TrainSuite  # noqa: E402

SEEDS = range(16)


def _train_suite(workload):
    state = workload.setup()
    entry = {}
    for method in METHODS:
        result = training.train(workload.config(method), state["train"], state["val"], state["test"])
        entry[method] = {"test_map": result.report.map,
                         "trigger_epoch": result.detector.trigger_epoch}
    return entry


def _eval_oracle(workload):
    return workload.reference_values(workload.setup())


RECORDERS = {"train_suite": (TrainSuite, _train_suite), "eval_oracle": (EvalOracle, _eval_oracle)}


def main() -> int:
    table = {}
    for name, (cls, record) in RECORDERS.items():
        table[name] = {}
        for scale in ("full", "smoke"):
            seeds_only = {name: {scale: {str(seed): None for seed in SEEDS}}}
            entries = {}
            for seed in SEEDS:
                entries[str(seed)] = record(cls(scale, seed, run.ROOT, None, seeds_only))
                print(name, scale, seed, flush=True)
            table[name][scale] = entries
    path = run.BENCH_DIR / "references.json"
    path.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
