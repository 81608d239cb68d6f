"""Benchmark harness for spmlab.

    python3 perfbench/run.py --workload train_suite --seed 0 --seconds 25 --trace 0

Runs one workload in this process for about ``--seconds`` seconds and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` repeats
alternate between untraced and traced, and the metrics are the per-layer
ones. The line before it holds the run context and the workload's own
breakdown. ``--smoke`` runs the same code at toy sizes. See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are small, and a fixed thread count keeps
# floating-point results (and so the recorded references) reproducible.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7


def _non_negative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train_suite", "eval_oracle", "cli_pipeline"])
    parser.add_argument("--seed", type=_non_negative, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="toy input sizes")
    return parser.parse_args(argv)


def _blas_threads_in_effect():
    """Thread count OpenBLAS reports, when NumPy links the scipy-openblas build."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("lib*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_context(args, tracer_missing):
    import numpy as np

    sources = sorted((SRC / "spmlab").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        blob = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + blob)
        lines += blob.count(b"\n")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):     # NumPy before 1.25 prints its config only
        blas = {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_thread_cap": int(BLAS_THREADS),
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "untraced_names": tracer_missing,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "spmlab" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"perfbench: no spmlab sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import layers
    from calibration import NOMINAL_PROBE_S, Calibration
    from tracing import Tracer
    from workloads import WORKLOADS, Checks, Ops

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    scale = "smoke" if args.smoke else "full"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    references = json.loads((BENCH_DIR / "references.json").read_text())
    workload = WORKLOADS[args.workload](scale, args.seed, ROOT, out_dir / f"work-{tag}-{os.getpid()}",
                                        references)
    checks = Checks()
    tracer = Tracer() if args.trace else None
    samples = []

    try:
        calibration = Calibration()
        setup_times, setup_norms = [], []

        def timed_setup():
            state, seconds, norm = calibration.timed(workload.setup)
            setup_times.append(seconds)
            setup_norms.append(norm)
            return state

        for _ in range(SETUP_REPEATS):
            state = timed_setup()

        workload.prepare(state)
        started = time.perf_counter()
        repeat_walls = []
        index = 0
        while True:
            use_trace = tracer is not None and index % 2 == 1
            ops = Ops(tracer=tracer) if use_trace else Ops(calibration=calibration)
            t0 = time.perf_counter()
            try:
                if use_trace:
                    layers.install(tracer)
                    tracer.begin_run(index)
                sample = workload.repeat(state, ops, checks, index)
            except Exception:  # a failing operation ends the run and counts as failed
                traceback.print_exc(file=sys.stderr)
                checks.expect(False, f"repeat {index} raised")
                break
            finally:
                if use_trace:
                    tracer.end_run()
                    tracer.uninstall()
            repeat_walls.append(time.perf_counter() - t0)
            sample.update(seconds=ops.seconds, wall_s=ops.wall_s, wall_norm=ops.wall_norm,
                          traced=use_trace)
            samples.append(sample)
            index += 1
            # one more set-up after each repeat, so set-up time, like the
            # repeats, samples the machine's load over the whole run
            timed_setup()
            enough = len(samples) >= (2 if tracer else 1)
            elapsed = time.perf_counter() - started
            if enough and elapsed + statistics.median(repeat_walls) > args.seconds:
                break
    finally:
        workload.close()

    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    context = run_context(args, sorted(set(tracer.missing)) if tracer else [])
    details = {"setup_wall_s": setup_times, "setup_norms": setup_norms, "repeats": len(samples),
               "untraced_walls": [s["wall_s"] for s in untraced],
               "traced_walls": [s["wall_s"] for s in traced],
               "untraced_wall_norms": [s["wall_norm"] for s in untraced],
               "failures": checks.failures[:20]}
    # artifacts of the second repeat compared byte for byte with the first
    identical = [s["identical_artifacts"] for s in samples[1:] if "identical_artifacts" in s]
    if untraced:
        details["wall_s"] = statistics.median([s["wall_s"] for s in untraced])
        details.update(workload.breakdown(untraced))
    details["error_rate"] = checks.failed / max(checks.attempted, 1)

    if args.trace:
        runs = tracer.runs()
        values = {}
        if traced and untraced:
            values.update(layers.summarize(runs))
            values["trace.overhead_s"] = (statistics.median([s["wall_s"] for s in traced])
                                          - statistics.median([s["wall_s"] for s in untraced]))
            details["top_spans"] = layers.top_spans(runs)
        values["cli.identical_artifacts"] = float(identical[0]) if identical else 0.0
        values.update({k: details.get(k, 0.0) for k in BREAKDOWN_KEYS})
        values["error_rate"] = details["error_rate"]
        metrics = _with_units(values, "per_layer")
        tracer.save(out_dir / f"{tag}-spans.npz")
    else:
        values = {
            "setup_s": statistics.median(setup_norms) * NOMINAL_PROBE_S,
            "wall_norm": statistics.median([s["wall_norm"] for s in untraced]) if untraced else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = _with_units(values, "end_to_end")

    result = {"correct": checks.failed == 0, "attempted": max(checks.attempted, 1),
              "failed": checks.failed if checks.attempted else 1, "metrics": metrics}
    record = {"context": context, "details": details, "result": result}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=2, default=float) + "\n")
    for failure in checks.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"context": context, "details": details}, default=float))
    print(json.dumps(result))
    return 0


BREAKDOWN_KEYS = ("wall_s", "adagc_train_s", "an_train_s", "train_samples_per_s", "adagc_test_map",
                  "an_test_map", "report_rows_per_s", "mc_trials_per_s", "cli_prepare_s",
                  "cli_train_s", "cli_eval_s")


def _with_units(values, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    units = {m["name"]: m["unit"] for m in spec}
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"metrics not produced: {sorted(missing)}")
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


if __name__ == "__main__":
    sys.exit(main())
