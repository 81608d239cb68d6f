"""Smoke test of the benchmark harness, in seconds.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at toy sizes (``--smoke``), untraced
and traced, and checks each result line: exit code 0, exactly the keys
``correct``/``attempted``/``failed``/``metrics``, every metric of the right
section with its unit, non-zero end-to-end values, and no failed check.
Then checks that the harness refuses to run (nonzero exit, no result) in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _check_result(proc, spec, trace):
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"checks: {result.get('attempted')} attempted, {result.get('failed')} failed; "
                        f"{proc.stderr.strip()[-500:]}")
    section = spec["per_layer" if trace else "end_to_end"]
    wanted = {m["name"]: m["unit"] for m in section}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(wanted))}")
    for name, unit in wanted.items():
        entry = got.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: {entry}")
        elif not trace and entry["value"] == 0:
            problems.append(f"{name} is 0")
    return problems


def _check_bare_directory(workload):
    """Only BENCHMARK.json and perfbench/: the harness must refuse to run."""
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(bare, workload, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"ran without sources: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = _check_result(_run(ROOT, workload, trace), spec, trace)
            print(f"{'FAIL' if problems else 'PASS'} {workload} trace={trace}")
            for problem in problems:
                print(f"    {problem}")
            failures += bool(problems)
    problems = _check_bare_directory(spec["workloads"][0]["name"])
    print(f"{'FAIL' if problems else 'PASS'} refuses to run without sources")
    for problem in problems:
        print(f"    {problem}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
