"""Self-test of the benchmark, on tiny versions of every workload.

    python3 perfbench/selftest.py

Run from the root of a checkout; it takes well under a minute. It checks
that every run prints each metric BENCHMARK.json names, with its unit, for
both trace modes; that the tiny runs pass their correctness checks; that a
deliberately failing check is counted against the success rate; and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def check_result(result: dict, spec: dict, trace: int, label: str):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0, (label, result)
    assert result["attempted"] >= 1, label
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected, (label, set(printed) ^ set(expected))
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            label, name, value)


def check_failure_counted():
    sys.path.insert(0, str(HERE))
    import run

    impossible = {"accuracy_above": 1.0, "margin_at_least": 0.0}
    result, _ = run.run_workload("desk", SEED, 0, False, tiny=True,
                                 gates=impossible)
    assert not result["correct"], result
    assert result["failed"] == result["attempted"] >= 1, result
    assert result["metrics"]["success_rate"]["value"] == 0.0, result


def check_refuses_bare_directory():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
             "desk", "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout


def main() -> int:
    if not __debug__:
        raise SystemExit("the self-test asserts; run it without -O")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            check_result(run_tiny(workload, trace), spec, trace, label)
            print(f"ok  {label}")
    check_failure_counted()
    print("ok  a failing check is counted")
    check_refuses_bare_directory()
    print("ok  refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
