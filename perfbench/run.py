"""geoball benchmark: one workload, one seed, a closed loop for N seconds.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 42 --trace 0

Run from the root of a checkout. The program is imported from ``src/`` of
that checkout; without it the benchmark exits with an error. Set-up writes
the inputs in child processes (three times, median reported), then one client
runs the workload's operation back to back until ``--seconds`` have passed,
checking each result after its timed region. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced operations
and prints the per-layer metrics. The last line of standard output is the
result object; the line before it holds quartiles, counts and machine facts,
which also go to ``.bench_out/results/``.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads: one BLAS thread keeps timings steady on a shared
# two-core machine, where a second thread mostly waits for the first.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
SETUP_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from spans import TARGETS, Tracer  # noqa: E402
from workloads import (DESK_GATES, TINY_GATES, WORKLOADS,  # noqa: E402
                       hash_tree, sha256)

# span name -> metric stem, where the layer's own name is clearer
STEMS = {"cli.main": "cli.self", "pipeline.run": "pipeline.self"}


def import_program():
    """Import geoball from this checkout's src/, never from elsewhere."""
    package = SRC / "geoball"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no geoball package under {SRC}; "
                         "run from the root of a geoball checkout")
    sys.path.insert(0, str(SRC))
    import geoball

    if Path(geoball.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported geoball from {geoball.__file__}")
    return geoball


def source_fingerprint() -> str:
    """sha256 over the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "geoball").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(sha256(path).encode())
    return digest.hexdigest()


def machine_facts(geoball) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):  # config layout varies by version
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "geoball": geoball.__version__,
        "git_commit": commit,
        "source_sha256": source_fingerprint(),
    }


def setup(name: str, seed: int, inputs: Path, tiny: bool):
    """Generate the inputs SETUP_REPS times; return wall times and problems."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
           "--seed", str(seed), "--out", str(inputs)] + (["--tiny"] * tiny)
    times, trees = [], []
    for _ in range(SETUP_REPS):
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        child = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
        # wait() with a timeout polls in 50 ms steps, which would quantise
        # setup_s; a timer kills a hung child instead
        timer = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        timer.start()
        try:
            code = child.wait()
        finally:
            timer.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        trees.append(hash_tree(inputs))
    problems = ([] if all(t == trees[0] for t in trees)
                else ["set-up inputs differ between repetitions"])
    return times, problems


def layer_metrics(tracer: Tracer, run_id: int, geoball) -> dict[str, float]:
    """Per-layer numbers of one traced operation."""
    self_times = tracer.self_times(run_id)
    out: dict[str, float] = {}
    for span in TARGETS:
        seconds, count = self_times.get(span, (0.0, 0))
        out[f"{STEMS.get(span, span)}_s"] = seconds
        out[f"{span}_calls"] = count

    steps = 0
    for args, _, _ in tracer.calls.get("embedding.train", ()):
        ontology, ich, _, config = args[:4]
        n_axioms = len(ich.pairs) + len(ontology.disjointness)
        steps += config.epochs * max(1, math.ceil(n_axioms / config.batch_size))
    train_s = tracer.total_time("embedding.train", run_id)
    out["embedding.steps"] = steps
    out["embedding.steps_per_s"] = steps / train_s if train_s else 0.0

    out["harness.write_csv_mb"] = sum(
        Path(args[1]).stat().st_size
        for args, _, _ in tracer.calls.get("harness.write_csv", ())) / 1e6
    episodes = sum(len(args[2]) for args, _, _
                   in tracer.calls.get("harness.evaluate_episodes", ()))
    evaluate_s = tracer.total_time("harness.evaluate_episodes", run_id)
    out["harness.episodes"] = episodes
    out["harness.episodes_per_s"] = episodes / evaluate_s if evaluate_s else 0.0

    # reduction fit and initialisation, measured from outside: the same
    # train_base call with no epochs, made after the traced operation
    out["projector.reduction_fit_s"] = 0.0
    out["projector.base_epoch_s"] = 0.0
    out["projector.epochs_bl"] = 0
    base_calls = tracer.calls.get("projector.train_base", ())
    if base_calls:
        features, space, negatives, config = base_calls[0][0][:4]
        start = time.perf_counter()
        geoball.projector.train_base(features, space, negatives,
                                     replace(config, epochs_bl=0))
        fit_s = time.perf_counter() - start
        out["projector.reduction_fit_s"] = fit_s
        out["projector.epochs_bl"] = config.epochs_bl
        if config.epochs_bl:
            out["projector.base_epoch_s"] = (
                (out["projector.train_base_s"] - fit_s) / config.epochs_bl)
    tracer.calls = {}
    return out


def summarize(values) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def check_expected(name: str, seed: int, tiny: bool, hashes: dict,
                   fingerprint: str) -> list[str]:
    """Artifacts of one seed must match those of every earlier run of it."""
    path = OUT / "expected" / f"{name}-{seed}{'-tiny' * tiny}.json"
    if path.is_file():
        known = json.loads(path.read_text())
        if known["source"] == fingerprint:
            if known["hashes"] != hashes:
                return ["artifacts differ from an earlier run of this seed"]
            return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"source": fingerprint, "hashes": hashes}))
    return []


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, gates: dict | None = None):
    """Set up, run the closed loop, check every result.

    Returns (result, detail): the result object of the benchmark contract
    and the record with quartiles, per-operation data and machine facts.
    """
    if gates is None:
        gates = TINY_GATES if tiny else DESK_GATES
    geoball = import_program()
    facts = machine_facts(geoball)
    work = OUT / f"work-{os.getpid()}"
    inputs, out = work / "inputs", work / "out"
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer() if trace else None
    try:
        setup_times, setup_problems = setup(name, seed, inputs, tiny)
        workload = WORKLOADS[name](inputs, out, seed, tiny)
        ops: list[dict] = []
        first_hashes = None
        # no untimed warm-up: imports are done above, and over 20 runs the
        # first operation was no slower than the median of the rest
        start = time.perf_counter()
        while (not ops or time.perf_counter() - start < seconds
               or (trace and len(ops) < 2)):
            traced = trace and len(ops) % 2 == 1
            shutil.rmtree(workload.outputs, ignore_errors=True)
            workload.outputs.mkdir(parents=True)
            gc.collect()  # garbage of the previous operation is not timed
            op = {"traced": traced, "problems": []}
            scope = (tracer.active(len(ops)) if traced
                     else contextlib.nullcontext())
            t0 = time.perf_counter()
            try:
                try:
                    with scope:
                        workload.run()
                finally:
                    op["op_s"] = time.perf_counter() - t0
                outcome = workload.judge(gates)
                op.update(quality=outcome.quality, details=outcome.details,
                          artifact_mb=outcome.artifact_bytes / 1e6)
                op["problems"] += outcome.problems
                if first_hashes is None:
                    first_hashes = outcome.hashes
                    op["problems"] += check_expected(
                        name, seed, tiny, outcome.hashes, facts["source_sha256"])
                elif outcome.hashes != first_hashes:
                    op["problems"].append("artifacts differ between operations")
                if traced:
                    op["layers"] = layer_metrics(tracer, len(ops), geoball)
            except Exception as exc:  # a failed operation is counted, not fatal
                op["problems"].append(f"{type(exc).__name__}: {exc}")
            ops.append(op)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if tracer is not None:
            results = OUT / "results"
            results.mkdir(parents=True, exist_ok=True)
            tracer.dump(results / f"{name}-seed{seed}-spans.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for op in ops if op["problems"])
    ok = [op for op in ops if not op["problems"]] or ops
    plain = [op["op_s"] for op in ops if not op["traced"]]
    summary = {
        "setup_s": (summarize(setup_times), "s"),
        "op_s": (summarize(plain), "s"),
        "quality": (summarize([op.get("quality", 0.0) for op in ok]),
                    "fraction"),
        "peak_rss_mb": (summarize([peak_rss_mb]), "MB"),
        "artifact_mb": (summarize([op.get("artifact_mb", 0.0) for op in ok]),
                        "MB"),
        "success_rate": (summarize([(len(ops) - failed) / len(ops)]),
                         "fraction"),
    }
    if trace:
        # with no traced operation left to read, every layer reads 0
        layered = ([op["layers"] for op in ops if "layers" in op]
                   or [layer_metrics(Tracer(), -1, geoball)])
        for metric in layered[0]:
            unit = ("1/s" if metric.endswith("_per_s") else
                    "s" if metric.endswith("_s") else
                    "MB" if metric.endswith("_mb") else "count")
            summary[metric] = (summarize([lay[metric] for lay in layered]), unit)
        traced_s = [op["op_s"] for op in ops if op["traced"]]
        overhead = statistics.median(traced_s) / statistics.median(plain) - 1.0
        summary["trace.overhead"] = (summarize([overhead]), "fraction")
        summary["trace.ops"] = (summarize([len(traced_s)]), "count")

    metrics = {key: {"value": stats["median"], "unit": unit}
               for key, (stats, unit) in summary.items()}
    correct = failed == 0 and not setup_problems
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "machine": facts,
        "setup_problems": setup_problems,
        "summary": {k: {**s, "unit": u} for k, (s, u) in summary.items()},
        "ops": [{k: v for k, v in op.items() if k != "layers"} for op in ops],
        "missing_call_sites": tracer.missing if tracer else [],
    }
    return result, detail


def select(result: dict, names) -> dict:
    """Keep only the metrics BENCHMARK.json lists for this mode."""
    return {**result, "metrics": {n: result["metrics"][n] for n in names}}


def benchmark_metric_names(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="geoball benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes; seconds instead of minutes")
    args = parser.parse_args(argv)
    result, detail = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), tiny=args.tiny)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(select(result, benchmark_metric_names(bool(args.trace)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
