"""The benchmark writes its inputs with ``perfbench/workloads.py``. A tiny
few-shot world built that way must still feed ``geoball episodes``, a tiny
desk config must give the same artifacts on every pipeline call, and the
benchmark's own self-test must pass on the program as it stands."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from geoball.cli import main

REPO = Path(__file__).resolve().parents[1]
WORLD_FILES = ("space.json", "mlp.json", "negatives.json", "features_novel.csv")
DESK_ARTIFACTS = ("space.json", "negatives.json", "features_base.npz",
                  "features_novel.npz", "mlp.json", "report.json")


def set_up(workload, out):
    """Write the benchmark's tiny inputs for ``workload`` at seed 3."""
    src = str(REPO / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    setup = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "workloads.py"),
         "--workload", workload, "--seed", "3", "--tiny", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert setup.returncode == 0, setup.stderr


def test_benchmark_fewshot_world_feeds_episodes(tmp_path):
    set_up("fewshot", tmp_path)
    world = tmp_path / "world"
    assert all((world / name).is_file() for name in WORLD_FILES)

    out = tmp_path / "report.json"
    assert main(["episodes", str(world / "space.json"), str(world / "mlp.json"),
                 "--novel", str(world / "features_novel.csv"),
                 "--negatives", str(world / "negatives.json"),
                 "--w", "3", "--s", "2", "--q", "4", "--episodes", "4",
                 "--ontology", str(tmp_path / "ontology.json"),
                 "--seed", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["episodes"]["episodes"] == 4


def test_benchmark_desk_runs_repeat_byte_identically(tmp_path):
    # the benchmark fails a desk operation whose artifacts differ from the
    # first operation's, or whose accuracy misses the tiny gate
    set_up("desk", tmp_path)
    world = tmp_path / "world"
    runs = []
    for _ in range(2):
        shutil.rmtree(world, ignore_errors=True)
        world.mkdir()
        assert main(["pipeline", "--config", str(tmp_path / "config.json")]) == 0
        assert sorted(p.name for p in world.iterdir()) == sorted(DESK_ARTIFACTS)
        runs.append({name: hashlib.sha256((world / name).read_bytes()).hexdigest()
                     for name in DESK_ARTIFACTS})
    assert runs[0] == runs[1]
    report = json.loads((world / "report.json").read_text())
    assert report["episodes"]["accuracy"] > 0.5


def test_benchmark_selftest_passes():
    # every metric printed under both trace modes, the tiny runs' checks
    # passing and a failing check counted against the success rate
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "selftest.py")],
        cwd=REPO, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
