"""The benchmark builds its few-shot world by calling the library directly
(``perfbench/workloads.py``), not through the command line. A tiny world
built that way must still feed ``geoball episodes``."""

import json
import os
import subprocess
import sys
from pathlib import Path

from geoball.cli import main

REPO = Path(__file__).resolve().parents[1]
WORLD_FILES = ("space.json", "mlp.json", "negatives.json", "features_novel.csv")


def test_benchmark_fewshot_world_feeds_episodes(tmp_path):
    src = str(REPO / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    setup = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "workloads.py"),
         "--workload", "fewshot", "--seed", "3", "--tiny",
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert setup.returncode == 0, setup.stderr
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
