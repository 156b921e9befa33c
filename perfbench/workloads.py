"""The benchmark's workloads: seeded input generators, timed operations and
correctness checks.

Every timed operation is one or two calls into the geoball command line
(``geoball.cli.main``), made in the benchmark's process so that tracing can
see them. Inputs are written by ``python3 perfbench/workloads.py`` in a child
process, so the program sees only the generated files and set-up memory does
not count towards the measured process's peak RSS.

Run as a script it is that input generator:
    python3 perfbench/workloads.py --workload desk --seed 1 --out DIR [--tiny]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

# The desk workload is the stock desk run shrunk to fit a benchmark run:
# 200 -> 40 examples per class, 400 -> 100 base epochs, 100 -> 20 episodes.
# The feature size (2304) and noise (1.85) stay stock; at these sizes every
# seed tried clears both desk gates.
DESK = {
    "fanouts": (5, 2, 4),
    "generator": {"per_class": 40},
    "projector": {"epochs_bl": 100},
    "episodes": {"n_episodes": 20},
}
# the few-shot world is the desk world with a cheaper base projector
FEWSHOT_WORLD = {**DESK, "projector": {"epochs_bl": 20}}
# 40 episodes keep one operation near 3.5 s, so that a run holds about a
# dozen and their median is steady on a shared host
FEWSHOT_PROTOCOL = {"w": 5, "s": 5, "q": 15, "episodes": 40}

# self-test sizes: same code paths, seconds instead of minutes
TINY = {
    "desk": {"fanouts": (3, 2, 2),
             "embed": {"epochs": 200},
             "generator": {"dim": 96, "per_class": 24, "noise_sigma": 1.5},
             "projector": {"epochs_bl": 10, "epochs_fsl": 10,
                           "hidden_sizes": [32]},
             "episodes": {"w": 3, "s": 2, "q": 4, "n_episodes": 4}},
    "fewshot": {"w": 3, "s": 2, "q": 4, "episodes": 4},
}

# the existing acceptance-gate bounds of the desk run; tiny worlds are too
# small for a margin over the baseline, so the self-test only asks for a
# working projector there
DESK_GATES = {"accuracy_above": 0.90, "margin_at_least": 0.03}
TINY_GATES = {"accuracy_above": 0.5, "margin_at_least": -1.0}


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def hash_tree(directory: Path) -> dict[str, str]:
    """sha256 of every file below ``directory``, by relative path."""
    return {str(p.relative_to(directory)): sha256(p)
            for p in sorted(directory.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# input generation (runs in the child process)


def _desk_config(shape: dict, ontology: Path, out: Path, seed: int) -> dict:
    config = {"ontology_path": str(ontology), "out_dir": str(out),
              "seed": seed}
    for section in ("embed", "generator", "projector", "episodes"):
        if section in shape:
            config[section] = shape[section]
    return config


def build_world(config_path: Path) -> None:
    """Train the world of a pipeline config and write the four artifacts the
    episodes command reads. The same stages as ``geoball pipeline``, minus
    the base-feature CSV and the episodes, which nothing here reads."""
    from geoball.embedding import train_embeddings
    from geoball.harness import generate_synthetic_features, write_features_csv
    from geoball.negatives import build_negative_sets
    from geoball.ontology import compute_ich, compute_stats, load_ontology
    from geoball.pipeline import PipelineConfig
    from geoball.projector import train_base

    config = PipelineConfig.from_json(config_path)
    ontology = load_ontology(config.ontology_path)
    ich = compute_ich(ontology)
    space, _ = train_embeddings(ontology, ich, compute_stats(ontology, ich),
                                config.embed)
    negatives = build_negative_sets(space, ontology.leaves,
                                    k=config.negatives_k, seed=config.seed)
    gen = config.generator
    base, novel = generate_synthetic_features(
        ontology, dim=gen.dim, per_class=gen.per_class,
        noise_sigma=gen.noise_sigma, seed=config.seed,
        anchor_scale=gen.anchor_scale, step_scale=gen.step_scale,
        intrinsic_dim=gen.intrinsic_dim)
    mlp, _ = train_base(base, space, negatives, config.projector)
    out = Path(config.out_dir)
    out.mkdir(parents=True)
    write_features_csv(novel, out / "features_novel.csv")
    for name, artifact in (("space.json", space), ("negatives.json", negatives),
                           ("mlp.json", mlp)):
        (out / name).write_text(json.dumps(artifact.to_dict()))


def generate(workload: str, seed: int, out: Path, tiny: bool) -> None:
    """Write the program's inputs for one workload and seed into ``out``."""
    from geoball.harness import synthetic_ontology

    out.mkdir(parents=True, exist_ok=True)
    if tiny:
        shape = TINY["desk"]
    else:
        shape = DESK if workload == "desk" else FEWSHOT_WORLD
    ontology = out / "ontology.json"
    ontology.write_text(json.dumps(
        synthetic_ontology(shape["fanouts"]).to_dict(), indent=1))
    config = out / "config.json"
    world = out / "world"
    config.write_text(json.dumps(_desk_config(shape, ontology, world, seed)))
    if workload == "fewshot":
        build_world(config)  # trained once; the timed operation only reads it


# ---------------------------------------------------------------------------
# timed operations and checks (run in the benchmark process)


@dataclass
class Outcome:
    """What one operation produced, judged after the timed region."""

    problems: list[str]
    quality: float
    hashes: dict[str, str]
    artifact_bytes: int
    details: dict


def _cli(argv) -> None:
    # looked up at call time so that tracing's wrapper of main is used
    import geoball.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = geoball.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"geoball {argv[0]} exited with {code}")


class Workload:
    """One workload's timed operation and its checks; the reason each
    workload exists is recorded beside it in BENCHMARK.json."""

    name = ""

    def __init__(self, inputs: Path, out: Path, seed: int, tiny: bool):
        self.inputs, self.out, self.seed, self.tiny = inputs, out, seed, tiny

    @property
    def outputs(self) -> Path:
        """Directory the operation writes; emptied before each operation."""
        return self.out

    def run(self) -> None:
        raise NotImplementedError

    def judge(self, gates: dict) -> Outcome:
        raise NotImplementedError


class Desk(Workload):
    name = "desk"

    @property
    def outputs(self):
        return self.inputs / "world"  # the out_dir of the generated config

    def run(self):
        _cli(["pipeline", "--config", self.inputs / "config.json"])

    def judge(self, gates):
        world = self.outputs
        report = json.loads((world / "report.json").read_text())
        accuracy = report["episodes"]["accuracy"]
        margin = report["margin_over_baseline"]
        problems = []
        if not accuracy > gates["accuracy_above"]:
            problems.append(f"accuracy {accuracy} <= {gates['accuracy_above']}")
        if not margin >= gates["margin_at_least"]:
            problems.append(f"margin {margin} < {gates['margin_at_least']}")
        hashes = hash_tree(world)
        return Outcome(problems, accuracy, hashes,
                       sum((world / n).stat().st_size for n in hashes),
                       {"accuracy": accuracy, "margin": margin,
                        "f1_all": report["embedding_scores"]["f1_all"],
                        "episodes": report["episodes"]["episodes"]})


class Fewshot(Workload):
    name = "fewshot"

    def run(self):
        world = self.inputs / "world"
        protocol = TINY["fewshot"] if self.tiny else FEWSHOT_PROTOCOL
        _cli(["episodes", world / "space.json", world / "mlp.json",
              "--novel", world / "features_novel.csv",
              "--negatives", world / "negatives.json",
              *(f"--{key}={value}" for key, value in protocol.items()),
              "--ontology", self.inputs / "ontology.json",
              "--seed", self.seed, "--out", self.out / "report.json"])

    def judge(self, gates):
        path = self.out / "report.json"
        report = json.loads(path.read_text())
        protocol = TINY["fewshot"] if self.tiny else FEWSHOT_PROTOCOL
        problems = []
        if report["episodes"]["episodes"] != protocol["episodes"]:
            problems.append("report covers the wrong number of episodes")
        accuracy = report["episodes"]["accuracy"]
        return Outcome(problems, accuracy, {"report.json": sha256(path)},
                       path.stat().st_size,
                       {"accuracy": accuracy,
                        "margin": report["margin_over_baseline"],
                        "episodes": report["episodes"]["episodes"]})


WORKLOADS = {w.name: w for w in (Desk, Fewshot)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out), args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
