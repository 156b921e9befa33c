"""End-to-end orchestration: one JSON config in, six artifact files out.

Stages run in dependency order (ingest, embed, negatives, features,
train-projector, episodes). Every stage derives its seed from the global one
unless its config section pins its own (``stage_config``, which the CLI uses
too), so re-running the same config file reproduces each artifact byte for
byte. A stage failure aborts the run with the stage name attached; artifacts
of completed stages stay on disk, and as each is written to a temporary file
that is renamed into place, nothing half-written is left behind.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .embedding import EmbedConfig, train_embeddings
from .evaluation import score_space
from .harness import (
    REFERENCE_RESULTS,
    atomic_open,
    evaluate_episodes,
    generate_synthetic_features,
    nearest_centroid_accuracy,
    sample_episodes,
    write_features_npz,
)
from .negatives import build_negative_sets
from .ontology import compute_ich, compute_stats, load_ontology
from .projector import ProjectorConfig, train_base

# unset seeds fall back to this constant, never to wall-clock state
DEFAULT_SEED = 0

ARTIFACT_NAMES = (
    "space.json",
    "negatives.json",
    "features_base.npz",
    "features_novel.npz",
    "mlp.json",
    "report.json",
)

# the stock desk fixture: a (5, 2, 4) tree, 40 leaves split 20/20, feature
# noise tuned so the raw nearest-support-centroid baseline lands mid-0.8
DESK_EMBED = EmbedConfig(
    dim=16, gamma=-0.1, disjoint_gamma=0.05, psi=0.3, phi=2.0,
    learning_rate=0.05, lr_decay=0.002, epochs=1500, batch_size=64,
    seed=DEFAULT_SEED, radius_clamp_min=0.4, init_radius_slack=0.1)

DESK_PROJECTOR = ProjectorConfig(
    learning_rate=0.003, epochs_bl=400, epochs_fsl=60, batch_size=64,
    seed=DEFAULT_SEED, optimizer="adam", hidden_sizes=(256,), reduce_dim=12)


@dataclass(frozen=True)
class GeneratorConfig:
    """Synthetic feature source: ambient size, class volume, noise level."""

    dim: int = 2304
    per_class: int = 200
    noise_sigma: float = 1.85
    anchor_scale: float = 3.0
    step_scale: float = 3.0
    intrinsic_dim: int | None = 12

    def __post_init__(self):
        if self.dim < 1 or self.per_class < 1:
            raise ValueError("dim and per_class must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


@dataclass(frozen=True)
class EpisodeConfig:
    w: int = 5
    s: int = 5
    q: int = 15
    n_episodes: int = 100

    def __post_init__(self):
        if min(self.w, self.s, self.q, self.n_episodes) < 1:
            raise ValueError("episode parameters must be >= 1")


def global_seed(sections: dict, seed: int | None = None) -> int:
    """A given ``seed``, else the config document's global seed, else
    DEFAULT_SEED."""
    return int(sections.get("seed", DEFAULT_SEED)) if seed is None else seed


def stage_config(sections: dict, name: str, base, seed: int | None = None):
    """Section ``name`` of a pipeline config document over ``base``.

    Unknown keys fail loudly; the rest override the stock config through the
    dataclass constructor checks. For configs with a seed, a given ``seed``
    wins, then the section's own seed, then ``global_seed``.
    """
    raw = dict(sections.get(name, {}))
    allowed = {f.name for f in fields(base)}
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(
            f"unknown {type(base).__name__} keys: {sorted(unknown)}")
    if "seed" in allowed and (seed is not None or "seed" not in raw):
        raw["seed"] = global_seed(sections, seed)
    if "hidden_sizes" in raw:
        raw["hidden_sizes"] = tuple(raw["hidden_sizes"])
    return replace(base, **raw)


@dataclass(frozen=True)
class PipelineConfig:
    """Paths plus the per-stage configs; the global seed reaches every stage
    whose section does not pin its own."""

    ontology_path: str
    out_dir: str
    seed: int = DEFAULT_SEED
    embed: EmbedConfig = DESK_EMBED
    projector: ProjectorConfig = DESK_PROJECTOR
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    episodes: EpisodeConfig = field(default_factory=EpisodeConfig)
    negatives_k: int | None = None

    @classmethod
    def from_dict(cls, obj: dict, seed: int | None = None) -> "PipelineConfig":
        """Sections override the stock desk configuration field by field; a
        given ``seed`` replaces the global seed and every section's own."""
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown pipeline config keys: {sorted(unknown)}")
        for key in ("ontology_path", "out_dir"):
            if key not in obj:
                raise ValueError(f"pipeline config needs {key!r}")
        return cls(
            ontology_path=str(obj["ontology_path"]),
            out_dir=str(obj["out_dir"]),
            seed=global_seed(obj, seed),
            embed=stage_config(obj, "embed", DESK_EMBED, seed),
            projector=stage_config(obj, "projector", DESK_PROJECTOR, seed),
            generator=stage_config(obj, "generator", GeneratorConfig()),
            episodes=stage_config(obj, "episodes", EpisodeConfig()),
            negatives_k=obj.get("negatives_k"),
        )

    @classmethod
    def from_json(cls, path, seed: int | None = None) -> "PipelineConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh), seed)

    def to_dict(self) -> dict:
        return asdict(self)


class PipelineError(RuntimeError):
    """Stage failure wrapper so callers can report where a run died."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _write_json(path, obj: dict) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with atomic_open(path) as fh:
        fh.write(text)


def print_losses(losses, stage: str = "") -> None:
    """One ``--verbose`` line per training epoch."""
    for i, value in enumerate(losses):
        print(f"{stage}epoch {i + 1}: loss {value:.6f}")


def episodes_report(space, mlp, novel, negatives, projector: ProjectorConfig,
                    protocol: EpisodeConfig, seed: int, ich=None) -> dict:
    """Evaluate ``protocol``'s episodes and the nearest-centroid baseline."""
    episodes = sample_episodes(novel, w=protocol.w, s=protocol.s,
                               q=protocol.q, n_episodes=protocol.n_episodes,
                               seed=seed)
    report = evaluate_episodes(space, mlp, episodes, projector, negatives,
                               ich=ich)
    baseline = nearest_centroid_accuracy(episodes)
    return {
        "episodes": report.to_dict(),
        "baseline_nearest_centroid": baseline.to_dict(),
        "margin_over_baseline": report.accuracy - baseline.accuracy,
        "protocol": {**asdict(protocol), "seed": seed},
        "reference_results": REFERENCE_RESULTS,
    }


def run_pipeline(config: PipelineConfig, verbose: bool = False) -> list[Path]:
    """Execute all stages; returns the artifact paths in creation order."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stage = "ingest"

    def log(msg):
        if verbose:
            print(msg)

    try:
        ontology = load_ontology(config.ontology_path)
        ich = compute_ich(ontology)
        stats = compute_stats(ontology, ich)
        log(f"ingest: {len(ontology.concepts)} concepts, "
            f"{len(ontology.leaves)} leaves")

        stage = "embed"
        space, history = train_embeddings(ontology, ich, stats, config.embed)
        if verbose:
            print_losses(history.totals(), "embed ")
        scores = score_space(space, ich, ontology.leaves)
        _write_json(out / "space.json", space.to_dict())

        stage = "negatives"
        negatives = build_negative_sets(space, ontology.leaves,
                                        k=config.negatives_k, seed=config.seed)
        _write_json(out / "negatives.json", negatives.to_dict())

        stage = "features"
        gen = config.generator
        base, novel = generate_synthetic_features(
            ontology, dim=gen.dim, per_class=gen.per_class,
            noise_sigma=gen.noise_sigma, seed=config.seed,
            anchor_scale=gen.anchor_scale, step_scale=gen.step_scale,
            intrinsic_dim=gen.intrinsic_dim)
        write_features_npz(base, out / "features_base.npz")
        write_features_npz(novel, out / "features_novel.npz")
        log(f"features: {len(base.labels)} base / {len(novel.labels)} novel "
            f"examples in {gen.dim}d")

        stage = "train-projector"
        mlp, losses = train_base(base, space, negatives, config.projector)
        if verbose:
            print_losses(losses, "projector ")
        _write_json(out / "mlp.json", mlp.to_dict())

        stage = "episodes"
        summary = episodes_report(space, mlp, novel, negatives,
                                  config.projector, config.episodes,
                                  config.seed, ich=ich)
        summary["embedding_scores"] = scores.to_dict()
        summary["projector_final_loss"] = losses[-1] if losses else None
        _write_json(out / "report.json", summary)
        log(f"episodes: accuracy {summary['episodes']['accuracy']:.4f} "
            f"(baseline {summary['baseline_nearest_centroid']['accuracy']:.4f})")
    except Exception as exc:
        raise PipelineError(stage, exc) from exc
    return [out / name for name in ARTIFACT_NAMES]
