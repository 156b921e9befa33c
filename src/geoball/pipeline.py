"""End-to-end orchestration: one JSON config in, six artifact files out.

Stages run in dependency order (ingest, embed, negatives, features,
train-projector, episodes). The ball embedding and the image features meet
only at base learning, so after ingest the two halves run side by side as
two shares (``_map_shares``): embed and negatives in this process, while a
forked child writes both feature files, fits the input reduction on the
base split and sends back only the split's labels, its reduced rows and the
fitted pair, which base learning takes as they are. So this process never
holds the raw base split; it reads that file back only when there is no
reduction. Nor does it hold the novel split: the episodes stage opens
``features_novel.npz`` as a ``FeatureNpz``, which keeps only its labels,
and each episode reads its own rows from the file in the share that scores
it. On one usable CPU the halves run in this process, embed first.
Every stage derives its seed from the global one unless its config section
pins its own (``PipelineConfig``, which reads every subcommand's
``--config`` too), so re-running the same config file at the same BLAS
thread count reproduces each artifact byte for byte; ``mlp.npz`` and
``report.json`` can differ between thread counts, since LAPACK's threaded
``eigh`` behind the input reduction does. A stage
failure aborts the run with the stage name attached; artifacts of completed
stages stay on disk (after an embed or negatives failure, the complete
feature files may already be there too), and as each is written to a
temporary file that is renamed into place, nothing half-written is left
behind.

The work of a stage that a subcommand also runs is written once, here:
``ingest``, ``embed`` (training and scoring, with the ``--verbose`` loss
lines), ``learn_base`` (base learning, with its loss lines) and
``episodes_report``, whose one ``evaluate_episodes`` call returns the
projector's report and the nearest-centroid baseline's. ``run_pipeline`` and
the subcommands both call them.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .embedding import EmbedConfig, train_embeddings
from .evaluation import score_space
from .harness import (
    REFERENCE_RESULTS,
    FeatureDataset,
    FeatureNpz,
    _map_shares,
    atomic_open,
    evaluate_episodes,
    generate_synthetic_features,
    read_features_npz,
    sample_episodes,
    split_leaves,
    write_features_npz,
    write_mlp_npz,
)
from .jsonio import check_fields, read_json
from .negatives import build_negative_sets
from .ontology import compute_ich, compute_stats, load_ontology
from .projector import ProjectorConfig, reduce_features, train_base

# unset seeds fall back to this constant, never to wall-clock state
DEFAULT_SEED = 0

ARTIFACT_NAMES = (
    "space.json",
    "negatives.json",
    "features_base.npz",
    "features_novel.npz",
    "mlp.npz",
    "report.json",
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Synthetic feature source: ambient size, class volume, noise level.

    The defaults are the stock desk fixture's: on its (5, 2, 4) tree (40
    leaves split 20/20) the noise puts the raw nearest-support-centroid
    baseline mid-0.8.
    """

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
        if (self.intrinsic_dim is not None
                and not 1 <= self.intrinsic_dim <= self.dim):
            raise ValueError("intrinsic_dim must lie in [1, dim]")


@dataclass(frozen=True)
class EpisodeConfig:
    w: int = 5
    s: int = 5
    q: int = 15
    n_episodes: int = 100

    def __post_init__(self):
        if min(self.w, self.s, self.q, self.n_episodes) < 1:
            raise ValueError("episode parameters must be >= 1")


def _global_seed(sections: dict, seed: int | None = None) -> int:
    """A given ``seed``, else the config document's global seed, else
    DEFAULT_SEED; a negative one is a ValueError."""
    chosen = sections.get("seed", DEFAULT_SEED) if seed is None else seed
    if chosen < 0:
        raise ValueError("seed must be >= 0")
    return chosen


def _stage_config(sections: dict, name: str, cls, seed: int | None = None):
    """A ``cls`` built from section ``name`` of a pipeline config document.

    Keys and values are checked (``check_fields``); an omitted key takes the
    dataclass default, through the constructor checks. For configs with a
    seed, a given ``seed`` wins, then the section's own seed, then
    ``_global_seed``.
    """
    raw = dict(check_fields(cls, sections.get(name, {}),
                            f"config section {name!r}"))
    if "seed" in {f.name for f in fields(cls)} and (
            seed is not None or "seed" not in raw):
        raw["seed"] = _global_seed(sections, seed)
    try:
        return cls(**raw)
    except ValueError as exc:
        raise ValueError(f"config section {name!r}: {exc}") from exc


@dataclass(frozen=True)
class PipelineConfig:
    """Paths plus the per-stage configs; the global seed reaches every stage
    whose section does not pin its own. Only ``run_pipeline`` needs the
    paths."""

    ontology_path: str | None = None
    out_dir: str | None = None
    seed: int = DEFAULT_SEED
    embed: EmbedConfig = field(default_factory=EmbedConfig)
    projector: ProjectorConfig = field(default_factory=ProjectorConfig)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    episodes: EpisodeConfig = field(default_factory=EpisodeConfig)
    negatives_k: int | None = None

    def __post_init__(self):
        if self.negatives_k is not None and self.negatives_k < 1:
            raise ValueError("negatives_k must be >= 1")

    @classmethod
    def from_dict(cls, obj: dict, seed: int | None = None) -> "PipelineConfig":
        """Sections override the config defaults field by field; a given
        ``seed`` replaces the global seed and every section's own."""
        check_fields(cls, obj, "pipeline config")
        return cls(
            ontology_path=obj.get("ontology_path"),
            out_dir=obj.get("out_dir"),
            seed=_global_seed(obj, seed),
            embed=_stage_config(obj, "embed", EmbedConfig, seed),
            projector=_stage_config(obj, "projector", ProjectorConfig, seed),
            generator=_stage_config(obj, "generator", GeneratorConfig),
            episodes=_stage_config(obj, "episodes", EpisodeConfig),
            negatives_k=obj.get("negatives_k"),
        )

    @classmethod
    def from_json(cls, path, seed: int | None = None) -> "PipelineConfig":
        """The config document in the file at ``path``, read as ``from_dict``
        reads it; the defaults when ``path`` is None."""
        if path is None:
            return cls.from_dict({}, seed)
        obj = read_json(path, "config file")
        if not isinstance(obj, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        return cls.from_dict(obj, seed)

    def to_dict(self) -> dict:
        return asdict(self)


class PipelineError(RuntimeError):
    """Stage failure wrapper so callers can report where a run died."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):
        # so that a failure in a forked share comes back as itself
        return type(self), (self.stage, self.cause)


def _write_json(path, obj: dict) -> None:
    """``obj`` as indented, key-sorted JSON, the bytes of ``json.dumps``,
    streamed chunk by chunk so that its whole text is never held at once."""
    encoder = json.JSONEncoder(indent=2, sort_keys=True)
    with atomic_open(path) as fh:
        fh.writelines(encoder.iterencode(obj))
        fh.write("\n")


def print_losses(losses, stage: str = "") -> None:
    """One ``--verbose`` line per training epoch."""
    for i, value in enumerate(losses):
        print(f"{stage}epoch {i + 1}: loss {value:.6f}")


def ingest(path):
    """The ontology in the file at ``path``, its inferred class hierarchy and
    its statistics: ``(ontology, ich, stats)``."""
    ontology = load_ontology(path)
    ich = compute_ich(ontology)
    return ontology, ich, compute_stats(ontology, ich)


def embed(ontology, ich, stats, config: EmbedConfig, verbose: bool = False,
          prefix: str = ""):
    """The trained n-ball space and its ``score_space`` scores; with
    ``verbose``, one loss line per epoch, led by ``prefix``."""
    space, history = train_embeddings(ontology, ich, stats, config,
                                      history=verbose)
    if verbose:
        print_losses([e.total for e in history], prefix)
    return space, score_space(space, ich, ontology.leaves)


def learn_base(features, space, negatives, config: ProjectorConfig,
               verbose: bool = False, prefix: str = "", reduction=None):
    """``train_base``'s projector and losses; with ``verbose``, one loss line
    per epoch, led by ``prefix``."""
    mlp, losses = train_base(features, space, negatives, config,
                             history=verbose, reduction=reduction)
    if verbose:
        print_losses(losses, prefix)
    return mlp, losses


def episodes_report(space, mlp, novel, negatives, projector: ProjectorConfig,
                    protocol: EpisodeConfig, seed: int, ich=None) -> dict:
    """Evaluate ``protocol``'s episodes: the fine-tuned projector and the
    nearest-centroid baseline, scored together by ``evaluate_episodes``."""
    episodes = sample_episodes(novel, w=protocol.w, s=protocol.s,
                               q=protocol.q, n_episodes=protocol.n_episodes,
                               seed=seed)
    report, baseline = evaluate_episodes(space, mlp, episodes, projector,
                                         negatives, ich=ich)
    return {
        "episodes": report.to_dict(),
        "baseline_nearest_centroid": baseline.to_dict(),
        "margin_over_baseline": report.accuracy - baseline.accuracy,
        "protocol": {**asdict(protocol), "seed": seed},
        "reference_results": REFERENCE_RESULTS,
    }


def _write_features(ontology, config: PipelineConfig, out: Path):
    """Generate both feature splits and write each to its ``.npz`` artifact;
    returns only their row counts, so that no split outlives this call and
    later stages read from the bytes on disk what they need: the base split
    whole for the input reduction, the novel split row by row for the
    episodes. It runs in the share beside embed and negatives, so only that
    share holds them."""
    gen = config.generator
    base, novel = generate_synthetic_features(
        ontology, dim=gen.dim, per_class=gen.per_class,
        noise_sigma=gen.noise_sigma, seed=config.seed,
        anchor_scale=gen.anchor_scale, step_scale=gen.step_scale,
        intrinsic_dim=gen.intrinsic_dim)
    write_features_npz(base, out / "features_base.npz")
    write_features_npz(novel, out / "features_novel.npz")
    return len(base.labels), len(novel.labels)


@contextmanager
def _stage(name: str):
    """A failure in the with-block is a PipelineError that names stage
    ``name``."""
    try:
        yield
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def run_pipeline(config: PipelineConfig, verbose: bool = False) -> list[Path]:
    """Execute all stages; returns the artifact paths in creation order."""
    for key in ("ontology_path", "out_dir"):
        if getattr(config, key) is None:
            raise ValueError(f"pipeline config needs {key!r}")
    with _stage("ingest"):
        ontology, ich, stats = ingest(config.ontology_path)
    # refuse a protocol the novel split cannot draw before any stage writes:
    # each of split_leaves' novel classes gets per_class rows
    protocol, novel = config.episodes, len(split_leaves(ontology)[1])
    if config.generator.per_class < protocol.s + protocol.q:
        raise ValueError(f"episodes need s + q = {protocol.s + protocol.q} "
                         "rows per class, but per_class is "
                         f"{config.generator.per_class}")
    if protocol.w > novel:
        raise ValueError(f"episodes need w = {protocol.w} classes, but the "
                         f"novel split has {novel}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if verbose:
        print(f"ingest: {len(ontology.concepts)} concepts, "
              f"{len(ontology.leaves)} leaves")

    def balls():
        with _stage("embed"):
            space, scores = embed(ontology, ich, stats, config.embed, verbose,
                                  "embed ")
            _write_json(out / "space.json", space.to_dict())
        with _stage("negatives"):
            negatives = build_negative_sets(
                space, ontology.leaves, k=config.negatives_k, seed=config.seed)
            _write_json(out / "negatives.json", negatives.to_dict())
        return space, scores, negatives

    def features():
        """Writes both feature files; returns their row counts, then the
        base split's labels with its reduced rows and the fitted pair (None
        and None without ``reduce_dim``), so only this share holds the raw
        split."""
        with _stage("features"):
            counts = _write_features(ontology, config, out)
        if config.projector.reduce_dim is None:
            return *counts, None, None
        with _stage("train-projector"):
            base = read_features_npz(out / "features_base.npz")
            rows, reduction = reduce_features(base, config.projector)
            return (*counts, FeatureDataset(rows.shape[1], base.labels, rows),
                    reduction)

    # the first job runs here, the second in a forked share beside it
    (space, scores, negatives), (n_base, n_novel, base, reduction) = (
        _map_shares(lambda job: job(), (balls, features)))
    if verbose:
        print(f"features: {n_base} base / {n_novel} novel examples in "
              f"{config.generator.dim}d")
    with _stage("train-projector"):
        if base is None:  # nothing to reduce: the raw split, read here
            base = read_features_npz(out / "features_base.npz")
        mlp, losses = learn_base(base, space, negatives, config.projector,
                                 verbose, "projector ", reduction)
        write_mlp_npz(mlp, out / "mlp.npz")
    with _stage("episodes"), FeatureNpz(out / "features_novel.npz") as novel:
        summary = episodes_report(space, mlp, novel, negatives,
                                  config.projector, config.episodes,
                                  config.seed, ich=ich)
        summary["embedding_scores"] = scores.to_dict()
        summary["projector_final_loss"] = losses[-1] if losses else None
        _write_json(out / "report.json", summary)
    if verbose:
        print(f"episodes: accuracy {summary['episodes']['accuracy']:.4f} "
              f"(baseline {summary['baseline_nearest_centroid']['accuracy']:.4f})")
    return [out / name for name in ARTIFACT_NAMES]
