"""Command-line front end.

Subcommands mirror the pipeline stages (ingest, ich, embed, tune, negatives,
train-projector, infer, episodes, viz) plus `pipeline`, which runs the whole
chain from one JSON config. Any subcommand that trains accepts --verbose to
stream per-epoch losses, and any that draws random numbers accepts --seed.
Seeds: --seed, else the config section's seed, else the config's global
seed, else a fixed constant, never wall-clock state.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .embedding import BallSpace, EmbedConfig, train_embeddings
from .evaluation import GridSpec, grid_search, score_space
from .harness import atomic_open, read_features_csv, read_features_npz
from .negatives import NegativeSets, build_negative_sets
from .ontology import OntologyError, compute_ich, compute_stats, load_ontology
from .pipeline import (EpisodeConfig, PipelineConfig, PipelineError,
                       episodes_report, global_seed, load_config_sections,
                       print_losses, run_pipeline, stage_config, _write_json)
from .projector import (Mlp, ProjectorConfig, ancestor_report, classify_batch,
                        mlp_forward, train_base)
from .viz import render_balls_2d


def _load(path, cls):
    """The ``cls`` artifact in the JSON file at ``path``; a file of the
    wrong shape is a ValueError that names both."""
    with open(path) as fh:
        obj = json.load(fh)
    try:
        return cls.from_dict(obj)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{path} does not hold a {cls.__name__} artifact: "
                         f"{type(exc).__name__}: {exc}") from exc


def _read_features(path):
    """A ``.npz`` feature file as the pipeline writes it, any other as CSV."""
    if Path(path).suffix == ".npz":
        return read_features_npz(path)
    return read_features_csv(path)


def _space_names(text: str, space: BallSpace, flag: str, path):
    """The comma-separated names given to ``flag``, once each is a ball of
    ``space`` (read from ``path``); otherwise a ValueError that names the
    flag and every name without one."""
    names = tuple(text.split(","))
    unknown = [name for name in names if name not in space.index]
    if unknown:
        raise ValueError(f"unknown {flag} concepts: {unknown} "
                         f"(no ball in {path})")
    return names


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


# ---------------------------------------------------------------------------
# subcommand bodies


def cmd_ingest(args) -> int:
    ontology = load_ontology(args.ontology)
    print(f"ok: {len(ontology.concepts)} concepts, "
          f"{len(ontology.told_subsumptions)} subsumptions, "
          f"{len(ontology.disjointness)} disjointness pairs, "
          f"{len(ontology.leaves)} leaves")
    if args.out:
        _write_json(args.out, ontology.to_dict())
    return 0


def cmd_ich(args) -> int:
    ontology = load_ontology(args.ontology)
    ich = compute_ich(ontology)
    print(f"closure: {len(ich.pairs)} subsumption pairs")
    if args.out:
        _write_json(args.out, ich.to_dict())
    return 0


def cmd_embed(args) -> int:
    ontology = load_ontology(args.ontology)
    ich = compute_ich(ontology)
    stats = compute_stats(ontology, ich)
    config = stage_config(load_config_sections(args.config), "embed",
                          EmbedConfig, args.seed)
    space, history = train_embeddings(ontology, ich, stats, config,
                                      history=args.verbose)
    if args.verbose:
        print_losses([e.total for e in history])
    scores = score_space(space, ich, ontology.leaves)
    print(f"f1_all {scores.f1_all:.4f}  f1_leaf {scores.f1_leaf:.4f}  "
          f"s_d_fraction {scores.s_d_fraction:.4f}")
    _write_json(args.out, space.to_dict())
    return 0


def cmd_tune(args) -> int:
    ontology = load_ontology(args.ontology)
    ich = compute_ich(ontology)
    stats = compute_stats(ontology, ich)
    base = stage_config(load_config_sections(args.config), "embed",
                        EmbedConfig, args.seed)
    grid = GridSpec(gammas=_float_list(args.gammas),
                    psis=_float_list(args.psis),
                    phis=_float_list(args.phis),
                    s_d_threshold=args.s_d_threshold)
    result = grid_search(ontology, ich, stats, grid, base)
    best = result.best_scores
    print(f"best: gamma {result.best_config.gamma} psi {result.best_config.psi} "
          f"phi {result.best_config.phi} -> f1_leaf {best.f1_leaf:.4f}")
    if result.below_threshold:
        print("warning: no grid point met the separation threshold")
    _write_json(args.out, result.to_dict())
    if args.space_out:
        _write_json(args.space_out, result.best_space.to_dict())
    return 0


def cmd_negatives(args) -> int:
    space = _load(args.space, BallSpace)
    names = (_space_names(args.leaves, space, "--leaves", args.space)
             if args.leaves else tuple(space.concepts))
    negatives = build_negative_sets(space, names, k=args.k,
                                    seed=global_seed({}, args.seed))
    _write_json(args.out, negatives.to_dict())
    print(f"negative sets for {len(negatives.negatives)} classes")
    return 0


def cmd_train_projector(args) -> int:
    space = _load(args.space, BallSpace)
    negatives = _load(args.negatives, NegativeSets)
    features = _read_features(args.features)
    config = stage_config(load_config_sections(args.config), "projector",
                          ProjectorConfig, args.seed)
    mlp, losses = train_base(features, space, negatives, config,
                              history=args.verbose)
    if args.verbose:
        print_losses(losses)
    print(f"final loss {losses[-1]:.6f}" if losses else "no training epochs")
    _write_json(args.out, mlp.to_dict())
    return 0


def cmd_infer(args) -> int:
    space = _load(args.space, BallSpace)
    mlp = _load(args.mlp, Mlp)
    features = _read_features(args.features)
    if not features.labels:
        raise ValueError(f"feature file {args.features} holds no rows")
    if args.candidates:
        names = _space_names(args.candidates, space, "--candidates",
                             args.space)
    else:
        names = tuple(sorted(mlp.trained_labels)) or tuple(space.concepts)
        unknown = [name for name in names if name not in space.index]
        if unknown:
            raise ValueError(f"projector {args.mlp} was trained on labels "
                             f"with no ball in {args.space}: {unknown}")
    candidates = [(name, space.ball(name)) for name in names]
    ich = None
    if args.ontology:
        ich = compute_ich(load_ontology(args.ontology))
    rows = []
    outputs = mlp_forward(features.features, mlp)
    picks, u, inside = classify_batch(outputs, candidates)
    for i, truth in enumerate(features.labels):
        pick = int(picks[i])
        row = {"label": truth, "prediction": names[pick],
               "u": float(u[i, pick]), "inside": bool(inside[i])}
        if ich is not None:
            row["ancestors"] = ancestor_report(outputs[i], space, ich)
        rows.append(row)
    hits = sum(r["prediction"] == r["label"] for r in rows)
    print(f"accuracy {hits / len(rows):.4f} over {len(rows)} examples")
    if args.out:
        _write_json(args.out, {"predictions": rows})
    return 0


def cmd_episodes(args) -> int:
    space = _load(args.space, BallSpace)
    mlp = _load(args.mlp, Mlp)
    novel = _read_features(args.novel)
    negatives = _load(args.negatives, NegativeSets)
    sections = load_config_sections(args.config)
    config = stage_config(sections, "projector", ProjectorConfig, args.seed)
    # episodes are sampled with the global seed, as the pipeline samples them
    seed = global_seed(sections, args.seed)
    ich = None
    if args.ontology:
        ich = compute_ich(load_ontology(args.ontology))
    flags = {"w": args.w, "s": args.s, "q": args.q,
             "n_episodes": args.episodes}
    protocol = replace(stage_config(sections, "episodes", EpisodeConfig),
                       **{k: v for k, v in flags.items() if v is not None})
    summary = episodes_report(space, mlp, novel, negatives, config, protocol,
                              seed, ich=ich)
    report = summary["episodes"]
    print(f"accuracy {report['accuracy']:.4f} +/- {report['ci95']:.4f} "
          f"(baseline {summary['baseline_nearest_centroid']['accuracy']:.4f})")
    if args.out:
        _write_json(args.out, summary)
    return 0


def cmd_viz(args) -> int:
    space = _load(args.space, BallSpace)
    concepts = (_space_names(args.concepts, space, "--concepts", args.space)
                if args.concepts else tuple(space.concepts))
    points = labels = None
    if args.points:
        dataset = _read_features(args.points)
        labels = dataset.labels
        if args.mlp:
            points = mlp_forward(dataset.features, _load(args.mlp, Mlp))
        elif dataset.dim == space.dim:
            points = dataset.features
        else:
            raise ValueError(
                f"points are {dataset.dim}d but the space is {space.dim}d; "
                "pass --mlp to project them")
    svg = render_balls_2d(space, concepts, points=points, point_labels=labels)
    with atomic_open(args.out) as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return 0


def cmd_pipeline(args) -> int:
    config = PipelineConfig.from_json(args.config, args.seed)
    written = run_pipeline(config, verbose=args.verbose)
    print(f"wrote {len(written)} artifacts to {config.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoball",
        description="Ontology-guided n-ball embeddings and few-shot evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, seeded=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if seeded:
            p.add_argument("--seed", type=int, default=None,
                           help="override every stage seed "
                                "(default: fixed constant)")
        return p

    p = add("ingest", cmd_ingest, "validate an ontology file")
    p.add_argument("ontology")
    p.add_argument("--out", help="write the normalized ontology JSON here")

    p = add("ich", cmd_ich, "compute the inferred class hierarchy")
    p.add_argument("ontology")
    p.add_argument("--out", help="write closure pairs JSON here")

    p = add("embed", cmd_embed, "train n-ball embeddings", seeded=True)
    p.add_argument("ontology")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="pipeline JSON; the embed section is used")
    p.add_argument("--verbose", action="store_true")

    p = add("tune", cmd_tune, "grid-search embedding margins", seeded=True)
    p.add_argument("ontology")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="pipeline JSON; the embed section is used")
    p.add_argument("--gammas", default="-0.2,-0.1,-0.05")
    p.add_argument("--psis", default="0.1,0.3")
    p.add_argument("--phis", default="1.0,2.0")
    p.add_argument("--s-d-threshold", type=float,
                   default=GridSpec.s_d_threshold)
    p.add_argument("--space-out", help="also write the winning space here")

    p = add("negatives", cmd_negatives, "build hard-negative sets", seeded=True)
    p.add_argument("space")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--leaves", help="comma-separated class names "
                                    "(default: every concept in the space)")

    p = add("train-projector", cmd_train_projector,
            "base learning for the feature projector", seeded=True)
    p.add_argument("space")
    p.add_argument("negatives")
    p.add_argument("features", help="base-split feature file (.npz or CSV)")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="pipeline JSON; the projector section is used")
    p.add_argument("--verbose", action="store_true")

    p = add("infer", cmd_infer, "classify feature vectors against balls")
    p.add_argument("space")
    p.add_argument("mlp")
    p.add_argument("features")
    p.add_argument("--candidates", help="comma-separated candidate classes")
    p.add_argument("--ontology", help="enables ancestor reports")
    p.add_argument("--out")

    p = add("episodes", cmd_episodes, "few-shot episode evaluation",
            seeded=True)
    p.add_argument("space")
    p.add_argument("mlp")
    p.add_argument("--novel", required=True,
                   help="novel-split feature file (.npz or CSV)")
    p.add_argument("--negatives", required=True,
                   help="hard-negative sets JSON (few-shot stage needs them)")
    # protocol flags left out take the config's episodes section
    p.add_argument("--w", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--episodes", type=int)
    p.add_argument("--ontology", help="enables semantic-error accounting")
    p.add_argument("--config", help="pipeline JSON; the projector and "
                                    "episodes sections are used")
    p.add_argument("--out")

    p = add("viz", cmd_viz, "render selected balls to SVG")
    p.add_argument("space")
    p.add_argument("--out", required=True)
    p.add_argument("--concepts", help="comma-separated (default: all)")
    p.add_argument("--points",
                   help="feature file (.npz or CSV) to scatter over the balls")
    p.add_argument("--mlp", help="projector used to map --points into the space")

    p = add("pipeline", cmd_pipeline, "run every stage from one config",
            seeded=True)
    p.add_argument("--config", required=True)
    p.add_argument("--verbose", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PipelineError, OntologyError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
