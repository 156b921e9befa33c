"""Command-line front end.

Subcommands mirror the pipeline stages (ingest, ich, embed, tune, negatives,
train-projector, infer, episodes, viz) plus `pipeline`, which runs the whole
chain from one JSON config. Any subcommand that trains accepts --verbose to
stream per-epoch losses, and any that draws random numbers accepts --seed.
Every --config is read whole by `PipelineConfig.from_json`, as `pipeline`
reads it, and --seed follows `PipelineConfig`'s seed rule, with or without
a config.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from .embedding import BallSpace
from .evaluation import GridSpec, grid_search
from .harness import (FeatureNpz, atomic_open, read_features_csv,
                      read_features_npz)
from .jsonio import read_json
from .negatives import NegativeSets, build_negative_sets
from .ontology import OntologyError, compute_ich, load_ontology
from .pipeline import (PipelineConfig, PipelineError, embed, episodes_report,
                       ingest, learn_base, run_pipeline, _write_json)
from .projector import Mlp, ancestor_report, classify_batch, mlp_forward
from .viz import render_balls_2d


def _load(path, cls):
    """The ``cls`` artifact in the JSON file at ``path``; a file of the
    wrong shape is a ValueError that names both."""
    obj = read_json(path, f"{cls.__name__} file")
    try:
        return cls.from_dict(obj)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{path} does not hold a {cls.__name__} artifact: "
                         f"{type(exc).__name__}: {exc}") from exc


def _read_features(path, on_demand: bool = False):
    """A ``.npz`` feature file as the pipeline writes it, any other as CSV;
    one without rows is a ValueError that names it. With ``on_demand``, a
    ``.npz`` is opened as a ``FeatureNpz``, which reads rows when asked."""
    if Path(path).suffix != ".npz":
        features = read_features_csv(path)
    else:
        features = (FeatureNpz if on_demand else read_features_npz)(path)
    if not features.labels:
        raise ValueError(f"feature file {path} holds no rows")
    return features


def _space_names(text: str, space: BallSpace, flag: str, path):
    """The comma-separated names given to ``flag``, each once and each a
    ball of ``space`` (read from ``path``); otherwise a ValueError that names
    the flag and every repeated name, or every name without a ball."""
    names = tuple(text.split(","))
    repeated = [name for name, count in Counter(names).items() if count > 1]
    if repeated:
        raise ValueError(f"{flag} names {repeated} more than once")
    space.rows(names, f"{flag} concepts (space {path})")
    return names


def _float_list(text: str, flag: str) -> tuple[float, ...]:
    """The comma-separated numbers given to ``flag``; one that does not parse
    or is not finite is a ValueError that names the flag."""
    values = []
    for item in filter(None, (v.strip() for v in text.split(","))):
        try:
            values.append(float(item))
        except ValueError:
            values.append(math.nan)
        if not math.isfinite(values[-1]):
            raise ValueError(f"{flag} takes finite numbers, not {item!r}")
    return tuple(values)


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
    ontology, ich, stats = ingest(args.ontology)
    config = PipelineConfig.from_json(args.config, args.seed)
    space, scores = embed(ontology, ich, stats, config.embed, args.verbose)
    print(f"f1_all {scores.f1_all:.4f}  f1_leaf {scores.f1_leaf:.4f}  "
          f"s_d_fraction {scores.s_d_fraction:.4f}")
    _write_json(args.out, space.to_dict())
    return 0


def cmd_tune(args) -> int:
    ontology, ich, stats = ingest(args.ontology)
    config = PipelineConfig.from_json(args.config, args.seed)
    grid = GridSpec(gammas=_float_list(args.gammas, "--gammas"),
                    psis=_float_list(args.psis, "--psis"),
                    phis=_float_list(args.phis, "--phis"),
                    s_d_threshold=args.s_d_threshold)
    result = grid_search(ontology, ich, stats, grid, config.embed)
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
    seed = PipelineConfig.from_json(None, args.seed).seed
    negatives = build_negative_sets(space, names, k=args.k, seed=seed)
    _write_json(args.out, negatives.to_dict())
    print(f"negative sets for {len(negatives.negatives)} classes")
    return 0


def cmd_train_projector(args) -> int:
    space = _load(args.space, BallSpace)
    negatives = _load(args.negatives, NegativeSets)
    features = _read_features(args.features)
    config = PipelineConfig.from_json(args.config, args.seed)
    mlp, losses = learn_base(features, space, negatives, config.projector,
                             args.verbose)
    print(f"final loss {losses[-1]:.6f}" if losses else "no training epochs")
    _write_json(args.out, mlp.to_dict())
    return 0


def cmd_infer(args) -> int:
    space = _load(args.space, BallSpace)
    mlp = _load(args.mlp, Mlp)
    features = _read_features(args.features)
    if args.candidates:
        names = _space_names(args.candidates, space, "--candidates",
                             args.space)
    else:
        names = tuple(sorted(mlp.trained_labels)) or tuple(space.concepts)
        space.rows(names, f"the trained labels of projector {args.mlp} "
                          f"(space {args.space})")
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
    novel = _read_features(args.novel, on_demand=True)
    negatives = _load(args.negatives, NegativeSets)
    config = PipelineConfig.from_json(args.config, args.seed)
    ich = None
    if args.ontology:
        ich = compute_ich(load_ontology(args.ontology))
    flags = {"w": args.w, "s": args.s, "q": args.q,
             "n_episodes": args.episodes}
    protocol = replace(config.episodes,
                       **{k: v for k, v in flags.items() if v is not None})
    summary = episodes_report(space, mlp, novel, negatives, config.projector,
                              protocol, config.seed, ich=ich)
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
