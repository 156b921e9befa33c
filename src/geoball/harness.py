"""Synthetic feature generation, episode sampling, and few-shot evaluation.

Features stand in for extractor outputs: each leaf class gets an anchor
vector generated by a random walk down the hierarchy (children perturb their
parent's anchor), so sibling classes look similar in feature space the way
visually related categories do. Episodes are w-way s-shot tasks over novel
classes; evaluation fine-tunes a copy of the base projector per episode.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding import BallSpace
from .evaluation import direct_parents
from .negatives import NegativeSets
from .ontology import Ich, Ontology, _topological_order, ontology_from_dict
from .projector import Mlp, ProjectorConfig, ancestor_report, classify, \
    finetune_fewshot, mlp_forward

# full-scale results from the original evaluation, recorded in reports as
# non-reproducible reference points for the desk-scale figures
REFERENCE_RESULTS = {
    "mini_imagenet_5way_1shot": {"accuracy": 65.71, "ci95": 0.13},
    "mini_imagenet_5way_5shot": {"accuracy": 93.65, "ci95": 0.07},
    "tiered_imagenet_5way_1shot": {"accuracy": 73.4, "ci95": 0.13},
    "tiered_imagenet_5way_5shot": {"accuracy": 88.95, "ci95": 0.09},
    "mini_imagenet_20way_1shot": {"accuracy": 48.02},
    "mini_imagenet_20way_5shot": {"accuracy": 84.13},
    "base_learning_train_accuracy": 85.32,
    "base_learning_test_accuracy": 95.36,
    "note": "full-scale reference values; not reproducible without the "
            "original image corpus and backbone",
}


@dataclass(frozen=True)
class FeatureDataset:
    """Labelled feature vectors for one split of the leaf classes."""

    dim: int
    labels: tuple[str, ...]
    features: np.ndarray  # (n_examples, dim)
    split: str = "base"

    def __post_init__(self):
        if self.split not in ("base", "novel"):
            raise ValueError(f"unknown split {self.split!r}")
        if self.dim < 1:
            raise ValueError(f"feature dim must be >= 1, got {self.dim}")
        if self.features.shape != (len(self.labels), self.dim):
            raise ValueError("feature array shape does not match labels/dim")
        self.features.setflags(write=False)

    def class_names(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.labels)))

    def class_indices(self) -> dict[str, np.ndarray]:
        out: dict[str, list[int]] = {}
        for i, label in enumerate(self.labels):
            out.setdefault(label, []).append(i)
        return {label: np.array(idx) for label, idx in sorted(out.items())}

    def subset(self, indices, split: str | None = None) -> "FeatureDataset":
        indices = np.asarray(indices, dtype=int)
        return FeatureDataset(
            self.dim,
            tuple(self.labels[i] for i in indices),
            self.features[indices],
            split or self.split,
        )


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Handle on a temporary file beside ``path``, text for ``mode="w"`` and
    binary for ``mode="wb"``, fsynced and renamed onto ``path`` when the block
    completes and removed if the block raises."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted where csv.reader would misread it."""
    if text.startswith('"') or any(ch in text for ch in ',\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_lines(dataset: FeatureDataset):
    """The feature CSV line by line: a header, then one row per example with
    repr-formatted floats so values round-trip exactly."""
    yield "label," + ",".join(f"f_{i + 1}" for i in range(dataset.dim)) + "\n"
    for label, row in zip(dataset.labels, dataset.features):
        yield _csv_field(label) + "," + ",".join(map(repr, row.tolist())) + "\n"


def write_features_csv(dataset: FeatureDataset, path) -> None:
    with atomic_open(path) as fh:
        fh.writelines(_csv_lines(dataset))


def features_csv_text(dataset: FeatureDataset) -> str:
    """The bytes ``write_features_csv`` writes, as one string."""
    return "".join(_csv_lines(dataset))


def read_features_csv(path, split: str = "base") -> FeatureDataset:
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"feature CSV {path} is empty")
        header = next(csv.reader([first]))
        if not header or header[0] != "label":
            raise ValueError("feature CSV must start with a 'label' column")
        dim = len(header) - 1
        if dim < 1:
            raise ValueError(f"feature CSV {path} has no feature columns")
        row = np.dtype([("label", object), ("f", float, (dim,))])
        # comments=None: a label may start with '#'. A header-only file is a
        # valid empty dataset, so loadtxt's no-data warning is not passed on.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            try:
                table = np.loadtxt(fh, dtype=row, delimiter=",", quotechar='"',
                                   comments=None, ndmin=1)
            except ValueError as exc:
                raise ValueError(f"feature CSV {path}: {exc}") from exc
    features = table["f"]
    if not np.isfinite(features).all():
        raise ValueError(f"feature CSV {path} holds non-finite values")
    return FeatureDataset(dim, tuple(table["label"].tolist()), features, split)


def write_features_npz(dataset: FeatureDataset, path) -> None:
    """Uncompressed ``np.savez`` of ``labels`` (a str_ array) and
    ``features`` (float64): exact like the CSV, at a fraction of its size and
    time. A str_ array drops trailing NULs, so such a label is refused."""
    for label in dataset.labels:
        if label.endswith("\x00"):
            raise ValueError(f"feature NPZ {path}: label {label!r} ends in NUL, "
                             "which a str_ array would drop")
    with atomic_open(path, "wb") as fh:
        np.savez(fh, labels=np.array(dataset.labels, dtype=str),
                 features=np.asarray(dataset.features, dtype=np.float64))


def read_features_npz(path, split: str = "base") -> FeatureDataset:
    """The dataset ``write_features_npz`` wrote, loaded without unpickling;
    anything else is a ValueError that names the file."""
    # np.load leaves a path it opened open when the zip is bad; a handle
    # opened here is closed on every exit
    try:
        with open(path, "rb") as fh:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                raise ValueError("not an npz archive")
            with npz:
                missing = sorted({"labels", "features"} - set(npz.files))
                if missing:
                    raise ValueError(f"missing arrays {missing}")
                labels, features = npz["labels"], npz["features"]
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"feature NPZ {path}: {exc}") from exc
    if (features.dtype != np.float64 or features.ndim != 2
            or features.shape[1] < 1):
        raise ValueError(f"feature NPZ {path} needs a float64 matrix with at "
                         f"least one column, not {features.dtype} "
                         f"{features.shape}")
    if labels.dtype.kind != "U" or labels.shape != features.shape[:1]:
        raise ValueError(f"feature NPZ {path} needs one str label per row: "
                         f"{labels.dtype} {labels.shape} for "
                         f"{len(features)} rows")
    if not np.isfinite(features).all():
        raise ValueError(f"feature NPZ {path} holds non-finite values")
    return FeatureDataset(features.shape[1], tuple(labels.tolist()), features,
                          split)


def synthetic_ontology(fanouts) -> Ontology:
    """Balanced tree ontology: "root" at level 1, fanouts[i] children per node.

    Sibling disjointness is declared at every level (pairwise within each
    parent) so the embedding has separation signal throughout.
    """
    levels = [["root"]]
    subclass = []
    disjoint = []
    for fanout in fanouts:
        nxt = []
        for parent in levels[-1]:
            children = [f"{parent}_{i}" for i in range(fanout)]
            nxt.extend(children)
            subclass.extend([child, parent] for child in children)
            for i in range(len(children)):
                for j in range(i + 1, len(children)):
                    disjoint.append([children[i], children[j]])
        levels.append(nxt)
    concepts = [c for level in levels for c in level]
    return ontology_from_dict({
        "concepts": concepts,
        "subclass": subclass,
        "disjoint": disjoint,
        "leaves": levels[-1],
    })


def split_leaves(ontology: Ontology):
    """Deterministic base/novel split: alternate over the sorted leaves."""
    ordered = sorted(ontology.leaves)
    base = tuple(leaf for i, leaf in enumerate(ordered) if i % 2 == 0)
    novel = tuple(leaf for i, leaf in enumerate(ordered) if i % 2 == 1)
    return base, novel


def _hierarchy_anchors(ontology: Ontology, dim: int, rng, anchor_scale: float,
                       step_scale: float) -> dict[str, np.ndarray]:
    # refuse a cycle the way every entry point does; then each sorted pass
    # below anchors at least one concept
    _topological_order(ontology.concepts, ontology.told_parents)
    anchors: dict[str, np.ndarray] = {}
    pending = sorted(ontology.concepts)
    while pending:
        remaining = []
        for concept in pending:
            parents = ontology.told_parents.get(concept, ())
            if not parents:
                anchors[concept] = anchor_scale * rng.normal(size=dim)
            elif all(p in anchors for p in parents):
                base = np.mean([anchors[p] for p in sorted(parents)], axis=0)
                anchors[concept] = base + step_scale * rng.normal(size=dim)
            else:
                remaining.append(concept)
        pending = remaining
    return anchors


def generate_synthetic_features(ontology: Ontology, dim: int, per_class: int,
                                noise_sigma: float, seed: int,
                                base_leaves=None, novel_leaves=None,
                                anchor_scale: float = 3.0,
                                step_scale: float = 1.0,
                                intrinsic_dim: int | None = None):
    """Seeded (base, novel) feature datasets aligned with the hierarchy.

    Anchors follow the told hierarchy (child anchor = mean of parent anchors
    plus a step), so siblings end up closer than unrelated classes;
    examples add isotropic Gaussian noise to the class anchor. With
    intrinsic_dim set, anchors live on a low-dimensional subspace of the
    feature space (noise stays full-dimensional), mimicking extractor
    features that occupy a thin manifold of their ambient space.
    """
    leaves = sorted(ontology.leaves)
    if len(leaves) < 2:
        raise ValueError("need at least 2 leaves")
    if base_leaves is None and novel_leaves is None:
        base_leaves, novel_leaves = split_leaves(ontology)
    elif base_leaves is None:
        base_leaves = tuple(l for l in leaves if l not in set(novel_leaves))
    elif novel_leaves is None:
        novel_leaves = tuple(l for l in leaves if l not in set(base_leaves))
    base_set, novel_set = set(base_leaves), set(novel_leaves)
    if base_set & novel_set:
        raise ValueError("base and novel leaf sets overlap")
    unknown = (base_set | novel_set) - set(leaves)
    if unknown:
        raise ValueError(f"not ontology leaves: {sorted(unknown)}")

    rng = np.random.default_rng(seed)
    if intrinsic_dim is None:
        anchors = _hierarchy_anchors(ontology, dim, rng, anchor_scale, step_scale)
    else:
        if not 1 <= intrinsic_dim <= dim:
            raise ValueError("intrinsic_dim must lie in [1, dim]")
        lift, _ = np.linalg.qr(rng.normal(size=(dim, intrinsic_dim)))
        thin = _hierarchy_anchors(ontology, intrinsic_dim, rng, anchor_scale,
                                  step_scale)
        anchors = {name: lift @ a for name, a in thin.items()}
    labels, rows = [], []
    for leaf in leaves:
        noise = rng.normal(size=(per_class, dim)) * noise_sigma
        labels.extend([leaf] * per_class)
        rows.append(anchors[leaf] + noise)
    all_labels = np.array(labels)
    all_rows = np.vstack(rows)

    def pick(names, split):
        mask = np.isin(all_labels, sorted(names))
        return FeatureDataset(dim, tuple(all_labels[mask]),
                              np.array(all_rows[mask]), split)

    return pick(base_set, "base"), pick(novel_set, "novel")


@dataclass(frozen=True)
class Episode:
    """One w-way s-shot task: candidate classes, and the rows of the novel
    split that form its support and query examples. The subsets are copied
    out on access, so a list of episodes holds row indices, not features."""

    classes: tuple[str, ...]
    novel: FeatureDataset
    support_rows: np.ndarray
    query_rows: np.ndarray

    @property
    def support(self) -> FeatureDataset:
        return self.novel.subset(self.support_rows, "novel")

    @property
    def query(self) -> FeatureDataset:
        return self.novel.subset(self.query_rows, "novel")


def sample_episode(novel: FeatureDataset, w: int, s: int, q: int,
                   seed: int) -> Episode:
    """Seeded class and example sampling without replacement."""
    by_class = novel.class_indices()
    names = sorted(by_class)
    if w > len(names):
        raise ValueError(f"episode wants {w} classes, split has {len(names)}")
    rng = np.random.default_rng(seed)
    chosen = [names[i] for i in rng.choice(len(names), size=w, replace=False)]
    support_idx, query_idx = [], []
    for name in chosen:
        pool = by_class[name]
        if len(pool) < s + q:
            raise ValueError(
                f"class {name!r} has {len(pool)} examples, needs {s + q}")
        picked = pool[rng.choice(len(pool), size=s + q, replace=False)]
        support_idx.extend(picked[:s])
        query_idx.extend(picked[s:])
    return Episode(tuple(chosen), novel, np.array(support_idx, dtype=int),
                   np.array(query_idx, dtype=int))


def sample_episodes(novel: FeatureDataset, w: int, s: int, q: int,
                    n_episodes: int, seed: int) -> list[Episode]:
    seeds = np.random.SeedSequence(seed).generate_state(n_episodes)
    return [sample_episode(novel, w, s, q, int(ep_seed)) for ep_seed in seeds]


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    ci95: float
    per_episode: tuple[float, ...]
    semantic_error_fraction: float | None = None

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "ci95": self.ci95,
            "episodes": len(self.per_episode),
            "per_episode": list(self.per_episode),
            "semantic_error_fraction": self.semantic_error_fraction,
        }


def _aggregate(per_episode, semantic: float | None) -> EvalReport:
    arr = np.array(per_episode)
    ci = 1.96 * arr.std(ddof=1) / math.sqrt(len(arr)) if len(arr) > 1 else 0.0
    return EvalReport(float(arr.mean()), float(ci), tuple(per_episode), semantic)


def evaluate_episodes(space: BallSpace, base_mlp: Mlp, episodes,
                      projector_config: ProjectorConfig,
                      negatives: NegativeSets, ich: Ich | None = None) -> EvalReport:
    """Few-shot protocol: per episode fine-tune a copy of the base projector
    on the support set, then classify the queries against the w candidate
    balls. Semantic errors (wrong but inside the true class's parent ball)
    are tallied when the closure is supplied."""
    per_episode = []
    wrong = semantic_wrong = 0
    for episode in episodes:
        query = episode.query
        tuned = finetune_fewshot(base_mlp, episode.support, space, negatives,
                                 projector_config)
        candidates = [(name, space.ball(name)) for name in episode.classes]
        outputs = mlp_forward(query.features, tuned)
        correct = 0
        for h, truth in zip(outputs, query.labels):
            prediction = classify(h, candidates)
            if prediction.label == truth:
                correct += 1
                continue
            wrong += 1
            if ich is not None:
                parents = direct_parents(ich, [truth])
                report = ancestor_report(h, space, ich)
                semantic_wrong += any(p in report for p in parents)
        per_episode.append(correct / len(query.labels))
    semantic = (semantic_wrong / wrong) if (ich is not None and wrong) else (
        0.0 if ich is not None else None)
    return _aggregate(per_episode, semantic)


def nearest_centroid_accuracy(episodes) -> EvalReport:
    """Baseline: classify each query by the nearest support-class centroid."""
    per_episode = []
    for episode in episodes:
        support, query = episode.support, episode.query
        idx = support.class_indices()
        names = episode.classes
        centroids = np.stack([support.features[idx[name]].mean(axis=0)
                              for name in names])
        correct = 0
        for row, truth in zip(query.features, query.labels):
            d = np.linalg.norm(centroids - row, axis=1)
            correct += names[int(d.argmin())] == truth
        per_episode.append(correct / len(query.labels))
    return _aggregate(per_episode, None)


def dataset_accuracy(space: BallSpace, mlp: Mlp, dataset: FeatureDataset,
                     candidates=None) -> float:
    """Fraction of examples classified into their own label's ball."""
    names = tuple(candidates) if candidates is not None else dataset.class_names()
    balls = [(name, space.ball(name)) for name in names]
    outputs = mlp_forward(dataset.features, mlp)
    correct = sum(classify(h, balls).label == truth
                  for h, truth in zip(outputs, dataset.labels))
    return correct / len(dataset.labels)
