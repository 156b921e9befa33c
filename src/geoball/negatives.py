"""Hard-negative class sets from k-means clustering of leaf ball centres.

Classes landing in the same cluster are visually confusable by construction
(their balls sit close together), so each class's negatives are its cluster
mates. A singleton cluster falls back to the single nearest other class so
the ranking loss always has at least one negative to push against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .embedding import BallSpace, distances


MAX_ITERS = 100
N_RESTARTS = 8


class KmeansResult(NamedTuple):
    labels: np.ndarray
    centroids: np.ndarray
    sse: float


def _plusplus_seeding(points: np.ndarray, k: int, rng) -> np.ndarray:
    centres = np.empty((k, points.shape[1]))
    centres[0] = points[int(rng.integers(len(points)))]
    d2 = ((points - centres[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(len(points), p=d2 / total))
        else:
            idx = int(rng.integers(len(points)))  # all points coincide
        centres[j] = points[idx]
        d2 = np.minimum(d2, ((points - centres[j]) ** 2).sum(axis=1))
    return centres


def _lloyd(points: np.ndarray, centres: np.ndarray):
    k = len(centres)
    labels = None
    for _ in range(MAX_ITERS):
        d2 = ((points[:, None, :] - centres[None, :, :]) ** 2).sum(axis=-1)
        new_labels = d2.argmin(axis=1)
        for j in range(k):
            if (new_labels == j).any():
                continue
            sizes = np.bincount(new_labels, minlength=k)
            big = int(sizes.argmax())
            members = np.where(new_labels == big)[0]
            farthest = members[d2[members, big].argmax()]
            new_labels[farthest] = j
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centres[j] = points[labels == j].mean(axis=0)
    return labels, centres


def _assignments(n: int, k: int):
    # restricted growth strings using exactly k labels; canonical order, so
    # the first SSE minimum encountered is a deterministic choice
    code = [0] * n

    def rec(i, used):
        if n - i < k - used:
            return
        if i == n:
            yield tuple(code)
            return
        for v in range(min(used + 1, k)):
            code[i] = v
            yield from rec(i + 1, used + (v == used))

    yield from rec(1, 1)


def _exact_small(points: np.ndarray, k: int) -> KmeansResult:
    best_sse, best = math.inf, None
    for code in _assignments(len(points), k):
        labels = np.array(code)
        sse = 0.0
        for j in range(k):
            members = points[labels == j]
            sse += float(((members - members.mean(axis=0)) ** 2).sum())
        if sse < best_sse:
            best_sse, best = sse, labels
    centroids = np.vstack([points[best == j].mean(axis=0) for j in range(k)])
    return KmeansResult(best, centroids, best_sse)


def kmeans(points, k: int, seed: int = 0) -> KmeansResult:
    """Seeded k-means++ plus Lloyd iterations to an assignment fixpoint.

    Runs N_RESTARTS independent seedings and keeps the lowest-SSE result
    (ties keep the earliest restart). Empty clusters are repaired by stealing
    the farthest point from the largest cluster. Instances of at most nine
    points skip the restarts entirely: exhaustive partition search is cheaper
    there and returns the SSE optimum regardless of seeding.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2d array")
    if not 1 <= k <= len(points):
        raise ValueError(f"k={k} out of range for {len(points)} points")
    if len(points) <= 9:
        return _exact_small(points, k)
    best: KmeansResult | None = None
    for child_seed in np.random.SeedSequence(seed).spawn(N_RESTARTS):
        rng = np.random.default_rng(child_seed)
        centres = _plusplus_seeding(points, k, rng)
        labels, centres = _lloyd(points, centres)
        sse = float(((points - centres[labels]) ** 2).sum())
        if best is None or sse < best.sse:
            best = KmeansResult(labels, centres, sse)
    return best


@dataclass(frozen=True)
class NegativeSets:
    """Per-class hard-negative sets: each leaf's cluster mates, or its
    nearest other leaf when it clusters alone."""

    negatives: dict[str, tuple[str, ...]]

    def to_dict(self) -> dict:
        return {name: list(neg) for name, neg in sorted(self.negatives.items())}

    @classmethod
    def from_dict(cls, obj: dict) -> "NegativeSets":
        for name, neg in obj.items():
            if not (isinstance(neg, list)
                    and all(isinstance(q, str) for q in neg)):
                raise ValueError(f"the negatives of {name!r} must be a list "
                                 f"of names, not {neg!r}")
            if name in neg:
                raise ValueError(f"the negatives of {name!r} list the class "
                                 f"itself: {neg!r}")
            if len(set(neg)) < len(neg):
                raise ValueError(f"the negatives of {name!r} name a class "
                                 f"more than once: {neg!r}")
        return cls({name: tuple(neg) for name, neg in obj.items()})


def default_k(n_leaves: int) -> int:
    return max(1, math.isqrt(n_leaves - 1) + 1) if n_leaves > 1 else 1


def build_negative_sets(space: BallSpace, leaves, k: int | None = None,
                        seed: int = 0) -> NegativeSets:
    """Cluster leaf centres; negatives(P) = cluster(P) minus P.

    k defaults to ceil(sqrt(#leaves)). A singleton cluster gets its nearest
    other leaf (by centre distance) as the sole negative.
    """
    leaves = sorted(leaves)
    if not leaves:
        raise ValueError("no leaves to build negative sets for")
    repeated = sorted({a for a, b in zip(leaves, leaves[1:]) if a == b})
    if repeated:
        raise ValueError(f"leaves given more than once: {repeated}")
    if k is None:
        k = default_k(len(leaves))
    points = space.centres[space.rows(leaves, "leaves")]
    result = kmeans(points, k, seed=seed)

    groups: dict[int, list[str]] = {}
    for leaf, label in zip(leaves, result.labels):
        groups.setdefault(int(label), []).append(leaf)
    clusters = tuple(sorted(tuple(sorted(g)) for g in groups.values()))

    dist = distances(points, points)
    np.fill_diagonal(dist, np.inf)
    negatives: dict[str, tuple[str, ...]] = {}
    for members in clusters:
        for leaf in members:
            rest = tuple(m for m in members if m != leaf)
            if not rest:
                nearest = leaves[int(dist[leaves.index(leaf)].argmin())]
                rest = (nearest,)
            negatives[leaf] = rest
    return NegativeSets(negatives)
