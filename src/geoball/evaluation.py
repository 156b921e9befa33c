"""Scoring a trained ball space against the hierarchy, plus margin tuning.

The containment predicate ||c_P - c_Q|| <= r_Q - r_P is checked against the
closure pairs to get precision/recall F1 over all ordered pairs (f1_all) and
over the leaf-focused pair set (f1_leaf); leaf separation is counted by s_d.
grid_search retrains one embedding per (gamma, psi, phi) combination and picks
the best scoring one above the separation threshold.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from .embedding import Ball, BallSpace, EmbedConfig, train_embeddings
from .ontology import HierarchyStats, Ich, Ontology

log = logging.getLogger(__name__)


class F1Result(NamedTuple):
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class Scores:
    f1_all: float
    f1_leaf: float
    s_d: int
    s_d_fraction: float

    def to_dict(self) -> dict:
        return asdict(self)


def _f1(tp: int, fp: int, fn: int) -> F1Result:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    denom = precision + recall
    f1 = 2.0 * precision * recall / denom if denom else 0.0
    return F1Result(precision, recall, f1)


def containment_holds(ball_p: Ball, ball_q: Ball) -> bool:
    """True iff ball P lies inside ball Q (boundary touching allowed)."""
    c_p = np.asarray(ball_p.centre, dtype=float)
    c_q = np.asarray(ball_q.centre, dtype=float)
    if c_p.shape != c_q.shape:
        raise ValueError(f"dimension mismatch: {c_p.shape} vs {c_q.shape}")
    return bool(np.linalg.norm(c_p - c_q) <= ball_q.radius - ball_p.radius)


def direct_parents(ich: Ich, leaves) -> frozenset[str]:
    """Minimal ancestors of the leaves: closure ancestors with no closer one."""
    parents: set[str] = set()
    for leaf in leaves:
        ancestors = ich.ancestors_of(leaf)
        for q in ancestors:
            if not any((r, q) in ich.pairs for r in ancestors if r != q):
                parents.add(q)
    return frozenset(parents)


def _pair_f1(space: BallSpace, ich: Ich, rows, cols) -> F1Result:
    """Containment F1 over the pairs rows x cols, a concept with itself
    excluded; the positives are the closure pairs."""
    r = space.rows(rows, "scored concepts")
    c = space.rows(cols, "scored concepts")
    ends = space.rows([q for pair in ich.pairs for q in pair], "closure pairs")
    actual = np.zeros((len(space.concepts),) * 2, dtype=bool)
    actual[ends[0::2], ends[1::2]] = True
    block = np.ix_(r, c)
    pred = space.pairwise[block] <= space.radii[c] - space.radii[r, None]
    actual = actual[block]
    off = r[:, None] != c[None, :]
    tp = int((pred & actual & off).sum())
    fp = int((pred & ~actual & off).sum())
    fn = int((~pred & actual & off).sum())
    return _f1(tp, fp, fn)


def f1_all(space: BallSpace, ich: Ich) -> F1Result:
    """Containment F1 over all ordered concept pairs, positives = closure."""
    return _pair_f1(space, ich, space.concepts, space.concepts)


def f1_leaf(space: BallSpace, ich: Ich, leaves) -> F1Result:
    """Containment F1 over pairs (leaf, leaf or direct leaf parent)."""
    leaves = sorted(leaves)
    if not leaves:
        log.warning("f1_leaf over an empty leaf set; scoring 0")
        return F1Result(0.0, 0.0, 0.0)
    targets = sorted(set(leaves) | direct_parents(ich, leaves))
    return _pair_f1(space, ich, leaves, targets)


def s_d(space: BallSpace, leaves) -> int:
    """Number of unordered leaf pairs whose balls do not overlap."""
    leaves = sorted(leaves)
    if len(leaves) < 2:
        raise ValueError("separation count needs at least 2 leaves")
    rows = space.rows(leaves, "leaves")
    radii = space.radii[rows]
    separated = space.pairwise[np.ix_(rows, rows)] >= radii + radii[:, None]
    upper = np.triu(np.ones_like(separated, dtype=bool), k=1)
    return int((separated & upper).sum())


def leaf_pair_count(leaves) -> int:
    n = len(leaves)
    return n * (n - 1) // 2


def score_space(space: BallSpace, ich: Ich, leaves) -> Scores:
    """All three geometry scores for one space."""
    separated = s_d(space, leaves)
    return Scores(
        f1_all=f1_all(space, ich).f1,
        f1_leaf=f1_leaf(space, ich, leaves).f1,
        s_d=separated,
        s_d_fraction=separated / leaf_pair_count(leaves),
    )


@dataclass(frozen=True)
class GridSpec:
    """Candidate margins and penalty weights, plus the separation threshold."""

    gammas: tuple[float, ...]
    psis: tuple[float, ...]
    phis: tuple[float, ...]
    s_d_threshold: float = 0.95

    def __post_init__(self):
        for name in ("gammas", "psis", "phis"):
            values = tuple(getattr(self, name))
            if not values:
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, values)
        if not 0.0 <= self.s_d_threshold <= 1.0:
            raise ValueError("s_d_threshold must lie in [0, 1]")

    def points(self):
        return itertools.product(self.gammas, self.psis, self.phis)


@dataclass(frozen=True)
class GridPoint:
    gamma: float
    psi: float
    phi: float
    scores: Scores

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class GridSearchResult:
    best_config: EmbedConfig
    best_scores: Scores
    best_space: BallSpace
    table: tuple[GridPoint, ...]
    below_threshold: bool

    def to_dict(self) -> dict:
        return {
            "best": {"gamma": self.best_config.gamma, "psi": self.best_config.psi,
                     "phi": self.best_config.phi},
            "best_scores": self.best_scores.to_dict(),
            "below_threshold": self.below_threshold,
            "table": [row.to_dict() for row in self.table],
        }


def grid_search(ontology: Ontology, ich: Ich, stats: HierarchyStats,
                grid: GridSpec, base_config: EmbedConfig) -> GridSearchResult:
    """Train one embedding per grid point (same seed everywhere) and rank.

    Points with s_d_fraction below the threshold are discarded before ranking;
    survivors are ordered lexicographically by (f1_leaf, f1_all, s_d_fraction),
    ties by smaller |gamma|, then grid order. When nothing survives the
    threshold the best-effort winner is returned flagged below_threshold.
    """
    rows: list[GridPoint] = []
    trained: list[tuple[EmbedConfig, BallSpace]] = []
    for gamma, psi, phi in grid.points():
        config = replace(base_config, gamma=gamma, psi=psi, phi=phi)
        space, _ = train_embeddings(ontology, ich, stats, config)
        scores = score_space(space, ich, ontology.leaves)
        rows.append(GridPoint(gamma, psi, phi, scores))
        trained.append((config, space))

    survivors = [i for i, row in enumerate(rows)
                 if row.scores.s_d_fraction >= grid.s_d_threshold]
    below = not survivors
    pool = survivors if survivors else list(range(len(rows)))
    best_i = min(pool, key=lambda i: (
        -rows[i].scores.f1_leaf, -rows[i].scores.f1_all,
        -rows[i].scores.s_d_fraction, abs(rows[i].gamma), i))
    config, space = trained[best_i]
    return GridSearchResult(
        best_config=config,
        best_scores=rows[best_i].scores,
        best_space=space,
        table=tuple(rows),
        below_threshold=below,
    )
