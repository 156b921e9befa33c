"""Ball embeddings of a class hierarchy, trained by hinge-loss gradient descent.

Each concept gets a ball (centre vector, radius). Subsumption pulls a child
ball inside its ancestor ball, disjointness pushes balls apart, a per-level
floor keeps radii from collapsing, and a norm penalty keeps centres near a
sphere of radius phi. All gradients are analytic; subgradient 0 is used at
hinge kinks and at coincident centres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ontology import HierarchyStats, Ich, Ontology


class Ball(NamedTuple):
    centre: np.ndarray
    radius: float


@dataclass(frozen=True)
class EmbedConfig:
    """Hyperparameters for ball training.

    gamma is the signed hinge margin shared by subsumption and disjointness
    terms (negative values force strict containment / allow touching balls).
    psi scales the per-level radius floor, phi is the target centre norm.
    """

    dim: int = 300
    gamma: float = -0.1
    psi: float = 0.1
    phi: float = 1.0
    learning_rate: float = 0.05
    epochs: int = 500
    batch_size: int = 64
    seed: int = 0
    radius_clamp_min: float = 1e-4
    optimizer: str = "sgd"  # "sgd" (inverse-decay step) or "adam"
    lr_decay: float = 1e-3
    disjoint_gamma: float | None = None  # split margin; shared gamma when None
    init_radius_slack: float = 0.0  # extra radius above the level floor at init

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.psi <= 0 or self.phi <= 0:
            raise ValueError("psi and phi must be > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.radius_clamp_min <= 0:
            raise ValueError("radius_clamp_min must be > 0")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    @property
    def gamma_disjoint(self) -> float:
        return self.gamma if self.disjoint_gamma is None else self.disjoint_gamma


@dataclass(frozen=True)
class BallSpace:
    """One ball per concept; arrays are row-aligned with ``concepts``."""

    dim: int
    concepts: tuple[str, ...]
    centres: np.ndarray  # (n_concepts, dim)
    radii: np.ndarray  # (n_concepts,)

    def __post_init__(self):
        if self.centres.shape != (len(self.concepts), self.dim):
            raise ValueError("centre array shape does not match concepts/dim")
        if self.radii.shape != (len(self.concepts),):
            raise ValueError("radius array shape does not match concepts")
        self.centres.setflags(write=False)
        self.radii.setflags(write=False)

    @property
    def index(self) -> dict[str, int]:
        try:
            return self._index_cache  # type: ignore[attr-defined]
        except AttributeError:
            idx = {c: i for i, c in enumerate(self.concepts)}
            object.__setattr__(self, "_index_cache", idx)
            return idx

    def centre_of(self, concept: str) -> np.ndarray:
        return self.centres[self.index[concept]]

    def radius_of(self, concept: str) -> float:
        return float(self.radii[self.index[concept]])

    def ball(self, concept: str) -> Ball:
        i = self.index[concept]
        return Ball(self.centres[i], float(self.radii[i]))

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "balls": {
                c: {"c": self.centres[i].tolist(), "r": float(self.radii[i])}
                for i, c in enumerate(self.concepts)
            },
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "BallSpace":
        dim = int(obj["dim"])
        names = tuple(obj["balls"].keys())
        centres = np.array([obj["balls"][c]["c"] for c in names], dtype=float)
        radii = np.array([obj["balls"][c]["r"] for c in names], dtype=float)
        if centres.size == 0:
            centres = centres.reshape(0, dim)
        if not np.isfinite(centres).all():
            raise ValueError("ball centres must be finite")
        if not (np.isfinite(radii) & (radii > 0.0)).all():
            raise ValueError("ball radii must be finite and > 0")
        return cls(dim, names, centres, radii)


@dataclass(frozen=True)
class LossBreakdown:
    subsumption: float
    disjointness: float
    radius_floor: float
    center_norm: float

    @property
    def total(self) -> float:
        return self.subsumption + self.disjointness + self.radius_floor + self.center_norm

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "subsumption": self.subsumption,
            "disjointness": self.disjointness,
            "radius_floor": self.radius_floor,
            "center_norm": self.center_norm,
        }


@dataclass
class TrainHistory:
    """Per-epoch loss breakdowns."""

    epochs: list[LossBreakdown] = field(default_factory=list)

    def totals(self) -> list[float]:
        return [e.total for e in self.epochs]


# ---------------------------------------------------------------------------
# scalar loss terms


def _as_vectors(c_p, c_q):
    c_p = np.asarray(c_p, dtype=float)
    c_q = np.asarray(c_q, dtype=float)
    if c_p.shape != c_q.shape:
        raise ValueError(f"dimension mismatch: {c_p.shape} vs {c_q.shape}")
    return c_p, c_q


def subsumption_hinge(c_p, c_q, r_p: float, r_q: float, gamma: float) -> float:
    """Hinge pushing ball P inside ball Q: max(0, ||c_P - c_Q|| + r_P - r_Q - gamma)."""
    c_p, c_q = _as_vectors(c_p, c_q)
    return max(0.0, float(np.linalg.norm(c_p - c_q)) + r_p - r_q - gamma)


def disjointness_hinge(c_p, c_q, r_p: float, r_q: float, gamma: float) -> float:
    """Hinge pushing balls apart: max(0, -||c_P - c_Q|| + r_P + r_Q + gamma)."""
    c_p, c_q = _as_vectors(c_p, c_q)
    return max(0.0, -float(np.linalg.norm(c_p - c_q)) + r_p + r_q + gamma)


def radius_floor_penalty(r_p: float, n_h: int, level: int, psi: float) -> float:
    """Penalty when a radius falls below its level floor psi*sqrt(n_h - level)."""
    if not 1 <= level <= n_h:
        raise ValueError(f"level {level} out of range [1, {n_h}]")
    return max(0.0, psi * math.sqrt(n_h - level) - r_p)


def center_norm_penalty(c_p, n_occurrences: int, phi: float) -> float:
    """Mention-weighted distance of the centre norm from the target phi."""
    if n_occurrences < 0:
        raise ValueError("n_occurrences must be >= 0")
    c_p = np.asarray(c_p, dtype=float)
    return n_occurrences * abs(float(np.linalg.norm(c_p)) - phi)


# ---------------------------------------------------------------------------
# vectorized loss over a whole space


class _AxiomIndex(NamedTuple):
    """Integer views of the axioms, row-aligned with a BallSpace."""

    sub_child: np.ndarray
    sub_parent: np.ndarray
    dis_a: np.ndarray
    dis_b: np.ndarray
    floors: np.ndarray  # per-concept psi*sqrt(n_h - level)
    occurrences: np.ndarray


def _axiom_index(concepts, ich: Ich, disjoint, stats: HierarchyStats,
                 config: EmbedConfig) -> _AxiomIndex:
    index = {c: i for i, c in enumerate(concepts)}

    def look(name):
        try:
            return index[name]
        except KeyError:
            raise KeyError(f"no ball for concept {name!r}") from None

    sub_pairs = sorted(ich.pairs)
    sub_child = np.array([look(p) for p, _ in sub_pairs], dtype=int)
    sub_parent = np.array([look(q) for _, q in sub_pairs], dtype=int)
    dis_a = np.array([look(a) for a, _ in disjoint], dtype=int)
    dis_b = np.array([look(b) for _, b in disjoint], dtype=int)
    floors = np.array(
        [config.psi * math.sqrt(stats.total_levels - stats.level[c]) for c in concepts])
    occurrences = np.array([stats.occurrences[c] for c in concepts], dtype=float)
    return _AxiomIndex(sub_child, sub_parent, dis_a, dis_b, floors, occurrences)


def _pair_distances(centres, idx_a, idx_b):
    if len(idx_a) == 0:
        return np.zeros(0)
    return np.linalg.norm(centres[idx_a] - centres[idx_b], axis=1)


def _breakdown(centres, radii, ax: _AxiomIndex, config: EmbedConfig) -> LossBreakdown:
    d_sub = _pair_distances(centres, ax.sub_child, ax.sub_parent)
    sub = np.maximum(
        0.0, d_sub + radii[ax.sub_child] - radii[ax.sub_parent] - config.gamma)
    d_dis = _pair_distances(centres, ax.dis_a, ax.dis_b)
    dis = np.maximum(
        0.0, -d_dis + radii[ax.dis_a] + radii[ax.dis_b] + config.gamma_disjoint)
    floor = np.maximum(0.0, ax.floors - radii)
    norms = np.linalg.norm(centres, axis=1)
    cn = ax.occurrences * np.abs(norms - config.phi)
    return LossBreakdown(
        subsumption=float(sub.sum()),
        disjointness=float(dis.sum()),
        radius_floor=float(floor.sum()),
        center_norm=float(cn.sum()),
    )


def total_loss(space: BallSpace, ich: Ich, disjoint, stats: HierarchyStats,
               config: EmbedConfig) -> LossBreakdown:
    """Full objective: subsumption and disjointness hinges over the axioms plus
    radius-floor and centre-norm penalties over every concept."""
    ax = _axiom_index(space.concepts, ich, disjoint, stats, config)
    return _breakdown(space.centres, space.radii, ax, config)


def _unit_rows(diff, dist):
    """Row-wise diff/dist with zero rows where dist == 0 (subgradient choice)."""
    safe = np.where(dist > 0.0, dist, 1.0)
    u = diff / safe[:, None]
    u[dist == 0.0] = 0.0
    return u


def _gradients(centres, radii, ax: _AxiomIndex, config: EmbedConfig,
               sub_rows=None, dis_rows=None, reg_scale: float = 1.0):
    """Analytic gradients of the objective, optionally over axiom subsets.

    sub_rows / dis_rows select mini-batch rows; reg_scale multiplies the
    per-concept penalty gradients so an epoch of batches applies them once.
    """
    g_c = np.zeros_like(centres)
    g_r = np.zeros_like(radii)

    sc = ax.sub_child if sub_rows is None else ax.sub_child[sub_rows]
    sp = ax.sub_parent if sub_rows is None else ax.sub_parent[sub_rows]
    if len(sc):
        diff = centres[sc] - centres[sp]
        dist = np.linalg.norm(diff, axis=1)
        active = dist + radii[sc] - radii[sp] - config.gamma > 0.0
        if active.any():
            u = _unit_rows(diff[active], dist[active])
            np.add.at(g_c, sc[active], u)
            np.add.at(g_c, sp[active], -u)
            np.add.at(g_r, sc[active], 1.0)
            np.add.at(g_r, sp[active], -1.0)

    da = ax.dis_a if dis_rows is None else ax.dis_a[dis_rows]
    db = ax.dis_b if dis_rows is None else ax.dis_b[dis_rows]
    if len(da):
        diff = centres[da] - centres[db]
        dist = np.linalg.norm(diff, axis=1)
        active = -dist + radii[da] + radii[db] + config.gamma_disjoint > 0.0
        if active.any():
            u = _unit_rows(diff[active], dist[active])
            np.add.at(g_c, da[active], -u)
            np.add.at(g_c, db[active], u)
            np.add.at(g_r, da[active], 1.0)
            np.add.at(g_r, db[active], 1.0)

    if reg_scale != 0.0:
        floor_active = ax.floors - radii > 0.0
        g_r[floor_active] -= reg_scale

        norms = np.linalg.norm(centres, axis=1)
        sign = np.sign(norms - config.phi)
        weight = ax.occurrences * sign * reg_scale
        safe = np.where(norms > 0.0, norms, 1.0)
        g_c += (weight / safe)[:, None] * centres  # zero rows stay zero

    return g_c, g_r


def loss_gradients(space: BallSpace, ich: Ich, disjoint, stats: HierarchyStats,
                   config: EmbedConfig):
    """Gradient of total_loss w.r.t. every centre and radius.

    Returns (grad_centres, grad_radii) aligned with space.concepts.
    """
    ax = _axiom_index(space.concepts, ich, disjoint, stats, config)
    return _gradients(space.centres, space.radii, ax, config)


# ---------------------------------------------------------------------------
# initialization and training


def init_space(concepts, stats: HierarchyStats, config: EmbedConfig) -> BallSpace:
    """Centres uniform on the phi-sphere (seeded); radii at their level floor
    plus the clamp epsilon (plus any configured slack)."""
    concepts = tuple(concepts)
    rng = np.random.default_rng(config.seed)
    raw = rng.normal(size=(len(concepts), config.dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    centres = config.phi * raw / norms
    floors = np.array(
        [config.psi * math.sqrt(stats.total_levels - stats.level[c]) for c in concepts])
    radii = floors + config.radius_clamp_min + config.init_radius_slack
    return BallSpace(config.dim, concepts, centres, radii)


class Optimizer:
    """In-place updates of parameter arrays: "adam" (betas 0.9/0.999), or
    "sgd" stepping by lr / (1 + decay * t) after t earlier steps."""

    def __init__(self, kind: str, params, lr: float, decay: float = 0.0):
        self.kind = kind
        self.params = list(params)
        self.lr = lr
        self.decay = decay
        self.t = 0
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]

    def step(self, grads):
        if self.kind == "sgd":
            lr = self.lr / (1.0 + self.decay * self.t)
            for p, g in zip(self.params, grads):
                p -= lr * g
            self.t += 1
            return
        self.t += 1
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= 0.9
            m += 0.1 * g
            v *= 0.999
            v += 0.001 * g * g
            m_hat = m / (1.0 - 0.9 ** self.t)
            v_hat = v / (1.0 - 0.999 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def _check_finite(breakdown: LossBreakdown):
    for name, value in breakdown.to_dict().items():
        if name != "total" and not math.isfinite(value):
            raise RuntimeError(f"non-finite {name} loss during training")


def train_embeddings(ontology: Ontology, ich: Ich, stats: HierarchyStats,
                     config: EmbedConfig, callback=None):
    """Mini-batch gradient descent over the axioms.

    Batches mix subsumption and disjointness axioms, reshuffled each epoch;
    per-concept penalty gradients are scaled by the batch fraction so one
    epoch applies them with total weight one. Radii are clamped to the
    configured minimum after every step. Returns (BallSpace, TrainHistory).
    """
    space = init_space(ontology.concepts, stats, config)
    ax = _axiom_index(space.concepts, ich, ontology.disjointness, stats, config)
    centres = np.array(space.centres)
    radii = np.array(space.radii)

    n_sub = len(ax.sub_child)
    n_dis = len(ax.dis_a)
    n_axioms = n_sub + n_dis
    rng = np.random.default_rng(config.seed)
    history = TrainHistory()

    optimizer = Optimizer(config.optimizer, [centres, radii],
                          config.learning_rate, config.lr_decay)

    for _ in range(config.epochs):
        if n_axioms:
            perm = rng.permutation(n_axioms)
            batches = [perm[i:i + config.batch_size]
                       for i in range(0, n_axioms, config.batch_size)]
        else:
            batches = [np.zeros(0, dtype=int)]
        for batch in batches:
            sub_rows = batch[batch < n_sub]
            dis_rows = batch[batch >= n_sub] - n_sub
            scale = (len(batch) / n_axioms) if n_axioms else 1.0
            g_c, g_r = _gradients(
                centres, radii, ax, config, sub_rows, dis_rows, reg_scale=scale)
            optimizer.step([g_c, g_r])
            np.maximum(radii, config.radius_clamp_min, out=radii)
        breakdown = _breakdown(centres, radii, ax, config)
        _check_finite(breakdown)
        history.epochs.append(breakdown)
        if callback is not None:
            callback(len(history.epochs), breakdown)

    trained = BallSpace(config.dim, space.concepts, centres, radii)
    return trained, history
