"""Ball embeddings of a class hierarchy, trained by hinge-loss gradient descent.

Each concept gets a ball (centre vector, radius). Subsumption pulls a child
ball inside its ancestor ball, disjointness pushes balls apart, a per-level
floor keeps radii from collapsing, and a norm penalty keeps centres near a
sphere of radius phi. All gradients are analytic; subgradient 0 is used at
hinge kinks and at coincident centres.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .jsonio import check_value, float_array
from .ontology import HierarchyStats, Ich, Ontology


class Ball(NamedTuple):
    centre: np.ndarray
    radius: float


_DISTANCE_BLOCK = 1 << 16


def distances(points, centres) -> np.ndarray:
    """The (points x centres) matrix of ||p - c||, from at most
    ``_DISTANCE_BLOCK`` difference floats at a time, each entry bitwise the
    scalar oracles' 1-D ``np.linalg.norm(p - c)``. Training's paired rows
    (``_hinges``, ``_ranking_loss_grad``) and k-means stay apart."""
    points = np.asarray(points, dtype=float)
    centres = np.asarray(centres, dtype=float)
    out = np.empty((len(points), len(centres)))
    block = max(1, _DISTANCE_BLOCK // max(1, centres.size))
    for start in range(0, len(points), block):
        diff = points[start:start + block, None, :] - centres
        # vecdot is the dot product np.linalg.norm takes of one vector
        out[start:start + block] = np.sqrt(np.vecdot(diff, diff))
    return out


@dataclass(frozen=True)
class EmbedConfig:
    """Hyperparameters for ball training.

    gamma is the signed hinge margin shared by subsumption and disjointness
    terms (negative values force strict containment / allow touching balls).
    psi scales the per-level radius floor, phi is the target centre norm.
    The defaults are the stock desk run's.
    """

    dim: int = 16
    gamma: float = -0.1
    psi: float = 0.3
    phi: float = 2.0
    learning_rate: float = 0.05
    epochs: int = 1500
    batch_size: int = 64
    seed: int = 0
    radius_clamp_min: float = 0.4
    optimizer: str = "sgd"  # "sgd" (inverse-decay step) or "adam"
    lr_decay: float = 0.002
    disjoint_gamma: float | None = 0.05  # split margin; shared gamma when None
    init_radius_slack: float = 0.1  # extra radius above the level floor at init

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.psi <= 0 or self.phi <= 0:
            raise ValueError("psi and phi must be > 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.lr_decay < 0:
            raise ValueError("lr_decay must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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

    @cached_property
    def index(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.concepts)}

    @cached_property
    def pairwise(self) -> np.ndarray:
        """pairwise[i, j] is the distance between centres i and j."""
        return distances(self.centres, self.centres)

    def rows(self, names, what: str) -> np.ndarray:
        """The row of each of ``names``, the one way a name reaches its
        ball. Names without a ball are one ValueError that names ``what``
        and each of them once, in the order given."""
        names = list(names)
        missing = list(dict.fromkeys(n for n in names if n not in self.index))
        if missing:
            raise ValueError(f"no ball for {what}: {missing}")
        return np.array([self.index[n] for n in names], dtype=np.intp)

    def ball(self, concept: str) -> Ball:
        (i,) = self.rows([concept], "concept")
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
        dim = check_value(obj["dim"], int, "dim")
        names = tuple(obj["balls"].keys())
        for c in names:
            length = len(obj["balls"][c]["c"])
            if length != dim:
                raise ValueError(f"the centre of ball {c!r} has {length} "
                                 f"entries, not dim {dim}")
        centres = float_array([obj["balls"][c]["c"] for c in names],
                              "ball centres")
        radii = np.array([check_value(obj["balls"][c]["r"], float,
                                      f"the radius of ball {c!r}")
                          for c in names], dtype=float)
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
        return {"total": self.total, **asdict(self)}


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


class _Rows(NamedTuple):
    """Axiom rows in one packed form. Row i's hinge is
    max(0, sign_i * ||c_a - c_b|| + r_a + r_b_weight_i * r_b + offset_i):
    (+1, -1, -gamma) for a subsumption, a inside b, and (-1, +1,
    +gamma_disjoint) for a disjointness. ``x + (-y)`` equals ``x - y``
    exactly, so each hinge keeps the value of its scalar definition."""

    a: np.ndarray
    b: np.ndarray
    sign: np.ndarray
    r_b_weight: np.ndarray
    offset: np.ndarray

    def take(self, index) -> "_Rows":
        return _Rows(*(column[index] for column in self))


def _level_floors(concepts, stats: HierarchyStats, psi: float) -> np.ndarray:
    """Per concept, the radius floor psi*sqrt(n_h - level) of
    ``radius_floor_penalty``."""
    return np.array([psi * math.sqrt(stats.total_levels - stats.level[c])
                     for c in concepts])


class _AxiomTable(NamedTuple):
    """The axioms of a space, packed once per run: subsumption rows (sorted
    closure pairs), then disjointness rows, plus the per-concept penalties."""

    rows: _Rows
    n_sub: int
    floors: np.ndarray  # per-concept psi*sqrt(n_h - level)
    occurrences: np.ndarray


def _axiom_table(space: BallSpace, ich: Ich, disjoint, stats: HierarchyStats,
                 config: EmbedConfig) -> _AxiomTable:
    pairs = [*sorted(ich.pairs), *disjoint]
    ends = space.rows([end for pair in pairs for end in pair],
                      "axiom concepts").reshape(-1, 2)
    is_sub = np.arange(len(pairs)) < len(ich.pairs)
    rows = _Rows(
        a=ends[:, 0],
        b=ends[:, 1],
        sign=np.where(is_sub, 1.0, -1.0),
        r_b_weight=np.where(is_sub, -1.0, 1.0),
        offset=np.where(is_sub, -config.gamma, config.gamma_disjoint))
    floors = _level_floors(space.concepts, stats, config.psi)
    occurrences = np.array([stats.occurrences[c] for c in space.concepts],
                           dtype=float)
    return _AxiomTable(rows, len(ich.pairs), floors, occurrences)


def _hinges(centres, radii, rows: _Rows):
    """Per row: centre difference c_a - c_b, its length, and the hinge
    argument (the hinge is its positive part)."""
    diff = centres[rows.a] - centres[rows.b]
    dist = np.sqrt(np.add.reduce(diff * diff, axis=1))
    hinge = (rows.sign * dist + radii[rows.a] + rows.r_b_weight * radii[rows.b]
             + rows.offset)
    return diff, dist, hinge


def _centre_norms(centres, scratch):
    """Row lengths of ``centres``, squaring into ``scratch``, an array of
    their shape that the caller owns."""
    return np.sqrt(np.add.reduce(np.multiply(centres, centres, out=scratch),
                                 axis=1))


def _breakdown(centres, radii, table: _AxiomTable, config: EmbedConfig,
               scratch) -> LossBreakdown:
    _, _, hinge = _hinges(centres, radii, table.rows)
    axiom = np.maximum(0.0, hinge)
    floor = np.maximum(0.0, table.floors - radii)
    cn = table.occurrences * np.abs(_centre_norms(centres, scratch)
                                    - config.phi)
    return LossBreakdown(
        subsumption=float(axiom[:table.n_sub].sum()),
        disjointness=float(axiom[table.n_sub:].sum()),
        radius_floor=float(floor.sum()),
        center_norm=float(cn.sum()),
    )


def total_loss(space: BallSpace, ich: Ich, disjoint, stats: HierarchyStats,
               config: EmbedConfig) -> LossBreakdown:
    """Full objective: subsumption and disjointness hinges over the axioms plus
    radius-floor and centre-norm penalties over every concept."""
    table = _axiom_table(space, ich, disjoint, stats, config)
    return _breakdown(space.centres, space.radii, table, config,
                      np.empty_like(space.centres))


class _Batch(NamedTuple):
    """Axiom rows stepped on together: the subsumption rows first, then the
    disjointness rows, each in shuffled order. ``ends`` holds the concepts
    the gradient scatters into, in ``_scatter_order``."""

    rows: _Rows
    n_sub: int
    ends: np.ndarray
    reg_scale: float  # batch share of the axioms; 1 when there are none


def _scatter_order(at_a, at_b, n_sub):
    """Per-end values of a batch, given per row for its a and its b end, in
    the order the gradient accumulates them: the a ends of the subsumption
    rows, their b ends, then the a ends and the b ends of the disjointness
    rows."""
    return np.concatenate((at_a[:n_sub], at_b[:n_sub], at_a[n_sub:],
                           at_b[n_sub:]))


def _batches(table: _AxiomTable, order, batch_size: int) -> list[_Batch]:
    """Consecutive ``batch_size`` slices of the axiom rows in ``order``."""
    n = len(order)
    is_sub = order < table.n_sub
    # a stable sort moves each batch's subsumption rows to its front
    by_kind = np.argsort(np.arange(n) // batch_size * 2 + ~is_sub,
                         kind="stable")
    rows = table.rows.take(order[by_kind])
    out = []
    for start in range(0, max(n, 1), batch_size):
        batch = rows.take(slice(start, start + batch_size))
        n_sub = int(np.count_nonzero(is_sub[start:start + batch_size]))
        out.append(_Batch(batch, n_sub, _scatter_order(batch.a, batch.b, n_sub),
                          len(batch.a) / n if n else 1.0))
    return out


def _ball_views(flat, shape):
    """(centres, radii) views of a flat parameter or gradient vector that
    holds the (concepts, dim) centres row by row, then the radii."""
    size = shape[0] * shape[1]
    return flat[:size].reshape(shape), flat[size:]


def _gradients(centres, radii, table: _AxiomTable, batch: _Batch,
               config: EmbedConfig, scratch) -> np.ndarray:
    """Analytic gradient of the objective over one batch of axiom rows, as one
    flat (centres, radii) vector. The per-concept penalty gradients are
    scaled by the batch's share, so an epoch of batches applies them once.
    ``scratch``, an array of the centres' shape, holds their intermediates.
    """
    rows = batch.rows
    diff, dist, hinge = _hinges(centres, radii, rows)
    active = hinge > 0.0
    n, dim = centres.shape
    # Per row, the hinge's gradient at its a ball, (sign * (c_a - c_b) /
    # ||c_a - c_b||, 1), and at its b ball, (-that centre part, r_b_weight).
    # Inactive rows, and coincident centres (the subgradient choice), divide
    # by inf into signed zeros, which add nothing to any sum.
    on_a = np.empty((len(dist), dim + 1))
    np.divide(diff, np.where(active & (dist > 0.0), rows.sign * dist,
                             np.inf)[:, None], out=on_a[:, :dim])
    on_a[:, dim] = active
    on_b = -on_a
    on_b[:, dim] = rows.r_b_weight * active
    # each end's flat positions: its centre entries, then its radius
    at = np.empty((len(batch.ends), dim + 1), dtype=np.intp)
    np.add.outer(batch.ends * dim, np.arange(dim), out=at[:, :dim])
    np.add(batch.ends, centres.size, out=at[:, dim])
    grad = np.bincount(at.ravel(),
                       _scatter_order(on_a, on_b, batch.n_sub).ravel(),
                       minlength=centres.size + n)
    # float: np.bincount of no ends gives integer zeros
    grad = grad.astype(float, copy=False)
    g_c, g_r = _ball_views(grad, centres.shape)

    g_r[table.floors - radii > 0.0] -= batch.reg_scale
    norms = _centre_norms(centres, scratch)
    weight = table.occurrences * np.sign(norms - config.phi) * batch.reg_scale
    safe = np.where(norms > 0.0, norms, 1.0)
    # zero rows stay zero
    g_c += np.multiply((weight / safe)[:, None], centres, out=scratch)
    return grad


def loss_gradients(space: BallSpace, ich: Ich, disjoint, stats: HierarchyStats,
                   config: EmbedConfig):
    """Gradient of total_loss w.r.t. every centre and radius.

    Returns (grad_centres, grad_radii) aligned with space.concepts.
    """
    table = _axiom_table(space, ich, disjoint, stats, config)
    n_axioms = len(table.rows.a)
    (batch,) = _batches(table, np.arange(n_axioms), max(n_axioms, 1))
    grad = _gradients(space.centres, space.radii, table, batch, config,
                      np.empty_like(space.centres))
    return _ball_views(grad, space.centres.shape)


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
    radii = (_level_floors(concepts, stats, config.psi)
             + config.radius_clamp_min + config.init_radius_slack)
    return BallSpace(config.dim, concepts, centres, radii)


class Optimizer:
    """In-place updates of one contiguous parameter vector: "adam" (betas
    0.9/0.999), or "sgd" stepping by lr / (1 + decay * t) after t earlier
    steps. A step writes into scratch vectors made once (one for sgd, two
    for adam), so it allocates nothing; only adam keeps moment vectors."""

    def __init__(self, kind: str, params: np.ndarray, lr: float,
                 decay: float = 0.0):
        self.kind = kind
        self.params = params
        self.lr = lr
        self.decay = decay
        self.t = 0
        self._step = np.empty_like(params)
        if kind == "adam":
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
            self._scale = np.empty_like(params)

    def step(self, grad: np.ndarray):
        step = self._step
        if self.kind == "sgd":
            np.multiply(grad, self.lr / (1.0 + self.decay * self.t), out=step)
            self.params -= step
            self.t += 1
            return
        self.t += 1
        m, v, scale = self.m, self.v, self._scale
        m *= 0.9
        m += np.multiply(grad, 0.1, out=step)
        v *= 0.999
        np.multiply(grad, 0.001, out=step)
        v += np.multiply(step, grad, out=step)
        # lr * m_hat / (sqrt(v_hat) + 1e-8), in that order
        np.divide(m, 1.0 - 0.9 ** self.t, out=step)
        step *= self.lr
        np.divide(v, 1.0 - 0.999 ** self.t, out=scale)
        np.sqrt(scale, out=scale)
        scale += 1e-8
        step /= scale
        self.params -= step


def _check_finite(breakdown: LossBreakdown):
    for name, value in breakdown.to_dict().items():
        if name != "total" and not math.isfinite(value):
            raise RuntimeError(f"non-finite {name} loss during training")


def train_embeddings(ontology: Ontology, ich: Ich, stats: HierarchyStats,
                     config: EmbedConfig, history: bool = False):
    """Mini-batch gradient descent over the axioms.

    Batches mix subsumption and disjointness axioms, reshuffled each epoch;
    per-concept penalty gradients are scaled by the batch fraction so one
    epoch applies them with total weight one. Centres and radii are views
    into one parameter vector, and radii are clamped to the configured
    minimum after every step. Returns the BallSpace and a list of
    LossBreakdowns: one per epoch with ``history``, else only the last
    epoch's (none without epochs). A non-finite parameter stays non-finite
    through every later step, so checking the last breakdown still stops a
    diverged run.
    """
    space = init_space(ontology.concepts, stats, config)
    table = _axiom_table(space, ich, ontology.disjointness, stats, config)
    params = np.concatenate([space.centres.ravel(), space.radii])
    centres, radii = _ball_views(params, space.centres.shape)
    scratch = np.empty_like(centres)  # per-concept intermediates of each step

    n_axioms = len(table.rows.a)
    rng = np.random.default_rng(config.seed)
    losses: list[LossBreakdown] = []

    optimizer = Optimizer(config.optimizer, params, config.learning_rate,
                          config.lr_decay)

    for epoch in range(config.epochs):
        order = rng.permutation(n_axioms) if n_axioms else np.zeros(0, dtype=int)
        for batch in _batches(table, order, config.batch_size):
            optimizer.step(_gradients(centres, radii, table, batch, config,
                                      scratch))
            np.maximum(radii, config.radius_clamp_min, out=radii)
        if history or epoch == config.epochs - 1:
            breakdown = _breakdown(centres, radii, table, config, scratch)
            _check_finite(breakdown)
            losses.append(breakdown)

    trained = BallSpace(config.dim, space.concepts, centres, radii)
    return trained, losses
