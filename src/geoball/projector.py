"""Feature-to-ball-space projector: a small MLP trained with a ranking loss.

The projector maps feature vectors to points h in the ball space. Training
pulls each point inside its class ball and pushes it out of the hard-negative
balls (base learning over base classes, then few-shot fine-tuning on novel
support examples, feature source fixed throughout). An optional linear input
compression, fit on the base split and frozen from then on, strips the noise
directions that high-dimensional features carry. Classification is by the
signed boundary distance U = ||c_P - h|| - r_P.

The ranking loss has one array implementation, ``_ranking_loss_grad``. Each
training run packs its targets once (class balls plus negative pools padded
to the widest pool), and every optimiser step and base learning's per-epoch
loss history go through that one function. The scalar ``ranking_loss`` is the
readable definition that tests compare the array form against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .embedding import Ball, BallSpace, Optimizer
from .negatives import NegativeSets

PRESET_HIDDEN = {
    "desk": (128, 64),
    "paper": (1024, 512, 512),  # reference stack, input 2048 and output 300
}


@dataclass(frozen=True)
class Mlp:
    """Affine layers with rectifier hidden activations, identity output.

    An optional frozen input compression (mean shift plus orthonormal basis)
    sits in front of the first layer. It is fit once during base learning and
    never updated afterwards, so the few-shot stage only moves layer weights.
    """

    sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]  # each (out, in)
    biases: tuple[np.ndarray, ...]
    trained_labels: frozenset[str] = frozenset()
    input_mean: np.ndarray | None = None
    input_basis: np.ndarray | None = None  # (raw_dim, sizes[0])

    def __post_init__(self):
        if len(self.sizes) < 2:
            raise ValueError("need at least input and output sizes")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (self.sizes[i + 1], self.sizes[i]):
                raise ValueError(f"layer {i} weight shape {w.shape} mismatches sizes")
            if b.shape != (self.sizes[i + 1],):
                raise ValueError(f"layer {i} bias shape {b.shape} mismatches sizes")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i} has non-finite parameters")
            w.setflags(write=False)
            b.setflags(write=False)
        if (self.input_mean is None) != (self.input_basis is None):
            raise ValueError("input mean and basis must be set together")
        if self.input_basis is not None:
            raw = self.input_basis.shape[0]
            if self.input_basis.shape != (raw, self.sizes[0]):
                raise ValueError("input basis shape mismatches first layer")
            if self.input_mean.shape != (raw,):
                raise ValueError("input mean shape mismatches basis")
            if not (np.isfinite(self.input_mean).all()
                    and np.isfinite(self.input_basis).all()):
                raise ValueError("input compression has non-finite values")
            self.input_mean.setflags(write=False)
            self.input_basis.setflags(write=False)

    @property
    def in_dim(self) -> int:
        if self.input_basis is not None:
            return self.input_basis.shape[0]
        return self.sizes[0]

    def parameter_copies(self):
        return [np.array(w) for w in self.weights], [np.array(b) for b in self.biases]

    def reduce(self, x: np.ndarray) -> np.ndarray:
        if self.input_basis is None:
            return x
        return (x - self.input_mean) @ self.input_basis

    def to_dict(self) -> dict:
        obj = {
            "sizes": list(self.sizes),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "trained_labels": sorted(self.trained_labels),
        }
        if self.input_basis is not None:
            obj["input_mean"] = self.input_mean.tolist()
            obj["input_basis"] = self.input_basis.tolist()
        return obj

    @classmethod
    def from_dict(cls, obj: dict) -> "Mlp":
        mean = obj.get("input_mean")
        basis = obj.get("input_basis")
        return cls(
            sizes=tuple(int(s) for s in obj["sizes"]),
            weights=tuple(np.array(w, dtype=float) for w in obj["weights"]),
            biases=tuple(np.array(b, dtype=float) for b in obj["biases"]),
            trained_labels=frozenset(obj.get("trained_labels", ())),
            input_mean=None if mean is None else np.array(mean, dtype=float),
            input_basis=None if basis is None else np.array(basis, dtype=float),
        )


@dataclass(frozen=True)
class ProjectorConfig:
    """Ranking-loss weights and the two-stage training schedule.

    reduce_dim, when set, compresses inputs to the top principal directions
    of the base-split features before the first layer. High-dimensional
    isotropic feature noise otherwise swamps the ranking signal.
    """

    mu: float = 1.0
    nu: float = 1.0
    learning_rate: float = 0.01
    epochs_bl: int = 200
    epochs_fsl: int = 60
    batch_size: int = 32
    seed: int = 0
    hidden_sizes: tuple[int, ...] = PRESET_HIDDEN["desk"]
    optimizer: str = "sgd"
    reduce_dim: int | None = None

    def __post_init__(self):
        if self.mu <= 0 or self.nu <= 0:
            raise ValueError("mu and nu must be > 0")
        if self.epochs_bl < 0 or self.epochs_fsl < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.reduce_dim is not None and self.reduce_dim < 1:
            raise ValueError("reduce_dim must be >= 1")


class Prediction(NamedTuple):
    label: str
    u_value: float
    inside: bool


def init_mlp(sizes, seed: int = 0) -> Mlp:
    """Uniform fan-in initialization, U(-1/sqrt(d_in), 1/sqrt(d_in))."""
    sizes = tuple(int(s) for s in sizes)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for d_in, d_out in zip(sizes, sizes[1:]):
        bound = 1.0 / math.sqrt(d_in)
        weights.append(rng.uniform(-bound, bound, size=(d_out, d_in)))
        biases.append(rng.uniform(-bound, bound, size=d_out))
    return Mlp(sizes, tuple(weights), tuple(biases))


def _forward_pass(x: np.ndarray, weights, biases):
    """Returns (activations per layer incl. input, pre-activations)."""
    acts, zs = [x], []
    a = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w.T + b
        zs.append(z)
        a = np.maximum(z, 0.0) if i < last else z
        acts.append(a)
    return acts, zs


def mlp_forward(f, mlp: Mlp) -> np.ndarray:
    """Project features (single vector or batch) into ball space."""
    x = np.asarray(f, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != mlp.in_dim:
        raise ValueError(f"feature dimension {x.shape[1]} != input {mlp.in_dim}")
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise ValueError(f"non-finite feature row {int(bad.argmax())}")
    acts, _ = _forward_pass(mlp.reduce(x), mlp.weights, mlp.biases)
    out = acts[-1]
    return out[0] if single else out


def _fit_reduction(x: np.ndarray, k: int):
    """Mean and top-k right singular vectors of the centred feature matrix.

    The vectors come from an eigendecomposition of the smaller Gram matrix,
    much cheaper than a full SVD of a wide matrix. With fewer rows than
    columns that is X X^T, and each right vector is X^T u / sigma; a kept
    eigenvalue at or below the rank tolerance has no recoverable vector, so
    data spanning fewer than k directions is rejected. Otherwise X^T X gives
    an orthonormal basis of the whole feature space, and directions beyond
    the rank are null-space vectors, as a full SVD gives. Column signs are
    pinned (largest-magnitude entry positive) so refits on identical data
    serialize identically.
    """
    n, d = x.shape
    if k > min(n, d):
        raise ValueError(f"reduce_dim {k} exceeds feature matrix rank bound")
    mean = x.mean(axis=0)
    xc = x - mean
    row_side = n < d
    eigvals, eigvecs = np.linalg.eigh(xc @ xc.T if row_side else xc.T @ xc)
    eigvals, eigvecs = eigvals[::-1][:k], eigvecs[:, ::-1][:, :k]
    if row_side:
        tolerance = np.finfo(float).eps * d * eigvals[0]
        rank = int((eigvals > tolerance).sum())
        if rank < k:
            raise ValueError(
                f"feature matrix has numerical rank {rank} < reduce_dim {k}")
        basis = (xc.T @ eigvecs) / np.sqrt(eigvals)
    else:
        basis = eigvecs.copy()
    for j in range(k):
        col = basis[:, j]
        if col[np.abs(col).argmax()] < 0.0:
            basis[:, j] = -col
    return mean, basis


def _check_ball_dim(ball: Ball, dim: int):
    if np.asarray(ball.centre).shape != (dim,):
        raise ValueError(f"ball dimension {np.asarray(ball.centre).shape} != ({dim},)")


def ranking_loss(h, positive: Ball, negatives, mu: float = 1.0,
                 nu: float = 1.0) -> float:
    """max(0, ||c_P - h|| - mu r_P) plus sum of max(0, nu r_Q - ||c_Q - h||)."""
    h = np.asarray(h, dtype=float)
    _check_ball_dim(positive, len(h))
    loss = max(0.0, float(np.linalg.norm(h - positive.centre)) - mu * positive.radius)
    for ball in negatives:
        _check_ball_dim(ball, len(h))
        loss += max(0.0, nu * ball.radius - float(np.linalg.norm(h - ball.centre)))
    return loss


class _Targets(NamedTuple):
    """Ranking-loss targets as arrays, one row per distinct label.

    Negative pools are padded to the widest pool (possibly width 0) with
    radius-0 balls: their hinge nu * 0 - ||c - h|| never exceeds 0, so the
    padding adds neither loss nor gradient.
    """

    pos_centres: np.ndarray  # (labels, dim)
    pos_radii: np.ndarray  # (labels,)
    neg_centres: np.ndarray  # (labels, width, dim)
    neg_radii: np.ndarray  # (labels, width)


def _pack_targets(labels, balls, negative_balls):
    """Row index per example plus the padded target arrays of its label."""
    names = sorted(set(labels))
    row_of = {name: i for i, name in enumerate(names)}
    pos_centres = np.array([balls[name].centre for name in names], dtype=float)
    dim = pos_centres.shape[1]
    width = max(len(negative_balls[name]) for name in names)
    targets = _Targets(
        pos_centres=pos_centres,
        pos_radii=np.array([balls[name].radius for name in names], dtype=float),
        neg_centres=np.zeros((len(names), width, dim)),
        neg_radii=np.zeros((len(names), width)))
    for i, name in enumerate(names):
        for j, ball in enumerate(negative_balls[name]):
            targets.neg_centres[i, j] = ball.centre
            targets.neg_radii[i, j] = ball.radius
    rows = np.array([row_of[label] for label in labels], dtype=np.intp)
    return rows, targets


def _ranking_loss_grad(h, rows, targets: _Targets, mu, nu):
    """Per-example ranking loss and its gradient w.r.t. h, for h of shape (m, dim).

    The array form of ``ranking_loss``: a hinge counts only when strictly
    above 0, and a distance term has gradient 0 at distance 0.
    """
    diff = h - targets.pos_centres[rows]
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    excess = dist - mu * targets.pos_radii[rows]
    active = excess > 0.0
    loss = np.where(active, excess, 0.0)
    scale = np.divide(1.0, dist, out=np.zeros_like(dist),
                      where=active & (dist > 0.0))
    grad = diff * scale[:, None]

    diff_q = h[:, None, :] - targets.neg_centres[rows]
    dist_q = np.sqrt(np.einsum("ijk,ijk->ij", diff_q, diff_q))
    intrusion = nu * targets.neg_radii[rows] - dist_q
    active_q = intrusion > 0.0
    loss += np.where(active_q, intrusion, 0.0).sum(axis=1)
    scale_q = np.divide(1.0, dist_q, out=np.zeros_like(dist_q),
                        where=active_q & (dist_q > 0.0))
    grad -= np.einsum("ij,ijk->ik", scale_q, diff_q)
    return loss, grad


def _loss_and_grads(x, rows, weights, biases, targets, mu, nu):
    """Mean ranking loss over a batch plus parameter gradients."""
    acts, zs = _forward_pass(x, weights, biases)
    loss, delta = _ranking_loss_grad(acts[-1], rows, targets, mu, nu)
    m = len(x)
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for layer in reversed(range(len(weights))):
        grads_w[layer] = delta.T @ acts[layer] / m
        grads_b[layer] = delta.sum(axis=0) / m
        if layer > 0:
            delta = (delta @ weights[layer]) * (zs[layer - 1] > 0.0)
    return float(loss.sum()) / m, grads_w, grads_b


def _epoch_loss(x, rows, weights, biases, targets, mu, nu, block):
    """Mean ranking loss over all examples, evaluated block rows at a time."""
    h = _forward_pass(x, weights, biases)[0][-1]
    total = 0.0
    for start in range(0, len(x), block):
        loss, _ = _ranking_loss_grad(h[start:start + block],
                                     rows[start:start + block], targets, mu, nu)
        total += float(loss.sum())
    return total / len(x)


def _batch_loss_grads(x, labels, weights, biases, balls, negative_balls, mu, nu):
    """Mean ranking loss over the batch plus parameter gradients."""
    rows, targets = _pack_targets(labels, balls, negative_balls)
    return _loss_and_grads(x, rows, weights, biases, targets, mu, nu)


def _mean_loss(x, labels, weights, biases, balls, negative_balls, mu, nu):
    rows, targets = _pack_targets(labels, balls, negative_balls)
    return _epoch_loss(x, rows, weights, biases, targets, mu, nu, len(x))


def _resolve_targets(labels, space: BallSpace, negatives: NegativeSets,
                     restrict_to=None):
    """Packed targets per label; negatives optionally restricted to a label set."""
    balls: dict[str, Ball] = {}
    negative_balls: dict[str, list[Ball]] = {}
    for label in sorted(set(labels)):
        if label not in space.index:
            raise KeyError(f"no ball for label {label!r}")
        balls[label] = space.ball(label)
        pool = negatives.negatives.get(label, ())
        if restrict_to is not None:
            pool = [q for q in pool if q in restrict_to]
        negative_balls[label] = [space.ball(q) for q in pool if q in space.index]
    return _pack_targets(labels, balls, negative_balls)


def _run_training(x, rows, weights, biases, targets, config, epochs: int,
                  seed: int, history: bool = False) -> list[float]:
    """Train ``weights`` and ``biases`` in place. With ``history``, return the
    mean loss after each epoch; only base learning reports it."""
    rng = np.random.default_rng(seed)
    losses: list[float] = []
    optimizer = Optimizer(config.optimizer, weights + biases,
                          config.learning_rate)
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), config.batch_size):
            batch = order[start:start + config.batch_size]
            _, grads_w, grads_b = _loss_and_grads(
                x[batch], rows[batch], weights, biases, targets,
                config.mu, config.nu)
            optimizer.step(grads_w + grads_b)
        if history:
            losses.append(_epoch_loss(x, rows, weights, biases, targets,
                                      config.mu, config.nu, config.batch_size))
    return losses


def train_base(features, space: BallSpace, negatives: NegativeSets,
               config: ProjectorConfig):
    """Base learning: fit a fresh MLP on the base-class feature set.

    Returns (Mlp, per-epoch mean loss history). The MLP records its training
    labels so few-shot fine-tuning can reject overlapping class sets.
    """
    labels = list(features.labels)
    rows, targets = _resolve_targets(labels, space, negatives)
    x = np.asarray(features.features, dtype=float)
    mean = basis = None
    if config.reduce_dim is not None:
        mean, basis = _fit_reduction(x, config.reduce_dim)
        x = (x - mean) @ basis
    sizes = (x.shape[1], *config.hidden_sizes, space.dim)
    mlp = init_mlp(sizes, seed=config.seed)
    weights, biases = mlp.parameter_copies()
    history = _run_training(x, rows, weights, biases, targets, config,
                            config.epochs_bl, config.seed, history=True)
    trained = Mlp(sizes, tuple(weights), tuple(biases),
                  trained_labels=frozenset(labels),
                  input_mean=mean, input_basis=basis)
    return trained, history


def finetune_fewshot(mlp: Mlp, support, space: BallSpace,
                     negatives: NegativeSets, config: ProjectorConfig) -> Mlp:
    """Few-shot stage: continue training the projector on novel support points.

    Novel labels must be disjoint from the base classes the MLP was trained
    on; hard negatives are restricted to the labels present in the support
    set, i.e. the episode's candidate classes.
    """
    support_labels = list(support.labels)
    overlap = set(support_labels) & mlp.trained_labels
    if overlap:
        raise ValueError(
            f"support classes overlap base classes: {sorted(overlap)}")
    rows, targets = _resolve_targets(
        support_labels, space, negatives, restrict_to=set(support_labels))
    weights, biases = mlp.parameter_copies()
    x = mlp.reduce(np.asarray(support.features, dtype=float))
    _run_training(x, rows, weights, biases, targets, config, config.epochs_fsl,
                  config.seed + 1)
    return Mlp(mlp.sizes, tuple(weights), tuple(biases),
               trained_labels=mlp.trained_labels | frozenset(support_labels),
               input_mean=mlp.input_mean, input_basis=mlp.input_basis)


def classify(h, candidates) -> Prediction:
    """Pick the candidate ball containing h most deeply, else the nearest centre.

    U = ||c - h|| - r per candidate; any U <= 0 means h is inside that ball
    and the smallest U wins, otherwise the smallest centre distance wins.
    Ties keep the earliest candidate. A non-finite h is rejected, since no
    distance to it can rank the candidates.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("empty candidate list")
    h = np.asarray(h, dtype=float)
    if not np.isfinite(h).all():
        raise ValueError("non-finite point h")
    distances = np.array([float(np.linalg.norm(h - ball.centre))
                          for _, ball in candidates])
    u_values = distances - np.array([ball.radius for _, ball in candidates])
    best_u = int(u_values.argmin())
    if u_values[best_u] <= 0.0:
        label = candidates[best_u][0]
        return Prediction(label, float(u_values[best_u]), True)
    best_d = int(distances.argmin())
    label = candidates[best_d][0]
    return Prediction(label, float(u_values[best_d]), False)


def ancestor_report(h, space: BallSpace, ich) -> list[str]:
    """All concepts whose balls contain h, most specific first.

    Depth is ordered by closure ancestor count (leaves have the most), with
    name as the deterministic tiebreak.
    """
    h = np.asarray(h, dtype=float)
    inside = [c for i, c in enumerate(space.concepts)
              if float(np.linalg.norm(h - space.centres[i])) <= space.radii[i]]
    return sorted(inside, key=lambda c: (-len(ich.ancestors_of(c)), c))
