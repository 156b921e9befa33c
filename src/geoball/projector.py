"""Feature-to-ball-space projector: a small MLP trained with a ranking loss.

The projector maps feature vectors to points h in the ball space. Training
pulls each point inside its class ball and pushes it out of the hard-negative
balls (base learning over base classes, then few-shot fine-tuning on novel
support examples, feature source fixed throughout). An optional linear input
compression, fit on the base split and frozen from then on, strips the noise
directions that high-dimensional features carry. Classification is by the
signed boundary distance U = ||c_P - h|| - r_P.
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
    acts, _ = _forward_pass(mlp.reduce(x), mlp.weights, mlp.biases)
    out = acts[-1]
    return out[0] if single else out


def _fit_reduction(x: np.ndarray, k: int):
    """Mean and top-k right singular vectors of the centred feature matrix.

    Column signs are pinned (largest-magnitude entry positive) so refits on
    identical data serialize identically.
    """
    if k > min(x.shape):
        raise ValueError(f"reduce_dim {k} exceeds feature matrix rank bound")
    mean = x.mean(axis=0)
    _, _, vt = np.linalg.svd(x - mean, full_matrices=False)
    basis = vt[:k].T.copy()
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


def _point_loss_grad(h, positive: Ball, negatives, mu, nu):
    """Per-point ranking loss and its gradient w.r.t. h (subgradient 0 at kinks)."""
    grad = np.zeros_like(h)
    diff = h - positive.centre
    d = float(np.linalg.norm(diff))
    loss = d - mu * positive.radius
    if loss > 0.0:
        if d > 0.0:
            grad += diff / d
    else:
        loss = 0.0
    for ball in negatives:
        diff_q = h - ball.centre
        d_q = float(np.linalg.norm(diff_q))
        arg = nu * ball.radius - d_q
        if arg > 0.0:
            loss += arg
            if d_q > 0.0:
                grad -= diff_q / d_q
    return loss, grad


def _batch_loss_grads(x, labels, weights, biases, balls, negative_balls, mu, nu):
    """Mean ranking loss over the batch plus parameter gradients."""
    acts, zs = _forward_pass(x, weights, biases)
    h = acts[-1]
    m = len(x)
    g_out = np.zeros_like(h)
    total = 0.0
    for i, label in enumerate(labels):
        loss, grad = _point_loss_grad(h[i], balls[label], negative_balls[label], mu, nu)
        total += loss
        g_out[i] = grad

    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    delta = g_out
    for layer in reversed(range(len(weights))):
        grads_w[layer] = delta.T @ acts[layer] / m
        grads_b[layer] = delta.sum(axis=0) / m
        if layer > 0:
            delta = (delta @ weights[layer]) * (zs[layer - 1] > 0.0)
    return total / m, grads_w, grads_b


def _mean_loss(x, labels, weights, biases, balls, negative_balls, mu, nu):
    acts, _ = _forward_pass(x, weights, biases)
    h = acts[-1]
    total = 0.0
    for i, label in enumerate(labels):
        total += ranking_loss(h[i], balls[label], negative_balls[label], mu, nu)
    return total / len(x)


def _resolve_targets(labels, space: BallSpace, negatives: NegativeSets,
                     restrict_to=None):
    """Ball lookups per label; negatives optionally restricted to a label set."""
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
    return balls, negative_balls


def _run_training(x, labels, weights, biases, balls, negative_balls, config,
                  epochs: int, seed: int):
    rng = np.random.default_rng(seed)
    history: list[float] = []
    optimizer = Optimizer(config.optimizer, weights + biases,
                          config.learning_rate)
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), config.batch_size):
            batch = order[start:start + config.batch_size]
            _, grads_w, grads_b = _batch_loss_grads(
                x[batch], [labels[i] for i in batch], weights, biases,
                balls, negative_balls, config.mu, config.nu)
            optimizer.step(grads_w + grads_b)
        history.append(_mean_loss(x, labels, weights, biases, balls,
                                  negative_balls, config.mu, config.nu))
    return history


def train_base(features, space: BallSpace, negatives: NegativeSets,
               config: ProjectorConfig):
    """Base learning: fit a fresh MLP on the base-class feature set.

    Returns (Mlp, per-epoch mean loss history). The MLP records its training
    labels so few-shot fine-tuning can reject overlapping class sets.
    """
    labels = list(features.labels)
    balls, negative_balls = _resolve_targets(labels, space, negatives)
    x = np.asarray(features.features, dtype=float)
    mean = basis = None
    if config.reduce_dim is not None:
        mean, basis = _fit_reduction(x, config.reduce_dim)
        x = (x - mean) @ basis
    sizes = (x.shape[1], *config.hidden_sizes, space.dim)
    mlp = init_mlp(sizes, seed=config.seed)
    weights, biases = mlp.parameter_copies()
    history = _run_training(x, labels, weights, biases, balls, negative_balls,
                            config, config.epochs_bl, config.seed)
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
    balls, negative_balls = _resolve_targets(
        support_labels, space, negatives, restrict_to=set(support_labels))
    weights, biases = mlp.parameter_copies()
    x = mlp.reduce(np.asarray(support.features, dtype=float))
    _run_training(x, support_labels, weights, biases, balls, negative_balls,
                  config, config.epochs_fsl, config.seed + 1)
    return Mlp(mlp.sizes, tuple(weights), tuple(biases),
               trained_labels=mlp.trained_labels | frozenset(support_labels),
               input_mean=mlp.input_mean, input_basis=mlp.input_basis)


def classify(h, candidates) -> Prediction:
    """Pick the candidate ball containing h most deeply, else the nearest centre.

    U = ||c - h|| - r per candidate; any U <= 0 means h is inside that ball
    and the smallest U wins, otherwise the smallest centre distance wins.
    Ties keep the earliest candidate.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("empty candidate list")
    h = np.asarray(h, dtype=float)
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
