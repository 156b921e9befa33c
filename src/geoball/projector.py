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
to the widest pool), and every optimiser step and base learning's loss
report go through that one function. The scalar ``ranking_loss`` is the
readable definition that tests compare the array form against. A training
run keeps the weights and biases as views into one flat parameter vector,
and their gradients as views into one flat gradient vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .embedding import Ball, BallSpace, Optimizer, distances
from .jsonio import check_value, float_array
from .negatives import NegativeSets


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
        if not len(self.weights) == len(self.biases) == len(self.sizes) - 1:
            raise ValueError(f"{len(self.sizes)} sizes need "
                             f"{len(self.sizes) - 1} weights and biases")
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

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """Rows of ``in_dim`` features through the input compression, if
        there is one."""
        if x.shape[1] != self.in_dim:
            raise ValueError(f"feature dimension {x.shape[1]} != input "
                             f"{self.in_dim}")
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
        compression = {key: float_array(obj[key], key)
                       for key in ("input_mean", "input_basis")
                       if obj.get(key) is not None}
        return cls(
            sizes=tuple(check_value(obj["sizes"], tuple[int, ...], "sizes")),
            weights=tuple(float_array(w, "weights") for w in obj["weights"]),
            biases=tuple(float_array(b, "biases") for b in obj["biases"]),
            trained_labels=frozenset(check_value(
                obj.get("trained_labels", []), tuple[str, ...],
                "trained_labels")),
            **compression,
        )


@dataclass(frozen=True)
class ProjectorConfig:
    """Ranking-loss weights and the two-stage training schedule.

    reduce_dim, when set, compresses inputs to the top principal directions
    of the base-split features before the first layer. High-dimensional
    isotropic feature noise otherwise swamps the ranking signal. The
    defaults are the stock desk run's.
    """

    mu: float = 1.0
    nu: float = 1.0
    learning_rate: float = 0.003
    epochs_bl: int = 400
    epochs_fsl: int = 60
    batch_size: int = 64
    seed: int = 0
    hidden_sizes: tuple[int, ...] = (256,)
    optimizer: str = "adam"
    reduce_dim: int | None = 12

    def __post_init__(self):
        # a config document gives a JSON list
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        if any(size < 1 for size in self.hidden_sizes):
            raise ValueError("hidden_sizes entries must be >= 1")
        if self.mu <= 0 or self.nu <= 0:
            raise ValueError("mu and nu must be > 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs_bl < 0 or self.epochs_fsl < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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
    gram = xc @ xc.T if row_side else xc.T @ xc
    # the centred copy is dropped before eigh, the Gram matrix after it
    del xc
    eigvals, eigvecs = np.linalg.eigh(gram)
    del gram
    eigvals, eigvecs = eigvals[::-1][:k], eigvecs[:, ::-1][:, :k]
    if row_side:
        tolerance = np.finfo(float).eps * d * eigvals[0]
        rank = int((eigvals > tolerance).sum())
        if rank < k:
            raise ValueError(
                f"feature matrix has numerical rank {rank} < reduce_dim {k}")
        # centred again: the same operations, so the same bits
        basis = ((x - mean).T @ eigvecs) / np.sqrt(eigvals)
    else:
        basis = eigvecs.copy()
    for j in range(k):
        col = basis[:, j]
        if col[np.abs(col).argmax()] < 0.0:
            basis[:, j] = -col
    return mean, basis


def fit_reduction(features, config: ProjectorConfig):
    """Base learning's frozen input compression of the base split
    ``features``: ``(mean, basis)``, or None without ``reduce_dim``."""
    return None if config.reduce_dim is None else _fit_reduction(
        np.asarray(features.features, dtype=float), config.reduce_dim)


def reduce_features(features, config: ProjectorConfig):
    """The rows of the base split ``features`` through the input compression
    ``fit_reduction`` fits on them: ``(rows, reduction)``; without
    ``reduce_dim``, the rows as they are and None."""
    x = np.asarray(features.features, dtype=float)
    reduction = fit_reduction(features, config)
    if reduction is not None:
        mean, basis = reduction
        x = (x - mean) @ basis
    return x, reduction


def _check_reduced(x: np.ndarray, reduction) -> None:
    """Refuse rows ``x`` that cannot be the image of the ``(mean, basis)``
    pair ``reduction``, before any training step runs."""
    mean, basis = reduction
    if np.shape(mean) != (basis.shape[0],):
        raise ValueError(f"reduction mean of shape {np.shape(mean)} does not "
                         f"fit a basis of input width {basis.shape[0]}")
    if x.shape[1] != basis.shape[1]:
        raise ValueError(f"feature width {x.shape[1]} != reduced width "
                         f"{basis.shape[1]}: a given reduction takes the "
                         "reduced rows, not the raw split")


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


def _layer_views(flat, sizes):
    """Views of ``flat`` shaped like the weights, then the biases, of an MLP
    with layer ``sizes``."""
    shapes = [*((d_out, d_in) for d_in, d_out in zip(sizes, sizes[1:])),
              *((d_out,) for d_out in sizes[1:])]
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    layers = len(sizes) - 1
    return views[:layers], views[layers:]


def _flat_parameters(mlp: Mlp):
    """A contiguous copy of the weights then the biases, with views of it."""
    flat = np.concatenate([p.ravel() for p in (*mlp.weights, *mlp.biases)])
    return flat, *_layer_views(flat, mlp.sizes)


def _backprop(x, rows, weights, biases, targets, mu, nu, grads_w, grads_b):
    """Per-example ranking loss over a batch; writes the gradients of its mean
    into ``grads_w`` and ``grads_b``."""
    acts, zs = _forward_pass(x, weights, biases)
    loss, delta = _ranking_loss_grad(acts[-1], rows, targets, mu, nu)
    m = len(x)
    for layer in reversed(range(len(weights))):
        np.matmul(delta.T, acts[layer], out=grads_w[layer])
        grads_w[layer] /= m
        np.add.reduce(delta, axis=0, out=grads_b[layer])
        grads_b[layer] /= m
        if layer > 0:
            delta = (delta @ weights[layer]) * (zs[layer - 1] > 0.0)
    return loss


def _epoch_loss(x, rows, weights, biases, targets, mu, nu, block):
    """Mean ranking loss over all examples, evaluated block rows at a time."""
    h = _forward_pass(x, weights, biases)[0][-1]
    total = 0.0
    for start in range(0, len(x), block):
        loss, _ = _ranking_loss_grad(h[start:start + block],
                                     rows[start:start + block], targets, mu, nu)
        total += float(loss.sum())
    return total / len(x)


def _resolve_targets(labels, space: BallSpace, negatives: NegativeSets,
                     restrict_to=None):
    """Row index per example plus the packed targets of its label, copied
    from the space's rows; negatives optionally restricted to a label set.
    Every label and every negative of one must have a ball."""
    names = sorted(set(labels))
    label_rows = space.rows(names, "labels")
    position = {name: i for i, name in enumerate(names)}
    rows = np.array([position[label] for label in labels], dtype=np.intp)
    pools = [negatives.negatives.get(name, ()) for name in names]
    # a negative the restriction drops still needs a ball
    space.rows([q for pool in pools for q in pool], "hard negatives")
    if restrict_to is not None:
        pools = [[q for q in pool if q in restrict_to] for pool in pools]
    lengths = [len(pool) for pool in pools]
    width = max(lengths)
    # the slots of each label's pool, in order; the rest stay padding
    filled = np.arange(width) < np.array(lengths)[:, None]
    negative_rows = space.rows([q for pool in pools for q in pool],
                               "hard negatives")
    targets = _Targets(
        pos_centres=space.centres[label_rows],
        pos_radii=space.radii[label_rows],
        neg_centres=np.zeros((len(pools), width, space.dim)),
        neg_radii=np.zeros((len(pools), width)))
    targets.neg_centres[filled] = space.centres[negative_rows]
    targets.neg_radii[filled] = space.radii[negative_rows]
    return rows, targets


def _run_training(x, rows, flat, sizes, targets, config, epochs: int,
                  seed: int, history: bool = False) -> list[float]:
    """Train ``flat``, the weights then biases of an MLP with layer ``sizes``,
    in place. Backprop writes each batch's gradients into views of one flat
    gradient vector, and the optimiser steps the whole vector at once. With
    ``history``, return the mean loss after each epoch."""
    weights, biases = _layer_views(flat, sizes)
    grad = np.empty_like(flat)
    grads_w, grads_b = _layer_views(grad, sizes)
    rng = np.random.default_rng(seed)
    losses: list[float] = []
    optimizer = Optimizer(config.optimizer, flat, config.learning_rate)
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), config.batch_size):
            batch = order[start:start + config.batch_size]
            _backprop(x[batch], rows[batch], weights, biases, targets,
                      config.mu, config.nu, grads_w, grads_b)
            optimizer.step(grad)
        if history:
            losses.append(_epoch_loss(x, rows, weights, biases, targets,
                                      config.mu, config.nu, config.batch_size))
    return losses


def train_base(features, space: BallSpace, negatives: NegativeSets,
               config: ProjectorConfig, history: bool = False,
               reduction=None):
    """Base learning: fit a fresh MLP on the base-class feature set.

    Returns (Mlp, losses). ``losses`` holds the mean loss over the base set
    after every epoch with ``history``, else after the last epoch only; it is
    empty without epochs. The MLP records its training labels so few-shot
    fine-tuning can reject overlapping class sets. Without a ``reduction``,
    the compression is fitted on ``features`` and applied to them
    (``reduce_features``). A given ``(mean, basis)`` pair is stored in the
    MLP as it is, and ``features`` must already be its image: the reduced
    rows, not the raw split.
    """
    labels = list(features.labels)
    if not labels:
        raise ValueError("base learning needs at least one feature row")
    rows, targets = _resolve_targets(labels, space, negatives)
    if reduction is None:
        x, reduction = reduce_features(features, config)
    else:
        x = np.asarray(features.features, dtype=float)
        _check_reduced(x, reduction)
    mean, basis = reduction or (None, None)
    sizes = (x.shape[1], *config.hidden_sizes, space.dim)
    flat, weights, biases = _flat_parameters(init_mlp(sizes, seed=config.seed))
    losses = _run_training(x, rows, flat, sizes, targets, config,
                           config.epochs_bl, config.seed, history)
    if config.epochs_bl and not history:
        losses = [_epoch_loss(x, rows, weights, biases, targets, config.mu,
                              config.nu, config.batch_size)]
    trained = Mlp(sizes, tuple(weights), tuple(biases),
                  trained_labels=frozenset(labels),
                  input_mean=mean, input_basis=basis)
    return trained, losses


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
    flat, weights, biases = _flat_parameters(mlp)
    x = mlp.reduce(np.asarray(support.features, dtype=float))
    _run_training(x, rows, flat, mlp.sizes, targets, config, config.epochs_fsl,
                  config.seed + 1)
    return Mlp(mlp.sizes, tuple(weights), tuple(biases),
               trained_labels=mlp.trained_labels | frozenset(support_labels),
               input_mean=mlp.input_mean, input_basis=mlp.input_basis)


def classify_batch(points, candidates):
    """Classify each row of ``points``, shape (m, dim), against the
    candidate balls.

    Returns (picks, u, inside): the index of the chosen candidate per row,
    the (rows x candidates) matrix of U = ||c - h|| - r, and whether each row
    lies inside any ball (some U <= 0). Such a row picks the smallest U, any
    other the nearest centre; ties keep the earliest candidate. Non-finite
    points are rejected, since no distance to them can rank the candidates.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("empty candidate list")
    points = np.asarray(points, dtype=float)
    if not np.isfinite(points).all():
        raise ValueError("non-finite point h")
    dist = distances(points, [ball.centre for _, ball in candidates])
    radii = np.array([ball.radius for _, ball in candidates], dtype=float)
    u = dist - radii
    best_u = u.argmin(axis=1)
    inside = u[np.arange(len(u)), best_u] <= 0.0
    return np.where(inside, best_u, dist.argmin(axis=1)), u, inside


def classify(h, candidates) -> Prediction:
    """Classify one point h by ``classify_batch``'s rule: the chosen label,
    its U, and whether h lies inside any candidate ball."""
    candidates = list(candidates)
    picks, u, inside = classify_batch(np.asarray(h, dtype=float)[None, :],
                                      candidates)
    pick = int(picks[0])
    return Prediction(candidates[pick][0], float(u[0, pick]), bool(inside[0]))


def ancestor_report(h, space: BallSpace, ich) -> list[str]:
    """All concepts whose balls contain h, most specific first.

    Depth is ordered by closure ancestor count (leaves have the most), with
    name as the deterministic tiebreak.
    """
    inside = distances([h], space.centres)[0] <= space.radii
    return sorted((c for c, hit in zip(space.concepts, inside) if hit),
                  key=lambda c: (-len(ich.ancestors_of(c)), c))
