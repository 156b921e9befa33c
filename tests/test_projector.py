"""Tests for the projector MLP, ranking loss, and geometric classifier."""

import json
import math
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import geoball.embedding
import geoball.projector
from geoball.embedding import Ball, BallSpace, EmbedConfig
from geoball.negatives import NegativeSets, build_negative_sets
from geoball.ontology import compute_ich, ontology_from_dict
from geoball.projector import (
    Mlp,
    Prediction,
    ProjectorConfig,
    ancestor_report,
    classify,
    classify_batch,
    finetune_fewshot,
    init_mlp,
    mlp_forward,
    ranking_loss,
    reduce_features,
    train_base,
)
from geoball.projector import (_backprop, _epoch_loss, _fit_reduction,
                               _forward_pass, _ranking_loss_grad,
                               _resolve_targets)
from test_embedding import OracleOptimizer


# ---------------------------------------------------------------------------
# fixture: separable synthetic classes over a hand-placed ball space


def make_world(seed=0, n_classes=10, feat_dim=8, ball_dim=4):
    rng = np.random.default_rng(seed)
    names = tuple(f"cls{i}" for i in range(n_classes))
    centres = rng.normal(size=(n_classes, ball_dim)) * 3.0
    space = BallSpace(ball_dim, names, centres, np.full(n_classes, 0.5))
    negatives = build_negative_sets(space, names, k=4, seed=0)
    return rng, names, space, negatives


def make_features(rng, names, feat_dim, per_class, noise=0.1):
    anchors = rng.normal(size=(len(names), feat_dim)) * 2.0
    feats, labels = [], []
    for anchor, name in zip(anchors, names):
        feats.append(anchor + rng.normal(size=(per_class, feat_dim)) * noise)
        labels += [name] * per_class
    return SimpleNamespace(labels=tuple(labels), features=np.vstack(feats),
                           dim=feat_dim)


@pytest.fixture(scope="module")
def world():
    rng, names, space, negatives = make_world()
    base = make_features(rng, names[:6], 8, per_class=20)
    support = make_features(rng, names[6:10], 8, per_class=5)
    return SimpleNamespace(names=names, space=space, negatives=negatives,
                           base=base, support=support)


# ProjectorConfig values these tests were written against; a test that
# leaves one of these fields out runs with the value given here
PINNED_PROJECTOR = dict(learning_rate=0.01, epochs_bl=200, batch_size=32,
                        hidden_sizes=(128, 64), optimizer="sgd",
                        reduce_dim=None)


def projector_config(**fields) -> ProjectorConfig:
    return ProjectorConfig(**{**PINNED_PROJECTOR, **fields})


BASE_CONFIG = projector_config(learning_rate=0.05, epochs_bl=200, epochs_fsl=100,
                               batch_size=32, seed=0, hidden_sizes=(32, 16))


# ---------------------------------------------------------------------------
# Mlp construction and forward pass


def test_init_mlp_shapes_and_determinism():
    a = init_mlp((5, 8, 3), seed=4)
    b = init_mlp((5, 8, 3), seed=4)
    assert a.sizes == (5, 8, 3)
    assert a.weights[0].shape == (8, 5)
    assert a.biases[1].shape == (3,)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    bound = 1.0 / math.sqrt(5)
    assert np.all(np.abs(a.weights[0]) <= bound)


def test_mlp_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(ValueError, match="weight shape"):
        Mlp((2, 3), (np.zeros((2, 2)),), (np.zeros(3),))
    with pytest.raises(ValueError, match="non-finite"):
        Mlp((2, 3), (np.full((3, 2), np.nan),), (np.zeros(3),))


def test_mlp_parameters_locked():
    mlp = init_mlp((3, 2), seed=0)
    with pytest.raises(ValueError):
        mlp.weights[0][0, 0] = 1.0


def test_forward_zero_parameters_gives_zero():
    mlp = Mlp((4, 3, 2), (np.zeros((3, 4)), np.zeros((2, 3))),
              (np.zeros(3), np.zeros(2)))
    out = mlp_forward(np.array([1.0, -2.0, 3.0, 0.5]), mlp)
    assert np.array_equal(out, np.zeros(2))


def test_forward_identity_single_layer():
    mlp = Mlp((3, 3), (np.eye(3),), (np.zeros(3),))
    f = np.array([0.5, -1.5, 2.0])
    assert np.array_equal(mlp_forward(f, mlp), f)


def test_forward_deterministic_and_batched():
    mlp = init_mlp((4, 6, 2), seed=1)
    x = np.random.default_rng(2).normal(size=(5, 4))
    once = mlp_forward(x, mlp)
    again = mlp_forward(x, mlp)
    assert np.array_equal(once, again)
    # batched and single-vector matmul may differ in the last bits
    assert np.allclose(once[3], mlp_forward(x[3], mlp), rtol=1e-12, atol=1e-14)


def test_forward_dimension_mismatch():
    mlp = init_mlp((4, 2), seed=0)
    with pytest.raises(ValueError, match="dimension"):
        mlp_forward(np.zeros(5), mlp)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forward_rejects_non_finite_rows(bad):
    mlp = init_mlp((3, 4, 2), seed=0)
    x = np.zeros((4, 3))
    x[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite feature row 2"):
        mlp_forward(x, mlp)
    with pytest.raises(ValueError, match="non-finite"):
        mlp_forward(x[2], mlp)


def test_mlp_json_roundtrip_row_major():
    mlp = init_mlp((3, 4, 2), seed=7)
    obj = json.loads(json.dumps(mlp.to_dict()))
    assert obj["weights"][0][1][2] == mlp.weights[0][1, 2]
    again = Mlp.from_dict(obj)
    assert again.sizes == mlp.sizes
    assert all(np.array_equal(x, y) for x, y in zip(again.weights, mlp.weights))
    assert all(np.array_equal(x, y) for x, y in zip(again.biases, mlp.biases))


def test_config_defaults_are_the_stock_desk_run():
    embed = EmbedConfig()
    assert (embed.dim, embed.gamma, embed.disjoint_gamma) == (16, -0.1, 0.05)
    assert (embed.psi, embed.phi) == (0.3, 2.0)
    assert (embed.learning_rate, embed.lr_decay) == (0.05, 0.002)
    assert (embed.epochs, embed.batch_size, embed.seed) == (1500, 64, 0)
    assert (embed.radius_clamp_min, embed.init_radius_slack) == (0.4, 0.1)
    assert embed.optimizer == "sgd"
    projector = ProjectorConfig()
    assert (projector.mu, projector.nu, projector.learning_rate) == (
        1.0, 1.0, 0.003)
    assert (projector.epochs_bl, projector.epochs_fsl) == (400, 60)
    assert (projector.batch_size, projector.seed) == (64, 0)
    assert (projector.optimizer, projector.hidden_sizes) == ("adam", (256,))
    assert projector.reduce_dim == 12


def test_projector_config_validation():
    with pytest.raises(ValueError):
        ProjectorConfig(mu=0.0)
    with pytest.raises(ValueError):
        ProjectorConfig(nu=-1.0)
    with pytest.raises(ValueError):
        ProjectorConfig(epochs_bl=-1)
    with pytest.raises(ValueError):
        ProjectorConfig(optimizer="sgdm")
    with pytest.raises(ValueError, match="batch_size"):
        ProjectorConfig(batch_size=0)
    with pytest.raises(ValueError, match="seed"):
        ProjectorConfig(seed=-1)


# ---------------------------------------------------------------------------
# ranking loss


def test_ranking_loss_inside_and_far_is_zero():
    h = np.zeros(2)
    positive = Ball(np.array([0.1, 0.0]), 1.0)
    negatives = [Ball(np.array([9.0, 0.0]), 1.0)]
    assert ranking_loss(h, positive, negatives) == 0.0


def test_ranking_loss_at_both_centres():
    h = np.zeros(2)
    positive = Ball(np.zeros(2), 1.0)
    negatives = [Ball(np.zeros(2), 1.0)]
    assert ranking_loss(h, positive, negatives) == pytest.approx(1.0)


def test_ranking_loss_mu_tightens():
    h = np.array([0.6, 0.0])
    positive = Ball(np.zeros(2), 1.0)
    assert ranking_loss(h, positive, [], mu=0.5) == pytest.approx(0.1)
    assert ranking_loss(h, positive, []) == 0.0


def test_ranking_loss_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        ranking_loss(np.zeros(2), Ball(np.zeros(3), 1.0), [])
    with pytest.raises(ValueError, match="dimension"):
        ranking_loss(np.zeros(2), Ball(np.zeros(2), 1.0), [Ball(np.zeros(4), 1.0)])


# ---------------------------------------------------------------------------
# gradient fidelity: backprop vs central finite differences


def random_gradient_case(seed):
    rng = np.random.default_rng(seed)
    sizes = (5, 8, 3)
    mlp = init_mlp(sizes, seed=seed)
    weights = [np.array(w) for w in mlp.weights]
    biases = [np.array(b) for b in mlp.biases]
    x = rng.normal(size=(4, 5))
    labels = ["p", "p", "q", "q"]
    balls = {"p": Ball(rng.normal(size=3), float(rng.uniform(0.3, 1.0))),
             "q": Ball(rng.normal(size=3), float(rng.uniform(0.3, 1.0)))}
    negative_balls = {"p": [balls["q"]], "q": [balls["p"]]}
    return x, labels, weights, biases, balls, negative_balls


def resolve_hand_made(labels, balls, negative_balls, mu=1.0, nu=1.0):
    """``_resolve_targets`` on a space of the hand-made balls, in which each
    negative ball is a concept of its own."""
    named, pools = dict(balls), {}
    for name, pool in negative_balls.items():
        pools[name] = tuple(f"{name}/negative {j}" for j in range(len(pool)))
        named.update(zip(pools[name], pool))
    space = BallSpace(len(next(iter(named.values())).centre), tuple(named),
                      np.array([ball.centre for ball in named.values()]),
                      np.array([ball.radius for ball in named.values()]))
    return _resolve_targets(labels, space, NegativeSets(pools), mu, nu)


def loss_and_gradients(x, labels, weights, biases, balls, negative_balls):
    """Mean ranking loss (mu = nu = 1) of a gradient case and its parameter
    gradients, from the trainer's own kernels."""
    rows, targets = resolve_hand_made(labels, balls, negative_balls)
    grads_w = [np.empty_like(w) for w in weights]
    grads_b = [np.empty_like(b) for b in biases]
    _backprop(x, rows, weights, biases, targets, grads_w, grads_b)
    loss = _epoch_loss(x, rows, weights, biases, targets, len(x))
    return loss, grads_w, grads_b


def is_kink_free(x, labels, weights, biases, balls, negative_balls, margin=1e-3):
    acts, zs = _forward_pass(x, weights, biases)
    if any(np.abs(z).min() < margin for z in zs[:-1]):
        return False
    h = acts[-1]
    for i, label in enumerate(labels):
        pos = balls[label]
        d = np.linalg.norm(h[i] - pos.centre)
        if d < margin or abs(d - pos.radius) < margin:
            return False
        for ball in negative_balls[label]:
            d_q = np.linalg.norm(h[i] - ball.centre)
            if d_q < margin or abs(ball.radius - d_q) < margin:
                return False
    return True


def test_parameter_gradients_match_finite_differences():
    checked = 0
    seed = 0
    while checked < 10:
        seed += 1
        case = random_gradient_case(seed)
        if not is_kink_free(*case):
            continue
        _, grads_w, grads_b = loss_and_gradients(*case)
        weights, biases = case[2], case[3]

        h_step = 1e-5
        for target, grad in zip(list(weights) + list(biases),
                                list(grads_w) + list(grads_b)):
            flat = target.ravel()
            for idx in range(0, flat.size, max(1, flat.size // 7)):
                orig = flat[idx]
                flat[idx] = orig + h_step
                up, _, _ = loss_and_gradients(*case)
                flat[idx] = orig - h_step
                down, _, _ = loss_and_gradients(*case)
                flat[idx] = orig
                fd = (up - down) / (2 * h_step)
                analytic = grad.ravel()[idx]
                scale = max(1.0, abs(analytic), abs(fd))
                assert abs(analytic - fd) <= 1e-4 * scale
        checked += 1


# ---------------------------------------------------------------------------
# base learning


def test_train_base_converges_on_separable_set(world):
    mlp, history = train_base(world.base, world.space, world.negatives,
                              BASE_CONFIG, history=True)
    assert history[-1] < 1e-2
    assert history[-1] < history[0]
    assert mlp.trained_labels == frozenset(world.base.labels)
    h = mlp_forward(world.base.features, mlp)
    inside = [
        float(np.linalg.norm(h[i] - world.space.ball(label).centre))
        <= world.space.ball(label).radius
        for i, label in enumerate(world.base.labels)
    ]
    assert all(inside)


def test_train_base_zero_epochs_returns_init(world):
    config = projector_config(epochs_bl=0, seed=5, hidden_sizes=(32, 16))
    mlp, history = train_base(world.base, world.space, world.negatives, config)
    fresh = init_mlp((world.base.dim, 32, 16, world.space.dim), seed=5)
    assert history == []
    assert all(np.array_equal(a, b) for a, b in zip(mlp.weights, fresh.weights))
    assert all(np.array_equal(a, b) for a, b in zip(mlp.biases, fresh.biases))


def test_train_base_deterministic(world):
    config = projector_config(learning_rate=0.05, epochs_bl=40, batch_size=16,
                              seed=9, hidden_sizes=(16,))
    a, ha = train_base(world.base, world.space, world.negatives, config)
    b, hb = train_base(world.base, world.space, world.negatives, config)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
    assert ha == hb


def test_train_base_adam_converges(world):
    config = projector_config(learning_rate=0.01, epochs_bl=150, batch_size=32,
                              seed=0, hidden_sizes=(32, 16), optimizer="adam")
    _, history = train_base(world.base, world.space, world.negatives, config)
    assert history[-1] < 1e-2


def test_train_base_label_without_ball(world):
    bad = SimpleNamespace(labels=("ghost",) * 4,
                          features=np.zeros((4, 8)), dim=8)
    with pytest.raises(ValueError, match="ghost"):
        train_base(bad, world.space, world.negatives, BASE_CONFIG)


# ---------------------------------------------------------------------------
# few-shot fine-tuning


def test_finetune_puts_support_inside_balls(world):
    mlp, _ = train_base(world.base, world.space, world.negatives, BASE_CONFIG)
    tuned = finetune_fewshot(mlp, world.support, world.space, world.negatives,
                             BASE_CONFIG)
    h = mlp_forward(world.support.features, tuned)
    for i, label in enumerate(world.support.labels):
        d = float(np.linalg.norm(h[i] - world.space.ball(label).centre))
        assert d <= world.space.ball(label).radius
    assert tuned.trained_labels == (frozenset(world.base.labels)
                                    | frozenset(world.support.labels))


def test_finetune_zero_epochs_keeps_parameters(world):
    mlp, _ = train_base(world.base, world.space, world.negatives, BASE_CONFIG)
    config = projector_config(epochs_fsl=0, seed=0, hidden_sizes=(32, 16))
    tuned = finetune_fewshot(mlp, world.support, world.space, world.negatives,
                             config)
    assert all(np.array_equal(a, b) for a, b in zip(tuned.weights, mlp.weights))
    assert all(np.array_equal(a, b) for a, b in zip(tuned.biases, mlp.biases))


def test_finetune_with_every_pool_empty_trains_positive_term(world):
    # every support label's negatives are base classes, so restricting them
    # to the support set leaves each pool empty
    mlp, _ = train_base(world.base, world.space, world.negatives, BASE_CONFIG)
    base_names = tuple(sorted(set(world.base.labels)))
    negatives = NegativeSets({name: base_names for name in world.names[6:]})
    first = finetune_fewshot(mlp, world.support, world.space, negatives,
                             BASE_CONFIG)
    second = finetune_fewshot(mlp, world.support, world.space, negatives,
                              BASE_CONFIG)
    assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())
    no_pools = finetune_fewshot(mlp, world.support, world.space,
                                NegativeSets({}),
                                BASE_CONFIG)
    assert json.dumps(no_pools.to_dict()) == json.dumps(first.to_dict())
    assert not all(np.array_equal(a, b)
                   for a, b in zip(first.weights, mlp.weights))
    h = mlp_forward(world.support.features, first)
    for i, label in enumerate(world.support.labels):
        d = float(np.linalg.norm(h[i] - world.space.ball(label).centre))
        assert d <= world.space.ball(label).radius


def test_only_base_learning_computes_a_loss_history(world, monkeypatch):
    calls = []
    real = geoball.projector._epoch_loss

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(geoball.projector, "_epoch_loss", counting)
    mlp, history = train_base(world.base, world.space, world.negatives,
                              BASE_CONFIG, history=True)
    assert len(calls) == len(history) == BASE_CONFIG.epochs_bl
    calls.clear()
    again, final = train_base(world.base, world.space, world.negatives,
                              BASE_CONFIG)
    assert len(calls) == 1
    assert final == history[-1:]
    assert json.dumps(again.to_dict()) == json.dumps(mlp.to_dict())
    calls.clear()
    finetune_fewshot(mlp, world.support, world.space, world.negatives,
                     BASE_CONFIG)
    assert calls == []


# literal copies of the per-array backprop and training loop that the flat
# parameter vector replaced, kept as bitwise oracles


def oracle_loss_and_grads(x, rows, weights, biases, targets):
    acts, zs = _forward_pass(x, weights, biases)
    loss, delta = _ranking_loss_grad(acts[-1], rows, targets)
    m = len(x)
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for layer in reversed(range(len(weights))):
        grads_w[layer] = delta.T @ acts[layer] / m
        grads_b[layer] = delta.sum(axis=0) / m
        if layer > 0:
            delta = (delta @ weights[layer]) * (zs[layer - 1] > 0.0)
    return float(loss.sum()) / m, grads_w, grads_b


def oracle_run_training(x, rows, weights, biases, targets, config, epochs, seed):
    rng = np.random.default_rng(seed)
    optimizer = OracleOptimizer(config.optimizer, weights + biases,
                                config.learning_rate)
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), config.batch_size):
            batch = order[start:start + config.batch_size]
            _, grads_w, grads_b = oracle_loss_and_grads(
                x[batch], rows[batch], weights, biases, targets)
            optimizer.step(grads_w + grads_b)


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_training_matches_per_array_oracle_bitwise(world, optimizer):
    config = replace(BASE_CONFIG, epochs_bl=30, epochs_fsl=30,
                     optimizer=optimizer, learning_rate=0.01)
    mlp, _ = train_base(world.base, world.space, world.negatives, config)
    labels = list(world.base.labels)
    rows, targets = _resolve_targets(labels, world.space, world.negatives,
                                     config.mu, config.nu)
    sizes = (world.base.dim, *config.hidden_sizes, world.space.dim)
    init = init_mlp(sizes, seed=config.seed)
    weights = [np.array(w) for w in init.weights]
    biases = [np.array(b) for b in init.biases]
    oracle_run_training(world.base.features, rows, weights, biases, targets,
                        config, config.epochs_bl, config.seed)
    assert [p.tobytes() for p in mlp.weights + mlp.biases] == [
        p.tobytes() for p in weights + biases]

    tuned = finetune_fewshot(mlp, world.support, world.space, world.negatives,
                             config)
    support = list(world.support.labels)
    rows, targets = _resolve_targets(support, world.space, world.negatives,
                                     config.mu, config.nu,
                                     restrict_to=set(support))
    weights = [np.array(w) for w in mlp.weights]
    biases = [np.array(b) for b in mlp.biases]
    oracle_run_training(world.support.features, rows, weights, biases,
                        targets, config, config.epochs_fsl, config.seed + 1)
    assert [p.tobytes() for p in tuned.weights + tuned.biases] == [
        p.tobytes() for p in weights + biases]


def test_finetune_rejects_overlapping_classes(world):
    mlp, _ = train_base(world.base, world.space, world.negatives, BASE_CONFIG)
    with pytest.raises(ValueError, match="overlap"):
        finetune_fewshot(mlp, world.base, world.space, world.negatives,
                         BASE_CONFIG)


# ---------------------------------------------------------------------------
# classification


def test_classify_single_containing_ball():
    h = np.zeros(2)
    candidates = [("far", Ball(np.array([5.0, 0.0]), 1.0)),
                  ("home", Ball(np.array([0.2, 0.0]), 1.0))]
    pred = classify(h, candidates)
    assert pred.label == "home"
    assert pred.inside
    assert pred.u_value == pytest.approx(0.2 - 1.0)


def test_classify_fallback_nearest_centre():
    h = np.zeros(2)
    candidates = [("two", Ball(np.array([2.0, 0.0]), 0.5)),
                  ("three", Ball(np.array([3.0, 0.0]), 0.5))]
    pred = classify(h, candidates)
    assert pred.label == "two"
    assert not pred.inside
    assert pred.u_value == pytest.approx(1.5)


def test_classify_overlapping_picks_smallest_u():
    h = np.zeros(2)
    candidates = [("shallow", Ball(np.array([0.4, 0.0]), 0.5)),
                  ("deep", Ball(np.array([0.1, 0.0]), 0.5))]
    pred = classify(h, candidates)
    assert pred.label == "deep"
    assert pred.u_value == pytest.approx(-0.4)


def test_classify_tie_keeps_candidate_order():
    h = np.zeros(2)
    same = Ball(np.array([0.3, 0.0]), 0.5)
    pred = classify(h, [("first", same), ("second", same)])
    assert pred.label == "first"


@pytest.mark.parametrize("block", [1, 3 * 7 * 5])
def test_classify_batch_row_blocks_give_the_same_bits(monkeypatch, block):
    # one row, or three, of centre differences at a time
    rng = np.random.default_rng(5)
    points = rng.normal(size=(50, 5))
    candidates = [(f"c{i}", Ball(rng.normal(size=5), rng.uniform(0.5, 2.0)))
                  for i in range(7)]
    whole = classify_batch(points, candidates)
    monkeypatch.setattr(geoball.embedding, "_DISTANCE_BLOCK", block)
    blocked = classify_batch(points, candidates)
    for got, want in zip(blocked, whole):
        assert got.tobytes() == want.tobytes()


def test_classify_empty_candidates():
    with pytest.raises(ValueError, match="empty"):
        classify(np.zeros(2), [])


@pytest.mark.parametrize("h", [[np.nan, 0.0], [0.0, np.inf]])
def test_classify_rejects_non_finite_h(h):
    # a NaN h used to return the first candidate: Prediction('a', nan, False)
    candidates = [("a", Ball(np.array([5.0, 5.0]), 1.0)),
                  ("b", Ball(np.zeros(2), 1.0))]
    with pytest.raises(ValueError, match="non-finite"):
        classify(np.array(h), candidates)


def test_zero_ranking_loss_implies_correct_classification():
    rng = np.random.default_rng(31)
    fixed = 0
    while fixed < 30:
        h = rng.normal(size=3)
        positive = Ball(rng.normal(size=3), float(rng.uniform(0.3, 2.0)))
        negatives = [Ball(rng.normal(size=3), float(rng.uniform(0.3, 2.0)))
                     for _ in range(3)]
        if ranking_loss(h, positive, negatives) != 0.0:
            continue
        candidates = [("pos", positive)] + [(f"n{i}", b)
                                            for i, b in enumerate(negatives)]
        pred = classify(h, candidates)
        assert pred.label == "pos"
        assert pred.inside
        fixed += 1


def test_classify_invariant_under_irrelevant_candidate():
    rng = np.random.default_rng(8)
    for _ in range(50):
        h = rng.normal(size=2)
        candidates = [(f"c{i}", Ball(rng.normal(size=2), float(rng.uniform(0.2, 1.5))))
                      for i in range(3)]
        base = classify(h, candidates)
        worst_d = max(float(np.linalg.norm(h - b.centre)) for _, b in candidates)
        extra = Ball(h + rng.normal(size=2) * 0.1 + worst_d * 3.0, 0.1)
        assert not float(np.linalg.norm(h - extra.centre)) <= extra.radius
        again = classify(h, candidates + [("extra", extra)])
        assert again == base


# ---------------------------------------------------------------------------
# ancestor report


def nested_poodle_space():
    names = ("entity", "animal", "dog", "poodle", "retriever", "street_sign")
    centres = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                        [2.5, 0.0], [1.5, 0.0], [20.0, 0.0]])
    radii = np.array([8.0, 5.0, 2.0, 0.5, 0.5, 1.0])
    return BallSpace(2, names, centres, radii)


@pytest.fixture(scope="module")
def poodle_ich():
    onto = ontology_from_dict({
        "concepts": ["entity", "animal", "dog", "poodle", "retriever",
                     "street_sign"],
        "subclass": [["animal", "entity"], ["dog", "animal"], ["poodle", "dog"],
                     ["retriever", "dog"], ["street_sign", "entity"]],
        "disjoint": [["poodle", "retriever"]],
        "leaves": ["poodle", "retriever", "street_sign"]})
    return compute_ich(onto)


def test_ancestor_report_leaf_centre(poodle_ich):
    space = nested_poodle_space()
    report = ancestor_report(space.ball("poodle").centre, space, poodle_ich)
    assert report == ["poodle", "dog", "animal", "entity"]


def test_ancestor_report_far_point(poodle_ich):
    space = nested_poodle_space()
    assert ancestor_report(np.array([100.0, 100.0]), space, poodle_ich) == []


def test_ancestor_report_misprojected_point(poodle_ich):
    space = nested_poodle_space()
    report = ancestor_report(np.array([3.2, 0.0]), space, poodle_ich)
    assert report == ["dog", "animal", "entity"]


def test_ancestor_report_matches_the_per_concept_norm_loop(poodle_ich):
    # points on and near every ball's sphere, where a distance one ulp off
    # would flip containment
    rng = np.random.default_rng(13)
    for _ in range(20):
        dim = int(rng.integers(2, 8))
        space = BallSpace(dim, nested_poodle_space().concepts,
                          rng.normal(size=(6, dim)), rng.uniform(0.1, 2.0, 6))
        for i in range(6):
            unit = rng.normal(size=dim)
            unit /= np.linalg.norm(unit)
            for scale in (1.0 - 1e-12, 1.0, 1.0 + 1e-12, rng.uniform(0, 3)):
                h = space.centres[i] + scale * space.radii[i] * unit
                inside = [c for j, c in enumerate(space.concepts)
                          if float(np.linalg.norm(h - space.centres[j]))
                          <= space.radii[j]]
                expected = sorted(inside, key=lambda c: (
                    -len({q for p, q in poodle_ich.pairs if p == c}), c))
                assert ancestor_report(h, space, poodle_ich) == expected


def test_prediction_inside_iff_nonpositive_u():
    assert Prediction("x", -0.2, True).inside
    rng = np.random.default_rng(12)
    for _ in range(40):
        h = rng.normal(size=2)
        candidates = [(f"c{i}", Ball(rng.normal(size=2), float(rng.uniform(0.2, 2.0))))
                      for i in range(4)]
        pred = classify(h, candidates)
        assert pred.inside == (pred.u_value <= 0.0)


# ---------------------------------------------------------------------------
# learned input compression


REDUCE_CONFIG = projector_config(learning_rate=0.05, epochs_bl=30, epochs_fsl=20,
                                 batch_size=32, seed=0, hidden_sizes=(32, 16),
                                 reduce_dim=5)


def test_reduction_fits_planted_subspace():
    rng = np.random.default_rng(7)
    span = np.linalg.qr(rng.normal(size=(10, 2)))[0]
    x = rng.normal(size=(200, 2)) * 4.0 @ span.T + rng.normal(size=(200, 10)) * 0.01
    mean, basis = _fit_reduction(x, 2)
    # basis columns must lie in the planted span up to the noise floor
    residual = basis - span @ (span.T @ basis)
    assert np.linalg.norm(residual) < 0.05
    assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-12)


def test_fit_reduction_deterministic_signs():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 6))
    mean_a, basis_a = _fit_reduction(x, 3)
    mean_b, basis_b = _fit_reduction(x.copy(), 3)
    assert np.array_equal(basis_a, basis_b) and np.array_equal(mean_a, mean_b)
    for j in range(basis_a.shape[1]):
        col = basis_a[:, j]
        assert col[np.abs(col).argmax()] > 0.0


@pytest.mark.parametrize("shape", [(30, 80), (80, 30)])
def test_fit_reduction_matches_svd(shape):
    # the Gram side switches with the shape: rows x rows, then cols x cols
    x = np.random.default_rng(5).normal(size=shape) @ np.diag(
        np.linspace(1.0, 3.0, shape[1]))
    _, basis = _fit_reduction(x, 4)
    vt = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)[2]
    for j in range(4):
        assert np.allclose(np.abs(basis[:, j] @ vt[j]), 1.0, atol=1e-10)
    assert np.allclose(basis.T @ basis, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("shape", [(240, 320), (320, 240)])
def test_fit_reduction_drops_the_centred_copy_before_eigh(shape):
    x = np.random.default_rng(2).normal(size=shape)
    centred = x.nbytes
    gram = min(shape) ** 2 * x.itemsize
    tracemalloc.start()
    try:
        _fit_reduction(x, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the centred copy and the Gram matrix, or the Gram matrix and eigh's
    # eigenvectors; all three at once would reach centred + 2 * gram
    assert peak < centred + 1.5 * gram


def test_fit_reduction_rejects_rank_deficient_wide_data():
    # with fewer rows than columns a direction at the noise floor cannot be
    # recovered from the rows x rows Gram matrix
    rng = np.random.default_rng(11)
    x = rng.normal(size=(12, 3)) @ rng.normal(size=(3, 40)) + 5.0
    with pytest.raises(ValueError, match="rank 3 < reduce_dim 5"):
        _fit_reduction(x, 5)
    _, basis = _fit_reduction(x, 3)
    assert np.allclose(basis.T @ basis, np.eye(3), atol=1e-12)


def test_fit_reduction_completes_rank_deficient_tall_data():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(40, 3)) @ rng.normal(size=(3, 12)) + 5.0
    mean, basis = _fit_reduction(x, 5)
    assert np.allclose(basis.T @ basis, np.eye(5), atol=1e-12)
    assert np.allclose((x - mean) @ basis[:, 3:], 0.0, atol=1e-10)


def test_reduced_training_matches_manual_projection(world):
    mlp, _ = train_base(world.base, world.space, world.negatives, REDUCE_CONFIG)
    assert mlp.sizes[0] == 5
    assert mlp.in_dim == world.base.dim
    plain = Mlp(mlp.sizes, mlp.weights, mlp.biases)
    x = world.base.features[:7]
    manual = (x - mlp.input_mean) @ mlp.input_basis
    assert np.array_equal(mlp_forward(x, mlp), mlp_forward(manual, plain))


def test_reduction_frozen_through_finetune(world):
    mlp, _ = train_base(world.base, world.space, world.negatives, REDUCE_CONFIG)
    tuned = finetune_fewshot(mlp, world.support, world.space, world.negatives,
                             REDUCE_CONFIG)
    assert np.array_equal(tuned.input_basis, mlp.input_basis)
    assert np.array_equal(tuned.input_mean, mlp.input_mean)
    assert tuned.in_dim == world.base.dim


def test_given_reduction_replaces_the_fit(world):
    fitted, losses = train_base(world.base, world.space, world.negatives,
                                REDUCE_CONFIG)
    _, reduction = reduce_features(world.base, REDUCE_CONFIG)
    # a given pair comes with the base split's image under it
    mean, basis = reduction
    reduced = SimpleNamespace(labels=world.base.labels,
                              features=(world.base.features - mean) @ basis)
    given, given_losses = train_base(reduced, world.space, world.negatives,
                                     REDUCE_CONFIG, reduction=reduction)
    assert given.to_dict() == fitted.to_dict() and given_losses == losses
    # a given pair is used as it is, not refitted
    other, _ = train_base(reduced, world.space, world.negatives,
                          REDUCE_CONFIG, reduction=(mean + 1.0, -basis))
    assert np.array_equal(other.input_basis, -basis)
    assert np.array_equal(other.input_mean, mean + 1.0)
    assert reduce_features(world.base, replace(REDUCE_CONFIG,
                                               reduce_dim=None))[1] is None


@pytest.mark.parametrize("case, message", [
    ("raw rows", "feature width 8 != reduced width 5"),
    ("short mean", "reduction mean of shape (7,) does not fit a basis of "
     "input width 8"),
    ("2-d mean", "reduction mean of shape (1, 8) does not fit a basis of "
     "input width 8"),
])
def test_mismatched_reduction_is_refused_before_training(world, monkeypatch,
                                                         case, message):
    _, (mean, basis) = reduce_features(world.base, REDUCE_CONFIG)
    reduced = SimpleNamespace(labels=world.base.labels,
                              features=(world.base.features - mean) @ basis)
    features, reduction = {
        "raw rows": (world.base, (mean, basis)),
        "short mean": (reduced, (mean[:-1], basis)),
        "2-d mean": (reduced, (mean[None, :], basis)),
    }[case]

    def no_training(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(geoball.projector, "_run_training", no_training)
    with pytest.raises(ValueError, match=re.escape(message)):
        train_base(features, world.space, world.negatives, REDUCE_CONFIG,
                   reduction=reduction)


def test_reduced_mlp_json_roundtrip(world):
    mlp, _ = train_base(world.base, world.space, world.negatives, REDUCE_CONFIG)
    back = Mlp.from_dict(json.loads(json.dumps(mlp.to_dict())))
    x = world.base.features[:5]
    assert np.allclose(mlp_forward(x, back), mlp_forward(x, mlp))


def test_reduce_dim_exceeding_rank_bound(world):
    cfg = projector_config(epochs_bl=1, hidden_sizes=(8,), reduce_dim=9)
    with pytest.raises(ValueError):
        train_base(world.base, world.space, world.negatives, cfg)
    with pytest.raises(ValueError):
        ProjectorConfig(reduce_dim=0)


def test_mlp_requires_paired_mean_and_basis():
    m = init_mlp((3, 4, 2), seed=0)
    with pytest.raises(ValueError):
        Mlp(m.sizes, m.weights, m.biases, input_basis=np.eye(3))
    with pytest.raises(ValueError):
        Mlp(m.sizes, m.weights, m.biases, input_mean=np.zeros(5),
            input_basis=np.eye(5)[:, :2])


@pytest.mark.parametrize("key", ["input_mean", "input_basis"])
def test_mlp_from_dict_rejects_non_finite_compression(key):
    m = init_mlp((2, 4, 2), seed=0)
    obj = json.loads(json.dumps(
        Mlp(m.sizes, m.weights, m.biases, input_mean=np.zeros(3),
            input_basis=np.eye(3)[:, :2]).to_dict()))
    assert Mlp.from_dict(obj).in_dim == 3
    values = np.array(obj[key])
    values.flat[0] = np.nan
    obj[key] = values.tolist()
    with pytest.raises(ValueError, match="non-finite"):
        Mlp.from_dict(obj)
