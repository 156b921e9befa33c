"""Tests for the projector MLP, ranking loss, and geometric classifier."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import geoball.projector
from geoball.embedding import Ball, BallSpace
from geoball.negatives import NegativeSets, build_negative_sets
from geoball.ontology import compute_ich, ontology_from_dict
from geoball.projector import (
    PRESET_HIDDEN,
    Mlp,
    Prediction,
    ProjectorConfig,
    ancestor_report,
    classify,
    finetune_fewshot,
    init_mlp,
    mlp_forward,
    ranking_loss,
    train_base,
)
from geoball.projector import (_batch_loss_grads, _fit_reduction,
                               _forward_pass, _mean_loss)


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


BASE_CONFIG = ProjectorConfig(learning_rate=0.05, epochs_bl=200, epochs_fsl=100,
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


def test_preset_hidden_sizes():
    assert PRESET_HIDDEN["desk"] == (128, 64)
    assert PRESET_HIDDEN["paper"] == (1024, 512, 512)


def test_projector_config_validation():
    with pytest.raises(ValueError):
        ProjectorConfig(mu=0.0)
    with pytest.raises(ValueError):
        ProjectorConfig(nu=-1.0)
    with pytest.raises(ValueError):
        ProjectorConfig(epochs_bl=-1)
    with pytest.raises(ValueError):
        ProjectorConfig(optimizer="sgdm")


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
    weights, biases = mlp.parameter_copies()
    x = rng.normal(size=(4, 5))
    labels = ["p", "p", "q", "q"]
    balls = {"p": Ball(rng.normal(size=3), float(rng.uniform(0.3, 1.0))),
             "q": Ball(rng.normal(size=3), float(rng.uniform(0.3, 1.0)))}
    negative_balls = {"p": [balls["q"]], "q": [balls["p"]]}
    return x, labels, weights, biases, balls, negative_balls


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
        x, labels, weights, biases, balls, negative_balls = case
        _, grads_w, grads_b = _batch_loss_grads(
            x, labels, weights, biases, balls, negative_balls, 1.0, 1.0)

        h_step = 1e-5
        for target, grad in zip(list(weights) + list(biases),
                                list(grads_w) + list(grads_b)):
            flat = target.ravel()
            for idx in range(0, flat.size, max(1, flat.size // 7)):
                orig = flat[idx]
                flat[idx] = orig + h_step
                up = _mean_loss(x, labels, weights, biases, balls,
                                negative_balls, 1.0, 1.0)
                flat[idx] = orig - h_step
                down = _mean_loss(x, labels, weights, biases, balls,
                                  negative_balls, 1.0, 1.0)
                flat[idx] = orig
                fd = (up - down) / (2 * h_step)
                analytic = grad.ravel()[idx]
                scale = max(1.0, abs(analytic), abs(fd))
                assert abs(analytic - fd) <= 1e-4 * scale
        checked += 1


# ---------------------------------------------------------------------------
# base learning


def test_train_base_converges_on_separable_set(world):
    mlp, history = train_base(world.base, world.space, world.negatives, BASE_CONFIG)
    assert history[-1] < 1e-2
    assert history[-1] < history[0]
    assert mlp.trained_labels == frozenset(world.base.labels)
    h = mlp_forward(world.base.features, mlp)
    inside = [
        float(np.linalg.norm(h[i] - world.space.centre_of(label)))
        <= world.space.radius_of(label)
        for i, label in enumerate(world.base.labels)
    ]
    assert all(inside)


def test_train_base_zero_epochs_returns_init(world):
    config = ProjectorConfig(epochs_bl=0, seed=5, hidden_sizes=(32, 16))
    mlp, history = train_base(world.base, world.space, world.negatives, config)
    fresh = init_mlp((world.base.dim, 32, 16, world.space.dim), seed=5)
    assert history == []
    assert all(np.array_equal(a, b) for a, b in zip(mlp.weights, fresh.weights))
    assert all(np.array_equal(a, b) for a, b in zip(mlp.biases, fresh.biases))


def test_train_base_deterministic(world):
    config = ProjectorConfig(learning_rate=0.05, epochs_bl=40, batch_size=16,
                             seed=9, hidden_sizes=(16,))
    a, ha = train_base(world.base, world.space, world.negatives, config)
    b, hb = train_base(world.base, world.space, world.negatives, config)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
    assert ha == hb


def test_train_base_adam_converges(world):
    config = ProjectorConfig(learning_rate=0.01, epochs_bl=150, batch_size=32,
                             seed=0, hidden_sizes=(32, 16), optimizer="adam")
    _, history = train_base(world.base, world.space, world.negatives, config)
    assert history[-1] < 1e-2


def test_train_base_label_without_ball(world):
    bad = SimpleNamespace(labels=("ghost",) * 4,
                          features=np.zeros((4, 8)), dim=8)
    with pytest.raises(KeyError, match="ghost"):
        train_base(bad, world.space, world.negatives, BASE_CONFIG)


# ---------------------------------------------------------------------------
# few-shot fine-tuning


def test_finetune_puts_support_inside_balls(world):
    mlp, _ = train_base(world.base, world.space, world.negatives, BASE_CONFIG)
    tuned = finetune_fewshot(mlp, world.support, world.space, world.negatives,
                             BASE_CONFIG)
    h = mlp_forward(world.support.features, tuned)
    for i, label in enumerate(world.support.labels):
        d = float(np.linalg.norm(h[i] - world.space.centre_of(label)))
        assert d <= world.space.radius_of(label)
    assert tuned.trained_labels == (frozenset(world.base.labels)
                                    | frozenset(world.support.labels))


def test_finetune_zero_epochs_keeps_parameters(world):
    mlp, _ = train_base(world.base, world.space, world.negatives, BASE_CONFIG)
    config = ProjectorConfig(epochs_fsl=0, seed=0, hidden_sizes=(32, 16))
    tuned = finetune_fewshot(mlp, world.support, world.space, world.negatives,
                             config)
    assert all(np.array_equal(a, b) for a, b in zip(tuned.weights, mlp.weights))
    assert all(np.array_equal(a, b) for a, b in zip(tuned.biases, mlp.biases))


def test_finetune_with_every_pool_empty_trains_positive_term(world):
    # every support label's negatives are base classes, so restricting them
    # to the support set leaves each pool empty
    mlp, _ = train_base(world.base, world.space, world.negatives, BASE_CONFIG)
    base_names = tuple(sorted(set(world.base.labels)))
    negatives = NegativeSets(
        clusters=(), negatives={name: base_names for name in world.names[6:]})
    first = finetune_fewshot(mlp, world.support, world.space, negatives,
                             BASE_CONFIG)
    second = finetune_fewshot(mlp, world.support, world.space, negatives,
                              BASE_CONFIG)
    assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())
    no_pools = finetune_fewshot(mlp, world.support, world.space,
                                NegativeSets(clusters=(), negatives={}),
                                BASE_CONFIG)
    assert json.dumps(no_pools.to_dict()) == json.dumps(first.to_dict())
    assert not all(np.array_equal(a, b)
                   for a, b in zip(first.weights, mlp.weights))
    h = mlp_forward(world.support.features, first)
    for i, label in enumerate(world.support.labels):
        d = float(np.linalg.norm(h[i] - world.space.centre_of(label)))
        assert d <= world.space.radius_of(label)


def test_only_base_learning_computes_a_loss_history(world, monkeypatch):
    calls = []
    real = geoball.projector._epoch_loss

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(geoball.projector, "_epoch_loss", counting)
    mlp, history = train_base(world.base, world.space, world.negatives,
                              BASE_CONFIG)
    assert len(calls) == len(history) == BASE_CONFIG.epochs_bl
    calls.clear()
    finetune_fewshot(mlp, world.support, world.space, world.negatives,
                     BASE_CONFIG)
    assert calls == []


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
    report = ancestor_report(space.centre_of("poodle"), space, poodle_ich)
    assert report == ["poodle", "dog", "animal", "entity"]


def test_ancestor_report_far_point(poodle_ich):
    space = nested_poodle_space()
    assert ancestor_report(np.array([100.0, 100.0]), space, poodle_ich) == []


def test_ancestor_report_misprojected_point(poodle_ich):
    space = nested_poodle_space()
    report = ancestor_report(np.array([3.2, 0.0]), space, poodle_ich)
    assert report == ["dog", "animal", "entity"]


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


REDUCE_CONFIG = ProjectorConfig(learning_rate=0.05, epochs_bl=30, epochs_fsl=20,
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


def test_reduced_mlp_json_roundtrip(world):
    mlp, _ = train_base(world.base, world.space, world.negatives, REDUCE_CONFIG)
    back = Mlp.from_dict(json.loads(json.dumps(mlp.to_dict())))
    x = world.base.features[:5]
    assert np.allclose(mlp_forward(x, back), mlp_forward(x, mlp))


def test_reduce_dim_exceeding_rank_bound(world):
    cfg = ProjectorConfig(epochs_bl=1, hidden_sizes=(8,), reduce_dim=9)
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
