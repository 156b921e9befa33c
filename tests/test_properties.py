"""Property tests: every artifact format round-trips exactly, and the array
ranking loss agrees with its scalar definition."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from geoball.embedding import Ball, BallSpace
from geoball.harness import FeatureDataset, read_features_csv, write_features_csv
from geoball.negatives import NegativeSets
from geoball.projector import (Mlp, _pack_targets, _ranking_loss_grad,
                               ranking_loss)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NAMES = st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=6,
                 unique=True)


def through_json(obj):
    return json.loads(json.dumps(obj))


@st.composite
def ball_spaces(draw):
    names = draw(NAMES)
    dim = draw(st.integers(2, 5))
    centres = draw(arrays(float, (len(names), dim), elements=FINITE))
    radii = draw(arrays(float, len(names), elements=POSITIVE))
    return BallSpace(dim, tuple(names), centres, radii)


@given(ball_spaces())
def test_ball_space_roundtrip_is_exact(space):
    again = BallSpace.from_dict(through_json(space.to_dict()))
    assert again.dim == space.dim
    assert again.concepts == space.concepts
    assert np.array_equal(again.centres, space.centres)
    assert np.array_equal(again.radii, space.radii)


@st.composite
def mlps(draw):
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    weights = tuple(draw(arrays(float, (o, i), elements=FINITE))
                    for i, o in zip(sizes, sizes[1:]))
    biases = tuple(draw(arrays(float, o, elements=FINITE)) for o in sizes[1:])
    labels = frozenset(draw(st.lists(st.text(max_size=6), max_size=4)))
    mean = basis = None
    if draw(st.booleans()):
        raw = draw(st.integers(1, 5))
        mean = draw(arrays(float, raw, elements=FINITE))
        basis = draw(arrays(float, (raw, sizes[0]), elements=FINITE))
    return Mlp(sizes, weights, biases, labels, mean, basis)


@given(mlps())
def test_mlp_roundtrip_is_exact(mlp):
    again = Mlp.from_dict(through_json(mlp.to_dict()))
    assert again.sizes == mlp.sizes
    assert again.trained_labels == mlp.trained_labels
    for ours, theirs in ((again.weights, mlp.weights),
                         (again.biases, mlp.biases)):
        assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))
    for ours, theirs in ((again.input_mean, mlp.input_mean),
                         (again.input_basis, mlp.input_basis)):
        assert (ours is None and theirs is None) or np.array_equal(ours, theirs)


@st.composite
def negative_documents(draw):
    names = draw(NAMES)
    return {name: draw(st.lists(st.sampled_from(names), unique=True))
            for name in names}


@given(negative_documents())
def test_negative_sets_roundtrip_is_exact(doc):
    sets = NegativeSets.from_dict(doc)
    assert sets.to_dict() == {name: doc[name] for name in sorted(doc)}
    assert NegativeSets.from_dict(through_json(sets.to_dict())) == sets


@st.composite
def feature_datasets(draw):
    labels = draw(st.lists(st.text(max_size=8), min_size=1, max_size=6))
    dim = draw(st.integers(1, 4))
    features = draw(arrays(float, (len(labels), dim), elements=FINITE))
    return FeatureDataset(dim, tuple(labels), features)


@settings(max_examples=50)
@given(feature_datasets())
def test_feature_csv_roundtrip_is_exact(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("csv") / "features.csv"
    write_features_csv(dataset, path)
    back = read_features_csv(path)
    assert back.dim == dataset.dim
    assert back.labels == dataset.labels
    assert np.array_equal(back.features, dataset.features)


COORDS = st.floats(-10.0, 10.0)


@st.composite
def loss_batches(draw):
    """Labels c0..c{k-1} with k <= 5, where label ci has i negative balls;
    some points sit exactly on their positive or on a negative centre."""
    dim = draw(st.integers(1, 4))

    def ball():
        return Ball(draw(arrays(float, dim, elements=COORDS)),
                    draw(st.floats(0.1, 5.0)))

    names = [f"c{i}" for i in range(draw(st.integers(1, 5)))]
    balls = {name: ball() for name in names}
    negative_balls = {name: [ball() for _ in range(i)]
                      for i, name in enumerate(names)}
    labels = draw(st.lists(st.sampled_from(names), min_size=1, max_size=10))
    points = []
    for label in labels:
        on = draw(st.sampled_from(["free", "positive", "negative"]))
        if on == "positive":
            points.append(balls[label].centre)
        elif on == "negative" and negative_balls[label]:
            points.append(draw(st.sampled_from(negative_balls[label])).centre)
        else:
            points.append(draw(arrays(float, dim, elements=COORDS)))
    mu, nu = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    return np.array(points), labels, balls, negative_balls, mu, nu


def kink_distance(h, positive, negatives, mu, nu):
    """Distance of h to the nearest point where a loss term is not smooth."""
    d = float(np.linalg.norm(h - positive.centre))
    gaps = [d, abs(d - mu * positive.radius)]
    for ball in negatives:
        d_q = float(np.linalg.norm(h - ball.centre))
        gaps += [d_q, abs(nu * ball.radius - d_q)]
    return min(gaps)


@given(loss_batches())
def test_array_ranking_loss_matches_scalar_definition(batch):
    h, labels, balls, negative_balls, mu, nu = batch
    rows, targets = _pack_targets(labels, balls, negative_balls)
    loss, grad = _ranking_loss_grad(h, rows, targets, mu, nu)
    assert loss.shape == (len(h),) and grad.shape == h.shape
    assert np.isfinite(grad).all()
    step = 1e-6
    for i, label in enumerate(labels):
        positive, negatives = balls[label], negative_balls[label]
        expected = ranking_loss(h[i], positive, negatives, mu, nu)
        assert loss[i] == pytest.approx(expected, rel=1e-12, abs=1e-12)
        if kink_distance(h[i], positive, negatives, mu, nu) < 1e-3:
            continue
        for k in range(h.shape[1]):
            up, down = h[i].copy(), h[i].copy()
            up[k] += step
            down[k] -= step
            fd = (ranking_loss(up, positive, negatives, mu, nu)
                  - ranking_loss(down, positive, negatives, mu, nu)) / (2 * step)
            assert grad[i, k] == pytest.approx(fd, abs=1e-6)
