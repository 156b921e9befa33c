"""Property tests: every artifact format round-trips exactly, the array
ranking loss agrees with its scalar definition, classification does not
depend on candidate order beyond its documented tie rule, and every entry
point names the same cycle witness."""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from geoball.embedding import Ball, BallSpace
from geoball.harness import (FeatureDataset, read_features_csv,
                             read_features_npz, write_features_csv,
                             write_features_npz)
from geoball.negatives import NegativeSets
from geoball.ontology import (Ich, Ontology, OntologyError, compute_ich,
                              compute_stats, ingest_hypernym_edges, validate)
from geoball.projector import (Mlp, _pack_targets, _ranking_loss_grad,
                               classify, ranking_loss)

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


# labels a CSV must quote or a reader could take for a comment; a str_ array
# drops trailing NULs, which the writer refuses
NPZ_LABELS = st.one_of(st.sampled_from(["", "a,b", '"q"', "#x", "é ü", "犬"]),
                       st.text(max_size=8)).filter(lambda t: not t.endswith("\0"))
EDGE_VALUES = st.sampled_from([-0.0, 5e-324, -2.2e-308, sys.float_info.max,
                               -sys.float_info.max])


@st.composite
def npz_datasets(draw):
    labels = draw(st.lists(NPZ_LABELS, max_size=6))
    dim = draw(st.integers(1, 4))
    features = draw(arrays(float, (len(labels), dim),
                           elements=st.one_of(EDGE_VALUES, FINITE)))
    return FeatureDataset(dim, tuple(labels), features)


@settings(max_examples=50)
@given(npz_datasets())
def test_feature_npz_roundtrip_is_exact(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("npz") / "features.npz"
    write_features_npz(dataset, path)
    back = read_features_npz(path)
    assert back.labels == dataset.labels
    assert back.features.shape == dataset.features.shape
    assert back.features.tobytes() == dataset.features.tobytes()


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


@st.composite
def classify_cases(draw):
    """Candidates drawn from a small pool of balls, so that exact ties in U
    or in centre distance occur; h sometimes sits on a centre."""
    dim = draw(st.integers(1, 3))
    pool = draw(st.lists(st.builds(Ball, arrays(float, dim, elements=COORDS),
                                   st.floats(0.1, 5.0)),
                         min_size=1, max_size=4))
    balls = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    candidates = [(f"c{i}", ball) for i, ball in enumerate(balls)]
    h = draw(st.one_of(arrays(float, dim, elements=COORDS),
                       st.sampled_from([ball.centre for ball in pool])))
    order = draw(st.permutations(range(len(candidates))))
    return h, candidates, [candidates[i] for i in order]


@given(classify_cases())
def test_classify_ignores_candidate_order(case):
    h, candidates, shuffled = case
    ours, theirs = classify(h, candidates), classify(h, shuffled)
    assert theirs.inside == ours.inside

    def rank(ball):
        d = float(np.linalg.norm(h - ball.centre))
        return d - ball.radius if ours.inside else d

    best = min(rank(ball) for _, ball in candidates)
    tied = [name for name, ball in candidates if rank(ball) == best]
    if len(tied) == 1:
        assert theirs == ours
    else:
        # the documented tie rule: the earliest tied candidate in each order
        assert ours.label == tied[0]
        assert theirs.label == next(name for name, ball in shuffled
                                    if rank(ball) == best)


@st.composite
def cyclic_hierarchies(draw):
    """A random DAG whose edges point from a higher to a lower index, plus
    one back edge from an ancestor of some concept down to that concept."""
    n = draw(st.integers(2, 12))
    names = [f"c{i:02d}" for i in range(n)]
    pairs = st.tuples(st.integers(1, n - 1), st.integers(0, n - 2)).filter(
        lambda e: e[0] > e[1])
    edges = [(names[a], names[b])
             for a, b in draw(st.lists(pairs, min_size=1, max_size=30,
                                       unique=True))]
    parents = {}
    for child, parent in edges:
        parents.setdefault(child, []).append(parent)
    start = draw(st.sampled_from(sorted(parents)))
    ancestors, stack = set(), [start]
    while stack:
        for parent in parents.get(stack.pop(), ()):
            if parent not in ancestors:
                ancestors.add(parent)
                stack.append(parent)
    back = (draw(st.sampled_from(sorted(ancestors))), start)
    cut = draw(st.integers(0, len(edges)))
    return names, edges[:cut] + [back] + edges[cut:]


@given(cyclic_hierarchies())
def test_cycle_witness_is_one_closed_walk_everywhere(case):
    names, edges = case
    onto = Ontology(tuple(names), tuple(edges), (), ())
    diags = validate(onto)
    assert [d.kind for d in diags] == ["cycle"]
    message = diags[0].message
    witness = message.removeprefix("subsumption cycle: ").split(" -> ")
    assert witness[0] == witness[-1]
    assert len(set(witness)) == len(witness) - 1
    assert set(zip(witness, witness[1:])) <= set(edges)
    assert diags[0].concepts == tuple(witness[:-1])
    text = "".join(f"{child}\t{parent}\n" for child, parent in edges)
    for entry in (lambda: compute_ich(onto),
                  lambda: compute_stats(onto, Ich(frozenset())),
                  lambda: ingest_hypernym_edges(text, [edges[0][0]])):
        with pytest.raises(OntologyError) as err:
            entry()
        assert str(err.value) == message
