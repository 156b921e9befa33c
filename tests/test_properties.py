"""Property tests: every artifact format round-trips exactly, the JSON
writer writes the text of ``json.dumps``, the array ranking loss and the
packed ball hinges agree with their scalar definitions, classification does
not depend on candidate order beyond its documented tie rule and batches
follow the per-point rule, the centre-distance matrix is the per-pair norm
at every row block, and every entry point names the same cycle witness."""

import io
import json
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import geoball.embedding
from geoball.embedding import (Ball, BallSpace, EmbedConfig,
                               disjointness_hinge, distances,
                               subsumption_hinge, total_loss)
from geoball.evaluation import containment_holds, s_d
from geoball.harness import (FeatureDataset, FeatureNpz, read_features_csv,
                             read_features_npz, synthetic_ontology,
                             write_features_csv, write_features_npz)
from geoball.negatives import NegativeSets
from geoball.ontology import (Ich, Ontology, OntologyError, compute_ich,
                              compute_stats, validate)
from geoball.pipeline import _write_json
from geoball.projector import (Mlp, _ranking_loss_grad, classify,
                               classify_batch, ranking_loss)
from test_projector import resolve_hand_made

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


# small enough that no squared difference or sum of them overflows
COORDS = st.floats(min_value=-1e150, max_value=1e150)


@st.composite
def distance_cases(draw):
    # wide enough for the vectorised and unrolled sums to take other orders
    dim = draw(st.integers(1, 40))
    points = draw(arrays(float, (draw(st.integers(0, 7)), dim),
                         elements=COORDS))
    centres = draw(arrays(float, (draw(st.integers(0, 5)), dim),
                          elements=COORDS))
    return points, centres


@given(distance_cases())
@example((np.zeros((0, 3)), np.ones((2, 3))))
def test_distances_are_the_per_pair_norm_at_every_row_block(case):
    points, centres = case
    want = np.array([[np.linalg.norm(p - c) for c in centres]
                     for p in points]).reshape(len(points), len(centres))
    # one row, three rows, and the whole matrix at a time
    for block in (1, 3 * centres.size, max(1, len(points)) * centres.size):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geoball.embedding, "_DISTANCE_BLOCK", block)
            got = distances(points, centres)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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
    """Documents in which no class is among its own negatives."""
    names = draw(NAMES)
    return {name: [q for q in draw(st.lists(st.sampled_from(names),
                                            unique=True)) if q != name]
            for name in names}


@given(negative_documents())
def test_negative_sets_roundtrip_is_exact(doc):
    sets = NegativeSets.from_dict(doc)
    assert sets.to_dict() == {name: doc[name] for name in sorted(doc)}
    assert NegativeSets.from_dict(through_json(sets.to_dict())) == sets


JSON_DOCUMENTS = st.dictionaries(st.text(), st.recursive(
    st.none() | st.booleans() | st.integers() | FINITE | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=20))


@given(JSON_DOCUMENTS)
@example({"zero": -0.0, "tiny": 5e-324, "é→": ["ü", {}, [], None, True]})
def test_written_json_is_the_dumped_text(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "doc.json"
    _write_json(path, doc)
    expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode()


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


def savez_bytes(dataset):
    """The archive the streaming writer must reproduce: the two-line
    ``np.savez`` writer it replaced."""
    buffer = io.BytesIO()
    np.savez(buffer, labels=np.array(dataset.labels, dtype=str),
             features=np.asarray(dataset.features, dtype=np.float64))
    return buffer.getvalue()


@settings(max_examples=50)
@given(npz_datasets())
@example(FeatureDataset(2, (), np.zeros((0, 2))))
@example(FeatureDataset(2, ("a", "b", "c"),
                        np.asfortranarray(np.arange(6.0).reshape(3, 2))))
def test_feature_npz_roundtrip_is_exact(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("npz") / "features.npz"
    write_features_npz(dataset, path)
    assert path.read_bytes() == savez_bytes(dataset)
    back = read_features_npz(path)
    assert back.labels == dataset.labels
    assert back.features.shape == dataset.features.shape
    assert back.features.tobytes() == dataset.features.tobytes()


@st.composite
def npz_row_reads(draw):
    """A dataset, the form its matrix is stored in, and row indices into it:
    unsorted, repeated or none."""
    dataset = draw(npz_datasets())
    form = draw(st.sampled_from(["c", "fortran", "compressed"]))
    rows = draw(st.lists(st.integers(0, len(dataset.labels) - 1), max_size=8)
                if dataset.labels else st.just([]))
    return dataset, form, rows


@settings(max_examples=50)
@given(npz_row_reads())
@example((FeatureDataset(2, (), np.zeros((0, 2))), "c", []))
@example((FeatureDataset(2, ("a", "b", "c"), np.arange(6.0).reshape(3, 2)),
          "fortran", [2, 0, 2]))
def test_npz_rows_read_on_demand_match_the_whole_read(tmp_path_factory,
                                                      case):
    dataset, form, rows = case
    path = tmp_path_factory.mktemp("npz") / "features.npz"
    if form == "compressed":
        np.savez_compressed(path, labels=np.array(dataset.labels, dtype=str),
                            features=dataset.features)
    else:
        write_features_npz(FeatureDataset(
            dataset.dim, dataset.labels,
            np.asfortranarray(dataset.features) if form == "fortran"
            else dataset.features), path)
    whole = read_features_npz(path)
    with FeatureNpz(path) as npz:
        assert (npz.dim, npz.labels) == (whole.dim, whole.labels)
        part = npz.subset(np.array(rows, dtype=int))
    assert part.labels == whole.subset(rows).labels
    assert part.features.flags.c_contiguous
    assert part.features.tobytes() == whole.features[rows].tobytes()


def test_feature_npz_of_a_csv_read_matches_savez(tmp_path):
    # the CSV reader writes its rows into one C-contiguous matrix; the same
    # values as a strided field of a row table (neither C- nor
    # Fortran-contiguous) must give the same archive
    csv_path = tmp_path / "features.csv"
    write_features_csv(FeatureDataset(
        3, ("a", "b,c"), np.arange(6.0).reshape(2, 3) - 2.5), csv_path)
    read = read_features_csv(csv_path)
    assert read.features.flags.c_contiguous
    table = np.zeros(2, dtype=[("label", object), ("f", float, (3,))])
    table["f"] = read.features
    dataset = FeatureDataset(3, read.labels, table["f"])
    flags = dataset.features.flags
    assert not flags.c_contiguous and not flags.f_contiguous
    path = tmp_path / "features.npz"
    write_features_npz(dataset, path)
    assert path.read_bytes() == savez_bytes(dataset)
    assert read_features_npz(path).features.tobytes() == (
        np.ascontiguousarray(dataset.features).tobytes())


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


# the strategy's shape on three concepts: ci has i negative balls
LOSS_BALLS = {"c0": Ball(np.array([-4.0, 0.5]), 0.7),
              "c1": Ball(np.array([2.5, -3.0]), 1.1),
              "c2": Ball(np.array([5.3, 0.2]), 1.3)}
LOSS_NEGATIVES = {"c0": [], "c1": [Ball(np.array([-0.4, 2.2]), 0.9)],
                  "c2": [Ball(np.array([1.1, 0.3]), 2.3),
                         Ball(np.array([0.2, 1.7]), 3.1)]}


@given(loss_batches())
# kink-free, outside its own ball and inside both negatives: three hinges
# summed in one row
@example((np.array([[0.3, 0.1]]), ["c2"], LOSS_BALLS, LOSS_NEGATIVES,
          1.2, 0.9))
# pools of width 0 and 2 in one batch, so padding sits beside live slots;
# the last point is on its own centre
@example((np.array([[-1.0, 0.5], [2.0, 1.0], [-4.0, 0.5]]),
          ["c0", "c2", "c0"], LOSS_BALLS, LOSS_NEGATIVES, 1.0, 1.0))
def test_array_ranking_loss_matches_scalar_definition(batch):
    h, labels, balls, negative_balls, mu, nu = batch
    rows, targets = resolve_hand_made(labels, balls, negative_balls, mu, nu)
    loss, grad = _ranking_loss_grad(h, rows, targets)
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
    for entry in (lambda: compute_ich(onto),
                  lambda: compute_stats(onto, Ich(frozenset()))):
        with pytest.raises(OntologyError) as err:
            entry()
        assert str(err.value) == message


@st.composite
def hinge_cases(draw):
    """A balanced ontology with sibling disjointness, a random space over it
    (some centres coincide) and random margins."""
    onto = synthetic_ontology(draw(st.lists(st.integers(1, 3), min_size=1,
                                            max_size=3)))
    dim = draw(st.integers(2, 4))
    pool = draw(st.lists(arrays(float, dim, elements=COORDS), min_size=1,
                         max_size=len(onto.concepts)))
    centres = np.array([draw(st.sampled_from(pool)) for _ in onto.concepts])
    radii = draw(arrays(float, len(onto.concepts),
                        elements=st.floats(0.05, 5.0)))
    config = EmbedConfig(dim=dim, gamma=draw(st.floats(-1.0, 1.0)),
                         disjoint_gamma=draw(st.floats(-1.0, 1.0)),
                         psi=0.1, phi=1.0, epochs=500, radius_clamp_min=1e-4,
                         lr_decay=1e-3, init_radius_slack=0.0)
    return onto, BallSpace(dim, onto.concepts, centres, radii), config


@given(hinge_cases())
def test_packed_hinges_match_scalar_definitions(case):
    onto, space, config = case
    ich = compute_ich(onto)
    breakdown = total_loss(space, ich, onto.disjointness,
                           compute_stats(onto, ich), config)

    def c(name):
        return space.ball(name).centre

    def r(name):
        return space.ball(name).radius

    subsumption = sum(subsumption_hinge(c(p), c(q), r(p), r(q), config.gamma)
                      for p, q in sorted(ich.pairs))
    disjointness = sum(disjointness_hinge(c(a), c(b), r(a), r(b),
                                          config.gamma_disjoint)
                       for a, b in onto.disjointness)
    assert breakdown.subsumption == pytest.approx(subsumption, rel=1e-12,
                                                  abs=1e-12)
    assert breakdown.disjointness == pytest.approx(disjointness, rel=1e-12,
                                                   abs=1e-12)


def ulps(x: float, n: int) -> float:
    """``x`` moved by ``n`` units in the last place."""
    for _ in range(abs(n)):
        x = float(np.nextafter(x, np.inf if n > 0 else -np.inf))
    return x


@st.composite
def hinge_boundaries(draw):
    """Two balls placed so that a hinge's argument lies within a few ulp of
    zero, and a margin of at least 2 ulp of max(dist, r_p, r_q).

    At a margin of exactly 0 the implication below is false: the hinge and
    the predicate sum in different orders, so the last ulp can disagree.
    The margin absorbs that rounding; the predicates stay exact.
    """
    dim = draw(st.integers(1, 3))
    c_p = draw(arrays(float, dim, elements=COORDS))
    c_q = draw(arrays(float, dim, elements=COORDS))
    dist = float(np.linalg.norm(c_p - c_q))
    # r_p is 10 * frac or dist * frac, and r_q stays below half of top, so
    # spacing(top) is at least the spacing of max(dist, r_p, r_q)
    frac = draw(st.floats(0.0, 1.0))
    top = 4.0 * max(dist, 10.0 * frac)
    margin = draw(st.floats(2.0, 16.0)) * float(np.spacing(top))
    return c_p, c_q, dist, frac, margin, draw(st.integers(-4, 4))


@given(hinge_boundaries())
def test_zero_subsumption_hinge_implies_containment(case):
    c_p, c_q, dist, frac, margin, nudge = case
    r_p = 10.0 * frac
    r_q = ulps(dist + r_p + margin, nudge)
    assert margin >= 2 * np.spacing(max(dist, r_p, r_q))
    if subsumption_hinge(c_p, c_q, r_p, r_q, -margin) == 0.0:
        assert containment_holds(Ball(c_p, r_p), Ball(c_q, r_q))


@given(hinge_boundaries())
def test_zero_disjointness_hinge_implies_separation(case):
    c_p, c_q, dist, frac, margin, nudge = case
    r_p = dist * frac
    r_q = ulps(dist - r_p - margin, nudge)
    assume(r_p > 0.0 and r_q > 0.0)
    assert margin >= 2 * np.spacing(max(dist, r_p, r_q))
    if disjointness_hinge(c_p, c_q, r_p, r_q, margin) == 0.0:
        space = BallSpace(len(c_p), ("p", "q"), np.array([c_p, c_q]),
                          np.array([r_p, r_q]))
        assert s_d(space, ("p", "q")) == 1


@st.composite
def classify_batches(draw):
    """Candidates from a small pool of balls (so U and distance ties occur)
    and a batch of points, some on a candidate centre."""
    dim = draw(st.integers(1, 4))
    pool = draw(st.lists(st.builds(Ball, arrays(float, dim, elements=COORDS),
                                   st.floats(0.1, 5.0)),
                         min_size=1, max_size=4))
    balls = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    points = draw(st.lists(
        st.one_of(arrays(float, dim, elements=COORDS),
                  st.sampled_from([ball.centre for ball in pool])),
        min_size=1, max_size=8))
    return np.array(points), [(f"c{i}", ball) for i, ball in enumerate(balls)]


@given(classify_batches())
def test_classify_batch_matches_the_per_point_rule(case):
    points, candidates = case
    picks, u, inside = classify_batch(points, candidates)
    for i, h in enumerate(points):
        # the per-point rule, one candidate at a time
        distances = np.array([float(np.linalg.norm(h - ball.centre))
                              for _, ball in candidates])
        u_row = distances - np.array([ball.radius for _, ball in candidates])
        best_u = int(u_row.argmin())
        expected = best_u if u_row[best_u] <= 0.0 else int(distances.argmin())
        assert u[i].tobytes() == u_row.tobytes()
        assert (picks[i], inside[i]) == (expected, u_row[best_u] <= 0.0)
        assert classify(h, candidates) == (candidates[expected][0],
                                           u_row[expected], bool(inside[i]))
