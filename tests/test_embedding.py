"""Tests for ball-space losses, gradients, and training."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from geoball.embedding import (
    BallSpace,
    EmbedConfig,
    center_norm_penalty,
    disjointness_hinge,
    init_space,
    loss_gradients,
    radius_floor_penalty,
    subsumption_hinge,
    total_loss,
    train_embeddings,
)
from geoball.harness import synthetic_ontology
from geoball.ontology import compute_ich, compute_stats, ontology_from_dict

# EmbedConfig values these tests were written against; a test that leaves
# one of these fields out runs with the value given here
PINNED_EMBED = dict(dim=300, psi=0.1, phi=1.0, epochs=500,
                    radius_clamp_min=1e-4, lr_decay=1e-3, disjoint_gamma=None,
                    init_radius_slack=0.0)


def embed_config(**fields) -> EmbedConfig:
    return EmbedConfig(**{**PINNED_EMBED, **fields})


# ---------------------------------------------------------------------------
# test-local oracles: plain-python transcriptions, no shared code with the
# vectorized implementation


def norm(v):
    return math.sqrt(sum(x * x for x in v))


def dist(u, v):
    return norm([a - b for a, b in zip(u, v)])


def oracle_subsumption(c_p, c_q, r_p, r_q, gamma):
    return max(0.0, dist(c_p, c_q) + r_p - r_q - gamma)


def oracle_disjointness(c_p, c_q, r_p, r_q, gamma):
    return max(0.0, -dist(c_p, c_q) + r_p + r_q + gamma)


def oracle_floor(r, n_h, level, psi):
    return max(0.0, psi * math.sqrt(n_h - level) - r)


def oracle_norm_term(c, n_occ, phi):
    return n_occ * abs(norm(c) - phi)


def oracle_total(space, ich, disjoint, stats, config):
    out = 0.0
    for p, q in sorted(ich.pairs):
        out += oracle_subsumption(space.ball(p).centre, space.ball(q).centre,
                                  space.ball(p).radius, space.ball(q).radius, config.gamma)
    for a, b in disjoint:
        out += oracle_disjointness(space.ball(a).centre, space.ball(b).centre,
                                   space.ball(a).radius, space.ball(b).radius,
                                   config.gamma_disjoint)
    for c in space.concepts:
        out += oracle_floor(space.ball(c).radius, stats.total_levels,
                            stats.level[c], config.psi)
        out += oracle_norm_term(space.ball(c).centre, stats.occurrences[c], config.phi)
    return out


def eq1_direct(c_p, c_q, r_p, r_q, gamma):
    """Containment loss with both centre-norm terms folded in, phi = 1."""
    return (max(0.0, dist(c_p, c_q) + r_p - r_q - gamma)
            + abs(norm(c_p) - 1.0) + abs(norm(c_q) - 1.0))


def random_space(rng, concepts, dim):
    centres = rng.normal(size=(len(concepts), dim))
    radii = rng.uniform(0.05, 1.5, size=len(concepts))
    return BallSpace(dim, tuple(concepts), centres, radii)


def kink_distance(space, ich, disjoint, stats, config):
    """Smallest margin of any loss term to its nearest non-smooth point."""
    margins = []
    for p, q in sorted(ich.pairs):
        d = dist(space.ball(p).centre, space.ball(q).centre)
        margins.append(abs(d + space.ball(p).radius - space.ball(q).radius - config.gamma))
        margins.append(d)
    for a, b in disjoint:
        d = dist(space.ball(a).centre, space.ball(b).centre)
        margins.append(abs(-d + space.ball(a).radius + space.ball(b).radius
                           + config.gamma_disjoint))
        margins.append(d)
    for c in space.concepts:
        floor = config.psi * math.sqrt(stats.total_levels - stats.level[c])
        margins.append(abs(floor - space.ball(c).radius))
        margins.append(abs(norm(space.ball(c).centre) - config.phi))
        margins.append(norm(space.ball(c).centre))
    return min(margins)


def finite_difference(space, ich, disjoint, stats, config, h=1e-5):
    """Central differences of total_loss over every centre and radius entry."""
    base_c = np.array(space.centres)
    base_r = np.array(space.radii)

    def loss_at(c, r):
        s = BallSpace(space.dim, space.concepts, c.copy(), r.copy())
        return total_loss(s, ich, disjoint, stats, config).total

    fd_c = np.zeros_like(base_c)
    for i in range(base_c.shape[0]):
        for j in range(base_c.shape[1]):
            up, dn = base_c.copy(), base_c.copy()
            up[i, j] += h
            dn[i, j] -= h
            fd_c[i, j] = (loss_at(up, base_r) - loss_at(dn, base_r)) / (2 * h)
    fd_r = np.zeros_like(base_r)
    for i in range(len(base_r)):
        up, dn = base_r.copy(), base_r.copy()
        up[i] += h
        dn[i] -= h
        fd_r[i] = (loss_at(base_c, up) - loss_at(base_c, dn)) / (2 * h)
    return fd_c, fd_r


def assert_close_rel(analytic, numeric, rtol=1e-4):
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    assert np.all(np.abs(analytic - numeric) <= rtol * scale), (
        np.abs(analytic - numeric).max())


POODLE = {
    "concepts": ["entity", "animal", "dog", "poodle", "retriever", "street_sign"],
    "subclass": [["animal", "entity"], ["dog", "animal"], ["poodle", "dog"],
                 ["retriever", "dog"], ["street_sign", "entity"]],
    "disjoint": [["poodle", "retriever"]],
    "leaves": ["poodle", "retriever", "street_sign"],
}


@pytest.fixture(scope="module")
def poodle():
    onto = ontology_from_dict(POODLE)
    ich = compute_ich(onto)
    stats = compute_stats(onto, ich)
    return onto, ich, stats


def nested_pair_setup():
    """Two concepts, inner inside outer, hinge active at the given placement."""
    onto = ontology_from_dict({
        "concepts": ["outer", "inner"],
        "subclass": [["inner", "outer"]],
        "disjoint": [],
        "leaves": ["inner"],
    })
    ich = compute_ich(onto)
    stats = compute_stats(onto, ich)
    return onto, ich, stats


# ---------------------------------------------------------------------------
# scalar terms


def test_subsumption_hinge_contained_is_zero():
    assert subsumption_hinge((0, 0), (0, 0), 0.3, 1.0, 0.0) == 0.0


def test_subsumption_hinge_arithmetic():
    assert subsumption_hinge((1, 0), (0, 0), 0.5, 0.5, 0.0) == pytest.approx(1.0)


def test_subsumption_hinge_margin_sign():
    assert subsumption_hinge((1, 0), (0, 0), 0.5, 0.5, -0.2) == pytest.approx(1.2)


def test_subsumption_hinge_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        subsumption_hinge((1, 0), (0, 0, 0), 0.5, 0.5, 0.0)


def test_disjointness_hinge_separated_is_zero():
    assert disjointness_hinge((0, 0), (3, 0), 1.0, 1.0, 0.0) == 0.0


def test_disjointness_hinge_overlap_arithmetic():
    assert disjointness_hinge((0, 0), (1, 0), 0.6, 0.6, 0.0) == pytest.approx(0.2)


def test_disjointness_hinge_identical_balls():
    assert disjointness_hinge((0.5, 0.5), (0.5, 0.5), 1.0, 1.0, 0.0) == pytest.approx(2.0)


def test_radius_floor_leaf_level_is_free():
    assert radius_floor_penalty(0.0, 4, 4, 0.1) == 0.0
    assert radius_floor_penalty(2.0, 4, 4, 0.1) == 0.0


def test_radius_floor_arithmetic():
    expected = 0.1 * math.sqrt(3) - 0.1
    assert radius_floor_penalty(0.1, 4, 1, 0.1) == pytest.approx(expected)


def test_radius_floor_inactive_above_floor():
    assert radius_floor_penalty(1.0, 4, 1, 0.1) == 0.0


def test_radius_floor_level_out_of_range():
    with pytest.raises(ValueError, match="level"):
        radius_floor_penalty(0.5, 3, 4, 0.1)
    with pytest.raises(ValueError, match="level"):
        radius_floor_penalty(0.5, 3, 0, 0.1)


def test_center_norm_on_sphere_is_zero():
    assert center_norm_penalty((0.6, 0.8), 5, 1.0) == pytest.approx(0.0)


def test_center_norm_arithmetic():
    assert center_norm_penalty((1.2, 0.0), 3, 1.0) == pytest.approx(0.6)


def test_center_norm_zero_occurrences():
    assert center_norm_penalty((9.0, 9.0), 0, 1.0) == 0.0


def test_center_norm_negative_occurrences_rejected():
    with pytest.raises(ValueError):
        center_norm_penalty((1.0, 0.0), -1, 1.0)


def test_eq1_transcription_equivalence():
    rng = np.random.default_rng(11)
    for _ in range(50):
        c_p = rng.normal(size=4)
        c_q = rng.normal(size=4)
        r_p, r_q = rng.uniform(0.05, 1.0, size=2)
        gamma = rng.uniform(-0.3, 0.3)
        combined = (subsumption_hinge(c_p, c_q, r_p, r_q, gamma)
                    + center_norm_penalty(c_p, 1, 1.0)
                    + center_norm_penalty(c_q, 1, 1.0))
        assert combined == pytest.approx(eq1_direct(c_p, c_q, r_p, r_q, gamma))


# ---------------------------------------------------------------------------
# config and space types


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        EmbedConfig(dim=1)
    with pytest.raises(ValueError):
        EmbedConfig(psi=0.0)
    with pytest.raises(ValueError):
        EmbedConfig(phi=-1.0)
    with pytest.raises(ValueError):
        EmbedConfig(epochs=-1)
    with pytest.raises(ValueError):
        EmbedConfig(optimizer="lbfgs")
    with pytest.raises(ValueError, match="batch_size"):
        EmbedConfig(batch_size=0)
    with pytest.raises(ValueError, match="seed"):
        EmbedConfig(seed=-1)
    with pytest.raises(ValueError, match="lr_decay"):
        EmbedConfig(lr_decay=-1.0)


def test_ball_space_roundtrip():
    rng = np.random.default_rng(0)
    space = random_space(rng, ("a", "b", "c"), 4)
    again = BallSpace.from_dict(space.to_dict())
    assert again.concepts == space.concepts
    assert np.allclose(again.centres, space.centres)
    assert np.allclose(again.radii, space.radii)
    assert again.ball("b").radius == pytest.approx(space.ball("b").radius)


@pytest.mark.parametrize("centre, radius", [
    ([float("nan"), 0.0], 1.0),
    ([float("inf"), 0.0], 1.0),
    ([0.0, 0.0], 0.0),
    ([0.0, 0.0], -0.5),
    ([0.0, 0.0], float("nan")),
    ([0.0, 0.0], float("inf")),
])
def test_ball_space_from_dict_rejects_bad_balls(centre, radius):
    obj = {"dim": 2, "balls": {"a": {"c": [1.0, 0.0], "r": 0.5},
                               "b": {"c": centre, "r": radius}}}
    with pytest.raises(ValueError, match="ball"):
        BallSpace.from_dict(obj)


def test_ball_space_arrays_locked():
    rng = np.random.default_rng(0)
    space = random_space(rng, ("a", "b"), 3)
    with pytest.raises(ValueError):
        space.centres[0, 0] = 9.0
    with pytest.raises(ValueError):
        space.radii[0] = 9.0


def test_ball_space_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        BallSpace(3, ("a",), np.zeros((1, 2)), np.zeros(1))
    with pytest.raises(ValueError):
        BallSpace(2, ("a",), np.zeros((1, 2)), np.zeros(2))


# ---------------------------------------------------------------------------
# total loss


def test_total_loss_zero_on_perfect_fixture():
    onto = ontology_from_dict({
        "concepts": ["root", "left", "right"],
        "subclass": [["left", "root"], ["right", "root"]],
        "disjoint": [["left", "right"]],
        "leaves": ["left", "right"],
    })
    ich = compute_ich(onto)
    stats = compute_stats(onto, ich)
    config = embed_config(dim=2, gamma=0.0, psi=0.1, phi=1.0)
    centres = np.array([[1.0, 0.0], [0.8, 0.6], [0.8, -0.6]])
    radii = np.array([2.0, 0.5, 0.5])
    space = BallSpace(2, onto.concepts, centres, radii)
    breakdown = total_loss(space, ich, onto.disjointness, stats, config)
    assert breakdown.total == 0.0


def test_total_loss_matches_scalar_oracle_on_random_spaces(poodle):
    onto, ich, stats = poodle
    rng = np.random.default_rng(21)
    for _ in range(10):
        space = random_space(rng, onto.concepts, 5)
        config = embed_config(dim=5, gamma=float(rng.uniform(-0.2, 0.2)),
                             psi=0.15, phi=1.0)
        got = total_loss(space, ich, onto.disjointness, stats, config)
        want = oracle_total(space, ich, onto.disjointness, stats, config)
        assert got.total == pytest.approx(want, rel=1e-12)


def test_total_loss_split_margin_matches_oracle(poodle):
    onto, ich, stats = poodle
    rng = np.random.default_rng(22)
    space = random_space(rng, onto.concepts, 4)
    config = embed_config(dim=4, gamma=-0.1, disjoint_gamma=0.2, psi=0.1, phi=1.0)
    got = total_loss(space, ich, onto.disjointness, stats, config)
    want = oracle_total(space, ich, onto.disjointness, stats, config)
    assert got.total == pytest.approx(want, rel=1e-12)


def test_total_loss_single_concept_only_penalties():
    onto = ontology_from_dict(
        {"concepts": ["solo"], "subclass": [], "disjoint": [], "leaves": ["solo"]})
    ich = compute_ich(onto)
    stats = compute_stats(onto, ich)
    config = embed_config(dim=3, psi=0.5, phi=1.0)
    space = BallSpace(3, ("solo",), np.array([[2.0, 0.0, 0.0]]), np.array([0.1]))
    breakdown = total_loss(space, ich, onto.disjointness, stats, config)
    assert breakdown.subsumption == 0.0
    assert breakdown.disjointness == 0.0
    # single root: level 1 of 1, floor psi*sqrt(0) = 0
    assert breakdown.radius_floor == 0.0
    # no axioms mention it, N = 0
    assert breakdown.center_norm == 0.0


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_train_without_axioms_keeps_the_initial_balls(optimizer):
    # each epoch takes one step on the penalties alone; with every concept a
    # root that no axiom mentions, those gradients are float zeros
    onto = ontology_from_dict({"concepts": ["a", "b"], "subclass": [],
                               "disjoint": [], "leaves": ["a", "b"]})
    ich = compute_ich(onto)
    stats = compute_stats(onto, ich)
    config = embed_config(dim=3, epochs=3, optimizer=optimizer,
                         init_radius_slack=0.5)
    space, history = train_embeddings(onto, ich, stats, config, history=True)
    start = init_space(onto.concepts, stats, config)
    assert space.centres.tobytes() == start.centres.tobytes()
    assert space.radii.tobytes() == start.radii.tobytes()
    assert len(history) == 3
    g_c, g_r = loss_gradients(space, ich, onto.disjointness, stats, config)
    assert g_c.dtype == g_r.dtype == np.float64
    assert not g_c.any() and not g_r.any()


def test_total_loss_missing_ball_raises(poodle):
    onto, ich, stats = poodle
    rng = np.random.default_rng(3)
    partial = tuple(c for c in onto.concepts if c != "dog")
    space = random_space(rng, partial, 4)
    config = embed_config(dim=4)
    with pytest.raises(ValueError, match="dog"):
        total_loss(space, ich, onto.disjointness, stats, config)


def test_hinge_terms_translation_invariant(poodle):
    onto, ich, stats = poodle
    rng = np.random.default_rng(33)
    space = random_space(rng, onto.concepts, 6)
    config = embed_config(dim=6, gamma=-0.1)
    before = total_loss(space, ich, onto.disjointness, stats, config)
    shift = rng.normal(size=6) * 3.0
    moved = BallSpace(6, space.concepts, space.centres + shift, np.array(space.radii))
    after = total_loss(moved, ich, onto.disjointness, stats, config)
    assert after.subsumption == pytest.approx(before.subsumption, abs=1e-9)
    assert after.disjointness == pytest.approx(before.disjointness, abs=1e-9)


# ---------------------------------------------------------------------------
# gradients


def test_gradient_zero_at_perfect_fixture():
    onto = ontology_from_dict({
        "concepts": ["root", "left", "right"],
        "subclass": [["left", "root"], ["right", "root"]],
        "disjoint": [["left", "right"]],
        "leaves": ["left", "right"],
    })
    ich = compute_ich(onto)
    stats = compute_stats(onto, ich)
    config = embed_config(dim=2, gamma=0.0, psi=0.1, phi=1.0)
    centres = np.array([[1.0, 0.0], [0.8, 0.6], [0.8, -0.6]])
    radii = np.array([2.0, 0.5, 0.5])
    space = BallSpace(2, onto.concepts, centres, radii)
    g_c, g_r = loss_gradients(space, ich, onto.disjointness, stats, config)
    assert np.all(g_c == 0.0)
    assert np.all(g_r == 0.0)


def test_gradient_active_subsumption_radius_signs():
    onto, ich, stats = nested_pair_setup()
    config = embed_config(dim=2, gamma=0.0, psi=0.1, phi=1.0)
    # both centres exactly on the unit sphere, radii above floors, hinge active
    centres = np.array([[1.0, 0.0], [0.0, 1.0]])
    radii = np.array([0.3, 0.5])
    space = BallSpace(2, onto.concepts, centres, radii)
    g_c, g_r = loss_gradients(space, ich, onto.disjointness, stats, config)
    i_inner = space.index["inner"]
    i_outer = space.index["outer"]
    assert g_r[i_inner] == 1.0
    assert g_r[i_outer] == -1.0


def test_gradients_match_finite_differences(poodle):
    onto, ich, stats = poodle
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 25:
        space = random_space(rng, onto.concepts, 4)
        config = embed_config(dim=4, gamma=float(rng.uniform(-0.2, 0.2)),
                             psi=float(rng.uniform(0.05, 0.3)), phi=1.0)
        if kink_distance(space, ich, onto.disjointness, stats, config) < 1e-3:
            continue
        g_c, g_r = loss_gradients(space, ich, onto.disjointness, stats, config)
        fd_c, fd_r = finite_difference(space, ich, onto.disjointness, stats, config)
        assert_close_rel(g_c, fd_c)
        assert_close_rel(g_r, fd_r)
        checked += 1


# ---------------------------------------------------------------------------
# initialization and training


def test_init_space_deterministic_and_on_sphere(poodle):
    onto, ich, stats = poodle
    config = embed_config(dim=8, phi=1.5, psi=0.2, seed=5)
    s1 = init_space(onto.concepts, stats, config)
    s2 = init_space(onto.concepts, stats, config)
    assert json.dumps(s1.to_dict(), sort_keys=True) == json.dumps(s2.to_dict(), sort_keys=True)
    norms = np.linalg.norm(s1.centres, axis=1)
    assert np.allclose(norms, 1.5, atol=1e-9)
    floors = np.array([0.2 * math.sqrt(stats.total_levels - stats.level[c])
                       for c in onto.concepts])
    assert np.all(s1.radii >= floors)


def test_train_poodle_reaches_containment(poodle):
    onto, ich, stats = poodle
    config = embed_config(dim=10, gamma=-0.05, psi=0.1, phi=1.0,
                         learning_rate=0.05, epochs=300, batch_size=64, seed=0)
    space, history = train_embeddings(onto, ich, stats, config, history=True)
    final = history[-1]
    assert final.subsumption + final.disjointness < 1e-3
    for p, q in sorted(ich.pairs):
        d = float(np.linalg.norm(space.ball(p).centre - space.ball(q).centre))
        assert d <= space.ball(q).radius - space.ball(p).radius
    assert len(history) == 300
    assert np.all(space.radii >= config.radius_clamp_min)


def test_train_zero_hinge_implies_strict_geometry(poodle):
    # negative containment margin plus positive separation margin
    onto, ich, stats = poodle
    config = embed_config(dim=10, gamma=-0.05, disjoint_gamma=0.05,
                         learning_rate=0.05, epochs=400, batch_size=64, seed=2)
    space, history = train_embeddings(onto, ich, stats, config)
    final = history[-1]
    assert final.subsumption == 0.0
    assert final.disjointness == 0.0
    for p, q in sorted(ich.pairs):
        d = float(np.linalg.norm(space.ball(p).centre - space.ball(q).centre))
        assert d + space.ball(p).radius <= space.ball(q).radius + config.gamma + 1e-9
        assert d + space.ball(p).radius < space.ball(q).radius
    for a, b in onto.disjointness:
        d = float(np.linalg.norm(space.ball(a).centre - space.ball(b).centre))
        assert d >= space.ball(a).radius + space.ball(b).radius


def test_train_zero_epochs_returns_init(poodle):
    onto, ich, stats = poodle
    config = embed_config(dim=6, epochs=0, seed=7)
    space, history = train_embeddings(onto, ich, stats, config)
    init = init_space(onto.concepts, stats, config)
    assert np.array_equal(space.centres, init.centres)
    assert np.array_equal(space.radii, init.radii)
    assert history == []


def test_train_loss_non_increasing_with_decay(poodle):
    onto, ich, stats = poodle
    config = embed_config(dim=10, gamma=-0.05, learning_rate=0.01, lr_decay=0.5,
                         epochs=200, batch_size=64, seed=0)
    _, history = train_embeddings(onto, ich, stats, config, history=True)
    totals = [e.total for e in history]
    for earlier, later in zip(totals, totals[1:]):
        assert later <= earlier + 1e-6


def test_train_deterministic(poodle):
    onto, ich, stats = poodle
    config = embed_config(dim=10, gamma=-0.05, learning_rate=0.05,
                         epochs=100, batch_size=4, seed=3)
    s1, h1 = train_embeddings(onto, ich, stats, config, history=True)
    s2, h2 = train_embeddings(onto, ich, stats, config, history=True)
    assert json.dumps(s1.to_dict(), sort_keys=True) == json.dumps(s2.to_dict(), sort_keys=True)
    assert h1 == h2


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_train_without_history_returns_the_last_breakdown(poodle, optimizer):
    onto, ich, stats = poodle
    config = embed_config(dim=6, gamma=-0.05, learning_rate=0.05, epochs=40,
                         batch_size=4, seed=5, optimizer=optimizer)
    s1, h1 = train_embeddings(onto, ich, stats, config, history=True)
    s2, h2 = train_embeddings(onto, ich, stats, config)
    assert s2.centres.tobytes() == s1.centres.tobytes()
    assert s2.radii.tobytes() == s1.radii.tobytes()
    assert len(h1) == 40
    assert h2 == [h1[-1]]


def test_train_adam_runs_and_converges(poodle):
    onto, ich, stats = poodle
    config = embed_config(dim=10, gamma=-0.05, learning_rate=0.01,
                         epochs=400, batch_size=64, seed=0, optimizer="adam")
    space, history = train_embeddings(onto, ich, stats, config)
    final = history[-1]
    assert final.subsumption + final.disjointness < 1e-2
    assert np.all(space.radii >= config.radius_clamp_min)


def test_train_non_finite_aborts_with_term_name(poodle):
    onto, ich, stats = poodle
    config = embed_config(dim=4, learning_rate=1e308, epochs=5, seed=0)
    with pytest.raises(RuntimeError, match="non-finite"):
        with np.errstate(all="ignore"):
            train_embeddings(onto, ich, stats, config)


# ---------------------------------------------------------------------------
# bitwise oracles for the training step: literal copies of the per-batch
# np.add.at gradient step, the per-array optimiser and the training loop that
# the packed axiom table and the flat parameter vector replaced


def oracle_axiom_index(concepts, ich, disjoint, stats, config):
    index = {c: i for i, c in enumerate(concepts)}
    sub_pairs = sorted(ich.pairs)
    return SimpleNamespace(
        sub_child=np.array([index[p] for p, _ in sub_pairs], dtype=int),
        sub_parent=np.array([index[q] for _, q in sub_pairs], dtype=int),
        dis_a=np.array([index[a] for a, _ in disjoint], dtype=int),
        dis_b=np.array([index[b] for _, b in disjoint], dtype=int),
        floors=np.array([config.psi * math.sqrt(stats.total_levels - stats.level[c])
                         for c in concepts]),
        occurrences=np.array([stats.occurrences[c] for c in concepts], dtype=float))


def oracle_pair_distances(centres, idx_a, idx_b):
    if len(idx_a) == 0:
        return np.zeros(0)
    return np.linalg.norm(centres[idx_a] - centres[idx_b], axis=1)


def oracle_breakdown(centres, radii, ax, config):
    d_sub = oracle_pair_distances(centres, ax.sub_child, ax.sub_parent)
    sub = np.maximum(
        0.0, d_sub + radii[ax.sub_child] - radii[ax.sub_parent] - config.gamma)
    d_dis = oracle_pair_distances(centres, ax.dis_a, ax.dis_b)
    dis = np.maximum(
        0.0, -d_dis + radii[ax.dis_a] + radii[ax.dis_b] + config.gamma_disjoint)
    floor = np.maximum(0.0, ax.floors - radii)
    norms = np.linalg.norm(centres, axis=1)
    cn = ax.occurrences * np.abs(norms - config.phi)
    return (float(sub.sum()), float(dis.sum()), float(floor.sum()),
            float(cn.sum()))


def oracle_unit_rows(diff, dist):
    safe = np.where(dist > 0.0, dist, 1.0)
    u = diff / safe[:, None]
    u[dist == 0.0] = 0.0
    return u


def oracle_gradients(centres, radii, ax, config, sub_rows, dis_rows, reg_scale):
    g_c = np.zeros_like(centres)
    g_r = np.zeros_like(radii)
    sc, sp = ax.sub_child[sub_rows], ax.sub_parent[sub_rows]
    if len(sc):
        diff = centres[sc] - centres[sp]
        dist = np.linalg.norm(diff, axis=1)
        active = dist + radii[sc] - radii[sp] - config.gamma > 0.0
        if active.any():
            u = oracle_unit_rows(diff[active], dist[active])
            np.add.at(g_c, sc[active], u)
            np.add.at(g_c, sp[active], -u)
            np.add.at(g_r, sc[active], 1.0)
            np.add.at(g_r, sp[active], -1.0)
    da, db = ax.dis_a[dis_rows], ax.dis_b[dis_rows]
    if len(da):
        diff = centres[da] - centres[db]
        dist = np.linalg.norm(diff, axis=1)
        active = -dist + radii[da] + radii[db] + config.gamma_disjoint > 0.0
        if active.any():
            u = oracle_unit_rows(diff[active], dist[active])
            np.add.at(g_c, da[active], -u)
            np.add.at(g_c, db[active], u)
            np.add.at(g_r, da[active], 1.0)
            np.add.at(g_r, db[active], 1.0)
    g_r[ax.floors - radii > 0.0] -= reg_scale
    norms = np.linalg.norm(centres, axis=1)
    weight = ax.occurrences * np.sign(norms - config.phi) * reg_scale
    safe = np.where(norms > 0.0, norms, 1.0)
    g_c += (weight / safe)[:, None] * centres
    return g_c, g_r


class OracleOptimizer:
    """The per-array optimiser, with its temporaries."""

    def __init__(self, kind, params, lr, decay=0.0):
        self.kind, self.params, self.lr, self.decay = kind, list(params), lr, decay
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


def oracle_train(onto, ich, stats, config):
    space = init_space(onto.concepts, stats, config)
    ax = oracle_axiom_index(space.concepts, ich, onto.disjointness, stats, config)
    centres, radii = np.array(space.centres), np.array(space.radii)
    n_sub, n_axioms = len(ax.sub_child), len(ax.sub_child) + len(ax.dis_a)
    rng = np.random.default_rng(config.seed)
    optimizer = OracleOptimizer(config.optimizer, [centres, radii],
                                config.learning_rate, config.lr_decay)
    history = []
    for _ in range(config.epochs):
        perm = rng.permutation(n_axioms)
        for i in range(0, n_axioms, config.batch_size):
            batch = perm[i:i + config.batch_size]
            g_c, g_r = oracle_gradients(
                centres, radii, ax, config, batch[batch < n_sub],
                batch[batch >= n_sub] - n_sub, len(batch) / n_axioms)
            optimizer.step([g_c, g_r])
            np.maximum(radii, config.radius_clamp_min, out=radii)
        history.append(oracle_breakdown(centres, radii, ax, config))
    return centres, radii, history


@pytest.fixture(scope="module")
def siblings():
    """Nine leaves under three parents: many disjointness axioms share
    concepts with subsumption axioms in one batch."""
    onto = synthetic_ontology((3, 3))
    ich = compute_ich(onto)
    return onto, ich, compute_stats(onto, ich)


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("batch_size", [3, 64])
@pytest.mark.parametrize("fixture", ["poodle", "siblings"])
def test_training_matches_per_batch_oracle_bitwise(request, fixture, optimizer,
                                                   batch_size):
    onto, ich, stats = request.getfixturevalue(fixture)
    config = embed_config(dim=6, gamma=-0.05, disjoint_gamma=0.05, psi=0.2,
                         learning_rate=0.05, lr_decay=0.01, epochs=50,
                         batch_size=batch_size, seed=4, optimizer=optimizer)
    space, history = train_embeddings(onto, ich, stats, config, history=True)
    centres, radii, expected = oracle_train(onto, ich, stats, config)
    assert space.centres.tobytes() == centres.tobytes()
    assert space.radii.tobytes() == radii.tobytes()
    assert [(e.subsumption, e.disjointness, e.radius_floor, e.center_norm)
            for e in history] == expected


def test_loss_gradients_match_per_batch_oracle_bitwise(poodle):
    onto, ich, stats = poodle
    rng = np.random.default_rng(11)
    config = embed_config(dim=4, gamma=-0.05, disjoint_gamma=0.05)
    ax = oracle_axiom_index(onto.concepts, ich, onto.disjointness, stats, config)
    every_sub, every_dis = np.arange(len(ax.sub_child)), np.arange(len(ax.dis_a))
    for _ in range(20):
        space = random_space(rng, onto.concepts, 4)
        g_c, g_r = loss_gradients(space, ich, onto.disjointness, stats, config)
        o_c, o_r = oracle_gradients(space.centres, space.radii, ax, config,
                                    every_sub, every_dis, 1.0)
        assert g_c.tobytes() == o_c.tobytes()
        assert g_r.tobytes() == o_r.tobytes()
