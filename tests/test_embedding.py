"""Tests for ball-space losses, gradients, and training."""

import json
import math

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
from geoball.ontology import compute_ich, compute_stats, ontology_from_dict


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
        out += oracle_subsumption(space.centre_of(p), space.centre_of(q),
                                  space.radius_of(p), space.radius_of(q), config.gamma)
    for a, b in disjoint:
        out += oracle_disjointness(space.centre_of(a), space.centre_of(b),
                                   space.radius_of(a), space.radius_of(b),
                                   config.gamma_disjoint)
    for c in space.concepts:
        out += oracle_floor(space.radius_of(c), stats.total_levels,
                            stats.level[c], config.psi)
        out += oracle_norm_term(space.centre_of(c), stats.occurrences[c], config.phi)
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
        d = dist(space.centre_of(p), space.centre_of(q))
        margins.append(abs(d + space.radius_of(p) - space.radius_of(q) - config.gamma))
        margins.append(d)
    for a, b in disjoint:
        d = dist(space.centre_of(a), space.centre_of(b))
        margins.append(abs(-d + space.radius_of(a) + space.radius_of(b)
                           + config.gamma_disjoint))
        margins.append(d)
    for c in space.concepts:
        floor = config.psi * math.sqrt(stats.total_levels - stats.level[c])
        margins.append(abs(floor - space.radius_of(c)))
        margins.append(abs(norm(space.centre_of(c)) - config.phi))
        margins.append(norm(space.centre_of(c)))
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


def test_ball_space_roundtrip():
    rng = np.random.default_rng(0)
    space = random_space(rng, ("a", "b", "c"), 4)
    again = BallSpace.from_dict(space.to_dict())
    assert again.concepts == space.concepts
    assert np.allclose(again.centres, space.centres)
    assert np.allclose(again.radii, space.radii)
    assert again.ball("b").radius == pytest.approx(space.radius_of("b"))


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
    config = EmbedConfig(dim=2, gamma=0.0, psi=0.1, phi=1.0)
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
        config = EmbedConfig(dim=5, gamma=float(rng.uniform(-0.2, 0.2)),
                             psi=0.15, phi=1.0)
        got = total_loss(space, ich, onto.disjointness, stats, config)
        want = oracle_total(space, ich, onto.disjointness, stats, config)
        assert got.total == pytest.approx(want, rel=1e-12)


def test_total_loss_split_margin_matches_oracle(poodle):
    onto, ich, stats = poodle
    rng = np.random.default_rng(22)
    space = random_space(rng, onto.concepts, 4)
    config = EmbedConfig(dim=4, gamma=-0.1, disjoint_gamma=0.2, psi=0.1, phi=1.0)
    got = total_loss(space, ich, onto.disjointness, stats, config)
    want = oracle_total(space, ich, onto.disjointness, stats, config)
    assert got.total == pytest.approx(want, rel=1e-12)


def test_total_loss_single_concept_only_penalties():
    onto = ontology_from_dict(
        {"concepts": ["solo"], "subclass": [], "disjoint": [], "leaves": ["solo"]})
    ich = compute_ich(onto)
    stats = compute_stats(onto, ich)
    config = EmbedConfig(dim=3, psi=0.5, phi=1.0)
    space = BallSpace(3, ("solo",), np.array([[2.0, 0.0, 0.0]]), np.array([0.1]))
    breakdown = total_loss(space, ich, onto.disjointness, stats, config)
    assert breakdown.subsumption == 0.0
    assert breakdown.disjointness == 0.0
    # single root: level 1 of 1, floor psi*sqrt(0) = 0
    assert breakdown.radius_floor == 0.0
    # no axioms mention it, N = 0
    assert breakdown.center_norm == 0.0


def test_total_loss_missing_ball_raises(poodle):
    onto, ich, stats = poodle
    rng = np.random.default_rng(3)
    partial = tuple(c for c in onto.concepts if c != "dog")
    space = random_space(rng, partial, 4)
    config = EmbedConfig(dim=4)
    with pytest.raises(KeyError, match="dog"):
        total_loss(space, ich, onto.disjointness, stats, config)


def test_hinge_terms_translation_invariant(poodle):
    onto, ich, stats = poodle
    rng = np.random.default_rng(33)
    space = random_space(rng, onto.concepts, 6)
    config = EmbedConfig(dim=6, gamma=-0.1)
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
    config = EmbedConfig(dim=2, gamma=0.0, psi=0.1, phi=1.0)
    centres = np.array([[1.0, 0.0], [0.8, 0.6], [0.8, -0.6]])
    radii = np.array([2.0, 0.5, 0.5])
    space = BallSpace(2, onto.concepts, centres, radii)
    g_c, g_r = loss_gradients(space, ich, onto.disjointness, stats, config)
    assert np.all(g_c == 0.0)
    assert np.all(g_r == 0.0)


def test_gradient_active_subsumption_radius_signs():
    onto, ich, stats = nested_pair_setup()
    config = EmbedConfig(dim=2, gamma=0.0, psi=0.1, phi=1.0)
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
        config = EmbedConfig(dim=4, gamma=float(rng.uniform(-0.2, 0.2)),
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
    config = EmbedConfig(dim=8, phi=1.5, psi=0.2, seed=5)
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
    config = EmbedConfig(dim=10, gamma=-0.05, psi=0.1, phi=1.0,
                         learning_rate=0.05, epochs=300, batch_size=64, seed=0)
    space, history = train_embeddings(onto, ich, stats, config)
    final = history.epochs[-1]
    assert final.subsumption + final.disjointness < 1e-3
    for p, q in sorted(ich.pairs):
        d = float(np.linalg.norm(space.centre_of(p) - space.centre_of(q)))
        assert d <= space.radius_of(q) - space.radius_of(p)
    assert len(history.epochs) == 300
    assert np.all(space.radii >= config.radius_clamp_min)


def test_train_zero_hinge_implies_strict_geometry(poodle):
    # negative containment margin plus positive separation margin
    onto, ich, stats = poodle
    config = EmbedConfig(dim=10, gamma=-0.05, disjoint_gamma=0.05,
                         learning_rate=0.05, epochs=400, batch_size=64, seed=2)
    space, history = train_embeddings(onto, ich, stats, config)
    final = history.epochs[-1]
    assert final.subsumption == 0.0
    assert final.disjointness == 0.0
    for p, q in sorted(ich.pairs):
        d = float(np.linalg.norm(space.centre_of(p) - space.centre_of(q)))
        assert d + space.radius_of(p) <= space.radius_of(q) + config.gamma + 1e-9
        assert d + space.radius_of(p) < space.radius_of(q)
    for a, b in onto.disjointness:
        d = float(np.linalg.norm(space.centre_of(a) - space.centre_of(b)))
        assert d >= space.radius_of(a) + space.radius_of(b)


def test_train_zero_epochs_returns_init(poodle):
    onto, ich, stats = poodle
    config = EmbedConfig(dim=6, epochs=0, seed=7)
    space, history = train_embeddings(onto, ich, stats, config)
    init = init_space(onto.concepts, stats, config)
    assert np.array_equal(space.centres, init.centres)
    assert np.array_equal(space.radii, init.radii)
    assert history.epochs == []


def test_train_loss_non_increasing_with_decay(poodle):
    onto, ich, stats = poodle
    config = EmbedConfig(dim=10, gamma=-0.05, learning_rate=0.01, lr_decay=0.5,
                         epochs=200, batch_size=64, seed=0)
    _, history = train_embeddings(onto, ich, stats, config)
    totals = history.totals()
    for earlier, later in zip(totals, totals[1:]):
        assert later <= earlier + 1e-6


def test_train_deterministic(poodle):
    onto, ich, stats = poodle
    config = EmbedConfig(dim=10, gamma=-0.05, learning_rate=0.05,
                         epochs=100, batch_size=4, seed=3)
    s1, h1 = train_embeddings(onto, ich, stats, config)
    s2, h2 = train_embeddings(onto, ich, stats, config)
    assert json.dumps(s1.to_dict(), sort_keys=True) == json.dumps(s2.to_dict(), sort_keys=True)
    assert h1.totals() == h2.totals()


def test_train_adam_runs_and_converges(poodle):
    onto, ich, stats = poodle
    config = EmbedConfig(dim=10, gamma=-0.05, learning_rate=0.01,
                         epochs=400, batch_size=64, seed=0, optimizer="adam")
    space, history = train_embeddings(onto, ich, stats, config)
    final = history.epochs[-1]
    assert final.subsumption + final.disjointness < 1e-2
    assert np.all(space.radii >= config.radius_clamp_min)


def test_train_non_finite_aborts_with_term_name(poodle):
    onto, ich, stats = poodle
    config = EmbedConfig(dim=4, learning_rate=1e308, epochs=5, seed=0)
    with pytest.raises(RuntimeError, match="non-finite"):
        with np.errstate(all="ignore"):
            train_embeddings(onto, ich, stats, config)


def test_train_callback_streams_epochs(poodle):
    onto, ich, stats = poodle
    seen = []
    config = EmbedConfig(dim=6, epochs=3, seed=1)
    train_embeddings(onto, ich, stats, config,
                     callback=lambda epoch, bd: seen.append((epoch, bd.total)))
    assert [e for e, _ in seen] == [1, 2, 3]
