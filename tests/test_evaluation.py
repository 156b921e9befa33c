"""Tests for containment scoring and the hyperparameter grid search."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from geoball.embedding import Ball, BallSpace
from geoball.evaluation import (
    GridSpec,
    Scores,
    containment_holds,
    direct_parents,
    f1_all,
    f1_leaf,
    grid_search,
    leaf_pair_count,
    s_d,
    score_space,
)
from geoball.harness import synthetic_ontology
from geoball.ontology import compute_ich, compute_stats, ontology_from_dict

from test_embedding import embed_config


# ---------------------------------------------------------------------------
# brute-force oracle: plain loops and plain math, every candidate pair


def dist(u, v):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v)))


def oracle_holds(space, p, q):
    return dist(space.ball(p).centre, space.ball(q).centre) <= (
        space.ball(q).radius - space.ball(p).radius)


def oracle_prf(candidates, positives, space):
    tp = fp = fn = 0
    for p, q in candidates:
        holds = oracle_holds(space, p, q)
        if holds and (p, q) in positives:
            tp += 1
        elif holds:
            fp += 1
        elif (p, q) in positives:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def oracle_f1_all(space, ich):
    candidates = [(p, q) for p in space.concepts for q in space.concepts if p != q]
    return oracle_prf(candidates, ich.pairs, space)


def oracle_f1_leaf(space, ich, leaves):
    parents = set()
    for leaf in leaves:
        ancestors = {q for p, q in ich.pairs if p == leaf}
        for q in ancestors:
            if not any((r, q) in ich.pairs for r in ancestors if r != q):
                parents.add(q)
    targets = set(leaves) | parents
    candidates = [(p, q) for p in leaves for q in targets if p != q]
    return oracle_prf(candidates, ich.pairs, space)


def oracle_s_d(space, leaves):
    leaves = sorted(leaves)
    count = 0
    for i, p in enumerate(leaves):
        for q in leaves[i + 1:]:
            d = dist(space.ball(p).centre, space.ball(q).centre)
            if d >= space.ball(p).radius + space.ball(q).radius:
                count += 1
    return count


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


def random_space(rng, concepts, dim=4):
    centres = rng.normal(size=(len(concepts), dim)) * 2.0
    radii = rng.uniform(0.1, 2.5, size=len(concepts))
    return BallSpace(dim, tuple(concepts), centres, radii)


# ---------------------------------------------------------------------------
# containment predicate


def test_containment_concentric():
    assert containment_holds(Ball(np.zeros(3), 0.5), Ball(np.zeros(3), 1.0))


def test_containment_identical_balls_boundary():
    ball = Ball(np.array([1.0, 2.0]), 0.7)
    assert containment_holds(ball, ball)


def test_containment_too_far():
    assert not containment_holds(Ball(np.array([1.0, 0.0]), 0.2),
                                 Ball(np.array([0.0, 0.0]), 0.7))


def test_containment_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        containment_holds(Ball(np.zeros(2), 1.0), Ball(np.zeros(3), 1.0))


def test_containment_radius_inflation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(100):
        c_p, c_q = rng.normal(size=(2, 3))
        r_p, r_q = rng.uniform(0.05, 2.0, size=2)
        delta = rng.uniform(0.01, 1.0)
        before = containment_holds(Ball(c_p, r_p), Ball(c_q, r_q))
        after = containment_holds(Ball(c_p, r_p + delta), Ball(c_q, r_q + delta))
        assert before == after


# ---------------------------------------------------------------------------
# F1 scores


def chain_space():
    # a inside c but sticking out of b; b inside c
    return BallSpace(2, ("a", "b", "c"),
                     np.array([[4.5, 0.0], [2.0, 0.0], [0.0, 0.0]]),
                     np.array([0.7, 3.0, 10.0]))


def test_f1_all_chain_example():
    onto = ontology_from_dict({"concepts": ["a", "b", "c"],
                               "subclass": [["a", "b"], ["b", "c"]],
                               "disjoint": [], "leaves": ["a"]})
    ich = compute_ich(onto)
    result = f1_all(chain_space(), ich)
    assert result.precision == pytest.approx(1.0)
    assert result.recall == pytest.approx(2 / 3)
    assert result.f1 == pytest.approx(0.8)
    assert (result.precision, result.recall, result.f1) == pytest.approx(
        oracle_f1_all(chain_space(), ich))


def test_f1_all_no_containments_is_zero():
    onto = ontology_from_dict({"concepts": ["a", "b"], "subclass": [["a", "b"]],
                               "disjoint": [], "leaves": ["a"]})
    ich = compute_ich(onto)
    space = BallSpace(2, ("a", "b"), np.array([[0.0, 0.0], [5.0, 0.0]]),
                      np.array([1.0, 1.0]))
    assert f1_all(space, ich).f1 == 0.0


def test_f1_scores_match_oracle_on_random_spaces(poodle):
    onto, ich, _ = poodle
    rng = np.random.default_rng(17)
    for _ in range(20):
        space = random_space(rng, onto.concepts)
        assert tuple(f1_all(space, ich)) == pytest.approx(oracle_f1_all(space, ich))
        assert tuple(f1_leaf(space, ich, onto.leaves)) == pytest.approx(
            oracle_f1_leaf(space, ich, onto.leaves))
        assert s_d(space, onto.leaves) == oracle_s_d(space, onto.leaves)


def test_direct_parents_poodle(poodle):
    onto, ich, _ = poodle
    assert sorted(direct_parents(ich, onto.leaves)) == ["dog", "entity"]


def test_f1_leaf_one_escaped_leaf():
    # star: 4 leaves under one root, one leaf escapes the root ball
    onto = ontology_from_dict({
        "concepts": ["root", "l1", "l2", "l3", "l4"],
        "subclass": [["l1", "root"], ["l2", "root"], ["l3", "root"], ["l4", "root"]],
        "disjoint": [], "leaves": ["l1", "l2", "l3", "l4"]})
    ich = compute_ich(onto)
    centres = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [9.0, 0.0]])
    radii = np.array([3.0, 0.5, 0.5, 0.5, 0.5])
    space = BallSpace(2, onto.concepts, centres, radii)
    result = f1_leaf(space, ich, onto.leaves)
    assert result.recall == pytest.approx(3 / 4)
    assert result.precision == pytest.approx(1.0)
    assert tuple(result) == pytest.approx(oracle_f1_leaf(space, ich, onto.leaves))


def test_f1_leaf_empty_leafset_warns(poodle, caplog):
    onto, ich, _ = poodle
    rng = np.random.default_rng(1)
    space = random_space(rng, onto.concepts)
    with caplog.at_level("WARNING"):
        result = f1_leaf(space, ich, [])
    assert result.f1 == 0.0
    assert any("empty leaf set" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# separation count


def test_s_d_three_far_leaves():
    space = BallSpace(2, ("x", "y", "z"),
                      np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]),
                      np.array([1.0, 1.0, 1.0]))
    assert s_d(space, ("x", "y", "z")) == 3


def test_s_d_one_overlapping_pair():
    space = BallSpace(2, ("x", "y", "z"),
                      np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 10.0]]),
                      np.array([1.0, 1.0, 1.0]))
    assert s_d(space, ("x", "y", "z")) == 2


def test_s_d_all_concentric():
    space = BallSpace(2, ("x", "y"), np.zeros((2, 2)), np.array([1.0, 2.0]))
    assert s_d(space, ("x", "y")) == 0


def test_s_d_requires_two_leaves():
    space = BallSpace(2, ("x",), np.zeros((1, 2)), np.array([1.0]))
    with pytest.raises(ValueError, match="leaves"):
        s_d(space, ("x",))


def test_s_d_boundary_touching_counts():
    space = BallSpace(2, ("x", "y"), np.array([[0.0, 0.0], [2.0, 0.0]]),
                      np.array([1.0, 1.0]))
    assert s_d(space, ("x", "y")) == 1


# ---------------------------------------------------------------------------
# invariance of scores


def test_scores_invariant_under_translation_and_rotation(poodle):
    onto, ich, _ = poodle
    rng = np.random.default_rng(23)
    space = random_space(rng, onto.concepts, dim=5)
    base = score_space(space, ich, onto.leaves)

    shift = rng.normal(size=5) * 4.0
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    moved = BallSpace(5, space.concepts, (space.centres + shift) @ q,
                      np.array(space.radii))
    other = score_space(moved, ich, onto.leaves)
    assert other.s_d == base.s_d
    assert other.f1_all == pytest.approx(base.f1_all)
    assert other.f1_leaf == pytest.approx(base.f1_leaf)


def test_scoring_holds_row_blocks_not_the_difference_tensor():
    onto = synthetic_ontology((10, 9))  # 101 concepts, 90 leaves
    ich = compute_ich(onto)
    n, dim = len(onto.concepts), 200
    rng = np.random.default_rng(4)
    space = BallSpace(dim, onto.concepts, rng.normal(size=(n, dim)),
                      rng.uniform(0.5, 2.0, n))
    tensor = n * n * dim * 8  # the n x n x d differences, 16 MB
    tracemalloc.start()
    try:
        score_space(space, ich, onto.leaves)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the distance matrix plus one row block of differences (0.5 MB)
    assert peak < tensor / 4


def test_scores_serializable(poodle):
    onto, ich, _ = poodle
    rng = np.random.default_rng(2)
    space = random_space(rng, onto.concepts)
    scores = score_space(space, ich, onto.leaves)
    parsed = json.loads(json.dumps(scores.to_dict()))
    assert parsed["s_d"] == scores.s_d
    assert 0.0 <= parsed["f1_all"] <= 1.0
    assert scores.s_d <= leaf_pair_count(onto.leaves)


# ---------------------------------------------------------------------------
# grid search


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(gammas=(), psis=(0.1,), phis=(1.0,))
    with pytest.raises(ValueError):
        GridSpec(gammas=(0.0,), psis=(0.1,), phis=(1.0,), s_d_threshold=1.5)


def test_grid_search_singleton_identity(poodle):
    onto, ich, stats = poodle
    base = embed_config(dim=8, learning_rate=0.05, epochs=150, batch_size=64, seed=0)
    grid = GridSpec(gammas=(-0.05,), psis=(0.1,), phis=(1.0,))
    result = grid_search(onto, ich, stats, grid, base)
    assert len(result.table) == 1
    assert result.best_config.gamma == -0.05
    assert result.best_config.psi == 0.1
    assert result.best_config.phi == 1.0
    assert result.best_scores == result.table[0].scores


def test_grid_search_poodle_example(poodle):
    onto, ich, stats = poodle
    base = embed_config(dim=10, learning_rate=0.05, epochs=300, batch_size=64, seed=0)
    grid = GridSpec(gammas=(-0.1, 0.0), psis=(0.05, 0.1), phis=(1.0,))
    result = grid_search(onto, ich, stats, grid, base)
    assert len(result.table) == 4
    assert result.best_scores.f1_leaf == 1.0
    assert not result.below_threshold
    # perfect tie on scores: |gamma| prefers 0.0, grid order prefers psi=0.05
    assert result.best_config.gamma == 0.0
    assert result.best_config.psi == 0.05


def test_grid_search_filter_beats_f1(poodle):
    # a point failing the threshold loses even with better f1; force the
    # filter by scoring one real point against one crippled one
    onto, ich, stats = poodle
    base = embed_config(dim=10, learning_rate=0.05, epochs=200, batch_size=64, seed=0)
    # psi large enough that leaf floors force overlap: separation collapses
    grid = GridSpec(gammas=(-0.05,), psis=(0.1, 60.0), phis=(1.0,),
                    s_d_threshold=0.95)
    result = grid_search(onto, ich, stats, grid, base)
    assert len(result.table) == 2
    fractions = [row.scores.s_d_fraction for row in result.table]
    assert fractions[0] >= 0.95
    assert fractions[1] < 0.95, "crippled grid point unexpectedly separated leaves"
    assert result.best_config.psi == 0.1
    assert not result.below_threshold


def test_grid_search_below_threshold_flag(poodle):
    onto, ich, stats = poodle
    base = embed_config(dim=10, learning_rate=0.05, epochs=50, batch_size=64, seed=0)
    grid = GridSpec(gammas=(-0.05,), psis=(60.0,), phis=(1.0,))
    result = grid_search(onto, ich, stats, grid, base)
    assert result.below_threshold
    assert result.best_config.psi == 60.0


def test_grid_search_result_serializable(poodle):
    onto, ich, stats = poodle
    base = embed_config(dim=6, learning_rate=0.05, epochs=60, batch_size=64, seed=0)
    grid = GridSpec(gammas=(-0.05, 0.0), psis=(0.1,), phis=(1.0,))
    result = grid_search(onto, ich, stats, grid, base)
    parsed = json.loads(json.dumps(result.to_dict()))
    assert len(parsed["table"]) == 2
    assert "best_scores" in parsed
