"""Tests for k-means clustering and hard-negative set construction."""

import itertools
import json

import numpy as np
import pytest

from geoball.embedding import BallSpace
from geoball.negatives import (
    NegativeSets,
    build_negative_sets,
    default_k,
    kmeans,
)


# ---------------------------------------------------------------------------
# exhaustive-partition oracle


def oracle_sse(points, groups):
    total = 0.0
    for group in groups:
        members = points[list(group)]
        centroid = members.mean(axis=0)
        total += ((members - centroid) ** 2).sum()
    return float(total)


def all_partitions(n, k):
    """Every partition of range(n) into exactly k non-empty groups."""

    def recurse(i, groups):
        if i == n:
            if len(groups) == k:
                yield [tuple(g) for g in groups]
            return
        if len(groups) + (n - i) < k:
            return
        for g in groups:
            g.append(i)
            yield from recurse(i + 1, groups)
            g.pop()
        if len(groups) < k:
            groups.append([i])
            yield from recurse(i + 1, groups)
            groups.pop()

    yield from recurse(0, [])


def oracle_optimum(points, k):
    return min(oracle_sse(points, groups) for groups in all_partitions(len(points), k))


def labels_to_groups(labels):
    groups = {}
    for i, label in enumerate(labels):
        groups.setdefault(int(label), []).append(i)
    return sorted(tuple(g) for g in groups.values())


# ---------------------------------------------------------------------------
# kmeans


def test_kmeans_singletons_when_k_equals_n():
    points = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    result = kmeans(points, k=3, seed=0)
    assert len(set(result.labels.tolist())) == 3
    assert result.sse == 0.0


def test_kmeans_single_cluster_mean():
    points = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
    result = kmeans(points, k=1, seed=0)
    assert np.allclose(result.centroids[0], [2.0, 0.0])
    assert result.sse == pytest.approx(8.0)


def test_kmeans_two_far_pairs():
    points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    result = kmeans(points, k=2, seed=0)
    assert labels_to_groups(result.labels) == [(0, 1), (2, 3)]
    assert result.sse == pytest.approx(oracle_optimum(points, 2))


def test_kmeans_k_out_of_range():
    points = np.zeros((3, 2))
    with pytest.raises(ValueError, match="out of range"):
        kmeans(points, k=0)
    with pytest.raises(ValueError, match="out of range"):
        kmeans(points, k=4)


def test_kmeans_reaches_partition_optimum():
    rng = np.random.default_rng(41)
    for trial in range(10):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, n + 1))
        points = rng.normal(size=(n, 2)) * 3.0
        result = kmeans(points, k, seed=trial)
        assert result.sse == pytest.approx(oracle_optimum(points, k), rel=1e-9)


def test_kmeans_deterministic():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(12, 3))
    a = kmeans(points, k=4, seed=9)
    b = kmeans(points, k=4, seed=9)
    assert np.array_equal(a.labels, b.labels)
    assert a.sse == b.sse


def test_kmeans_coincident_points():
    points = np.zeros((5, 2))
    result = kmeans(points, k=2, seed=0)
    assert result.sse == 0.0
    assert len(set(result.labels.tolist())) == 2  # both clusters populated


def test_kmeans_coincident_points_restart_path():
    # large enough to skip the exhaustive branch; empty-cluster repair must
    # still hand every cluster at least one point
    points = np.zeros((12, 2))
    result = kmeans(points, k=3, seed=0)
    assert result.sse == 0.0
    assert len(set(result.labels.tolist())) == 3


# ---------------------------------------------------------------------------
# negative sets


def make_space(names, centres):
    centres = np.asarray(centres, dtype=float)
    return BallSpace(centres.shape[1], tuple(names), centres,
                     np.full(len(names), 0.5))


def test_two_leaves_single_cluster():
    space = make_space(("a", "b"), [[0.0, 0.0], [1.0, 0.0]])
    sets = build_negative_sets(space, ("a", "b"), k=1, seed=0)
    assert sets.negatives["a"] == ("b",)
    assert sets.negatives["b"] == ("a",)


def test_singleton_cluster_falls_back_to_nearest():
    space = make_space(("a", "b", "c"),
                       [[0.0, 0.0], [0.5, 0.0], [10.0, 0.0]])
    sets = build_negative_sets(space, ("a", "b", "c"), k=2, seed=0)
    labels = kmeans(space.centres, 2, seed=0).labels
    assert (labels == labels[2]).sum() == 1  # "c" clusters alone
    assert sets.negatives["c"] == ("b",)
    assert sets.negatives["a"] == ("b",)
    assert sets.negatives["b"] == ("a",)


def test_poodle_negatives():
    # dog breeds cluster together, the street sign sits alone
    names = ("entity", "animal", "dog", "poodle", "retriever", "street_sign")
    centres = [[0.0, 0.0], [0.2, 0.0], [0.4, 0.0],
               [0.5, 0.1], [0.5, -0.1], [8.0, 0.0]]
    space = make_space(names, centres)
    leaves = ("poodle", "retriever", "street_sign")
    sets = build_negative_sets(space, leaves, k=2, seed=0)
    assert sets.negatives["poodle"] == ("retriever",)
    assert sets.negatives["retriever"] == ("poodle",)

    leaf_points = np.array([space.ball(c).centre for c in sorted(leaves)])
    result = kmeans(leaf_points, 2, seed=0)
    assert result.labels.tolist().count(result.labels[2]) == 1  # street_sign
    assert result.sse == pytest.approx(oracle_optimum(leaf_points, 2), rel=1e-9)


def kmeans_clusters(space, names, k, seed):
    """The leaf partition ``build_negative_sets`` draws its negatives from."""
    names = sorted(names)
    labels = kmeans(space.centres[[space.index[n] for n in names]], k,
                    seed=seed).labels
    return [tuple(n for n, label in zip(names, labels) if label == j)
            for j in range(k)]


def test_negatives_symmetric_within_clusters():
    rng = np.random.default_rng(14)
    names = tuple(f"c{i}" for i in range(9))
    space = make_space(names, rng.normal(size=(9, 4)))
    sets = build_negative_sets(space, names, k=3, seed=2)
    clusters = kmeans_clusters(space, names, 3, seed=2)
    assert any(len(members) > 1 for members in clusters)
    for members in clusters:
        if len(members) < 2:
            continue
        for p in members:
            assert sorted(sets.negatives[p]) == sorted(m for m in members if m != p)


def test_partition_covers_leaves_exactly_once():
    rng = np.random.default_rng(15)
    names = tuple(f"leaf{i}" for i in range(7))
    space = make_space(names, rng.normal(size=(7, 3)))
    sets = build_negative_sets(space, names, k=3, seed=0)
    clusters = kmeans_clusters(space, names, 3, seed=0)
    assert all(clusters)
    flattened = sorted(itertools.chain.from_iterable(clusters))
    assert flattened == sorted(names)
    assert sorted(sets.negatives) == sorted(names)
    for members in clusters:
        for name in members:
            assert name not in sets.negatives[name]
            if len(members) > 1:
                assert set(sets.negatives[name]) == set(members) - {name}
            else:
                assert len(sets.negatives[name]) == 1


def test_default_k_square_root_rule():
    assert default_k(1) == 1
    assert default_k(2) == 2
    assert default_k(4) == 2
    assert default_k(5) == 3
    assert default_k(20) == 5
    assert default_k(100) == 10


def test_default_k_used_when_unset():
    rng = np.random.default_rng(3)
    names = tuple(f"x{i}" for i in range(16))
    space = make_space(names, rng.normal(size=(16, 2)) * 4.0)
    sets = build_negative_sets(space, names, seed=1)
    assert default_k(16) == 4
    assert sets == build_negative_sets(space, names, k=4, seed=1)
    assert sets != build_negative_sets(space, names, k=3, seed=1)


def test_negative_sets_roundtrip():
    space = make_space(("a", "b", "c", "d"),
                       [[0.0, 0.0], [0.3, 0.0], [5.0, 0.0], [5.3, 0.0]])
    sets = build_negative_sets(space, ("a", "b", "c", "d"), k=2, seed=0)
    assert NegativeSets.from_dict(sets.to_dict()) == sets


def test_negative_sets_reload_equals_build_with_one_way_fallbacks():
    # every leaf clusters alone, so each negative is a nearest-leaf fallback;
    # "a" and "b" pick each other while "c" picks "b"
    space = make_space(("a", "b", "c"), [[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
    sets = build_negative_sets(space, ("a", "b", "c"), k=3, seed=0)
    assert sets.negatives == {"a": ("b",), "b": ("a",), "c": ("b",)}
    assert NegativeSets.from_dict(json.loads(json.dumps(sets.to_dict()))) == sets


def test_build_requires_ball_per_leaf():
    space = make_space(("a", "b"), [[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        build_negative_sets(space, ("a", "b", "ghost"), k=1, seed=0)
