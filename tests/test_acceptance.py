"""Top-level acceptance checks.

One test per release criterion, each printing a single PASS/FAIL line with
the measured numbers (printed past the capture plugin so the lines show up
in ordinary pytest runs). Oracles are implemented inline and independently
of the library code they check.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from geoball.embedding import Ball, BallSpace, EmbedConfig, loss_gradients, train_embeddings
from geoball.evaluation import score_space
from geoball.harness import (REFERENCE_RESULTS, FeatureDataset,
                             synthetic_ontology)
from geoball.negatives import kmeans
from geoball.ontology import Ich, HierarchyStats, compute_ich, compute_stats, ontology_from_dict
from geoball.pipeline import ARTIFACT_NAMES, PipelineConfig, run_pipeline
from geoball.projector import (ProjectorConfig, classify, classify_batch,
                               mlp_forward, train_base)

from test_embedding import (assert_close_rel, finite_difference,
                            kink_distance, random_space)
from test_pipeline import small_config
from test_projector import (is_kink_free, loss_and_gradients,
                            random_gradient_case)


def announce(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


# ---------------------------------------------------------------------------
# 1. embedding correctness on a 4-level, 20-leaf ontology


def brute_force_scores(space, ich, ontology):
    def contained(p, q):
        bp, bq = space.ball(p), space.ball(q)
        return float(np.linalg.norm(bp.centre - bq.centre)) <= bq.radius - bp.radius

    def f1(tp, fp, fn):
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        return 2 * precision * recall / (precision + recall) if precision + recall else 0.0

    names = space.concepts
    tp = fp = fn = 0
    for p in names:
        for q in names:
            if p == q:
                continue
            holds = contained(p, q)
            actual = (p, q) in ich.pairs
            tp += holds and actual
            fp += holds and not actual
            fn += actual and not holds
    all_f1 = f1(tp, fp, fn)

    leaves = sorted(ontology.leaves)
    # in a tree the single told parent is the only direct parent
    targets = sorted(set(leaves) | {ontology.told_parents[l][0] for l in leaves})
    tp = fp = fn = 0
    for p in leaves:
        for q in targets:
            if p == q:
                continue
            holds = contained(p, q)
            actual = (p, q) in ich.pairs
            tp += holds and actual
            fp += holds and not actual
            fn += actual and not holds
    leaf_f1 = f1(tp, fp, fn)

    separated = 0
    for a, b in itertools.combinations(leaves, 2):
        ba, bb = space.ball(a), space.ball(b)
        separated += (float(np.linalg.norm(ba.centre - bb.centre))
                      >= ba.radius + bb.radius)
    return all_f1, leaf_f1, separated


def test_embedding_correctness(capsys):
    ontology = synthetic_ontology((5, 2, 2))
    assert len(ontology.leaves) == 20
    ich = compute_ich(ontology)
    stats = compute_stats(ontology, ich)
    assert stats.total_levels == 4

    # wider centre-norm target than the desk run: 36 concepts in 16
    # dimensions need the extra shell room to separate every sibling pair
    config = EmbedConfig(phi=3.0)
    assert config.gamma <= -0.05

    t0 = time.perf_counter()
    space, _ = train_embeddings(ontology, ich, stats, config)
    elapsed = time.perf_counter() - t0
    scores = score_space(space, ich, ontology.leaves)
    oracle_all, oracle_leaf, oracle_sd = brute_force_scores(space, ich, ontology)
    exact = (scores.f1_all == oracle_all and scores.f1_leaf == oracle_leaf
             and scores.s_d == oracle_sd)

    ok = (scores.f1_all >= 0.95 and scores.f1_leaf >= 0.98
          and scores.s_d_fraction >= 0.95 and elapsed < 120 and exact)
    announce(capsys, "embedding correctness",
             ok, f"f1_all={scores.f1_all:.4f} f1_leaf={scores.f1_leaf:.4f} "
                 f"s_d_fraction={scores.s_d_fraction:.4f} "
                 f"oracle_match={exact} time={elapsed:.1f}s")
    assert scores.f1_all >= 0.95
    assert scores.f1_leaf >= 0.98
    assert scores.s_d_fraction >= 0.95
    assert elapsed < 120
    assert exact


# ---------------------------------------------------------------------------
# 2. analytic gradients vs central differences at non-kink points


def random_embedding_case(seed):
    rng = np.random.default_rng(seed)
    concepts = tuple("abcdef"[:5])
    pairs = {(p, q) for p in concepts for q in concepts
             if p != q and rng.random() < 0.3}
    disjoint = [(a, b) for a, b in itertools.combinations(concepts, 2)
                if rng.random() < 0.3]
    ich = Ich(frozenset(pairs))
    stats = HierarchyStats(
        total_levels=3,
        level={c: int(rng.integers(1, 3)) for c in concepts},
        occurrences={c: int(rng.integers(1, 5)) for c in concepts})
    config = EmbedConfig(dim=3, gamma=-0.1, psi=0.3, phi=1.2,
                         disjoint_gamma=0.07, epochs=500, radius_clamp_min=1e-4,
                         lr_decay=1e-3, init_radius_slack=0.0)
    space = random_space(rng, concepts, 3)
    return space, ich, disjoint, stats, config


def test_gradient_fidelity(capsys):
    t0 = time.perf_counter()
    checked = seed = 0
    while checked < 50:
        seed += 1
        space, ich, disjoint, stats, config = random_embedding_case(seed)
        if kink_distance(space, ich, disjoint, stats, config) < 1e-3:
            continue
        grad_c, grad_r = loss_gradients(space, ich, disjoint, stats, config)
        fd_c, fd_r = finite_difference(space, ich, disjoint, stats, config)
        assert_close_rel(grad_c, fd_c, rtol=1e-4)
        assert_close_rel(grad_r, fd_r, rtol=1e-4)
        checked += 1

    ranking_checked = seed = 0
    while ranking_checked < 50:
        seed += 1
        case = random_gradient_case(seed)
        if not is_kink_free(*case):
            continue
        _, grads_w, grads_b = loss_and_gradients(*case)
        weights, biases = case[2], case[3]
        h = 1e-5

        def mean_loss():
            return loss_and_gradients(*case)[0]

        for target, grad in zip(list(weights) + list(biases),
                                list(grads_w) + list(grads_b)):
            flat = target.ravel()
            for idx in range(0, flat.size, max(1, flat.size // 5)):
                orig = flat[idx]
                flat[idx] = orig + h
                up = mean_loss()
                flat[idx] = orig - h
                down = mean_loss()
                flat[idx] = orig
                assert_close_rel(np.array(grad.ravel()[idx]),
                                 np.array((up - down) / (2 * h)), rtol=1e-4)
        ranking_checked += 1

    elapsed = time.perf_counter() - t0
    ok = elapsed < 10
    announce(capsys, "gradient fidelity",
             ok, f"100 non-kink configurations (50 embedding + 50 ranking), "
                 f"rtol 1e-4, time={elapsed:.1f}s")
    assert elapsed < 10


# ---------------------------------------------------------------------------
# 3. inferred hierarchy vs DFS reachability on random DAGs


def test_ich_matches_dfs_reachability(capsys):
    rng = np.random.default_rng(0)
    for case in range(50):
        n = int(rng.integers(5, 41))
        names = [f"n{i}" for i in range(n)]
        subclass = [[names[i], names[j]]
                    for i in range(n) for j in range(i)
                    if rng.random() < 0.12]
        has_child = {parent for _, parent in subclass}
        leaves = [c for c in names if c not in has_child]
        ontology = ontology_from_dict({
            "concepts": names, "subclass": subclass, "disjoint": [],
            "leaves": leaves})
        ich = compute_ich(ontology)

        parents = {c: set() for c in names}
        for child, parent in subclass:
            parents[child].add(parent)

        def reach(c, seen=None):
            seen = set() if seen is None else seen
            for p in parents[c]:
                if p not in seen:
                    seen.add(p)
                    reach(p, seen)
            return seen

        expected = frozenset((c, a) for c in names for a in reach(c))
        assert ich.pairs == expected, f"case {case} diverged"
    announce(capsys, "inferred hierarchy oracle",
             True, "50 random DAGs (<= 40 nodes) equal DFS reachability")


# ---------------------------------------------------------------------------
# 4. k-means SSE vs exhaustive partitions at small scale


def exhaustive_sse(points, k):
    best = math.inf
    n = len(points)
    for assignment in itertools.product(range(k), repeat=n):
        sse = 0.0
        for group in set(assignment):
            members = points[[i for i, g in enumerate(assignment)
                              if g == group]]
            sse += float(((members - members.mean(axis=0)) ** 2).sum())
        best = min(best, sse)
    return best


def test_kmeans_small_scale_optimality(capsys):
    rng = np.random.default_rng(1)
    worst_gap = 0.0
    for case in range(20):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, 4))
        points = rng.normal(size=(n, 2)) * rng.uniform(0.5, 2.0)
        result = kmeans(points, k, seed=case)
        optimum = exhaustive_sse(points, k)
        worst_gap = max(worst_gap, abs(result.sse - optimum))
        assert result.sse <= optimum + 1e-9, (
            f"case {case}: sse {result.sse} vs optimum {optimum}")
    announce(capsys, "k-means small-scale optimality",
             True, f"20 instances (<= 8 points) match exhaustive partitions, "
                   f"max |gap|={worst_gap:.2e}")


# ---------------------------------------------------------------------------
# 5. end-to-end few-shot sanity on the desk fixture


def test_end_to_end_fewshot(desk, desk_evaluation, capsys):
    report, baseline = desk_evaluation.report, desk_evaluation.baseline
    runtime = desk.wall_setup + desk_evaluation.wall
    margin = report.accuracy - baseline.accuracy

    recorded = (REFERENCE_RESULTS["mini_imagenet_5way_1shot"]["accuracy"] == 65.71
                and REFERENCE_RESULTS["mini_imagenet_5way_5shot"]["accuracy"] == 93.65
                and REFERENCE_RESULTS["tiered_imagenet_5way_1shot"]["accuracy"] == 73.4
                and REFERENCE_RESULTS["tiered_imagenet_5way_5shot"]["accuracy"] == 88.95
                and REFERENCE_RESULTS["mini_imagenet_20way_1shot"]["accuracy"] == 48.02
                and REFERENCE_RESULTS["mini_imagenet_20way_5shot"]["accuracy"] == 84.13)

    ok = (0.80 <= baseline.accuracy <= 0.90 and report.accuracy > 0.90
          and margin >= 0.03 and runtime < 300 and recorded)
    announce(capsys, "end-to-end few-shot sanity",
             ok, f"accuracy={report.accuracy:.4f}+/-{report.ci95:.4f} "
                 f"baseline={baseline.accuracy:.4f} margin={margin:+.4f} "
                 f"runtime={runtime:.0f}s references_recorded={recorded}")
    assert 0.80 <= baseline.accuracy <= 0.90
    assert report.accuracy > 0.90
    assert margin >= 0.03
    assert runtime < 300
    assert recorded


# ---------------------------------------------------------------------------
# 6. held-out base classes score close to (or above) the training split


def per_class_split(dataset, train_per_class):
    train_idx, held_idx = [], []
    for name, idx in dataset.class_indices().items():
        train_idx.extend(idx[:train_per_class])
        held_idx.extend(idx[train_per_class:])

    def subset(rows):
        rows = np.array(rows)
        return FeatureDataset(dataset.dim,
                              tuple(np.array(dataset.labels)[rows]),
                              dataset.features[rows])

    return subset(train_idx), subset(held_idx)


def pick_accuracy(space, mlp, dataset):
    # hits counted from classify_batch's picks, as `geoball infer` counts them
    names = dataset.class_names()
    picks, _, _ = classify_batch(mlp_forward(dataset.features, mlp),
                                 [(name, space.ball(name)) for name in names])
    hits = sum(names[int(pick)] == truth
               for pick, truth in zip(picks, dataset.labels))
    return hits / len(dataset.labels)


def test_generalization_direction(desk, capsys):
    train_set, held_set = per_class_split(desk.base, train_per_class=160)
    mlp, _ = train_base(train_set, desk.space, desk.negatives, ProjectorConfig())
    train_acc = pick_accuracy(desk.space, mlp, train_set)
    held_acc = pick_accuracy(desk.space, mlp, held_set)
    recorded = (REFERENCE_RESULTS["base_learning_train_accuracy"] == 85.32
                and REFERENCE_RESULTS["base_learning_test_accuracy"] == 95.36)
    ok = held_acc >= train_acc - 0.05 and recorded
    announce(capsys, "generalization direction",
             ok, f"train={train_acc:.4f} held_out={held_acc:.4f} "
                 f"(allowed drop 0.05) references_recorded={recorded}")
    assert held_acc >= train_acc - 0.05
    assert recorded


# ---------------------------------------------------------------------------
# 7. pipeline determinism


def test_pipeline_determinism(tmp_path, capsys):
    run_pipeline(PipelineConfig.from_dict(small_config(tmp_path, "a")))
    run_pipeline(PipelineConfig.from_dict(small_config(tmp_path, "b")))
    identical = all((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()
                    for name in ARTIFACT_NAMES)
    announce(capsys, "pipeline determinism",
             identical, f"{len(ARTIFACT_NAMES)} artifacts byte-identical "
                        f"across re-runs: {identical}")
    assert identical


# ---------------------------------------------------------------------------
# 8. classification rule vs an independent oracle


def test_inference_rule_conformance(capsys):
    rng = np.random.default_rng(2)
    for case in range(1000):
        dim = int(rng.integers(2, 6))
        m = int(rng.integers(1, 7))
        h = rng.normal(size=dim) * 2.0
        candidates = [(f"b{j}", Ball(rng.normal(size=dim) * 2.0,
                                     float(rng.uniform(0.1, 2.5))))
                      for j in range(m)]
        if m >= 2 and case % 7 == 0:
            # duplicated geometry forces the earliest-candidate tie rule
            candidates[1] = ("b_dup", Ball(np.array(candidates[0][1].centre),
                                           candidates[0][1].radius))
        pred = classify(h, candidates)

        distances = [float(np.linalg.norm(h - ball.centre))
                     for _, ball in candidates]
        u_values = [d - ball.radius
                    for d, (_, ball) in zip(distances, candidates)]
        if min(u_values) <= 0.0:
            expected = candidates[int(np.argmin(u_values))][0]
        else:
            expected = candidates[int(np.argmin(distances))][0]
        assert pred.label == expected, f"case {case} diverged"
    announce(capsys, "inference rule conformance",
             True, "1000 random (point, candidate-ball) cases agree with "
                   "the boundary-distance oracle")
