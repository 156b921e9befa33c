"""Tests for the synthetic feature harness and episode evaluation."""

import hashlib
import io
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from geoball.embedding import EmbedConfig, train_embeddings
from geoball.harness import (
    FeatureDataset,
    features_csv_text,
    generate_synthetic_features,
    nearest_centroid_accuracy,
    read_features_csv,
    read_features_npz,
    sample_episode,
    sample_episodes,
    split_leaves,
    synthetic_ontology,
    evaluate_episodes,
    write_features_csv,
    write_features_npz,
)
from geoball.negatives import build_negative_sets
from geoball.ontology import Ontology, OntologyError, compute_ich, compute_stats
from geoball.projector import ProjectorConfig, train_base
from geoball.pipeline import DESK_PROJECTOR


# ---------------------------------------------------------------------------
# synthetic ontology and leaf split


def test_synthetic_ontology_counts():
    onto = synthetic_ontology((5, 2, 2))
    assert len(onto.concepts) == 1 + 5 + 10 + 20
    assert len(onto.leaves) == 20
    # pairwise sibling disjointness: C(5,2) under the root, C(2,2) under
    # each of the 5 + 10 inner nodes
    assert len(onto.disjointness) == 10 + 5 + 10


def test_synthetic_ontology_parents():
    onto = synthetic_ontology((2, 3))
    assert onto.told_parents["root_1"] == ("root",)
    assert onto.told_parents["root_1_2"] == ("root_1",)
    assert sorted(onto.told_children["root_0"]) == [
        "root_0_0", "root_0_1", "root_0_2"]


def test_split_leaves_alternates_and_partitions():
    onto = synthetic_ontology((3, 3))
    base, novel = split_leaves(onto)
    ordered = sorted(onto.leaves)
    assert base == tuple(ordered[0::2])
    assert novel == tuple(ordered[1::2])
    assert not set(base) & set(novel)
    assert sorted(base + novel) == ordered


# ---------------------------------------------------------------------------
# feature generator


def gen(onto, **kw):
    args = dict(dim=8, per_class=4, noise_sigma=0.5, seed=0)
    args.update(kw)
    return generate_synthetic_features(onto, **args)


def test_zero_noise_collapses_classes_to_anchor():
    onto = synthetic_ontology((2, 2))
    base, novel = gen(onto, noise_sigma=0.0)
    for ds in (base, novel):
        for name, idx in ds.class_indices().items():
            rows = ds.features[idx]
            assert np.array_equal(rows, np.tile(rows[0], (len(rows), 1)))


def test_same_seed_byte_identical():
    onto = synthetic_ontology((2, 3))
    a_base, a_novel = gen(onto, seed=11)
    b_base, b_novel = gen(onto, seed=11)
    assert features_csv_text(a_base) == features_csv_text(b_base)
    assert features_csv_text(a_novel) == features_csv_text(b_novel)
    c_base, _ = gen(onto, seed=12)
    assert not np.array_equal(a_base.features, c_base.features)


def test_sibling_anchors_closer_on_average():
    # Monte Carlo over generator seeds: with one exact anchor per class,
    # sibling pairs must sit closer than non-sibling pairs on average.
    onto = synthetic_ontology((3, 3))
    parent = {leaf: onto.told_parents[leaf][0] for leaf in onto.leaves}
    sib_total = other_total = 0.0
    sib_n = other_n = 0
    for seed in range(100):
        base, novel = gen(onto, per_class=1, noise_sigma=0.0, seed=seed,
                          step_scale=1.0)
        anchors = {}
        for ds in (base, novel):
            for name, idx in ds.class_indices().items():
                anchors[name] = ds.features[idx[0]]
        names = sorted(anchors)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                d = float(np.linalg.norm(anchors[a] - anchors[b]))
                if parent[a] == parent[b]:
                    sib_total += d
                    sib_n += 1
                else:
                    other_total += d
                    other_n += 1
    assert sib_total / sib_n < other_total / other_n


def test_intrinsic_dim_confines_anchors_to_subspace():
    onto = synthetic_ontology((3, 3))
    base, novel = gen(onto, dim=24, per_class=1, noise_sigma=0.0,
                      intrinsic_dim=4)
    anchors = np.vstack([base.features, novel.features])
    s = np.linalg.svd(anchors, compute_uv=False)
    assert s[4:].max() < 1e-9 * s[0]
    with pytest.raises(ValueError):
        gen(onto, intrinsic_dim=0)
    with pytest.raises(ValueError):
        gen(onto, dim=8, intrinsic_dim=9)


def test_generator_split_handling():
    onto = synthetic_ontology((2, 2))
    base, novel = gen(onto)
    d_base, d_novel = split_leaves(onto)
    assert base.class_names() == d_base
    assert novel.class_names() == d_novel
    assert base.split == "base" and novel.split == "novel"
    for ds in (base, novel):
        assert all(len(idx) == 4 for idx in ds.class_indices().values())

    custom_b, custom_n = gen(onto, base_leaves=("root_0_0",))
    assert custom_b.class_names() == ("root_0_0",)
    assert len(custom_n.class_names()) == 3
    with pytest.raises(ValueError):
        gen(onto, base_leaves=("root_0_0",), novel_leaves=("root_0_0",))
    with pytest.raises(ValueError):
        gen(onto, base_leaves=("root_0",))  # inner concept, not a leaf


def test_generator_names_the_cycle_like_every_entry_point():
    onto = Ontology(("a", "b", "c"), (("a", "b"), ("b", "a"), ("c", "b")),
                    (), ("c", "a"))
    with pytest.raises(OntologyError) as expected:
        compute_ich(onto)
    assert str(expected.value) == "subsumption cycle: a -> b -> a"
    with pytest.raises(OntologyError) as err:
        gen(onto)
    assert str(err.value) == str(expected.value)
    assert err.value.diagnostics == expected.value.diagnostics


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_roundtrip_is_exact(tmp_path):
    onto = synthetic_ontology((2, 2))
    base, _ = gen(onto, noise_sigma=1.7, seed=5)
    path = tmp_path / "base.csv"
    write_features_csv(base, path)
    back = read_features_csv(path, split="base")
    assert back.labels == base.labels
    assert np.array_equal(back.features, base.features)
    assert back.dim == base.dim


GOLDEN_VALUES = [0.1, -0.0, 5e-324, 1e16, 123456789.0]
GOLDEN_LABELS = ("a,b", '"q', "#x", " ")
GOLDEN_CSV = (
    "label,f_1,f_2,f_3,f_4,f_5\n"
    '"a,b",0.1,-0.0,5e-324,1e+16,123456789.0\n'
    '"""q",123456789.0,0.1,-0.0,5e-324,1e+16\n'
    "#x,1e+16,123456789.0,0.1,-0.0,5e-324\n"
    " ,5e-324,1e+16,123456789.0,0.1,-0.0\n"
)


def test_csv_format_is_pinned(tmp_path):
    """repr floats, quoted labels only where csv would misread them, and the
    written file holds exactly the text form. It reads back bit for bit,
    with the '#x' row read as data, not as a comment."""
    rows = [np.roll(GOLDEN_VALUES, i) for i in range(len(GOLDEN_LABELS))]
    dataset = FeatureDataset(5, GOLDEN_LABELS, np.array(rows))
    assert features_csv_text(dataset) == GOLDEN_CSV
    path = tmp_path / "golden.csv"
    write_features_csv(dataset, path)
    assert path.read_bytes() == GOLDEN_CSV.encode()
    back = read_features_csv(path)
    assert back.labels == GOLDEN_LABELS
    assert np.array_equal(back.features, dataset.features)
    assert np.array_equal(np.signbit(back.features), np.signbit(dataset.features))


def test_csv_empty_file_is_a_value_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_features_csv(path)


def test_csv_header_only_is_an_empty_dataset(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("label,f_1,f_2,f_3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_features_csv(path, split="novel")
    assert back.features.shape == (0, 3)
    assert back.labels == ()
    assert back.split == "novel"


@pytest.mark.parametrize("body", ["x,1.0,2.0\ny,1.0\n", "x,1.0,2.0,3.0\n",
                                  "x,1.0,abc\n", "x,1_0,2.0\n"])
def test_csv_bad_row_error_names_the_file(tmp_path, body):
    path = tmp_path / "bad_rows.csv"
    path.write_text("label,f_1,f_2\n" + body)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_features_csv(path)


def test_csv_rejects_malformed(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("name,f_1\nx,1.0\n")
    with pytest.raises(ValueError):
        read_features_csv(bad_header)
    ragged = tmp_path / "b.csv"
    ragged.write_text("label,f_1,f_2\nx,1.0\n")
    with pytest.raises(ValueError):
        read_features_csv(ragged)


def test_dataset_rejects_zero_width():
    with pytest.raises(ValueError, match="dim must be >= 1"):
        FeatureDataset(0, ("x",), np.zeros((1, 0)))


def test_csv_without_feature_columns_names_the_file(tmp_path):
    path = tmp_path / "labels_only.csv"
    path.write_text("label\nx\n")
    with pytest.raises(ValueError, match=re.escape(f"feature CSV {path} has "
                                                   "no feature columns")):
        read_features_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"label,f_1,f_2\nx,1.0,2.0\ny,{value},0.5\n")
    with pytest.raises(ValueError, match="non-finite"):
        read_features_csv(path)


# ---------------------------------------------------------------------------
# NPZ round trip


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_npz_roundtrip_is_exact_and_repeatable(tmp_path):
    rows = [np.roll(GOLDEN_VALUES, i) for i in range(len(GOLDEN_LABELS))]
    dataset = FeatureDataset(5, GOLDEN_LABELS, np.array(rows))
    first, second = tmp_path / "a.npz", tmp_path / "b.npz"
    write_features_npz(dataset, first)
    write_features_npz(dataset, second)
    assert sha256(first) == sha256(second)
    back = read_features_npz(first, split="novel")
    assert back.labels == GOLDEN_LABELS
    assert back.features.tobytes() == dataset.features.tobytes()
    assert back.split == "novel"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.npz", "b.npz"]


def test_npz_zero_rows_roundtrip(tmp_path):
    path = tmp_path / "empty.npz"
    write_features_npz(FeatureDataset(3, (), np.zeros((0, 3))), path)
    with np.load(path, allow_pickle=False) as npz:
        assert npz["labels"].dtype.kind == "U"
    back = read_features_npz(path)
    assert back.labels == ()
    assert back.features.shape == (0, 3)


def test_npz_writer_refuses_trailing_nul_label(tmp_path):
    path = tmp_path / "nul.npz"
    dataset = FeatureDataset(1, ("ok", "bad\x00"), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="NUL"):
        write_features_npz(dataset, path)
    assert list(tmp_path.iterdir()) == []


def write_raw_npz(path, **arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.mark.parametrize("arrays, reason", [
    ({"features": np.zeros((1, 2))}, "missing arrays \\['labels'\\]"),
    ({"labels": np.array(["x"])}, "missing arrays \\['features'\\]"),
    ({"labels": np.array(["x"]), "features": np.zeros(2)}, "float64 matrix"),
    ({"labels": np.array(["x"]), "features": np.zeros((1, 0))},
     "at least one column"),
    ({"labels": np.array(["x", "y"]), "features": np.zeros((1, 2))},
     "one str label per row"),
    ({"labels": np.array([1.0]), "features": np.zeros((1, 2))},
     "one str label per row"),
    ({"labels": np.array(["x"]), "features": np.array([[1.0, np.nan]])},
     "non-finite"),
    ({"labels": np.array(["x"]), "features": np.array([[np.inf, 1.0]])},
     "non-finite"),
    ({"labels": np.array(["x"], dtype=object), "features": np.zeros((1, 2))},
     "allow_pickle=False"),
])
def test_npz_refusals_name_the_file(tmp_path, arrays, reason):
    path = tmp_path / "bad.npz"
    write_raw_npz(path, **arrays)
    with pytest.raises(ValueError, match=re.escape(str(path))) as err:
        read_features_npz(path)
    assert re.search(reason, str(err.value))


def npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


@pytest.mark.parametrize("content", [b"", b"label,f_1\nx,1.0\n",
                                     b"PK\x03\x04truncated",
                                     npy_bytes(np.zeros((2, 3)))])
def test_npz_unreadable_file_names_the_file(tmp_path, content):
    path = tmp_path / "junk.npz"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_features_npz(path)


# ---------------------------------------------------------------------------
# episode sampling


def unique_novel(n_classes=4, per_class=6, dim=3):
    labels, rows = [], []
    for c in range(n_classes):
        for i in range(per_class):
            labels.append(f"leaf{c}")
            rows.append(np.full(dim, float(c * per_class + i)))
    return FeatureDataset(dim, tuple(labels), np.array(rows), "novel")


def test_episode_uses_all_classes_when_w_is_total():
    novel = unique_novel()
    ep = sample_episode(novel, w=4, s=2, q=2, seed=3)
    assert sorted(ep.classes) == sorted(novel.class_names())


def test_episode_exhausts_class_when_s_plus_q_is_size():
    novel = unique_novel(per_class=6)
    ep = sample_episode(novel, w=2, s=4, q=2, seed=9)
    for name in ep.classes:
        used = [float(r[0]) for ds in (ep.support, ep.query)
                for r, l in zip(ds.features, ds.labels) if l == name]
        pool = [float(r[0]) for r, l in zip(novel.features, novel.labels)
                if l == name]
        assert sorted(used) == sorted(pool)


def test_episode_support_query_disjoint_and_sized():
    novel = unique_novel()
    ep = sample_episode(novel, w=3, s=2, q=3, seed=1)
    support_vals = {float(r[0]) for r in ep.support.features}
    query_vals = {float(r[0]) for r in ep.query.features}
    assert not support_vals & query_vals
    assert len(ep.support.labels) == 3 * 2
    assert len(ep.query.labels) == 3 * 3


def test_episode_seeding():
    novel = unique_novel()
    a = sample_episode(novel, w=2, s=2, q=2, seed=7)
    b = sample_episode(novel, w=2, s=2, q=2, seed=7)
    assert a.classes == b.classes
    assert np.array_equal(a.support.features, b.support.features)
    assert np.array_equal(a.query.features, b.query.features)
    batch = sample_episodes(novel, w=2, s=2, q=2, n_episodes=12, seed=0)
    assert len({ep.classes for ep in batch}) > 1


def test_sampled_episodes_hold_no_feature_copies():
    """Forty sampled episodes allocate less than two episodes' features."""
    novel = unique_novel(n_classes=8, per_class=25, dim=256)
    one_episode = 5 * (5 + 15) * novel.dim * novel.features.itemsize
    tracemalloc.start()
    try:
        episodes = sample_episodes(novel, w=5, s=5, q=15, n_episodes=40,
                                   seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(episodes) == 40
    assert peak < 2 * one_episode


def test_episode_insufficient_classes_or_examples():
    novel = unique_novel(n_classes=3, per_class=4)
    with pytest.raises(ValueError):
        sample_episode(novel, w=4, s=1, q=1, seed=0)
    with pytest.raises(ValueError):
        sample_episode(novel, w=2, s=3, q=2, seed=0)


# ---------------------------------------------------------------------------
# episode evaluation on a small trained world


SMALL_EMBED = EmbedConfig(dim=8, gamma=-0.1, disjoint_gamma=0.05, psi=0.3,
                          phi=2.0, learning_rate=0.05, lr_decay=0.002,
                          epochs=600, batch_size=32, seed=0,
                          radius_clamp_min=0.3, init_radius_slack=0.1)
SMALL_PROJECTOR = ProjectorConfig(learning_rate=0.01, epochs_bl=150,
                                  epochs_fsl=60, batch_size=32, seed=0,
                                  optimizer="adam", hidden_sizes=(32, 16))


@pytest.fixture(scope="module")
def small_world():
    onto = synthetic_ontology((2, 2, 2))
    ich = compute_ich(onto)
    stats = compute_stats(onto, ich)
    space, _ = train_embeddings(onto, ich, stats, SMALL_EMBED)
    negatives = build_negative_sets(space, onto.leaves, seed=0)
    return onto, ich, space, negatives


def small_datasets(onto, noise):
    return generate_synthetic_features(onto, dim=16, per_class=8,
                                       noise_sigma=noise, seed=0,
                                       step_scale=2.0)


def test_zero_noise_evaluates_perfectly(small_world):
    onto, ich, space, negatives = small_world
    base, novel = small_datasets(onto, noise=0.0)
    mlp, _ = train_base(base, space, negatives, SMALL_PROJECTOR)
    episodes = sample_episodes(novel, w=4, s=2, q=2, n_episodes=3, seed=0)
    report = evaluate_episodes(space, mlp, episodes, SMALL_PROJECTOR,
                               negatives, ich=ich)
    assert report.accuracy == 1.0
    assert report.ci95 == 0.0


def test_one_way_episodes_are_trivially_correct(small_world):
    onto, ich, space, negatives = small_world
    base, novel = small_datasets(onto, noise=1.5)
    mlp, _ = train_base(base, space, negatives, SMALL_PROJECTOR)
    episodes = sample_episodes(novel, w=1, s=2, q=3, n_episodes=4, seed=2)
    report = evaluate_episodes(space, mlp, episodes, SMALL_PROJECTOR, negatives)
    assert report.accuracy == 1.0
    assert report.semantic_error_fraction is None


def test_evaluation_matches_brute_force_oracle(small_world):
    # oracle: rerun fine-tuning per episode, then classify each query by
    # directly testing all candidate balls with the published rule
    from geoball.projector import finetune_fewshot, mlp_forward

    onto, ich, space, negatives = small_world
    base, novel = small_datasets(onto, noise=1.0)
    mlp, _ = train_base(base, space, negatives, SMALL_PROJECTOR)
    episodes = sample_episodes(novel, w=3, s=2, q=4, n_episodes=5, seed=4)
    report = evaluate_episodes(space, mlp, episodes, SMALL_PROJECTOR, negatives)

    expected = []
    for ep in episodes:
        tuned = finetune_fewshot(mlp, ep.support, space, negatives,
                                 SMALL_PROJECTOR)
        outputs = mlp_forward(ep.query.features, tuned)
        hits = 0
        for h, truth in zip(outputs, ep.query.labels):
            u_best, d_best = None, None
            for name in ep.classes:
                ball = space.ball(name)
                d = float(np.linalg.norm(h - ball.centre))
                u = d - ball.radius
                if u_best is None or u < u_best[0]:
                    u_best = (u, name)
                if d_best is None or d < d_best[0]:
                    d_best = (d, name)
            pick = u_best[1] if u_best[0] <= 0.0 else d_best[1]
            hits += pick == truth
        expected.append(hits / len(ep.query.labels))
    assert report.per_episode == tuple(expected)


def test_evaluation_rejects_support_from_base_classes(small_world):
    onto, ich, space, negatives = small_world
    base, _ = small_datasets(onto, noise=0.5)
    mlp, _ = train_base(base, space, negatives, SMALL_PROJECTOR)
    fake = sample_episodes(base, w=2, s=2, q=2, n_episodes=1, seed=0)
    with pytest.raises(ValueError, match="overlap"):
        evaluate_episodes(space, mlp, fake, SMALL_PROJECTOR, negatives)


def test_ci_shrinks_like_inverse_sqrt(desk):
    full = nearest_centroid_accuracy(desk.episodes)
    quarter = nearest_centroid_accuracy(desk.episodes[:25])
    ratio = quarter.ci95 / full.ci95
    assert abs(ratio - 2.0) / 2.0 < 0.2


# ---------------------------------------------------------------------------
# the stock desk fixture


def test_desk_baseline_in_tuned_window(desk):
    # oracle: independent nearest-support-centroid classifier
    correct = total = 0
    for ep in desk.episodes:
        idx = ep.support.class_indices()
        centroids = {name: ep.support.features[idx[name]].mean(axis=0)
                     for name in ep.classes}
        for row, truth in zip(ep.query.features, ep.query.labels):
            pick = min(ep.classes,
                       key=lambda n: float(np.linalg.norm(row - centroids[n])))
            correct += pick == truth
            total += 1
    oracle = correct / total
    packaged = nearest_centroid_accuracy(desk.episodes).accuracy
    assert abs(oracle - packaged) < 1e-12
    assert 0.80 <= packaged <= 0.90


def test_desk_fixture_accuracy(desk):
    report = evaluate_episodes(desk.space, desk.mlp, desk.episodes,
                               DESK_PROJECTOR, desk.negatives, ich=desk.ich)
    baseline = nearest_centroid_accuracy(desk.episodes)
    assert report.accuracy >= 0.95
    assert report.accuracy >= baseline.accuracy + 0.03
    assert 0.0 <= report.semantic_error_fraction <= 1.0
