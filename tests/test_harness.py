"""Tests for the synthetic feature harness and episode evaluation."""

import hashlib
import io
import locale
import multiprocessing
import os
import re
import signal
import tracemalloc
import warnings

import numpy as np
import pytest

import geoball.embedding
from geoball import harness
from geoball.embedding import BallSpace, EmbedConfig, train_embeddings
from geoball.evaluation import score_space
from geoball.harness import (
    FeatureDataset,
    FeatureNpz,
    _hierarchy_anchors,
    generate_synthetic_features,
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
from geoball.ontology import (Ontology, OntologyError, compute_ich,
                              compute_stats, validate)
from geoball.projector import ProjectorConfig, train_base


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
    args = dict(dim=8, per_class=4, noise_sigma=0.5, seed=0, anchor_scale=3.0,
                step_scale=1.0, intrinsic_dim=None)
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
    for a, b in ((a_base, b_base), (a_novel, b_novel)):
        assert a.labels == b.labels
        assert a.features.tobytes() == b.features.tobytes()
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
    for ds in (base, novel):
        assert all(len(idx) == 4 for idx in ds.class_indices().values())


def stacked_generator(ontology, dim, per_class, noise_sigma, seed,
                      anchor_scale, step_scale, intrinsic_dim):
    """Oracle: the generator in its first form, which stacks every leaf's
    rows and then masks each split out of the stack."""
    leaves = sorted(ontology.leaves)
    rng = np.random.default_rng(seed)
    if intrinsic_dim is None:
        anchors = _hierarchy_anchors(ontology, dim, rng, anchor_scale, step_scale)
    else:
        lift, _ = np.linalg.qr(rng.normal(size=(dim, intrinsic_dim)))
        thin = _hierarchy_anchors(ontology, intrinsic_dim, rng, anchor_scale,
                                  step_scale)
        anchors = {name: lift @ a for name, a in thin.items()}
    labels, rows = [], []
    for leaf in leaves:
        noise = rng.normal(size=(per_class, dim)) * noise_sigma
        labels.extend([leaf] * per_class)
        rows.append(anchors[leaf] + noise)
    all_labels = np.array(labels)
    all_rows = np.vstack(rows)

    def pick(names):
        mask = np.isin(all_labels, names)
        return FeatureDataset(dim, tuple(all_labels[mask]),
                              np.array(all_rows[mask]))

    base, novel = split_leaves(ontology)
    return pick(base), pick(novel)


@pytest.mark.parametrize("seed", [0, 5, 31])
@pytest.mark.parametrize("intrinsic_dim", [12, None])
@pytest.mark.parametrize("per_class", [1, 6])
def test_generator_matches_stacked_oracle_bitwise(seed, intrinsic_dim,
                                                  per_class):
    onto = synthetic_ontology((3, 2, 2))
    args = dict(dim=24, per_class=per_class, noise_sigma=1.85, seed=seed,
                anchor_scale=3.0, step_scale=1.5, intrinsic_dim=intrinsic_dim)
    got = generate_synthetic_features(onto, **args)
    expected = stacked_generator(onto, **args)
    for ds, oracle in zip(got, expected, strict=True):
        assert ds.labels == oracle.labels
        assert ds.features.shape == oracle.features.shape
        assert ds.features.tobytes() == oracle.features.tobytes()


def test_generator_holds_its_outputs_about_once():
    onto = synthetic_ontology((4, 4))
    tracemalloc.start()
    try:
        base, novel = gen(onto, dim=128, per_class=40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = base.features.nbytes + novel.features.nbytes
    # one leaf's noise block, the anchors and the labels come on top; a
    # stacked copy of every row would take the peak past 2x
    assert peak < 1.5 * outputs


def test_every_reader_gives_str_labels(tmp_path):
    base, _ = gen(synthetic_ontology((2, 2)))
    write_features_csv(base, tmp_path / "f.csv")
    write_features_npz(base, tmp_path / "f.npz")
    for ds in (base, read_features_csv(tmp_path / "f.csv"),
               read_features_npz(tmp_path / "f.npz")):
        assert ds.labels and all(type(label) is str for label in ds.labels)


def test_generator_refuses_repeated_leaves():
    onto = Ontology(("a", "b"), (), (), ("a", "b", "a"))
    with pytest.raises(ValueError, match="leaves must be distinct"):
        gen(onto)


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


@pytest.mark.parametrize("entry_point", [
    compute_ich,
    lambda onto: compute_stats(onto, None),
    gen,
])
def test_unknown_told_parent_is_named_like_validate(entry_point):
    onto = Ontology(("a", "b"), (("a", "z"),), (), ("a", "b"))
    (expected,) = validate(onto)
    with pytest.raises(OntologyError) as err:
        entry_point(onto)
    assert str(err.value) == expected.message
    assert str(err.value) == "subclass axiom ('a', 'z') references undeclared 'z'"
    assert err.value.diagnostics == (expected,)


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_roundtrip_is_exact(tmp_path):
    onto = synthetic_ontology((2, 2))
    base, _ = gen(onto, noise_sigma=1.7, seed=5)
    path = tmp_path / "base.csv"
    write_features_csv(base, path)
    back = read_features_csv(path)
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
        back = read_features_csv(path)
    assert back.features.shape == (0, 3)
    assert back.labels == ()


@pytest.mark.parametrize("text, labels", [
    ("label,f_1\na,1.0\nb,2.0", ("a", "b")),  # no newline after the last row
    ("label,f_1\r\na,1.0\r\nb,2.0\r\n", ("a", "b")),
    ('label,f_1\n"a\nz",1.0\nb,2.0\n', ("a\nz", "b")),
    ("label,f_1\ra,1.0\rb,2.0\rc,3.0\r", ("a", "b", "c")),
])
def test_csv_reads_every_row_whatever_its_line_ends(tmp_path, text, labels):
    # the reader bounds the rows by the line endings in the file: \n, \r\n
    # and bare \r
    path = tmp_path / "ends.csv"
    path.write_bytes(text.encode())
    back = read_features_csv(path)
    assert back.labels == labels
    assert back.features[:, 0].tolist() == [1.0, 2.0, 3.0][:len(labels)]


@pytest.mark.parametrize("body", ["x,1.0,2.0\ny,1.0\n", "x,1.0,2.0,3.0\n",
                                  "x,1.0,abc\n", "x,1_0,2.0\n"])
def test_csv_bad_row_error_names_the_file(tmp_path, body):
    path = tmp_path / "bad_rows.csv"
    path.write_text("label,f_1,f_2\n" + body)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_features_csv(path)


@pytest.mark.skipif(locale.getpreferredencoding(False).lower()
                    not in ("utf-8", "utf8"),
                    reason="the reader decodes with the locale's encoding")
@pytest.mark.parametrize("text", [b"label,f_1\n\xff,1.0\n",
                                  b"\xfflabel,f_1\na,1.0\n"])
def test_csv_that_is_not_text_names_the_file(tmp_path, text):
    path = tmp_path / "bytes.csv"
    path.write_bytes(text)
    with pytest.raises(ValueError, match=re.escape(f"feature CSV {path}: ")):
        read_features_csv(path)


def test_csv_rejects_malformed(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("name,f_1\nx,1.0\n")
    with pytest.raises(ValueError, match=re.escape(
            f"feature CSV {bad_header} must start with a 'label' column")):
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
    back = read_features_npz(first)
    assert back.labels == GOLDEN_LABELS
    assert back.features.tobytes() == dataset.features.tobytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.npz", "b.npz"]


def test_npz_zero_rows_roundtrip(tmp_path):
    path = tmp_path / "empty.npz"
    write_features_npz(FeatureDataset(3, (), np.zeros((0, 3))), path)
    with np.load(path, allow_pickle=False) as npz:
        assert npz["labels"].dtype.kind == "U"
    back = read_features_npz(path)
    assert back.labels == ()
    assert back.features.shape == (0, 3)


def test_npz_writer_streams_the_features_without_a_copy(tmp_path):
    # np.savez wrote each array through a tobytes copy, 8 MB here
    dataset = FeatureDataset(1024, ("x",) * 1024, np.ones((1024, 1024)))
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        write_features_npz(dataset, tmp_path / "big.npz")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 1 << 20
    assert read_features_npz(tmp_path / "big.npz").features.tobytes() == (
        dataset.features.tobytes())


def test_npz_writer_refuses_trailing_nul_label(tmp_path):
    path = tmp_path / "nul.npz"
    dataset = FeatureDataset(1, ("ok", "bad\x00"), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="NUL"):
        write_features_npz(dataset, path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["fifo", "symlink", "directory"])
def test_atomic_write_refuses_a_target_that_is_not_a_regular_file(tmp_path,
                                                                 kind):
    target = tmp_path / "target"
    linked = tmp_path / "linked.txt"
    linked.write_text("kept")
    if kind == "fifo":
        os.mkfifo(target)
    elif kind == "symlink":
        target.symlink_to(linked)
    else:
        target.mkdir()
    before = os.lstat(target)
    with pytest.raises(ValueError, match=f"output {re.escape(str(target))} "
                       "exists and is not a regular file"):
        with harness.atomic_open(target) as fh:
            fh.write("new")
    after = os.lstat(target)
    assert (after.st_mode, after.st_ino) == (before.st_mode, before.st_ino)
    assert linked.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["linked.txt",
                                                          "target"]


def test_npz_read_holds_little_beside_its_matrix(tmp_path):
    labels = tuple(f"c{i % 20}" for i in range(455))
    features = np.random.default_rng(0).normal(size=(455, 2304))
    write_features_npz(FeatureDataset(2304, labels, features),
                       tmp_path / "f.npz")
    tracemalloc.start()
    try:
        back = read_features_npz(tmp_path / "f.npz")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # members are read and checked in 64 KiB blocks: a whole-matrix bool
    # mask would add 1.05 MB, np.load's two chunk copies 0.52 MB
    assert peak - back.features.nbytes < 0.25e6


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
    # past the first row block of the finite check
    ({"labels": np.array(["x"] * 40),
      "features": np.pad(np.zeros((39, 2048)), ((0, 1), (0, 0)),
                         constant_values=np.nan)},
     "non-finite"),
])
def test_npz_refusals_name_the_file(tmp_path, arrays, reason):
    path = tmp_path / "bad.npz"
    write_raw_npz(path, **arrays)
    assert re.search(reason, npz_refusal(path))


def npz_refusal(path) -> str:
    """The refusal of the feature NPZ at ``path``, which must name it and be
    the same from the whole-file read and from opening it for reads on
    demand."""
    messages = []
    for reader in (read_features_npz, FeatureNpz):
        with pytest.raises(ValueError, match=re.escape(str(path))) as err:
            reader(path)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    return messages[0]


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
    npz_refusal(path)


# ---------------------------------------------------------------------------
# episode sampling


def unique_novel(n_classes=4, per_class=6, dim=3):
    labels, rows = [], []
    for c in range(n_classes):
        for i in range(per_class):
            labels.append(f"leaf{c}")
            rows.append(np.full(dim, float(c * per_class + i)))
    return FeatureDataset(dim, tuple(labels), np.array(rows))


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
                                  optimizer="adam", hidden_sizes=(32, 16),
                                  reduce_dim=None)


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
                                       anchor_scale=3.0, step_scale=2.0,
                                       intrinsic_dim=None)


def test_zero_noise_evaluates_perfectly(small_world):
    onto, ich, space, negatives = small_world
    base, novel = small_datasets(onto, noise=0.0)
    mlp, _ = train_base(base, space, negatives, SMALL_PROJECTOR)
    episodes = sample_episodes(novel, w=4, s=2, q=2, n_episodes=3, seed=0)
    report, _ = evaluate_episodes(space, mlp, episodes, SMALL_PROJECTOR,
                                  negatives, ich=ich)
    assert report.accuracy == 1.0
    assert report.ci95 == 0.0


def test_one_way_episodes_are_trivially_correct(small_world):
    onto, ich, space, negatives = small_world
    base, novel = small_datasets(onto, noise=1.5)
    mlp, _ = train_base(base, space, negatives, SMALL_PROJECTOR)
    episodes = sample_episodes(novel, w=1, s=2, q=3, n_episodes=4, seed=2)
    report, _ = evaluate_episodes(space, mlp, episodes, SMALL_PROJECTOR,
                                  negatives)
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
    report, _ = evaluate_episodes(space, mlp, episodes, SMALL_PROJECTOR,
                                  negatives)

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


def test_batched_evaluation_matches_per_query_oracles(small_world):
    # oracles: the per-query loops, with the closure's direct parents looked
    # up for every wrong query and the baseline's distances taken row by row
    from geoball.evaluation import direct_parents
    from geoball.projector import (ancestor_report, classify,
                                   finetune_fewshot, mlp_forward)

    onto, ich, space, negatives = small_world
    base, novel = small_datasets(onto, noise=3.0)
    mlp, _ = train_base(base, space, negatives, SMALL_PROJECTOR)
    episodes = sample_episodes(novel, w=4, s=2, q=4, n_episodes=6, seed=5)
    report, baseline = evaluate_episodes(space, mlp, episodes,
                                         SMALL_PROJECTOR, negatives, ich=ich)

    expected, expected_baseline = [], []
    wrong = semantic = 0
    for ep in episodes:
        tuned = finetune_fewshot(mlp, ep.support, space, negatives,
                                 SMALL_PROJECTOR)
        candidates = [(name, space.ball(name)) for name in ep.classes]
        hits = 0
        for h, truth in zip(mlp_forward(ep.query.features, tuned),
                            ep.query.labels):
            if classify(h, candidates).label == truth:
                hits += 1
                continue
            wrong += 1
            inside = ancestor_report(h, space, ich)
            semantic += any(p in inside for p in direct_parents(ich, [truth]))
        expected.append(hits / len(ep.query.labels))
        idx = ep.support.class_indices()
        centroids = np.stack([ep.support.features[idx[name]].mean(axis=0)
                              for name in ep.classes])
        hits = sum(ep.classes[int(np.linalg.norm(centroids - row, axis=1).argmin())]
                   == truth
                   for row, truth in zip(ep.query.features, ep.query.labels))
        expected_baseline.append(hits / len(ep.query.labels))
    assert wrong > 0
    assert report.per_episode == tuple(expected)
    assert report.semantic_error_fraction == semantic / wrong
    assert baseline.per_episode == tuple(expected_baseline)


def test_distance_row_blocks_keep_scores_negatives_and_baseline(
        small_world, monkeypatch):
    # every caller of the one centre-distance kernel, at the default row
    # block and at one row of differences at a time
    onto, ich, space, negatives = small_world
    base, novel = small_datasets(onto, noise=3.0)
    mlp, _ = train_base(base, space, negatives, SMALL_PROJECTOR)
    episodes = sample_episodes(novel, w=4, s=2, q=4, n_episodes=4, seed=5)

    def run():
        # a new space each time, since the pairwise matrix is cached
        fresh = BallSpace(space.dim, space.concepts, space.centres,
                          space.radii)
        _, baseline = evaluate_episodes(fresh, mlp, episodes,
                                        SMALL_PROJECTOR, negatives)
        return (fresh.pairwise.tobytes(),
                score_space(fresh, ich, onto.leaves),
                build_negative_sets(fresh, onto.leaves, seed=0),
                baseline)

    whole = run()
    monkeypatch.setattr(geoball.embedding, "_DISTANCE_BLOCK", 1)
    assert run() == whole


def test_evaluation_rejects_support_from_base_classes(small_world):
    onto, ich, space, negatives = small_world
    base, _ = small_datasets(onto, noise=0.5)
    mlp, _ = train_base(base, space, negatives, SMALL_PROJECTOR)
    fake = sample_episodes(base, w=2, s=2, q=2, n_episodes=1, seed=0)
    with pytest.raises(ValueError, match="overlap"):
        evaluate_episodes(space, mlp, fake, SMALL_PROJECTOR, negatives)


def test_ci_shrinks_like_inverse_sqrt(desk_evaluation):
    full = desk_evaluation.baseline
    # episodes are independent, so this is the report of the first 25 alone
    quarter = harness._aggregate(full.per_episode[:25], None)
    ratio = quarter.ci95 / full.ci95
    assert abs(ratio - 2.0) / 2.0 < 0.2


# ---------------------------------------------------------------------------
# shares: episodes and the CSV parse in forked processes, one per usable CPU


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(harness.os, "sched_getaffinity",
                        lambda pid: set(range(n)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_episodes_give_equal_reports_at_every_share_count(small_world,
                                                          monkeypatch):
    onto, ich, space, negatives = small_world
    base, novel = small_datasets(onto, noise=3.0)
    mlp, _ = train_base(base, space, negatives, SMALL_PROJECTOR)
    episodes = sample_episodes(novel, w=4, s=2, q=4, n_episodes=5, seed=5)
    # this small world has no semantic errors; a stand-in ancestor report
    # makes some misses count, so that the shares' tallies are summed
    real = harness.ancestor_report
    reports = []
    for n in (1, 2, 3):
        use_cpus(monkeypatch, n)
        monkeypatch.setattr(harness, "ancestor_report", real)
        with_ich, baseline = evaluate_episodes(space, mlp, episodes,
                                               SMALL_PROJECTOR, negatives,
                                               ich=ich)
        monkeypatch.setattr(
            harness, "ancestor_report",
            lambda h, space, ich: space.concepts if h[0] > 0 else ())
        reports.append((
            with_ich,
            evaluate_episodes(space, mlp, episodes, SMALL_PROJECTOR,
                              negatives, ich=ich)[0],
            evaluate_episodes(space, mlp, episodes, SMALL_PROJECTOR,
                              negatives)[0],
            baseline))
        assert_no_child_left()
    assert reports[0][0].accuracy < 1.0
    assert reports[0][0].semantic_error_fraction == 0.0
    assert 0.0 < reports[0][1].semantic_error_fraction < 1.0
    assert reports[0][2].semantic_error_fraction is None
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_a_refusal_in_a_child_share_keeps_its_type(small_world, monkeypatch):
    onto, _, space, negatives = small_world
    base, novel = small_datasets(onto, noise=0.5)
    mlp, _ = train_base(base, space, negatives, SMALL_PROJECTOR)
    episodes = (sample_episodes(novel, w=2, s=2, q=2, n_episodes=1, seed=0)
                + sample_episodes(base, w=2, s=2, q=2, n_episodes=2, seed=0))
    use_cpus(monkeypatch, 3)
    with pytest.raises(ValueError, match="overlap"):
        evaluate_episodes(space, mlp, episodes, SMALL_PROJECTOR, negatives)
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("change", ["replaced", "rewritten", "truncated"])
def test_rows_come_only_from_the_checked_file(small_world, tmp_path,
                                              monkeypatch, change, cpus):
    """A novel split opened for reads on demand, then replaced with
    ``os.replace``, rewritten in place or truncated in place: the episodes
    get the rows that were checked at open, or a ValueError that names the
    file. The first episode reads an in-memory copy, so at two shares the
    file is read in the forked share."""
    onto, ich, space, negatives = small_world
    base, novel = small_datasets(onto, noise=1.0)
    mlp, _ = train_base(base, space, negatives, SMALL_PROJECTOR)
    path, other = tmp_path / "novel.npz", tmp_path / "other.npz"
    write_features_npz(novel, path)
    write_features_npz(FeatureDataset(novel.dim, novel.labels,
                                      novel.features + 1.0), other)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)

    def episodes(split):
        return sample_episodes(split, w=4, s=2, q=2, n_episodes=4, seed=1)

    expected = evaluate_episodes(space, mlp, episodes(novel), SMALL_PROJECTOR,
                                 negatives, ich=ich)
    every_row = range(len(novel.labels))
    named = pytest.raises(ValueError, match=re.escape(str(path)))
    with FeatureNpz(path) as npz:
        mixed = episodes(novel)[:1] + episodes(npz)[1:]
        if change == "replaced":
            os.replace(other, path)
            assert evaluate_episodes(space, mlp, mixed, SMALL_PROJECTOR,
                                     negatives, ich=ich) == expected
            assert npz.subset(every_row).features.tobytes() == (
                novel.features.tobytes())
        else:
            if change == "rewritten":  # same size; file clocks may be coarse
                mtime = path.stat().st_mtime_ns
                path.write_bytes(other.read_bytes())
                os.utime(path, ns=(mtime, mtime + 10**9))
            else:  # into the matrix's data, which ends just before the
                # small zip directory
                with open(path, "r+b") as fh:
                    fh.truncate(path.stat().st_size
                                - novel.features.nbytes // 2)
            with named:
                evaluate_episodes(space, mlp, mixed, SMALL_PROJECTOR,
                                  negatives, ich=ich)
            with named:
                npz.subset(every_row)
        if change == "truncated":
            # a truncation between the size check and the read
            monkeypatch.setattr(npz, "_fstamp", lambda: npz._stamp)
            with named:
                npz.subset(every_row)
    assert_no_child_left()


def pid_of(_):
    return os.getpid()


@pytest.mark.parametrize("cpus, items", [(1, 5), (3, 1), (None, 5)])
def test_one_cpu_or_one_item_runs_in_this_process(monkeypatch, cpus, items):
    if cpus is None:  # no affinity call, as on macOS and Windows
        monkeypatch.delattr(harness.os, "sched_getaffinity")
    else:
        use_cpus(monkeypatch, cpus)
    assert harness._map_shares(pid_of, range(items)) == [os.getpid()] * items


def test_shares_are_contiguous_and_ordered(monkeypatch):
    use_cpus(monkeypatch, 3)
    pids = harness._map_shares(pid_of, range(7))
    assert harness._map_shares(lambda x: x * x, range(7)) == [
        x * x for x in range(7)]
    # shares of 2, 2 and 3 items: this process, then two children
    assert pids[:2] == [os.getpid()] * 2
    assert len(set(pids[2:4])) == 1 and len(set(pids[4:])) == 1
    assert len(set(pids)) == 3
    assert_no_child_left()


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("no pickling")


def fail_on(bad, error):
    def fn(item):
        if item == bad:
            raise error
        return item
    return fn


@pytest.mark.parametrize("bad", [0, 6])  # in this process, in the last child
def test_a_failing_share_raises_and_leaves_no_child(monkeypatch, bad):
    use_cpus(monkeypatch, 3)
    with pytest.raises(KeyError, match="'nope'"):
        harness._map_shares(fail_on(bad, KeyError("nope")), range(7))
    assert_no_child_left()


def test_a_share_error_that_does_not_pickle_becomes_a_runtime_error(
        monkeypatch):
    use_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=re.escape("Unpicklable('x')")):
        harness._map_shares(fail_on(3, Unpicklable("x")), range(4))
    assert_no_child_left()


class TwoArg(Exception):
    """Pickles, but unpickling calls ``TwoArg('x')``, which is a TypeError."""

    def __init__(self, a, b):
        super().__init__(a)


def test_a_share_error_that_does_not_unpickle_becomes_a_runtime_error(
        monkeypatch):
    use_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=re.escape("TwoArg('x')")):
        harness._map_shares(fail_on(3, TwoArg("x", "y")), range(4))
    assert_no_child_left()


def test_a_child_whose_parent_stopped_reading_leaves_quietly(monkeypatch,
                                                             capfd):
    """Share 0 fails here while each child's results are far more than a
    pipe holds: each child must see the closed pipe and leave without a
    traceback, or the joins would wait for ever. An alarm turns such a wait
    into a failure, and kills the children so that the test run can end."""
    def fn(item):
        if item == 0:
            raise KeyError("nope")
        return "x" * (1 << 20)

    def timeout(signum, frame):
        for child in multiprocessing.active_children():
            child.kill()
        raise TimeoutError("a share child was still writing")

    use_cpus(monkeypatch, 3)
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        with pytest.raises(KeyError, match="'nope'"):
            harness._map_shares(fn, range(6))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child_left()
    assert capfd.readouterr().err == ""


def test_a_share_that_sends_nothing_is_an_error(monkeypatch):
    use_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="without sending its results"):
        harness._map_shares(lambda item: item or os._exit(3), [1, 0])
    assert_no_child_left()


def test_share_results_come_back_equal(monkeypatch):
    use_cpus(monkeypatch, 2)
    items = [("a", 1.5), {"b": [np.float64(0.1)]}]
    assert harness._map_shares(lambda item: item, items) == items


def test_the_fork_warning_about_threads_is_not_an_error(monkeypatch):
    """Python 3.12+ warns in the parent when a process with threads forks,
    and numpy's OpenBLAS starts threads at import; under an error filter
    the warning must not fail the call. A stand-in fork warns the same way
    on every Python."""
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is "
                          "multi-threaded, use of fork() may lead to "
                          "deadlocks in the child.", DeprecationWarning)
        return pid

    monkeypatch.setattr(harness.os, "fork", warning_fork)
    use_cpus(monkeypatch, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert harness._map_shares(lambda x: x * x, range(5)) == [
            0, 1, 4, 9, 16]
    assert_no_child_left()


def split_csv(monkeypatch, path, cpus):
    """Read ``path`` at ``cpus`` shares of at least 1 KiB and return the
    dataset and the byte offsets at which the shares started."""
    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(harness, "_SHARE_MIN_BYTES", 1024)
    monkeypatch.setattr(harness, "_TEXT_BLOCK_BYTES", 4096)
    seen = []
    scan = harness._scan_csv

    def recording(*args):
        starts, ends = scan(*args)
        seen.append(starts)
        return starts, ends

    monkeypatch.setattr(harness, "_scan_csv", recording)
    dataset = read_features_csv(path)
    assert_no_child_left()
    return dataset, seen[0]


@pytest.mark.parametrize("newline, blank", [
    pytest.param("\n", None, id="\n"),
    pytest.param("\r\n", None, id="\r\n"),
    *(pytest.param(newline, at, id=f"{ending}-blank-{where}")
      for ending, newline in (("lf", "\n"), ("crlf", "\r\n"))
      for where, at in (("after-header", 1), ("mid-file", 120),
                        ("trailing", 201)))])
def test_csv_shares_read_the_same_bytes(tmp_path, monkeypatch, newline,
                                        blank):
    """A blank line, put before line ``blank`` (counted from 0), holds no
    row and is skipped without a warning at every share count."""
    rng = np.random.default_rng(3)
    dataset = FeatureDataset(7, tuple(f"#c{i % 5}" for i in range(200)),
                             rng.normal(size=(200, 7)))
    path = tmp_path / "f.csv"
    write_features_csv(dataset, path)
    lines = path.read_bytes().split(b"\n")
    if blank is not None:
        lines.insert(blank, b"")
    path.write_bytes(newline.encode().join(lines))
    for cpus in (1, 2, 3):
        back, starts = split_csv(monkeypatch, path, cpus)
        assert len(starts) == cpus
        assert back.labels == dataset.labels
        assert back.features.tobytes() == dataset.features.tobytes()


def test_csv_with_a_quoted_newline_is_one_share(tmp_path, monkeypatch):
    labels = tuple(f"c{i}" if i != 150 else "c\n150" for i in range(200))
    dataset = FeatureDataset(7, labels, np.arange(1400.0).reshape(200, 7))
    path = tmp_path / "f.csv"
    write_features_csv(dataset, path)
    back, starts = split_csv(monkeypatch, path, 3)
    assert starts == [0]
    assert back.labels == labels
    assert back.features.tobytes() == dataset.features.tobytes()


@pytest.mark.parametrize("bad, reason", [
    ("c9,1.0,abc,2.0", "could not convert string 'abc' to float64"),
    ("c9,1.0,2.0", "requires 4 columns but 3 were found"),
    pytest.param("\nc9,1.0,abc,2.0", "could not convert string 'abc'",
                 id="after-a-blank-line"),
])
def test_csv_bad_row_in_a_later_share_names_the_file_and_line(
        tmp_path, monkeypatch, bad, reason):
    lines = ["label,f_1,f_2,f_3"] + [f"c{i},1.0,2.0,3.0" for i in range(300)]
    lines[280] = bad
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    messages = []
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(harness, "_SHARE_MIN_BYTES", 1024)
        monkeypatch.setattr(harness, "_TEXT_BLOCK_BYTES", 256)
        with pytest.raises(ValueError) as err:
            read_features_csv(path)
        assert_no_child_left()
        messages.append(str(err.value))
    line = 281 + bad.count("\n")
    assert messages[0].startswith(f"feature CSV {path}, line {line}: ")
    assert reason in messages[0]
    assert messages == [messages[0]] * 3


def test_csv_shares_parse_into_one_matrix_outside_the_heap(tmp_path,
                                                          monkeypatch):
    """Each share converts its text in row blocks into its rows of one
    anonymous mapping, which tracemalloc does not see; the parent's traced
    peak stays within a few blocks, where a second copy of the matrix
    would show."""
    rng = np.random.default_rng(4)
    dataset = FeatureDataset(64, tuple(f"c{i % 9}" for i in range(2000)),
                             rng.normal(size=(2000, 64)))
    path = tmp_path / "f.csv"
    write_features_csv(dataset, path)
    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(harness, "_SHARE_MIN_BYTES", 64 << 10)
    monkeypatch.setattr(harness, "_TEXT_BLOCK_BYTES", 16 << 10)
    tracemalloc.start()
    try:
        back = read_features_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert_no_child_left()
    assert back.features.tobytes() == dataset.features.tobytes()
    assert back.features.nbytes == 1_024_000
    assert peak < 8 * (16 << 10) + 0.2e6, peak


# ---------------------------------------------------------------------------
# the stock desk fixture


def test_desk_baseline_in_tuned_window(desk, desk_evaluation):
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
    packaged = desk_evaluation.baseline.accuracy
    assert abs(oracle - packaged) < 1e-12
    assert 0.80 <= packaged <= 0.90


def test_desk_fixture_accuracy(desk_evaluation):
    report, baseline = desk_evaluation.report, desk_evaluation.baseline
    assert report.accuracy >= 0.95
    assert report.accuracy >= baseline.accuracy + 0.03
    assert 0.0 <= report.semantic_error_fraction <= 1.0
