"""Tests for the geoball command line."""

import json

import numpy as np
import pytest

import geoball.cli
from geoball.cli import main
from geoball.harness import (FeatureDataset, read_features_csv,
                             read_features_npz, write_features_csv,
                             write_features_npz)
from geoball.pipeline import ARTIFACT_NAMES
from test_pipeline import POODLE, small_config


@pytest.fixture()
def poodle_path(tmp_path):
    path = tmp_path / "poodle.json"
    path.write_text(json.dumps(POODLE))
    return path


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config(tmp_path)))
    return path


def test_ingest_reports_counts(poodle_path, tmp_path, capsys):
    out = tmp_path / "normalized.json"
    assert main(["ingest", str(poodle_path), "--out", str(out)]) == 0
    assert "6 concepts" in capsys.readouterr().out
    assert json.loads(out.read_text())["leaves"] == POODLE["leaves"]


def test_ingest_rejects_broken_ontology(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"concepts": ["a", "b"],
                               "subclass": [["a", "b"], ["b", "a"]],
                               "disjoint": [], "leaves": []}))
    assert main(["ingest", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_file_is_a_clean_error(tmp_path, capsys):
    assert main(["ich", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_ich_writes_closure(poodle_path, tmp_path):
    out = tmp_path / "ich.json"
    assert main(["ich", str(poodle_path), "--out", str(out)]) == 0
    pairs = json.loads(out.read_text())["pairs"]
    assert ["poodle", "entity"] in pairs


def test_stagewise_chain_matches_pipeline(poodle_path, config_path, tmp_path,
                                          capsys):
    """Each stage run by hand, feeding the next; then the same config via the
    pipeline subcommand; the shared artifacts must agree byte for byte."""
    space = tmp_path / "space.json"
    negs = tmp_path / "negatives.json"
    mlp = tmp_path / "mlp.json"
    report_a = tmp_path / "report_a.json"
    report_b = tmp_path / "report_b.json"

    assert main(["embed", str(poodle_path), "--out", str(space),
                 "--config", str(config_path)]) == 0
    assert main(["negatives", str(space), "--out", str(negs),
                 "--leaves", "poodle,retriever,street_sign"]) == 0

    # pipeline writes the feature files this chain trains on
    assert main(["pipeline", "--config", str(config_path)]) == 0
    run_dir = tmp_path / "run"
    base_npz = run_dir / "features_base.npz"
    novel_npz = run_dir / "features_novel.npz"

    assert main(["train-projector", str(space), str(negs), str(base_npz),
                 "--out", str(mlp), "--config", str(config_path)]) == 0
    for args_out in (report_a, report_b):
        assert main(["episodes", str(space), str(mlp),
                     "--novel", str(novel_npz), "--negatives", str(negs),
                     "--w", "1", "--s", "2", "--q", "2", "--episodes", "3",
                     "--seed", "3", "--config", str(config_path),
                     "--out", str(args_out)]) == 0

    assert space.read_bytes() == (run_dir / "space.json").read_bytes()
    assert negs.read_bytes() == (run_dir / "negatives.json").read_bytes()
    assert mlp.read_bytes() == (run_dir / "mlp.json").read_bytes()
    assert report_a.read_bytes() == report_b.read_bytes()
    report = json.loads(report_a.read_text())
    assert report["episodes"]["accuracy"] == 1.0  # w=1 protocol

    out = capsys.readouterr().out
    assert "wrote 6 artifacts" in out


def test_infer_and_viz_consume_pipeline_artifacts(config_path, tmp_path,
                                                  capsys):
    assert main(["pipeline", "--config", str(config_path)]) == 0
    run_dir = tmp_path / "run"
    preds = tmp_path / "preds.json"
    assert main(["infer", str(run_dir / "space.json"),
                 str(run_dir / "mlp.json"),
                 str(run_dir / "features_base.npz"),
                 "--out", str(preds)]) == 0
    assert "accuracy" in capsys.readouterr().out
    rows = json.loads(preds.read_text())["predictions"]
    assert len(rows) == 12  # 2 base classes x 6 examples
    assert {"label", "prediction", "u", "inside"} <= set(rows[0])

    # the same features exported as CSV give the same predictions
    exported = tmp_path / "base.csv"
    base = read_features_npz(run_dir / "features_base.npz")
    write_features_csv(base, exported)
    assert read_features_csv(exported).features.tobytes() == \
        base.features.tobytes()
    preds_csv = tmp_path / "preds_csv.json"
    assert main(["infer", str(run_dir / "space.json"),
                 str(run_dir / "mlp.json"), str(exported),
                 "--out", str(preds_csv)]) == 0
    assert preds_csv.read_bytes() == preds.read_bytes()

    svg = tmp_path / "balls.svg"
    assert main(["viz", str(run_dir / "space.json"), "--out", str(svg),
                 "--concepts", "dog,poodle,retriever"]) == 0
    text = svg.read_text()
    assert text.startswith("<?xml") and "<svg" in text

    dotted = tmp_path / "dots.svg"
    assert main(["viz", str(run_dir / "space.json"), "--out", str(dotted),
                 "--points", str(run_dir / "features_base.npz"),
                 "--mlp", str(run_dir / "mlp.json")]) == 0
    assert "circle" in dotted.read_text()


def test_viz_rejects_unprojectable_points(config_path, tmp_path, capsys):
    assert main(["pipeline", "--config", str(config_path)]) == 0
    run_dir = tmp_path / "run"
    code = main(["viz", str(run_dir / "space.json"),
                 "--out", str(tmp_path / "x.svg"),
                 "--points", str(run_dir / "features_base.npz")])
    assert code == 1
    assert "--mlp" in capsys.readouterr().err


def test_tune_small_grid(poodle_path, tmp_path, capsys):
    out = tmp_path / "tune.json"
    space_out = tmp_path / "best_space.json"
    code = main(["tune", str(poodle_path), "--out", str(out),
                 "--gammas=-0.1", "--psis=0.3", "--phis=2.0",
                 "--config", str(tmp_path / "missing-is-fine")])
    assert code == 1  # config path must exist when given

    code = main(["tune", str(poodle_path), "--out", str(out),
                 "--gammas=-0.1,-0.05", "--psis=0.3", "--phis=2.0",
                 "--space-out", str(space_out)])
    assert code == 0
    table = json.loads(out.read_text())["table"]
    assert len(table) == 2
    assert space_out.is_file()
    assert "best:" in capsys.readouterr().out


def test_pipeline_subcommand_seed_override(config_path, tmp_path):
    assert main(["pipeline", "--config", str(config_path)]) == 0
    first = (tmp_path / "run" / "space.json").read_bytes()
    assert main(["pipeline", "--config", str(config_path),
                 "--seed", "11"]) == 0
    second = (tmp_path / "run" / "space.json").read_bytes()
    assert first != second


def test_pipeline_seed_flag_matches_config_global_seed(tmp_path):
    flagged = tmp_path / "flagged.json"
    flagged.write_text(json.dumps(small_config(tmp_path, "flag")))
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps(small_config(tmp_path, "pin", seed=11)))
    assert main(["pipeline", "--config", str(flagged), "--seed", "11"]) == 0
    assert main(["pipeline", "--config", str(pinned)]) == 0
    for name in ARTIFACT_NAMES:
        assert ((tmp_path / "flag" / name).read_bytes()
                == (tmp_path / "pin" / name).read_bytes()), name


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """One pipeline run on the small config: its directory and config file."""
    root = tmp_path_factory.mktemp("world")
    config = root / "config.json"
    config.write_text(json.dumps(small_config(root)))
    assert main(["pipeline", "--config", str(config)]) == 0
    return root / "run", config


def test_episodes_config_seed_reproduces_pipeline_report(world, tmp_path):
    run_dir, config = world
    out = tmp_path / "report.json"
    assert main(["episodes", str(run_dir / "space.json"),
                 str(run_dir / "mlp.json"),
                 "--novel", str(run_dir / "features_novel.npz"),
                 "--negatives", str(run_dir / "negatives.json"),
                 "--w", "1", "--s", "2", "--q", "2", "--episodes", "3",
                 "--ontology", str(config.parent / "poodle.json"),
                 "--config", str(config), "--out", str(out)]) == 0
    ours = json.loads(out.read_text())
    pipeline = json.loads((run_dir / "report.json").read_text())
    for key in ("episodes", "baseline_nearest_centroid", "protocol"):
        assert ours[key] == pipeline[key], key
    assert ours["protocol"]["seed"] == 3


STAGES = {"embed": "train_embeddings", "projector": "train_base"}


@pytest.mark.parametrize("stage", sorted(STAGES))
@pytest.mark.parametrize("doc, flag, expected", [
    ({"seed": 3, "section_seed": 9}, ["--seed", "11"], 11),
    ({"seed": 3, "section_seed": 9}, [], 9),
    ({"seed": 3}, [], 3),
    (None, [], 0),
])
def test_stage_seed_precedence(world, tmp_path, monkeypatch, stage, doc,
                               flag, expected):
    """--seed, then the section's seed, then the global seed, then 0."""
    run_dir, config = world
    seen = []
    real = getattr(geoball.cli, STAGES[stage])

    def recording(*args):
        seen.append(args[-1].seed)
        return real(*args)

    monkeypatch.setattr(geoball.cli, STAGES[stage], recording)
    argv = flag
    if doc is not None:
        section = dict(json.loads(config.read_text())[stage])
        if "section_seed" in doc:
            section["seed"] = doc["section_seed"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": doc["seed"], stage: section}))
        argv = [*flag, "--config", str(path)]
    out = str(tmp_path / "out.json")
    if stage == "embed":
        argv = ["embed", str(config.parent / "poodle.json"), "--out", out, *argv]
    else:
        argv = ["train-projector", str(run_dir / "space.json"),
                str(run_dir / "negatives.json"),
                str(run_dir / "features_base.npz"), "--out", out, *argv]
    assert main(argv) == 0
    assert seen == [expected]


def test_empty_feature_csv_is_a_clean_error(world, tmp_path, capsys):
    run_dir, _ = world
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["episodes", str(run_dir / "space.json"),
                 str(run_dir / "mlp.json"), "--novel", str(empty),
                 "--negatives", str(run_dir / "negatives.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_rejects_non_finite_and_bad_artifacts(world, tmp_path, capsys):
    run_dir, _ = world
    space = json.loads((run_dir / "space.json").read_text())
    mlp = json.loads((run_dir / "mlp.json").read_text())
    base = read_features_npz(run_dir / "features_base.npz")
    features = base.features.copy()
    features[0, 0] = np.nan
    with_nan = FeatureDataset(base.dim, base.labels, features)
    bad_csv, bad_npz = tmp_path / "bad.csv", tmp_path / "bad.npz"
    write_features_csv(with_nan, bad_csv)
    write_features_npz(with_nan, bad_npz)
    # an object array can only be read back by unpickling it
    pickled = tmp_path / "pickled.npz"
    with open(pickled, "wb") as fh:
        np.savez(fh, labels=np.array(base.labels, dtype=object),
                 features=base.features)

    name = next(iter(space["balls"]))
    space["balls"][name]["r"] = 0.0
    bad_space = tmp_path / "bad_space.json"
    bad_space.write_text(json.dumps(space))

    dim = mlp["sizes"][0]
    mlp["input_mean"] = [float("nan")] + [0.0] * (dim - 1)
    mlp["input_basis"] = [[float(i == j) for j in range(dim)]
                          for i in range(dim)]
    bad_mlp = tmp_path / "bad_mlp.json"
    bad_mlp.write_text(json.dumps(mlp))

    good_space, good_mlp = str(run_dir / "space.json"), str(run_dir / "mlp.json")
    good_features = str(run_dir / "features_base.npz")
    for argv in (["infer", good_space, good_mlp, str(bad_csv)],
                 ["infer", good_space, good_mlp, str(bad_npz)],
                 ["infer", good_space, good_mlp, str(pickled)],
                 ["infer", str(bad_space), good_mlp, good_features],
                 ["infer", good_space, str(bad_mlp), good_features]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: "), argv
    for path, reason in ((bad_csv, "non-finite"), (bad_npz, "non-finite"),
                         (pickled, "allow_pickle=False")):
        assert main(["episodes", good_space, good_mlp, "--novel", str(path),
                     "--negatives", str(run_dir / "negatives.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err, path
        assert reason in err, path
