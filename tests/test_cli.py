"""Tests for the geoball command line."""

import argparse
import inspect
import json
import re

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


@pytest.mark.parametrize("doc, names", [
    ({"concepts": ["a", "b"], "subclases": [["a", "b"]]}, "'subclases'"),
    ({"concepts": "ab"}, '"concepts" must be a JSON list'),
    ({"concepts": ["a", "b"], "leaves": "ab"}, '"leaves" must be a JSON list'),
    ({"concepts": 5}, '"concepts" must be a JSON list'),
    ({"concepts": ["a", None]}, '"concepts"[1] must be a string'),
    ({"concepts": ["a"], "subclass": [5]}, '"subclass"[0] must be a list'),
    ({"concepts": ["a", "b"], "subclass": {"a": "b"}},
     '"subclass" must be a JSON list'),
])
def test_ingest_refuses_a_misshapen_document(tmp_path, capsys, doc, names):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["ingest", str(path)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and names in line


@pytest.mark.parametrize("doc, names", [
    ({"embed": {"dim": "4"}}, "config section 'embed' key 'dim'"),
    ({"embed": {"learning_rate": "0.1"}},
     "config section 'embed' key 'learning_rate'"),
    ({"seed": 1.7}, "pipeline config key 'seed'"),
    ({"seed": True}, "pipeline config key 'seed'"),
    ({"embed": {"epochs": True}}, "config section 'embed' key 'epochs'"),
    ({"embedd": {}}, "['embedd']"),
])
def test_config_value_of_the_wrong_type_is_a_clean_error(
        poodle_path, tmp_path, capsys, doc, names):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["embed", str(poodle_path), "--out", str(tmp_path / "s.json"),
                 "--config", str(config)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and names in line
    assert not (tmp_path / "s.json").exists()


def test_every_flag_is_read_by_its_subcommand():
    """A flag whose ``dest`` its subcommand's ``cmd_*`` body never reads
    would be accepted and then do nothing."""
    parser = geoball.cli.build_parser()
    (subcommands,) = (action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    unread = []
    for name, sub in subcommands.choices.items():
        body = inspect.getsource(sub.get_default("func"))
        unread += [(name, action.dest) for action in sub._actions
                   if not isinstance(action, argparse._HelpAction)
                   and not re.search(rf"\bargs\.{action.dest}\b", body)]
    assert unread == []


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


def loss_lines(text, prefix=""):
    """The epoch numbers and loss values of ``--verbose`` lines with
    ``prefix``."""
    return [(int(epoch), float(loss)) for epoch, loss in re.findall(
        rf"^{prefix}epoch (\d+): loss (\S+)$", text, re.M)]


def test_verbose_prints_one_loss_line_per_epoch(config_path, poodle_path,
                                                tmp_path, capsys):
    config = small_config(tmp_path)
    embed_epochs = config["embed"]["epochs"]
    base_epochs = config["projector"]["epochs_bl"]
    any_loss = re.compile(r"epoch \d+: loss")

    assert main(["pipeline", "--config", str(config_path)]) == 0
    assert not any_loss.search(capsys.readouterr().out)
    assert main(["pipeline", "--config", str(config_path), "--verbose"]) == 0
    out = capsys.readouterr().out
    embed = loss_lines(out, "embed ")
    assert [epoch for epoch, _ in embed] == list(range(1, embed_epochs + 1))
    projector = loss_lines(out, "projector ")
    assert [epoch for epoch, _ in projector] == list(range(1, base_epochs + 1))
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert projector[-1][1] == pytest.approx(report["projector_final_loss"],
                                             abs=5e-7)

    space = str(tmp_path / "space.json")
    embed_argv = ["embed", str(poodle_path), "--out", space,
                  "--config", str(config_path)]
    assert main(embed_argv) == 0
    assert not any_loss.search(capsys.readouterr().out)
    assert main([*embed_argv, "--verbose"]) == 0
    # the embed subcommand trains the pipeline's embedding, epoch for epoch
    assert loss_lines(capsys.readouterr().out) == embed


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
    """Protocol flags left out take the config's episodes section."""
    run_dir, config = world
    out = tmp_path / "report.json"
    pipeline = json.loads((run_dir / "report.json").read_text())
    for flags in (["--w", "1", "--s", "2", "--q", "2", "--episodes", "3"],
                  [], ["--episodes", "2"]):
        assert main(["episodes", str(run_dir / "space.json"),
                     str(run_dir / "mlp.json"),
                     "--novel", str(run_dir / "features_novel.npz"),
                     "--negatives", str(run_dir / "negatives.json"), *flags,
                     "--ontology", str(config.parent / "poodle.json"),
                     "--config", str(config), "--out", str(out)]) == 0
        ours = json.loads(out.read_text())
        if flags == ["--episodes", "2"]:
            assert ours["protocol"] == {**pipeline["protocol"],
                                        "n_episodes": 2}
            continue
        for key in ("episodes", "baseline_nearest_centroid", "protocol"):
            assert ours[key] == pipeline[key], (key, flags)
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

    def recording(*args, **kwargs):
        seen.append(args[-1].seed)
        return real(*args, **kwargs)

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


def test_header_only_feature_csv_is_a_clean_infer_error(world, tmp_path,
                                                       capsys):
    run_dir, _ = world
    header_only = tmp_path / "header.csv"
    header_only.write_text("label,f_1,f_2\n")
    assert main(["infer", str(run_dir / "space.json"),
                 str(run_dir / "mlp.json"), str(header_only)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(header_only) in err


@pytest.mark.parametrize("doc, argv", [
    (5, ["pipeline"]),
    ([], ["pipeline"]),
    ({"embed": 5}, ["embed", "ONTOLOGY", "--out", "OUT"]),
    ({"embed": [["dim", 4]]}, ["embed", "ONTOLOGY", "--out", "OUT"]),
    ({"projector": "adam"}, ["train-projector", "SPACE", "NEGATIVES",
                             "FEATURES", "--out", "OUT"]),
    ({"episodes": [1, 2]}, ["episodes", "SPACE", "MLP", "--novel", "FEATURES",
                            "--negatives", "NEGATIVES"]),
])
def test_config_document_that_is_not_an_object_is_a_clean_error(
        world, tmp_path, capsys, doc, argv):
    run_dir, config = world
    paths = {"ONTOLOGY": config.parent / "poodle.json",
             "OUT": tmp_path / "out.json",
             "SPACE": run_dir / "space.json", "MLP": run_dir / "mlp.json",
             "NEGATIVES": run_dir / "negatives.json",
             "FEATURES": run_dir / "features_base.npz"}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main([str(paths.get(arg, arg)) for arg in argv]
                + ["--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "a JSON object" in err
    assert not (tmp_path / "out.json").exists()


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


def test_artifact_of_the_wrong_shape_is_a_clean_error(world, tmp_path, capsys):
    """Valid JSON that is not the artifact a command reads is refused with
    one line naming the file and the artifact kind."""
    run_dir, _ = world
    mlp = json.loads((run_dir / "mlp.json").read_text())
    del mlp["weights"]
    bad = {}
    for name, doc in (("space", {"dim": 2, "balls": []}),
                      ("negatives", {"poodle": 5}), ("mlp", mlp)):
        bad[name] = tmp_path / f"{name}.json"
        bad[name].write_text(json.dumps(doc))
    space = str(run_dir / "space.json")
    features = str(run_dir / "features_base.npz")
    out = str(tmp_path / "out.json")
    for argv, path, kind in (
            (["negatives", str(bad["space"]), "--out", out], bad["space"],
             "BallSpace"),
            (["train-projector", space, str(bad["negatives"]), features,
              "--out", out], bad["negatives"], "NegativeSets"),
            (["infer", space, str(bad["mlp"]), features], bad["mlp"], "Mlp")):
        assert main(argv) == 1, argv
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        assert f"{path} does not hold a {kind} artifact" in line
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("flag, argv", [
    ("--leaves", ["negatives", "SPACE", "--out", "OUT"]),
    ("--candidates", ["infer", "SPACE", "MLP", "FEATURES", "--out", "OUT"]),
    ("--concepts", ["viz", "SPACE", "--out", "OUT"]),
])
def test_unknown_names_in_a_flag_are_a_clean_error(world, tmp_path, capsys,
                                                    flag, argv):
    run_dir, _ = world
    paths = {"SPACE": run_dir / "space.json", "MLP": run_dir / "mlp.json",
             "FEATURES": run_dir / "features_novel.npz",
             "OUT": tmp_path / "out.json"}
    assert main([str(paths.get(arg, arg)) for arg in argv]
                + [flag, "poodle,nope,nada"]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")
    assert f"unknown {flag} concepts: ['nope', 'nada']" in line
    assert str(paths["SPACE"]) in line
    assert not (tmp_path / "out.json").exists()


def test_infer_against_another_space_names_both_files(world, tmp_path,
                                                      capsys):
    """Without --candidates, infer classifies into the projector's trained
    labels; one with no ball in the space is named with both files."""
    run_dir, _ = world
    trained = json.loads((run_dir / "mlp.json").read_text())["trained_labels"]
    space = json.loads((run_dir / "space.json").read_text())
    gone = sorted(trained)[:2]
    for name in gone:
        del space["balls"][name]
    other = tmp_path / "other_space.json"
    other.write_text(json.dumps(space))
    out = tmp_path / "preds.json"
    assert main(["infer", str(other), str(run_dir / "mlp.json"),
                 str(run_dir / "features_base.npz"), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (f"error: projector {run_dir / 'mlp.json'} was trained on "
                    f"labels with no ball in {other}: {gone}")
    assert not out.exists()


@pytest.mark.parametrize("value", [["nope"], "retriever"])
def test_negatives_without_a_ball_are_a_clean_error(world, tmp_path, capsys,
                                                    value):
    """A negative set the space has no ball for, or a bare name in place of
    a list of names, is refused instead of being dropped or split into
    characters."""
    run_dir, _ = world
    doc = json.loads((run_dir / "negatives.json").read_text())
    bad = tmp_path / "negatives.json"
    bad.write_text(json.dumps({name: value for name in doc}))
    out = tmp_path / "mlp.json"
    assert main(["train-projector", str(run_dir / "space.json"), str(bad),
                 str(run_dir / "features_base.npz"), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and repr(value) in line
    assert not out.exists()


def test_misshapen_space_is_a_clean_negatives_error(world, tmp_path, capsys):
    run_dir, _ = world
    space = json.loads((run_dir / "space.json").read_text())
    name = next(iter(space["balls"]))
    space["balls"][name]["c"].pop()
    short, empty = tmp_path / "short.json", tmp_path / "empty.json"
    short.write_text(json.dumps(space))
    empty.write_text(json.dumps({"dim": space["dim"], "balls": {}}))
    out = tmp_path / "negatives.json"
    for path, reason in (
            (short, f"{short} does not hold a BallSpace artifact: ValueError: "
                    f"the centre of ball {name!r} has {space['dim'] - 1} "
                    f"entries, not dim {space['dim']}"),
            (empty, "no leaves to build negative sets for")):
        assert main(["negatives", str(path), "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and reason in line, line
    assert not out.exists()
