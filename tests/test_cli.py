"""Tests for the geoball command line."""

import argparse
import inspect
import json
import re

import numpy as np
import pytest

import geoball.cli
import geoball.pipeline
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
    ({"embed": {"learning_rate": float("nan")}},
     "config.json: NaN is not a JSON number"),
    ({"embed": {"gamma": float("inf")}},
     "config.json: Infinity is not a JSON number"),
    ({"embed": {"psi": -float("inf")}},
     "config.json: -Infinity is not a JSON number"),
    ({"embed": {"batch_size": 0}}, "batch_size must be >= 1"),
    ({"embed": {"seed": -1}}, "seed must be >= 0"),
    ({"seed": -1}, "seed must be >= 0"),
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


def test_output_that_is_a_symlink_is_one_error_line(poodle_path, tmp_path,
                                                    capsys):
    linked = tmp_path / "elsewhere.json"
    linked.write_text("{}")
    out = tmp_path / "ich.json"
    out.symlink_to(linked)
    assert main(["ich", str(poodle_path), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (f"error: output {out} exists and is not a regular file; "
                    "it is not replaced")
    assert out.is_symlink() and linked.read_text() == "{}"


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


def test_train_projector_prints_the_pipelines_loss_lines(config_path,
                                                         tmp_path, capsys):
    """The train-projector subcommand trains the pipeline's base projector,
    epoch for epoch."""
    assert main(["pipeline", "--config", str(config_path), "--verbose"]) == 0
    projector = loss_lines(capsys.readouterr().out, "projector ")
    assert len(projector) == small_config(tmp_path)["projector"]["epochs_bl"]
    run_dir = tmp_path / "run"
    mlp = tmp_path / "mlp.json"
    assert main(["train-projector", str(run_dir / "space.json"),
                 str(run_dir / "negatives.json"),
                 str(run_dir / "features_base.npz"), "--out", str(mlp),
                 "--config", str(config_path), "--verbose"]) == 0
    assert loss_lines(capsys.readouterr().out) == projector
    assert mlp.read_bytes() == (run_dir / "mlp.json").read_bytes()


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


def test_episodes_report_is_the_same_from_every_npz_form(world, tmp_path):
    """The novel split as the pipeline stores it, compressed, and with its
    matrix in Fortran order: the last two are read whole at open, the first
    row by row, and all three give the same report bytes."""
    run_dir, config = world
    stored = run_dir / "features_novel.npz"
    novel = read_features_npz(stored)
    labels = np.array(novel.labels, dtype=str)
    compressed, fortran = tmp_path / "compressed.npz", tmp_path / "fortran.npz"
    np.savez_compressed(compressed, labels=labels, features=novel.features)
    np.savez(fortran, labels=labels,
             features=np.asfortranarray(novel.features))
    reports = []
    for path in (stored, compressed, fortran):
        out = tmp_path / f"{path.stem}.json"
        assert main(["episodes", str(run_dir / "space.json"),
                     str(run_dir / "mlp.json"), "--novel", str(path),
                     "--negatives", str(run_dir / "negatives.json"),
                     "--ontology", str(config.parent / "poodle.json"),
                     "--config", str(config), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[1] == reports[0] and reports[2] == reports[0]


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
    real = getattr(geoball.pipeline, STAGES[stage])

    def recording(*args, **kwargs):
        seen.append(args[-1].seed)
        return real(*args, **kwargs)

    monkeypatch.setattr(geoball.pipeline, STAGES[stage], recording)
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


def test_one_config_document_gets_one_verdict(world, tmp_path, capsys):
    """Every subcommand that takes --config reads the whole document as the
    pipeline reads it: a bad section that it does not use is an error, the
    same one everywhere, and is found before the missing paths are."""
    run_dir, config = world
    space, mlp, negatives = (str(run_dir / f"{name}.json")
                             for name in ("space", "mlp", "negatives"))
    ontology, out = str(config.parent / "poodle.json"), tmp_path / "out.json"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"embed": {"dim": "big"},
                               "generator": {"per_class": 0}}))
    lines = []
    for argv in (["embed", ontology, "--out", str(out)],
                 ["tune", ontology, "--out", str(out)],
                 ["train-projector", space, negatives,
                  str(run_dir / "features_base.npz"), "--out", str(out)],
                 ["episodes", space, mlp, "--negatives", negatives,
                  "--novel", str(run_dir / "features_novel.npz")],
                 ["pipeline"]):
        assert main(argv + ["--config", str(bad)]) == 1, argv
        lines += capsys.readouterr().err.splitlines()
    assert lines == ["error: config section 'embed' key 'dim' must be int, "
                     'not "big"'] * 5
    assert not out.exists()


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
    novel = read_features_npz(run_dir / "features_novel.npz")
    narrow = tmp_path / "narrow.npz"
    write_features_npz(FeatureDataset(novel.dim - 1, novel.labels,
                                      novel.features[:, 1:]), narrow)
    for argv in (["infer", good_space, good_mlp, str(narrow)],
                 ["episodes", good_space, good_mlp, "--novel", str(narrow),
                  "--negatives", str(run_dir / "negatives.json"),
                  "--w", "1", "--s", "2", "--q", "2", "--episodes", "1"]):
        assert main(argv) == 1, argv
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "feature dimension" in line, argv


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


NAME_FLAGS = (
    ("--leaves", ["negatives", "SPACE", "--out", "OUT"]),
    ("--candidates", ["infer", "SPACE", "MLP", "FEATURES", "--out", "OUT"]),
    ("--concepts", ["viz", "SPACE", "--out", "OUT"]),
)


@pytest.mark.parametrize("flag, argv, names, message", [
    *(pytest.param(flag, argv, "poodle,nope,nada",
                   "no ball for {flag} concepts (space {space}): "
                   "['nope', 'nada']", id=f"{flag}-argv{i}")
      for i, (flag, argv) in enumerate(NAME_FLAGS)),
    *(pytest.param(flag, argv, "poodle,retriever,poodle",
                   "{flag} names ['poodle'] more than once",
                   id=f"{flag}-repeated")
      for flag, argv in NAME_FLAGS),
])
def test_unknown_names_in_a_flag_are_a_clean_error(world, tmp_path, capsys,
                                                    flag, argv, names,
                                                    message):
    run_dir, _ = world
    paths = {"SPACE": run_dir / "space.json", "MLP": run_dir / "mlp.json",
             "FEATURES": run_dir / "features_novel.npz",
             "OUT": tmp_path / "out.json"}
    assert main([str(paths.get(arg, arg)) for arg in argv]
                + [flag, names]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")
    assert message.format(flag=flag, space=paths["SPACE"]) in line
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
    assert line == (f"error: no ball for the trained labels of projector "
                    f"{run_dir / 'mlp.json'} (space {other}): {gone}")
    assert not out.exists()


@pytest.mark.parametrize("value", [["nope"], "retriever", ["poodle"],
                                   ["dog", "dog"]])
def test_negatives_without_a_ball_are_a_clean_error(world, tmp_path, capsys,
                                                    value):
    """A negative set the space has no ball for, or a bare name in place of
    a list of names, is refused instead of being dropped or split into
    characters; so is a class among its own negatives, and a negative named
    twice."""
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
    for path, flags, reason in (
            (short, [], f"{short} does not hold a BallSpace artifact: "
                        f"ValueError: the centre of ball {name!r} has "
                        f"{space['dim'] - 1} entries, not dim {space['dim']}"),
            (empty, [], "no leaves to build negative sets for"),
            (run_dir / "space.json", ["--seed", "-1"], "seed must be >= 0")):
        assert main(["negatives", str(path), "--out", str(out), *flags]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and reason in line, line
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--gammas", "nan"), ("--gammas", "inf"), ("--gammas", "abc"),
    ("--psis", "0.1,-inf"), ("--phis", "2,1e999"),
])
def test_a_grid_value_that_is_not_a_finite_number_is_a_clean_tune_error(
        poodle_path, tmp_path, capsys, flag, value):
    out = tmp_path / "grid.json"
    assert main(["tune", str(poodle_path), "--out", str(out),
                 f"{flag}={value}"]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and flag in line
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["ingest", "BAD"],
    ["embed", "ONTOLOGY", "--out", "OUT", "--config", "BAD"],
    ["pipeline", "--config", "BAD"],
    ["negatives", "BAD", "--out", "OUT"],
    ["train-projector", "SPACE", "BAD", "FEATURES", "--out", "OUT"],
    ["infer", "SPACE", "BAD", "FEATURES", "--out", "OUT"],
], ids=["ontology", "embed-config", "pipeline-config", "space", "negatives",
        "mlp"])
def test_a_json_syntax_error_names_the_file(world, tmp_path, capsys, argv):
    run_dir, config = world
    paths = {"ONTOLOGY": config.parent / "poodle.json",
             "SPACE": run_dir / "space.json",
             "FEATURES": run_dir / "features_base.npz",
             "OUT": tmp_path / "out.json", "BAD": tmp_path / "bad.json"}
    paths["BAD"].write_text('{"a": 1,}')
    assert main([str(paths.get(arg, arg)) for arg in argv]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(paths["BAD"]) in line
    assert "syntax error at line 1, column 9" in line
    assert not paths["OUT"].exists()


DROPPED = object()


def set_at(doc, path, value):
    """Put ``value`` at ``path`` in ``doc``, or delete the entry there for
    ``DROPPED``."""
    for key in path[:-1]:
        doc = doc[key]
    if value is DROPPED:
        del doc[path[-1]]
    else:
        doc[path[-1]] = value


@pytest.mark.parametrize("kind, path, value, names", [
    ("space", ("dim",), 4.7, "dim must be int, not 4.7"),
    ("space", ("balls", "poodle", "r"), "0.5",
     "the radius of ball 'poodle' must be float"),
    ("mlp", ("sizes", 0), 12.9, "sizes must be tuple[int, ...]"),
    ("mlp", ("trained_labels",), "abc",
     'trained_labels must be tuple[str, ...], not "abc"'),
    ("mlp", ("weights", 0, 0, 0), "0.5", "weights must hold only numbers"),
    ("mlp", ("weights", 0, 0, 0), True, "weights must hold only numbers"),
], ids=["dim", "radius", "sizes", "trained_labels", "weights",
        "bool-weight"])
def test_artifact_fields_are_checked_like_config_fields(
        world, tmp_path, capsys, kind, path, value, names):
    """A float is not truncated to an int, a numeric string is not read as
    a number, and a string is not a list of names."""
    run_dir, _ = world
    files = {name: run_dir / f"{name}.json"
             for name in ("space", "mlp", "negatives")}
    doc = json.loads(files[kind].read_text())
    set_at(doc, path, value)
    files[kind] = tmp_path / f"{kind}.json"
    files[kind].write_text(json.dumps(doc))
    assert main(["episodes", str(files["space"]), str(files["mlp"]),
                 "--novel", str(run_dir / "features_novel.npz"),
                 "--negatives", str(files["negatives"])]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {files[kind]} does not hold a ")
    assert names in line


def mutation_sites(doc, path=(), every=((),)):
    """The paths the mutation test changes: the root, every key of the
    objects at the paths in ``every`` (the top-level object by default),
    the first key of every other object and the first entry of every
    list."""
    yield path
    if isinstance(doc, dict):
        for key in list(doc)[:None if path in every else 1]:
            yield from mutation_sites(doc[key], path + (key,), every)
    elif isinstance(doc, list) and doc:
        yield from mutation_sites(doc[0], path + (0,), every)


MUTANTS = (None, True, -1, 0.5, "0.5", "nope", float("nan"), [], {})


def mutations(doc, every=((),)):
    """``(what, mutated copy)`` for every site of ``doc``: the value there
    replaced by each of ``MUTANTS``, shortened, or dropped."""
    for path in mutation_sites(doc, every=every):
        value = doc
        for key in path:
            value = value[key]
        changes = [(repr(new), new) for new in MUTANTS]
        if isinstance(value, list) and value:
            changes.append(("shortened", value[:-1]))
        if not path:
            yield from ((f"root -> {what}", new) for what, new in changes)
            continue
        for what, new in changes + [("dropped", DROPPED)]:
            copy = json.loads(json.dumps(doc))
            set_at(copy, path, new)
            yield f"{list(path)} -> {what}", copy


def feature_mutations(dataset):
    """``(what, arrays)`` for mutations of a feature file's labels and
    features, each pair of arrays to be written with ``np.savez``."""
    labels, features = np.array(dataset.labels, dtype=str), dataset.features
    for what, name in (("renamed to an unknown name", "nope"),
                       ("emptied", "")):
        changed = labels.copy()
        changed[0] = name
        yield f"a label {what}", {"labels": changed, "features": features}
    with_nan = features.copy()
    with_nan[0, 0] = np.nan
    for what, arrays in (
            ("2-D labels", {"labels": labels[:, None]}),
            ("integer labels", {"labels": np.arange(len(labels))}),
            ("one label fewer", {"labels": labels[:-1]}),
            ("zero rows", {"labels": labels[:0], "features": features[:0]}),
            ("one row", {"labels": labels[:1], "features": features[:1]}),
            ("one column fewer", {"features": features[:, :-1]}),
            ("float32", {"features": features.astype(np.float32)}),
            ("3-D features", {"features": features[:, :, None]}),
            ("a NaN", {"features": with_nan})):
        yield what, {"labels": labels, "features": features, **arrays}


def csv_mutations(text: str):
    """``(what, bytes)`` for mutations of a feature CSV's ``text``: its
    header, the fields of its first row, its line ends and its encoding."""
    header, row, *rest = text.split("\n")
    label, values = row.split(",", 1)

    def with_row(new):
        return "\n".join([header, new, *rest])

    for what, mutant in (
            ("a renamed label header", text.replace("label", "labels", 1)),
            ("a BOM", "\ufeff" + text),
            ("header only", header + "\n"),
            ("an empty file", ""),
            ("a short row", with_row(row.rsplit(",", 1)[0])),
            ("a long row", with_row(row + ",1.0")),
            ("a label-only row", with_row(label)),
            *((f"{value} as a value",
               with_row(f"{label},{value},{values.split(',', 1)[1]}"))
              for value in ("1_0", "0x1p3", "nan", "inf")),
            ("an unknown label", with_row("nope," + values)),
            ("an empty label", with_row("," + values)),
            ("a quoted label holding a line break",
             with_row(f'"{label}\n{label}",{values}')),
            ("bare \\r line ends", text.replace("\n", "\r")),
            ("\\r\\n line ends", text.replace("\n", "\r\n")),
            ("a blank line", with_row(row + "\n")),
            ("one column fewer", "\n".join(line.rsplit(",", 1)[0]
                                           for line in text.split("\n")))):
        yield what, mutant.encode()
    yield "a non-UTF-8 byte", with_row("\udcff" + row).encode(
        errors="surrogateescape")


@pytest.mark.parametrize("kind, command", [
    ("space", "episodes"), ("space", "infer"), ("space", "negatives"),
    ("space", "viz"), ("negatives", "episodes"), ("mlp", "episodes"),
    ("mlp", "infer"), ("ontology", "ingest"), ("ontology", "embed"),
    ("ontology", "tune"), ("ontology", "infer --ontology"),
    ("config", "embed"), ("config", "tune"),
    ("config", "train-projector"), ("config", "episodes"),
    ("config", "pipeline"), ("features", "train-projector"),
    ("features", "infer"), ("features", "episodes"),
    ("csv", "train-projector"), ("csv", "infer"), ("csv", "episodes"),
])
def test_every_mutated_artifact_ends_cleanly(world, tmp_path, capfd,
                                             monkeypatch, kind, command):
    """Each structured mutation of a valid input file (a dropped key or
    entry, a shortened list, a value of another type, NaN, an empty
    container or an unknown name; for a feature file, a changed label, a
    changed shape or type, or a NaN; for a feature CSV, a changed header,
    row, value, label, line end or byte) ends in exit 0, or in exit 1 with
    exactly one ``error:`` line and no traceback. A config's every section
    is mutated at every key under every command that takes --config, since
    each reads the whole document."""
    run_dir, config = world
    files = {name: run_dir / f"{name}.json"
             for name in ("space", "mlp", "negatives")}
    files["ontology"] = config.parent / "poodle.json"
    files["config"] = config
    novel, base = run_dir / "features_novel.npz", run_dir / "features_base.npz"
    source = base if command == "train-projector" else novel
    if kind == "features":
        cases = feature_mutations(read_features_npz(source))
        novel = base = tmp_path / "features.npz"

        def write(arrays):
            with open(novel, "wb") as fh:
                np.savez(fh, **arrays)
    elif kind == "csv":
        novel = base = tmp_path / "features.csv"
        write_features_csv(read_features_npz(source), novel)
        cases = csv_mutations(novel.read_text())
        write = novel.write_bytes
    else:
        doc = json.loads(files[kind].read_text())
        every = ((),)
        if kind == "config":
            # a run writes into this test's directory, never into the
            # world's; a relative out_dir lands there too
            doc["out_dir"] = str(tmp_path / "run")
            monkeypatch.chdir(tmp_path)
            every += tuple((key,) for key, value in doc.items()
                           if isinstance(value, dict))
        files[kind] = tmp_path / f"{kind}.json"
        cases = mutations(doc, every)

        def write(mutant):
            files[kind].write_text(json.dumps(mutant))
    out = tmp_path / "out.json"
    argv = {"episodes": ["episodes", files["space"], files["mlp"],
                         "--novel", novel, "--negatives", files["negatives"],
                         "--episodes", "1", "--config", files["config"]],
            "infer": ["infer", files["space"], files["mlp"], novel],
            "infer --ontology": ["infer", files["space"], files["mlp"], novel,
                                 "--ontology", files["ontology"]],
            "negatives": ["negatives", files["space"], "--out", out],
            "viz": ["viz", files["space"], "--out", tmp_path / "balls.svg"],
            "ingest": ["ingest", files["ontology"]],
            "embed": ["embed", files["ontology"], "--out", out,
                      "--config", files["config"]],
            "tune": ["tune", files["ontology"], "--out", out,
                     "--config", files["config"], "--gammas=-0.1",
                     "--psis", "0.3", "--phis", "2"],
            "train-projector": ["train-projector", files["space"],
                                files["negatives"], base, "--out", out,
                                "--config", files["config"]],
            "pipeline": ["pipeline", "--config", files["config"]]}[command]
    faults = []
    for what, mutant in cases:
        write(mutant)
        try:
            code = main([str(arg) for arg in argv])
        except Exception as exc:  # noqa: BLE001 - a fault to report
            code = repr(exc)
        lines = capfd.readouterr().err.splitlines()
        if not (code == 0 or (code == 1 and len(lines) == 1
                              and lines[0].startswith("error: "))):
            faults.append((what, code, lines[-3:]))
    assert faults == []
