"""Tests for the end-to-end pipeline orchestration."""

import json
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

import geoball.harness
import geoball.pipeline
from geoball.cli import main
from geoball.pipeline import (
    ARTIFACT_NAMES,
    DEFAULT_SEED,
    EpisodeConfig,
    GeneratorConfig,
    PipelineConfig,
    PipelineError,
    run_pipeline,
    _write_json,
)

POODLE = {
    "concepts": ["entity", "animal", "dog", "poodle", "retriever",
                 "street_sign"],
    "subclass": [["animal", "entity"], ["dog", "animal"], ["poodle", "dog"],
                 ["retriever", "dog"], ["street_sign", "entity"]],
    "disjoint": [["dog", "street_sign"], ["poodle", "retriever"]],
    "leaves": ["poodle", "retriever", "street_sign"],
}


def write_poodle(tmp_path):
    path = tmp_path / "poodle.json"
    path.write_text(json.dumps(POODLE))
    return path


def small_config(tmp_path, out_name="run", **overrides):
    obj = {
        "ontology_path": str(write_poodle(tmp_path)),
        "out_dir": str(tmp_path / out_name),
        "seed": 3,
        "embed": {"dim": 4, "gamma": -0.1, "disjoint_gamma": 0.05, "psi": 0.3,
                  "phi": 2.0, "learning_rate": 0.05, "lr_decay": 0.002,
                  "epochs": 300, "batch_size": 16, "radius_clamp_min": 0.3,
                  "init_radius_slack": 0.1},
        "projector": {"learning_rate": 0.01, "epochs_bl": 80, "epochs_fsl": 30,
                      "batch_size": 16, "optimizer": "adam",
                      "hidden_sizes": [16, 8], "reduce_dim": None},
        "generator": {"dim": 12, "per_class": 6, "noise_sigma": 0.3,
                      "step_scale": 2.0, "intrinsic_dim": None},
        "episodes": {"w": 1, "s": 2, "q": 2, "n_episodes": 3},
    }
    obj.update(overrides)
    return obj


def test_pipeline_produces_six_artifacts(tmp_path):
    config = PipelineConfig.from_dict(small_config(tmp_path))
    written = run_pipeline(config)
    assert [p.name for p in written] == list(ARTIFACT_NAMES)
    assert all(p.is_file() for p in written)
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    for key in ("embedding_scores", "episodes", "baseline_nearest_centroid",
                "margin_over_baseline", "protocol", "reference_results"):
        assert key in report
    assert report["reference_results"]["mini_imagenet_5way_5shot"]["accuracy"] == 93.65
    assert report["episodes"]["episodes"] == 3


def test_pipeline_reruns_are_byte_identical(tmp_path):
    first = PipelineConfig.from_dict(small_config(tmp_path, "a"))
    second = PipelineConfig.from_dict(small_config(tmp_path, "b"))
    run_pipeline(first)
    run_pipeline(second)
    # and re-running in place must reproduce the same bytes
    run_pipeline(first)
    for name in ARTIFACT_NAMES:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs")
def test_pipeline_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """One config run by ``geoball pipeline`` in two child processes, at one
    and at two BLAS threads (set in the children's environment only),
    writes the same ``space.json``, ``negatives.json`` and feature ``.npz``
    files. ``mlp.json`` and ``report.json`` are not compared: with an input
    reduction, base learning runs LAPACK's ``eigh``, and its threaded
    eigensolver gives other last bits at another thread count."""
    src = str(Path(geoball.pipeline.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for threads in ("1", "2"):
        config = tmp_path / f"config{threads}.json"
        # the generator's intrinsic lift puts a LAPACK QR on the path
        config.write_text(json.dumps(small_config(
            tmp_path, f"threads{threads}",
            generator={"dim": 64, "per_class": 6, "intrinsic_dim": 6})))
        subprocess.run([sys.executable, "-m", "geoball.cli", "pipeline",
                        "--config", str(config)], check=True,
                       capture_output=True,
                       env={**env, "OPENBLAS_NUM_THREADS": threads,
                            "OMP_NUM_THREADS": threads})
    for name in ("space.json", "negatives.json", "features_base.npz",
                 "features_novel.npz"):
        assert ((tmp_path / "threads1" / name).read_bytes()
                == (tmp_path / "threads2" / name).read_bytes()), name


def test_pipeline_missing_ontology_aborts_cleanly(tmp_path):
    obj = small_config(tmp_path)
    obj["ontology_path"] = str(tmp_path / "absent.json")
    config = PipelineConfig.from_dict(obj)
    with pytest.raises(PipelineError) as err:
        run_pipeline(config)
    assert err.value.stage == "ingest"
    assert "ingest" in str(err.value)
    out = tmp_path / "run"
    assert not any(out.glob("*")) if out.exists() else True


def test_pipeline_late_stage_failure_keeps_earlier_artifacts(tmp_path):
    # w exceeds the single novel class, so only the episodes stage can fail
    obj = small_config(tmp_path, episodes={"w": 5, "s": 2, "q": 2,
                                           "n_episodes": 3})
    config = PipelineConfig.from_dict(obj)
    with pytest.raises(PipelineError) as err:
        run_pipeline(config)
    assert err.value.stage == "episodes"
    out = tmp_path / "run"
    present = sorted(p.name for p in out.glob("*"))
    assert present == sorted(ARTIFACT_NAMES[:-1])


def test_config_seed_propagates_unless_overridden(tmp_path):
    obj = small_config(tmp_path)
    config = PipelineConfig.from_dict(obj)
    assert config.embed.seed == 3
    assert config.projector.seed == 3

    obj["projector"]["seed"] = 9
    config = PipelineConfig.from_dict(obj)
    assert config.projector.seed == 9
    assert config.embed.seed == 3

    bare = PipelineConfig.from_dict({"ontology_path": "x", "out_dir": "y"})
    assert bare.seed == DEFAULT_SEED
    assert bare.embed.seed == DEFAULT_SEED


def test_config_seed_argument_overrides_pinned_sections(tmp_path):
    obj = small_config(tmp_path)
    obj["embed"]["seed"] = 5
    obj["projector"]["seed"] = 9
    config = PipelineConfig.from_dict(obj, seed=11)
    assert (config.seed, config.embed.seed, config.projector.seed) == (11, 11, 11)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    assert PipelineConfig.from_json(path, seed=11) == config
    assert PipelineConfig.from_json(path) == PipelineConfig.from_dict(obj)


def test_config_validation(tmp_path):
    with pytest.raises(ValueError, match="ontology_path"):
        run_pipeline(PipelineConfig.from_dict({"out_dir": "y"}))
    with pytest.raises(ValueError, match="unknown"):
        PipelineConfig.from_dict({"ontology_path": "x", "out_dir": "y",
                                  "typo_section": {}})
    for section in (5, [["dim", 4]], "dim", None):
        with pytest.raises(ValueError, match="'embed' must be a JSON object"):
            PipelineConfig.from_dict({"ontology_path": "x", "out_dir": "y",
                                      "embed": section})
    for text in ("5", "[]", "null"):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="must hold a JSON object"):
            PipelineConfig.from_json(path)
    with pytest.raises(ValueError):
        GeneratorConfig(per_class=0)
    with pytest.raises(ValueError):
        GeneratorConfig(noise_sigma=-1.0)
    with pytest.raises(ValueError):
        EpisodeConfig(w=0)


@pytest.mark.parametrize("overrides, message", [
    ({"embed": {"dim": "4"}}, "config section 'embed' key 'dim' must be int"),
    ({"embed": {"learning_rate": "0.1"}},
     "config section 'embed' key 'learning_rate' must be float"),
    ({"seed": 1.7}, "pipeline config key 'seed' must be int"),
    ({"seed": True}, "pipeline config key 'seed' must be int"),
    ({"embed": {"epochs": True}}, "config section 'embed' key 'epochs'"),
    ({"projector": {"hidden_sizes": [8, 2.5]}}, "'hidden_sizes'"),
    ({"generator": {"intrinsic_dim": 1.5}}, "'intrinsic_dim' must be int | None"),
    ({"negatives_k": "3"}, "'negatives_k'"),
    ({"out_dir": 5}, "'out_dir' must be str"),
    ({"projector": {"hidden_sizes": [0]}}, "hidden_sizes entries must be >= 1"),
    ({"projector": {"hidden_sizes": [8, -1]}},
     "hidden_sizes entries must be >= 1"),
    ({"generator": {"intrinsic_dim": 0}}, "intrinsic_dim must lie in [1, dim]"),
    ({"generator": {"dim": 12, "intrinsic_dim": 13}},
     "intrinsic_dim must lie in [1, dim]"),
    ({"embed": {"learning_rate": -1.0}}, "learning_rate must be > 0"),
    ({"projector": {"learning_rate": 0.0}}, "learning_rate must be > 0"),
    # a check in a section's constructor names the section it read
    ({"embed": {"learning_rate": 0.0}},
     "config section 'embed': learning_rate must be > 0"),
    ({"projector": {"learning_rate": -1.0}},
     "config section 'projector': learning_rate must be > 0"),
    ({"embed": {"batch_size": 0}},
     "config section 'embed': batch_size must be >= 1"),
    ({"projector": {"batch_size": 0}},
     "config section 'projector': batch_size must be >= 1"),
    ({"embed": {"seed": -1}}, "config section 'embed': seed must be >= 0"),
    ({"projector": {"seed": -1}},
     "config section 'projector': seed must be >= 0"),
])
def test_config_refuses_a_value_of_the_wrong_type(tmp_path, overrides, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PipelineConfig.from_dict(small_config(tmp_path, **overrides))


def test_config_value_types_follow_the_fields(tmp_path):
    """An int where a float goes, null for an optional field, and a list or
    tuple of ints for the hidden sizes."""
    obj = small_config(tmp_path, negatives_k=None)
    obj["embed"].update(gamma=-1, disjoint_gamma=None)
    obj["projector"]["hidden_sizes"] = (16, 8)
    config = PipelineConfig.from_dict(obj)
    assert config.embed.gamma == -1 and config.embed.disjoint_gamma is None
    assert config.projector.hidden_sizes == (16, 8)


def test_config_dict_roundtrip(tmp_path):
    config = PipelineConfig.from_dict(small_config(tmp_path))
    assert PipelineConfig.from_dict(config.to_dict()) == config


@pytest.fixture(params=[1, 2], ids=["1share", "2shares"])
def shares(request, monkeypatch):
    """Run the pipeline's forked shares at one and at two usable CPUs; at
    one, both halves run in order in this process."""
    monkeypatch.setattr(geoball.harness, "_usable_cpus", lambda: request.param)
    return request.param


def test_interrupted_write_keeps_old_artifact(tmp_path, monkeypatch):
    for n in (1, 2):
        monkeypatch.setattr(geoball.harness, "_usable_cpus", lambda n=n: n)
        config = PipelineConfig.from_dict(small_config(tmp_path, f"run{n}"))
        run_pipeline(config)
        out = tmp_path / f"run{n}"
        before = {name: (out / name).read_bytes() for name in ARTIFACT_NAMES}

        # a re-run with another seed changes every artifact; the write of
        # features_base.npz (a binary write) dies after its data went to the
        # temporary file, in whichever process writes it
        real_fsync = os.fsync

        def failing_fsync(fd, out=out):
            if any(os.path.samestat(os.fstat(fd), tmp.stat())
                   for tmp in out.glob("features_base.npz.*.tmp")):
                raise OSError("disk full")
            real_fsync(fd)

        with monkeypatch.context() as patch, pytest.raises(
                PipelineError) as err:
            patch.setattr(os, "fsync", failing_fsync)
            run_pipeline(PipelineConfig.from_dict(
                small_config(tmp_path, f"run{n}"), seed=11))
        assert err.value.stage == "features"
        assert (out / "features_base.npz").read_bytes() == before["features_base.npz"]
        assert (out / "space.json").read_bytes() != before["space.json"]
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACT_NAMES)


def test_generated_splits_are_freed_before_base_learning(tmp_path, monkeypatch):
    # base learning and the episodes read their split back from its .npz
    # artifact, so neither generated matrix is held past the features stage;
    # with two shares they are generated in the forked child alone
    generated = []
    real_generate = geoball.pipeline.generate_synthetic_features
    real_train = geoball.pipeline.train_base
    generated_in = tmp_path / "generated_in"

    def recording_generate(*args, **kwargs):
        generated_in.write_text(str(os.getpid()))
        splits = real_generate(*args, **kwargs)
        generated.extend(weakref.ref(split.features) for split in splits)
        return splits

    alive = []

    def recording_train(*args, **kwargs):
        alive.extend(ref() is not None for ref in generated)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(geoball.pipeline, "generate_synthetic_features",
                        recording_generate)
    monkeypatch.setattr(geoball.pipeline, "train_base", recording_train)
    monkeypatch.setattr(geoball.harness, "_usable_cpus", lambda: 1)
    run_pipeline(PipelineConfig.from_dict(small_config(tmp_path, "run1")))
    assert generated_in.read_text() == str(os.getpid())
    assert alive == [False, False]

    monkeypatch.setattr(geoball.harness, "_usable_cpus", lambda: 2)
    run_pipeline(PipelineConfig.from_dict(small_config(tmp_path, "run2")))
    assert generated_in.read_text() != str(os.getpid())
    assert len(generated) == 2  # the child's splits never reached this process


def test_pipeline_artifacts_do_not_depend_on_the_share_count(tmp_path,
                                                             monkeypatch):
    """All six artifacts, with the input reduction fitted beside the
    embedding in a forked share or in order in this process."""
    # without a reduction this process reads the raw base split itself
    for reduce_dim in (4, None):
        for n in (1, 2):
            monkeypatch.setattr(geoball.harness, "_usable_cpus", lambda n=n: n)
            obj = small_config(tmp_path, f"shares{n}-{reduce_dim}")
            obj["projector"]["reduce_dim"] = reduce_dim
            run_pipeline(PipelineConfig.from_dict(obj))
        for name in ARTIFACT_NAMES:
            assert ((tmp_path / f"shares1-{reduce_dim}" / name).read_bytes()
                    == (tmp_path / f"shares2-{reduce_dim}" / name).read_bytes()
                    ), (name, reduce_dim)
        mlp = json.loads(
            (tmp_path / f"shares2-{reduce_dim}" / "mlp.json").read_text())
        if reduce_dim is None:
            assert "input_basis" not in mlp
        else:
            assert len(mlp["input_basis"][0]) == reduce_dim


def test_calling_process_never_holds_a_raw_feature_split(tmp_path,
                                                         monkeypatch):
    """With a reduction and two shares, base learning takes the reduced base
    rows from the forked features share and the episodes read their rows
    from ``features_novel.npz`` on demand: this process never reads either
    split whole, and its traced peak stays below half of one split's
    matrix. Reading either split whole would hold all of it."""
    monkeypatch.setattr(geoball.harness, "_usable_cpus", lambda: 2)
    # a fourth leaf splits the leaves 2/2, so both splits are the same size
    doc = json.loads(json.dumps(POODLE))
    doc["concepts"].append("lamp_post")
    doc["subclass"].append(["lamp_post", "entity"])
    doc["leaves"].append("lamp_post")
    ontology = tmp_path / "four_leaves.json"
    ontology.write_text(json.dumps(doc))
    dim, per_class = 2048, 128
    split_bytes = 2 * per_class * dim * 8
    assert split_bytes >= 4 * 2**20
    obj = small_config(tmp_path, ontology_path=str(ontology),
                       generator={"dim": dim, "per_class": per_class,
                                  "noise_sigma": 0.3, "intrinsic_dim": None})
    obj["projector"].update(reduce_dim=4, epochs_bl=5)
    config = PipelineConfig.from_dict(obj)

    reads = []
    real_read = geoball.harness._read_npy_data
    here = os.getpid()

    def recording_read(entry, name, shape, *args):
        if os.getpid() == here and name == "features.npy":
            reads.append(shape)
        return real_read(entry, name, shape, *args)

    # every whole read of a feature matrix, by either reader
    monkeypatch.setattr(geoball.harness, "_read_npy_data", recording_read)
    tracemalloc.start()
    try:
        run_pipeline(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reads == []
    assert peak < 0.5 * split_bytes, (peak, split_bytes)


def test_reduction_failure_is_a_train_projector_failure(tmp_path, shares):
    # 12 base rows cannot give 20 directions; the fit runs beside the
    # embedding, but its failure is still base learning's
    obj = small_config(tmp_path)
    obj["projector"]["reduce_dim"] = 20
    with pytest.raises(PipelineError, match="exceeds feature matrix rank "
                       "bound") as err:
        run_pipeline(PipelineConfig.from_dict(obj))
    assert err.value.stage == "train-projector"
    present = sorted(p.name for p in (tmp_path / "run").iterdir())
    assert present == sorted(ARTIFACT_NAMES[:4])


def test_pipeline_error_survives_a_pickle_round_trip():
    error = PipelineError("features", ValueError("need at least 2 leaves"))
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is PipelineError
    assert copy.stage == "features"
    assert str(copy) == str(error)
    assert type(copy.cause) is ValueError
    assert str(copy.cause) == "need at least 2 leaves"


def test_features_failure_is_one_error_line(tmp_path, monkeypatch, capsys,
                                            shares):
    def failing_generate(*args, **kwargs):
        raise ValueError("generator out of order")

    monkeypatch.setattr(geoball.pipeline, "generate_synthetic_features",
                        failing_generate)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(small_config(tmp_path)))
    assert main(["pipeline", "--config", str(config)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == ("error: stage 'features' failed: generator out of "
                    "order")


def test_json_write_streams_its_text(tmp_path):
    # about 1M floats, some 15 MB of indented text; built before tracing
    doc = {"weights": [[i + j / 1000 for j in range(1000)]
                       for i in range(1000)]}
    path = tmp_path / "big.json"
    tracemalloc.start()
    try:
        _write_json(path, doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 100


def test_json_write_that_fails_part_way_keeps_the_old_file(tmp_path):
    path = tmp_path / "doc.json"
    _write_json(path, {"old": True})
    before = path.read_bytes()
    # keys are sorted, so the unserialisable value comes after 100k floats
    with pytest.raises(TypeError, match="not JSON serializable"):
        _write_json(path, {"a": [0.5] * 100_000, "b": object()})
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []
