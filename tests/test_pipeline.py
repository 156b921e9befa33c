"""Tests for the end-to-end pipeline orchestration."""

import json
import os

import pytest

from geoball.pipeline import (
    ARTIFACT_NAMES,
    DEFAULT_SEED,
    EpisodeConfig,
    GeneratorConfig,
    PipelineConfig,
    PipelineError,
    run_pipeline,
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
        PipelineConfig.from_dict({"out_dir": "y"})
    with pytest.raises(ValueError, match="unknown"):
        PipelineConfig.from_dict({"ontology_path": "x", "out_dir": "y",
                                  "typo_section": {}})
    with pytest.raises(ValueError):
        GeneratorConfig(per_class=0)
    with pytest.raises(ValueError):
        GeneratorConfig(noise_sigma=-1.0)
    with pytest.raises(ValueError):
        EpisodeConfig(w=0)


def test_config_dict_roundtrip(tmp_path):
    config = PipelineConfig.from_dict(small_config(tmp_path))
    assert PipelineConfig.from_dict(config.to_dict()) == config


def test_interrupted_write_keeps_old_artifact(tmp_path, monkeypatch):
    config = PipelineConfig.from_dict(small_config(tmp_path))
    run_pipeline(config)
    out = tmp_path / "run"
    before = {name: (out / name).read_bytes() for name in ARTIFACT_NAMES}

    # a re-run with another seed changes every artifact; the third write
    # (features_base.npz, a binary write) dies after its data went to the
    # temporary file
    calls = []

    def failing_fsync(fd):
        calls.append(fd)
        if len(calls) == 3:
            raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(PipelineError) as err:
        run_pipeline(PipelineConfig.from_dict(small_config(tmp_path), seed=11))
    assert err.value.stage == "features"
    assert (out / "features_base.npz").read_bytes() == before["features_base.npz"]
    assert (out / "space.json").read_bytes() != before["space.json"]
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACT_NAMES)
