"""Shared fixtures.

The stock desk fixture costs a real base-learning run (~1 min), so it is
built once per session and shared by the harness and acceptance tests, and
so is the evaluation of its 100 episodes. Wall times of the expensive stages
are recorded on the fixtures for the runtime budget checks.
"""

import copy
import time
from types import SimpleNamespace

import pytest

from geoball.embedding import EmbedConfig, train_embeddings
from geoball.harness import (evaluate_episodes, generate_synthetic_features,
                             sample_episodes, synthetic_ontology)
from geoball.negatives import build_negative_sets
from geoball.ontology import compute_ich, compute_stats, ontology_from_dict
from geoball.pipeline import DEFAULT_SEED, EpisodeConfig, GeneratorConfig
from geoball.projector import ProjectorConfig, train_base

# 4-level hand fixture: a small dog taxonomy with one far-away sibling
POODLE_DOC = {
    "concepts": ["entity", "animal", "dog", "poodle", "retriever",
                 "street_sign"],
    "subclass": [["animal", "entity"], ["dog", "animal"], ["poodle", "dog"],
                 ["retriever", "dog"], ["street_sign", "entity"]],
    "disjoint": [["poodle", "retriever"]],
    "leaves": ["poodle", "retriever", "street_sign"],
}


@pytest.fixture
def poodle_doc():
    return copy.deepcopy(POODLE_DOC)


@pytest.fixture
def poodle_ontology(poodle_doc):
    return ontology_from_dict(poodle_doc)


@pytest.fixture(scope="session")
def desk():
    t0 = time.perf_counter()
    ontology = synthetic_ontology((5, 2, 4))
    ich = compute_ich(ontology)
    stats = compute_stats(ontology, ich)
    space, _ = train_embeddings(ontology, ich, stats, EmbedConfig())
    wall_embed = time.perf_counter() - t0

    negatives = build_negative_sets(space, ontology.leaves, seed=DEFAULT_SEED)
    gen = GeneratorConfig()
    base, novel = generate_synthetic_features(
        ontology, dim=gen.dim, per_class=gen.per_class,
        noise_sigma=gen.noise_sigma, seed=DEFAULT_SEED,
        anchor_scale=gen.anchor_scale, step_scale=gen.step_scale,
        intrinsic_dim=gen.intrinsic_dim)
    protocol = EpisodeConfig()
    episodes = sample_episodes(novel, w=protocol.w, s=protocol.s, q=protocol.q,
                               n_episodes=protocol.n_episodes,
                               seed=DEFAULT_SEED)
    t1 = time.perf_counter()
    mlp, losses = train_base(base, space, negatives, ProjectorConfig())
    wall_train = time.perf_counter() - t1

    return SimpleNamespace(
        ontology=ontology, ich=ich, stats=stats, space=space,
        negatives=negatives, base=base, novel=novel, episodes=episodes,
        protocol=protocol, mlp=mlp, losses=losses,
        wall_embed=wall_embed, wall_train=wall_train,
        wall_setup=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def desk_evaluation(desk):
    """The desk episodes fine-tuned and scored once, with the closure: the
    projector's report, the nearest-centroid baseline's, and the wall time."""
    t0 = time.perf_counter()
    report, baseline = evaluate_episodes(desk.space, desk.mlp, desk.episodes,
                                         ProjectorConfig(), desk.negatives,
                                         ich=desk.ich)
    return SimpleNamespace(report=report, baseline=baseline,
                           wall=time.perf_counter() - t0)
