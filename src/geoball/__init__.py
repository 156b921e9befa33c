"""Ball-geometry concept embeddings for class hierarchies.

A class hierarchy becomes a set of n-balls (containment encodes
subsumption, separation encodes disjointness); a small MLP then maps
feature vectors into that geometry for few-shot classification.
"""

from .embedding import Ball, BallSpace, EmbedConfig, train_embeddings
from .evaluation import GridSpec, grid_search, score_space
from .harness import (FeatureDataset, evaluate_episodes,
                      generate_synthetic_features, sample_episodes,
                      synthetic_ontology)
from .negatives import NegativeSets, build_negative_sets, kmeans
from .ontology import (Ich, Ontology, compute_ich, compute_stats,
                       load_ontology, ontology_from_dict)
from .pipeline import PipelineConfig, PipelineError, run_pipeline
from .projector import (Mlp, ProjectorConfig, classify, classify_batch,
                        finetune_fewshot, mlp_forward, train_base)
from .viz import render_balls_2d

__version__ = "0.1.0"

__all__ = [
    "Ball", "BallSpace", "EmbedConfig", "train_embeddings",
    "GridSpec", "grid_search", "score_space",
    "FeatureDataset", "evaluate_episodes", "generate_synthetic_features",
    "sample_episodes", "synthetic_ontology",
    "NegativeSets", "build_negative_sets", "kmeans",
    "Ich", "Ontology", "compute_ich", "compute_stats", "load_ontology",
    "ontology_from_dict",
    "PipelineConfig", "PipelineError", "run_pipeline",
    "Mlp", "ProjectorConfig", "classify", "classify_batch", "finetune_fewshot",
    "mlp_forward", "train_base",
    "render_balls_2d",
]
