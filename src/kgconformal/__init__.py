"""Conformal prediction sets for knowledge-graph link prediction."""

from .conformal import (
    CalibratedModel,
    PredicatePartition,
    build_partition,
    fit_condkgcp,
    fit_kgcp,
    fit_mcp,
    fit_part_mcp,
    predict_set,
    quantile,
    rank_threshold,
    verify_shrinkage,
)
from .experiment import ExperimentConfig, run_experiment, run_single
from .kg import (
    Direction,
    KnowledgeGraph,
    Query,
    QueryAnswerSet,
    SplitConfig,
    Vocab,
    load_kg,
    make_queries,
    rank_of,
)
from .metrics import EvaluationReport, covgap, efficiency_rate
from .models import EmbeddingModel, ScoreMatrix, TrainConfig, import_scores, predicate_vector, score, train
from .scores import ScorerConfig, aps_scores, raps_scores, softmax_scores
from .synth import SyntheticKGSpec

__version__ = "0.1.0"

__all__ = [
    "CalibratedModel",
    "Direction",
    "EmbeddingModel",
    "EvaluationReport",
    "ExperimentConfig",
    "KnowledgeGraph",
    "PredicatePartition",
    "Query",
    "QueryAnswerSet",
    "ScoreMatrix",
    "ScorerConfig",
    "SplitConfig",
    "SyntheticKGSpec",
    "TrainConfig",
    "Vocab",
    "aps_scores",
    "build_partition",
    "covgap",
    "efficiency_rate",
    "fit_condkgcp",
    "fit_kgcp",
    "fit_mcp",
    "fit_part_mcp",
    "import_scores",
    "load_kg",
    "make_queries",
    "predicate_vector",
    "predict_set",
    "quantile",
    "rank_of",
    "rank_threshold",
    "raps_scores",
    "run_experiment",
    "run_single",
    "score",
    "softmax_scores",
    "train",
    "verify_shrinkage",
]
