"""Soccer team vectors: self-supervised winner/loser representations.

Teams are embedded from nothing but match results (who played, who won or
drew, and in which season).  The learned vectors support similarity
search, tournament-style ranking and market-value estimation against
count-based baseline features.
"""

from .match_data import (
    Competition,
    Dataset,
    MatchQuad,
    Matches,
    TeamRegistry,
    dataset_summary,
    ingest_csv,
    to_quads,
)
from .trainer import (
    EmbeddingModel,
    TrainConfig,
    train,
)
from .analytics import (
    HeadToHead,
    Outcome,
    RankingEntry,
    head_to_head,
    most_similar,
    rank_teams,
    winner_distance,
)
from .baselines import (
    SEASON_STATS_COLUMNS,
    cat_feature_columns,
    cat_features,
    season_stats,
    sum_features,
)
from .valuation import (
    EvalReport,
    MLP,
    MLPConfig,
    Standardizer,
    Task,
    compute_metrics,
    cross_validate,
    cv_folds,
    load_values,
    mlp_predict,
    mlp_train,
    quartile_labels,
    standardize_apply,
    standardize_fit,
    standardize_invert,
    steve_features,
)
from .model_io import MODEL_FORMAT_VERSION, load_model, read_model_file, save_model

__version__ = "0.1.0"

__all__ = [
    "Competition",
    "Dataset",
    "EmbeddingModel",
    "EvalReport",
    "HeadToHead",
    "MLP",
    "MLPConfig",
    "MODEL_FORMAT_VERSION",
    "MatchQuad",
    "Matches",
    "Outcome",
    "RankingEntry",
    "SEASON_STATS_COLUMNS",
    "Standardizer",
    "Task",
    "TeamRegistry",
    "TrainConfig",
    "cat_feature_columns",
    "cat_features",
    "compute_metrics",
    "cross_validate",
    "cv_folds",
    "dataset_summary",
    "head_to_head",
    "ingest_csv",
    "load_model",
    "load_values",
    "mlp_predict",
    "mlp_train",
    "most_similar",
    "quartile_labels",
    "rank_teams",
    "read_model_file",
    "save_model",
    "season_stats",
    "standardize_apply",
    "standardize_fit",
    "standardize_invert",
    "steve_features",
    "sum_features",
    "to_quads",
    "train",
    "winner_distance",
]
