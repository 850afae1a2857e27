"""Soccer team vectors: self-supervised winner/loser representations.

Teams are embedded from nothing but match results (who played, who won or
drew, and in which season).  The learned vectors support similarity
search, tournament-style ranking and market-value estimation against
count-based baseline features.

Importing the package loads none of its submodules: each public name, and
each submodule (``steve.trainer``), is imported on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Every submodule, with the public names it defines.
_EXPORTS = {
    "teams": ("TeamRegistry",),
    "match_data": (
        "Competition", "Dataset", "MatchQuad", "Matches", "dataset_summary", "ingest_csv",
        "to_quads",
    ),
    "trainer": ("EmbeddingModel", "TrainConfig", "train"),
    "analytics": (
        "HeadToHead", "Outcome", "RankingEntry", "head_to_head", "most_similar", "rank_teams",
        "winner_distance",
    ),
    "baselines": (
        "SEASON_STATS_COLUMNS", "cat_feature_columns", "cat_features", "season_stats",
        "sum_features",
    ),
    "valuation": (
        "EvalReport", "MLP", "Task", "compute_metrics", "cross_validate", "cv_folds",
        "load_values", "mlp_predict", "mlp_train", "quartile_labels", "steve_features",
    ),
    "model_io": ("MODEL_FORMAT_VERSION", "load_model", "save_model"),
    "float_text": (),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
