"""The public API of the ``steve`` package: exactly the names its users call."""

import pytest

import steve

PUBLIC = [
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

#: Wrappers and helpers that only tests called; the tests now use the
#: kernels in ``steve.trainer`` and ``steve.valuation`` or ``tests/helpers.py``.
REMOVED = ["batch_gradients", "sample_loss", "init_model", "mlp_loss_and_grads"]


def test_all_is_pinned():
    assert sorted(steve.__all__) == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_resolves(name):
    assert getattr(steve, name) is not None


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert not hasattr(steve, name)
    assert not any(hasattr(getattr(steve, module), name) for module in ("trainer", "valuation"))
