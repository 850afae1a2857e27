"""The public API of the ``steve`` package: exactly the names its users call."""

import json

import pytest

import steve
from helpers import run_python

PUBLIC = [
    "Competition",
    "Dataset",
    "EmbeddingModel",
    "EvalReport",
    "HeadToHead",
    "MLP",
    "MODEL_FORMAT_VERSION",
    "MatchQuad",
    "Matches",
    "Outcome",
    "RankingEntry",
    "SEASON_STATS_COLUMNS",
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
    "save_model",
    "season_stats",
    "steve_features",
    "sum_features",
    "to_quads",
    "train",
    "winner_distance",
]

#: Wrappers and helpers that only tests called; the tests now use the
#: kernels in ``steve.trainer`` and ``steve.valuation``, a plain JSON read of the
#: model file, or ``tests/helpers.py``.
REMOVED = ["batch_gradients", "sample_loss", "init_model", "mlp_loss_and_grads", "read_model_file"]

#: The network's settings and the feature standardizer, now fixed and
#: private in ``steve.valuation``.
REMOVED += ["MLPConfig", "Standardizer", "standardize_apply", "standardize_fit", "standardize_invert"]


def test_all_is_pinned():
    assert sorted(steve.__all__) == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_resolves(name):
    assert getattr(steve, name) is not None


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert not hasattr(steve, name)
    assert not any(hasattr(getattr(steve, module), name) for module in ("trainer", "valuation", "model_io"))


#: Checks the lazy package from a fresh interpreter, where no test has
#: imported a submodule yet.
_FRESH_PACKAGE = """
import json, sys
import steve
loaded_by_import = sorted(m for m in sys.modules if m.startswith("steve."))
submodules = [steve.trainer.__name__, steve.valuation.__name__]
namespace = {}
exec("from steve import *", namespace)
try:
    steve.no_such_name
    unknown = None
except AttributeError as e:
    unknown = str(e)
print(json.dumps({
    "loaded_by_import": loaded_by_import,
    "submodules": submodules,
    "unbound": [n for n in steve.__all__ if namespace.get(n) is not getattr(steve, n)],
    "unknown": unknown,
    "not_in_dir": sorted(set(steve.__all__) - set(dir(steve))),
}))
"""


def test_lazy_package_in_fresh_interpreter():
    proc = run_python("-W", "error", "-c", _FRESH_PACKAGE)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert json.loads(proc.stdout) == {
        "loaded_by_import": [],
        "submodules": ["steve.trainer", "steve.valuation"],
        "unbound": [],
        "unknown": "module 'steve' has no attribute 'no_such_name'",
        "not_in_dir": [],
    }
