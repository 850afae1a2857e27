import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    init_model,
    reference_mlp_loss_and_grads,
    reference_mlp_train,
    reference_steve_features,
    run_python,
)
from steve import valuation
from steve.valuation import (
    MLP,
    EvalReport,
    Task,
    _HIDDEN,
    _init_params,
    _grads,
    _mean_scale,
    _zero_params,
    compute_metrics,
    cross_validate,
    cv_folds,
    load_values,
    mlp_predict,
    mlp_train,
    quartile_labels,
    steve_features,
)


def kernel_grads(net, X, y):
    """Gradients (order W1, b1, W2, b2, W3, b3) from the kernel ``mlp_train`` runs."""
    grads = _zero_params([net.input_dim, *(W.shape[1] for W in net.weights)])
    _grads(net, X, y, grads)
    return grads


class TestLoadValues:
    def test_parses_values(self):
        table = load_values(io.StringIO("team,value_millions\nFC Barcelona,1180\nBV De Graafschap,10.15\n"))
        assert table["FC Barcelona"] == 1180.0
        assert table["BV De Graafschap"] == 10.15

    def test_headerless_input(self):
        table = load_values(io.StringIO("A,5\nB,7.5\n"))
        assert table == {"A": 5.0, "B": 7.5}

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            load_values(io.StringIO("X,-5\n"))

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            load_values(io.StringIO("X,0\n"))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            load_values(io.StringIO("X,inf\n"))
        with pytest.raises(ValueError, match="positive"):
            load_values(io.StringIO("X,nan\n"))

    def test_non_numeric_rejected_with_row(self):
        with pytest.raises(ValueError, match="row 2"):
            load_values(io.StringIO("A,5\nB,lots\n"))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            load_values(io.StringIO("A,5\nA,6\n"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            load_values(io.StringIO("team,value_millions\n"))


class TestSteveFeatures:
    def test_width_is_twice_delta(self):
        for delta, width in ((16, 32), (8, 16)):
            model = init_model(6, delta, 0)
            feats = steve_features(model, [1, 2, 3])
            assert feats.shape == (3, width)

    def test_concatenation_order(self):
        model = init_model(5, 4, 1)
        feats = steve_features(model, [3])
        np.testing.assert_array_equal(feats[0, :4], model.phi[2])
        np.testing.assert_array_equal(feats[0, 4:], model.psi[2])

    def test_unknown_team(self):
        with pytest.raises(ValueError):
            steve_features(init_model(3, 2, 0), [1, 7])


class TestSteveFeaturesMatchReferenceLoop:
    """One fancy index against the per-team loop it replaced (``helpers``)."""

    def test_desk_shaped_model(self):
        model = init_model(378, 16, 41, x_max=9)  # 378 teams, steve-32 rows
        teams = list(range(1, model.m + 1))
        assert np.array_equal(steve_features(model, teams), reference_steve_features(model, teams))

    def test_repeated_and_unordered_ids(self):
        model = init_model(12, 4, 3)
        teams = [7, 2, 7, 12, 1, 2, 2]
        got = steve_features(model, teams)
        assert got.shape == (7, 8)
        assert np.array_equal(got, reference_steve_features(model, teams))

    def test_numpy_integer_ids(self):
        model = init_model(12, 4, 3)
        teams = [np.int64(7), np.int32(2), 12, np.uint8(1)]
        assert np.array_equal(steve_features(model, teams), reference_steve_features(model, teams))
        assert np.array_equal(steve_features(model, np.array([7, 2, 12, 1])), steve_features(model, [7, 2, 12, 1]))

    @pytest.mark.parametrize(
        "teams", [[1, 0, 99], [4, 13, 0], [2, True], [3, 1.0], [1, np.int64(2), np.True_], [2, "3"]]
    )
    def test_first_bad_id_gives_the_same_error(self, teams):
        model = init_model(12, 4, 3)
        errors = []
        for features in (reference_steve_features, steve_features):
            with pytest.raises(ValueError) as info:
                features(model, teams)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


class TestQuartileLabels:
    def test_hand_quartiles(self):
        # 9 sorted values put the quartiles exactly at 25 / 93.7 / 232.5
        values = [10, 20, 25, 50, 93.7, 100, 232.5, 300, 400]
        np.testing.assert_allclose(
            np.quantile(values, (0.25, 0.5, 0.75)), [25, 93.7, 232.5]
        )
        labels = quartile_labels(values)
        by_value = dict(zip(values, labels))
        assert by_value[25] == 0      # v <= Q1
        assert by_value[100] == 2     # Q2 < v <= Q3
        assert by_value[232.5] == 2   # boundary is left-closed at the top
        assert by_value[400] == 3

    def test_all_identical_single_class(self):
        assert quartile_labels([7.0] * 6).tolist() == [0] * 6

    def test_eight_distinct_two_per_class(self):
        labels = quartile_labels([3, 1, 7, 5, 2, 8, 6, 4])
        assert sorted(labels.tolist()) == [0, 0, 1, 1, 2, 2, 3, 3]

    @pytest.mark.parametrize("seed", range(5))
    def test_class_counts_balanced_for_distinct_values(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 200))
        values = rng.permutation(np.arange(n) * 1.7 + 0.3)
        counts = np.bincount(quartile_labels(values), minlength=4)
        assert all(abs(c - n / 4) <= 1 for c in counts)

    def test_too_few_values(self):
        with pytest.raises(ValueError):
            quartile_labels([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_with_row(self, bad):
        with pytest.raises(ValueError, match="row 3"):
            quartile_labels([1, 2, 3, bad, 5])


class TestStandardize:
    def test_fit_apply_normalizes_training_data(self):
        rng = np.random.default_rng(0)
        data = rng.normal(5, 3, size=(40, 4))
        mean, scale = _mean_scale(data)
        out = (data - mean) / scale
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_centered_only(self):
        data = np.array([[1.0, 2.0], [1.0, 4.0], [1.0, 6.0]])
        mean, scale = _mean_scale(data)
        out = (data - mean) / scale
        np.testing.assert_allclose(out[:, 0], 0.0)
        assert scale[0] == 1.0

    def test_invert_round_trip(self):
        rng = np.random.default_rng(1)
        targets = rng.uniform(10, 1200, size=50)
        mean, scale = _mean_scale(targets)
        back = (targets - mean) / scale * scale + mean
        np.testing.assert_allclose(back, targets, atol=1e-10)


class TestMLP:
    def test_learns_linear_function(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(200, 1))
        y = 2.0 * X[:, 0]
        net = mlp_train(X, y, Task.REGRESSION, 1)
        X_val = rng.uniform(-1, 1, size=(100, 1))
        mae = np.mean(np.abs(mlp_predict(net, X_val) - 2.0 * X_val[:, 0]))
        assert mae < 0.1

    def test_separable_classification_perfect_on_train(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(-2, 0.3, size=(50, 2)), rng.normal(2, 0.3, size=(50, 2))])
        y = np.array([0] * 50 + [1] * 50)
        net = mlp_train(X, y, Task.CLASSIFICATION, 2)
        assert np.mean(mlp_predict(net, X) == y) == 1.0

    @pytest.mark.parametrize("task", [Task.REGRESSION, Task.CLASSIFICATION])
    def test_gradients_match_finite_differences(self, task):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((5, 3))
        y = rng.standard_normal(5) if task is Task.REGRESSION else rng.integers(0, 4, 5)
        out = 1 if task is Task.REGRESSION else 4
        weights, biases = _init_params([3, *_HIDDEN, out], 3)
        net = MLP(weights=weights, biases=biases, task=task)
        grads = kernel_grads(net, X, y)
        params = [weights[0], biases[0], weights[1], biases[1], weights[2], biases[2]]
        h = 1e-4
        coord_rng = np.random.default_rng(9)
        for p, g in zip(params, grads):
            flat, gflat = p.ravel(), g.ravel()
            for i in coord_rng.choice(flat.size, size=min(20, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + h
                up, _ = reference_mlp_loss_and_grads(net, X, y, l2=1e-4)
                flat[i] = orig - h
                down, _ = reference_mlp_loss_and_grads(net, X, y, l2=1e-4)
                flat[i] = orig
                fd = (up - down) / (2 * h)
                assert abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8) < 1e-4

    def test_architecture_is_50_20(self):
        net = mlp_train(np.zeros((6, 3)), np.zeros(6), Task.REGRESSION, 0)
        assert [w.shape for w in net.weights] == [(3, 50), (50, 20), (20, 1)]

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        X, y = rng.standard_normal((30, 4)), rng.standard_normal(30)
        a = mlp_train(X, y, Task.REGRESSION, 4)
        b = mlp_train(X, y, Task.REGRESSION, 4)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_dimension_mismatch(self):
        net = mlp_train(np.zeros((6, 3)), np.zeros(6), Task.REGRESSION, 0)
        with pytest.raises(ValueError):
            mlp_predict(net, np.zeros((2, 5)))
        with pytest.raises(ValueError):
            mlp_train(np.zeros((6, 3)), np.zeros(5), Task.REGRESSION, 0)

    def test_classification_targets_validated(self):
        with pytest.raises(ValueError):
            mlp_train(np.zeros((4, 2)), np.array([0, 1, 2, 9]), Task.CLASSIFICATION, 0)
        with pytest.raises(ValueError):
            mlp_train(np.zeros((4, 2)), np.array([0.5, 1, 2, 3]), Task.CLASSIFICATION, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="cannot train on empty data"):
            mlp_train(np.empty((0, 3)), np.empty(0), Task.REGRESSION, 0)

    @pytest.mark.parametrize("task", [Task.REGRESSION, Task.CLASSIFICATION])
    def test_numpy_int_seed_accepted(self, task):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((12, 3))
        y = rng.standard_normal(12) if task is Task.REGRESSION else rng.integers(0, 4, 12)
        a = mlp_train(X, y, task, np.int64(4))
        b = mlp_train(X, y, task, 4)
        for pa, pb in zip(a.weights + a.biases, b.weights + b.biases):
            assert pa.tobytes() == pb.tobytes()


def brute_regression_metrics(predictions, targets):
    errors = [abs(p - t) for p, t in zip(predictions, targets)]
    n = len(errors)
    rmse = math.sqrt(sum(e * e for e in errors) / n)
    mae = sum(errors) / n
    ordered = sorted(errors)
    if n % 2:
        med = ordered[n // 2]
    else:
        med = (ordered[n // 2 - 1] + ordered[n // 2]) / 2
    return rmse, mae, med


def brute_f1_scores(predictions, targets, labels):
    per_class = []
    correct = sum(1 for p, t in zip(predictions, targets) if p == t)
    for c in labels:
        tp = sum(1 for p, t in zip(predictions, targets) if p == c and t == c)
        fp = sum(1 for p, t in zip(predictions, targets) if p == c and t != c)
        fn = sum(1 for p, t in zip(predictions, targets) if p != c and t == c)
        per_class.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
    return correct / len(targets), sum(per_class) / len(per_class)


class TestComputeMetrics:
    def test_perfect_predictions(self):
        reg = compute_metrics(np.array([1.0, 2.0]), np.array([1.0, 2.0]), Task.REGRESSION)
        assert reg == {"rmse": 0.0, "mae": 0.0, "median_ae": 0.0}
        cls = compute_metrics(np.array([0, 1, 2, 3]), np.array([0, 1, 2, 3]), Task.CLASSIFICATION)
        assert cls == {"micro_f1": 1.0, "macro_f1": 1.0}

    def test_unit_errors(self):
        out = compute_metrics(np.array([1.0, 1.0]), np.array([0.0, 0.0]), Task.REGRESSION)
        assert out["rmse"] == 1.0 and out["mae"] == 1.0

    def test_hand_confusion_example(self):
        out = compute_metrics(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1]), Task.CLASSIFICATION)
        assert out["micro_f1"] == 0.75

    def test_explicit_labels_include_absent_classes(self):
        out = compute_metrics(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1]), Task.CLASSIFICATION)
        assert out["macro_f1"] == pytest.approx((2 / 3 + 4 / 5 + 0.0 + 0.0) / 4, abs=1e-12)

    @pytest.mark.parametrize("cls", range(4))
    def test_macro_f1_is_over_the_four_classes(self, cls):
        out = compute_metrics(np.array([cls, cls]), np.array([cls, cls]), Task.CLASSIFICATION)
        assert out == {"micro_f1": 1.0, "macro_f1": 0.25}

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_metrics(np.zeros(3), np.zeros(4), Task.REGRESSION)
        with pytest.raises(ValueError):
            compute_metrics(np.zeros(0), np.zeros(0), Task.REGRESSION)

    @pytest.mark.parametrize("seed", range(20))
    def test_against_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        preds = rng.uniform(-100, 100, n)
        targets = rng.uniform(-100, 100, n)
        got = compute_metrics(preds, targets, Task.REGRESSION)
        rmse, mae, med = brute_regression_metrics(preds.tolist(), targets.tolist())
        assert got["rmse"] == pytest.approx(rmse, abs=1e-12)
        assert got["mae"] == pytest.approx(mae, abs=1e-12)
        assert got["median_ae"] == pytest.approx(med, abs=1e-12)
        assert got["rmse"] >= got["mae"] - 1e-15

        cp = rng.integers(0, 4, n)
        ct = rng.integers(0, 4, n)
        got = compute_metrics(cp, ct, Task.CLASSIFICATION)
        micro, macro = brute_f1_scores(cp.tolist(), ct.tolist(), range(4))
        assert got["micro_f1"] == pytest.approx(micro, abs=1e-12)
        assert got["macro_f1"] == pytest.approx(macro, abs=1e-12)


_MEDIAN_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 2.2250738585072009e-308]


class TestMedian:
    """``_median``, the MMAE's median, is ``np.median`` without its ``numpy.ma`` import."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(_MEDIAN_EDGES), st.floats()), min_size=1, max_size=64))
    @example([-0.0])
    @example([0.0, -0.0])
    @example([3.0, 1.0, 2.0])
    @example([4.0, 1.0, 3.0, 2.0])
    @example([5e-324, 5e-324])
    @example([1.0, math.inf])
    @example([math.inf, -math.inf])
    def test_matches_np_median_bit_for_bit(self, values):
        a = np.array(values, dtype=np.float64)
        with np.errstate(all="ignore"):  # inf - inf and overflowing sums, in both
            want = np.median(a)
            got = valuation._median(a)
        assert np.array_equal(a, np.array(values), equal_nan=True)  # the input is left as it was
        assert np.signbit(got) == np.signbit(want)  # of a zero, and of a NaN too
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert got == want

    def test_imports_no_numpy_ma(self):
        # numpy.ma costs every regression ``evaluate`` about 7 ms to import.
        proc = run_python("-c", "import sys, numpy as np\n"
                                "from steve.valuation import _median\n"
                                "print(_median(np.array([3.0, np.nan, 1.0])), _median(np.array([2.0, 1.0])),\n"
                                "      'numpy.ma' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["nan", "1.5", "False"]


class TestCrossValidate:
    def test_fold_sizes_378(self):
        folds = cv_folds(378, seed=0)
        assert [len(f) for f in folds] == [76, 76, 76, 75, 75]

    def test_folds_partition_samples(self):
        folds = cv_folds(23, seed=1)
        combined = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(combined, np.arange(23))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            cv_folds(4, seed=0)
        with pytest.raises(ValueError):
            cross_validate(np.zeros((4, 2)), np.zeros(4), Task.REGRESSION, seed=0)

    def _toy(self, n=30, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 3))
        y = 3.0 * X[:, 0] + 50.0 + rng.normal(0, 0.1, n)
        return X, y

    def test_deterministic(self):
        X, y = self._toy()
        a = cross_validate(X, y, Task.REGRESSION, seed=3)
        b = cross_validate(X, y, Task.REGRESSION, seed=3)
        assert a.per_fold == b.per_fold
        assert a.mean == b.mean and a.std == b.std

    def test_target_scaling_scales_metrics_exactly(self):
        X, y = self._toy()
        base = cross_validate(X, y, Task.REGRESSION, seed=3)
        scaled = cross_validate(X, 4.0 * y, Task.REGRESSION, seed=3)
        for metric in ("rmse", "mae", "median_ae"):
            np.testing.assert_allclose(
                scaled.per_fold[metric], 4.0 * np.asarray(base.per_fold[metric]), rtol=1e-12
            )

    def test_report_structure(self):
        X, y = self._toy()
        report = cross_validate(X, y, Task.REGRESSION, seed=0)
        assert set(report.per_fold) == {"rmse", "mae", "median_ae"}
        assert all(len(v) == 5 for v in report.per_fold.values())
        for metric, values in report.per_fold.items():
            assert report.mean[metric] == pytest.approx(float(np.mean(values)))
            assert report.std[metric] == pytest.approx(float(np.std(values)))
        doc = report.to_dict()
        assert doc["task"] == "regression"
        assert doc["folds"] == 5
        report.metadata["representation"] = "toy"
        table = report.format_table()
        assert "RMSE" in table and "MMAE" in table and "toy" in table

    @pytest.mark.parametrize(
        "task, label, table",
        [
            (Task.REGRESSION, None,
             "representation  RMSE          MAE            MMAE         \n"
             "--------------  ------------  -------------  -------------\n"
             "cat-3           12.00 ± 1.41  14.50 ± 10.25  56.38 ± 35.82"),
            (Task.REGRESSION, "a-label-longer-than-representation",
             "representation                      RMSE          MAE            MMAE         \n"
             "----------------------------------  ------------  -------------  -------------\n"
             "a-label-longer-than-representation  12.00 ± 1.41  14.50 ± 10.25  56.38 ± 35.82"),
            (Task.CLASSIFICATION, None,
             "representation  Micro F1     Macro F1   \n"
             "--------------  -----------  -----------\n"
             "features        0.52 ± 0.01  0.45 ± 0.14"),
            (Task.CLASSIFICATION, "steve-32",
             "representation  Micro F1     Macro F1   \n"
             "--------------  -----------  -----------\n"
             "steve-32        0.52 ± 0.01  0.45 ± 0.14"),
        ],
    )
    def test_table_bytes(self, task, label, table):
        if task is Task.REGRESSION:
            folds = [{"rmse": 10.0 + i, "mae": 7.25 * i, "median_ae": 123.456 / (i + 1)} for i in range(5)]
            metadata = {"representation": "cat-3"}
        else:
            folds = [{"micro_f1": 0.5 + 0.01 * i, "macro_f1": 0.25 + 0.1 * i} for i in range(5)]
            metadata = None
        if label is not None:
            metadata = {"representation": label}
        report = EvalReport.from_folds(task, folds, metadata=metadata)
        assert report.format_table() == table

    def test_classification_report(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((24, 4))
        labels = quartile_labels(X[:, 0] + 10.0)
        report = cross_validate(X, labels, Task.CLASSIFICATION, seed=2)
        assert set(report.per_fold) == {"micro_f1", "macro_f1"}
        assert report.metadata["quartile_binning"] == "full dataset, before fold splits"

    def test_feature_standardization_flag_recorded(self):
        X, y = self._toy()
        report = cross_validate(X, y, Task.REGRESSION, seed=0, standardize_features=True)
        assert report.metadata["standardize_features"] is True

    @pytest.mark.parametrize("column", ["targets", "feature"])
    def test_constant_column_gives_a_finite_report(self, column):
        X, y = self._toy()
        if column == "targets":
            y = np.full_like(y, 50.0)
        else:
            X[:, 1] = 7.0
        report = cross_validate(X, y, Task.REGRESSION, seed=0, standardize_features=True)
        assert all(np.isfinite(v).all() for v in report.per_fold.values())


class TestNonFiniteAndEmptyFeatures:
    """NaN or infinity in a feature or target is refused, naming its row."""

    def _data(self, n=12, width=3):
        rng = np.random.default_rng(0)
        return rng.standard_normal((n, width)), rng.standard_normal(n)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_feature_row_named(self, bad):
        X, y = self._data()
        X[7, 2] = bad
        with pytest.raises(ValueError, match="features must be finite; row 7"):
            mlp_train(X, y, Task.REGRESSION, 0)
        with pytest.raises(ValueError, match="features must be finite; row 7"):
            cross_validate(X, y, Task.REGRESSION, seed=0)
        with pytest.raises(ValueError, match="features must be finite; row 7"):
            cross_validate(X, quartile_labels(y), Task.CLASSIFICATION, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_target_row_named(self, bad):
        X, y = self._data()
        y[4] = bad
        with pytest.raises(ValueError, match="targets must be finite; row 4"):
            mlp_train(X, y, Task.REGRESSION, 0)
        with pytest.raises(ValueError, match="targets must be finite; row 4"):
            cross_validate(X, y, Task.REGRESSION, seed=0)

    def test_prediction_on_a_non_finite_row_refused(self):
        X, y = self._data()
        net = mlp_train(X, quartile_labels(y), Task.CLASSIFICATION, 0)
        X[5, 0] = np.nan
        with pytest.raises(ValueError, match="features must be finite; row 5"):
            mlp_predict(net, X)

    def test_zero_width_features_rejected(self):
        X = np.empty((12, 0))
        y = np.arange(12.0)
        with pytest.raises(ValueError, match="at least one column"):
            mlp_train(X, y, Task.REGRESSION, 0)
        with pytest.raises(ValueError, match="at least one column"):
            cross_validate(X, y, Task.REGRESSION, seed=0, standardize_features=True)


# ---------------------------------------------------------------------------
# The one-block MLP against the per-array loop it replaced (``helpers``):
# every parameter bit, every gradient bit and every loss must agree.

MLP_ORACLE_CASES = [
    # task, samples, feature width; the batch is min(200, samples)
    (Task.REGRESSION, 40, 32),  # one batch
    (Task.CLASSIFICATION, 40, 54),
    (Task.REGRESSION, 37, 54),
    (Task.CLASSIFICATION, 37, 1),
    (Task.REGRESSION, 5, 1),  # one batch of the fewest samples cross_validate trains on
    (Task.CLASSIFICATION, 5, 32),
    (Task.REGRESSION, 23, 32),
    (Task.CLASSIFICATION, 23, 54),
    (Task.REGRESSION, 378, 54),  # a whole desk league: a full batch and a partial one
    (Task.CLASSIFICATION, 302, 32),  # a desk training split
]


def _oracle_data(task, n, width, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, width))
    y = rng.standard_normal(n) if task is Task.REGRESSION else rng.integers(0, 4, n)
    return X, y


@pytest.mark.parametrize("task, n, width", MLP_ORACLE_CASES)
def test_mlp_train_matches_reference_loop_bit_for_bit(task, n, width):
    X, y = _oracle_data(task, n, width, seed=n + width)
    got = mlp_train(X, y, task, n)
    want = reference_mlp_train(X, y, task, n)
    assert got.task is want.task
    for ours, theirs in zip(got.weights + got.biases, want.weights + want.biases):
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()
    assert mlp_predict(got, X).tobytes() == mlp_predict(want, X).tobytes()


@pytest.mark.parametrize("task, n, width", MLP_ORACLE_CASES)
def test_mlp_grads_match_reference_bit_for_bit(task, n, width):
    X, y = _oracle_data(task, n, width, seed=n * width)
    # Trained parameters, so no gradient is zero by the initialization.
    net = mlp_train(X, y, task, 1)
    rows = np.arange(min(200, n))
    grads = kernel_grads(net, X[rows], y[rows])
    _, ref_grads = reference_mlp_loss_and_grads(net, X[rows], y[rows], 1e-4)
    for ours, theirs in zip(grads, ref_grads):
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


def test_parameters_are_views_of_one_block():
    X, y = _oracle_data(Task.CLASSIFICATION, 9, 5, seed=0)
    net = mlp_train(X, y, Task.CLASSIFICATION, 0)
    block = net.weights[0].base
    params = [net.weights[0], net.biases[0], net.weights[1], net.biases[1], net.weights[2], net.biases[2]]
    assert block.size == sum(p.size for p in params)
    assert all(p.base is block for p in params)
    assert np.array_equal(block, np.concatenate([p.ravel() for p in params]))


@pytest.mark.parametrize(
    "shape, task, standardize",
    [
        ((378, 54), Task.REGRESSION, True),  # desk, cat-3
        ((378, 32), Task.CLASSIFICATION, False),  # desk, steve-32
        ((300, 54), Task.REGRESSION, True),  # wide evaluation sub-league, cat-3
        ((300, 32), Task.CLASSIFICATION, False),  # wide evaluation sub-league, steve-32
    ],
)
def test_cross_validate_report_matches_reference_loop(shape, task, standardize, monkeypatch):
    rng = np.random.default_rng(41)
    if standardize:
        X = rng.poisson(4.0, shape).astype(np.float64)  # match counts
    else:
        X = steve_features(init_model(shape[0], shape[1] // 2, 41), range(1, shape[0] + 1))
    values = rng.lognormal(4.0, 1.0, shape[0])
    y = values if task is Task.REGRESSION else quartile_labels(values)
    got = cross_validate(X, y, task, seed=41, standardize_features=standardize).to_dict()
    monkeypatch.setattr(valuation, "mlp_train", reference_mlp_train)
    want = cross_validate(X, y, task, seed=41, standardize_features=standardize).to_dict()
    assert got == want
