"""Market-value estimation harness: features, MLP, metrics, cross-validation.

Team market value (million EUR) is predicted from a feature vector, either
as regression or as 4-class quartile classification, using a small
feed-forward network under 5-fold cross-validation.  Everything is seeded
and deterministic so reports are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .analytics import format_aligned
from .match_data import _blank, csv_records
from .trainer import EmbeddingModel


class Task(Enum):
    REGRESSION = "regression"
    CLASSIFICATION = "classification"


N_CLASSES = 4  # quartile bins

_VALUE_HEADER = ("team", "value_millions")


def load_values(stream: Iterable[str]) -> dict[str, float]:
    """Parse a ``team,value_millions`` CSV into a value table.

    A first row exactly matching the column names is treated as a header.
    Values must be positive numbers; duplicate teams are rejected.
    """
    table: dict[str, float] = {}
    rows, error = csv_records(stream)
    for row_no, row in enumerate(rows, start=1):
        if _blank(row):
            continue
        cells = [c.strip() for c in row]
        if row_no == 1 and tuple(cells) == _VALUE_HEADER:
            continue
        if len(cells) != 2:
            raise ValueError(f"row {row_no}: expected 2 fields, got {len(cells)}")
        name, raw_value = cells
        if not name:
            raise ValueError(f"row {row_no}: empty team name")
        if name in table:
            raise ValueError(f"row {row_no}: duplicate team {name!r}")
        try:
            value = float(raw_value)
        except ValueError:
            raise ValueError(f"row {row_no}: non-numeric value {raw_value!r}") from None
        if not np.isfinite(value) or not value > 0:
            raise ValueError(f"row {row_no}: value must be positive, got {raw_value}")
        table[name] = value
    if error:
        raise error
    if not table:
        raise ValueError("empty input: no value rows")
    return table


def steve_features(model: EmbeddingModel, teams: Sequence[int]) -> np.ndarray:
    """Per-team feature rows: winner and loser representation concatenated."""
    rows = model.registry.rows(teams)
    return np.hstack([model.phi[rows], model.psi[rows]])


def _check_finite(name: str, values: np.ndarray) -> None:
    """Reject a NaN or infinity, naming the first row (axis 0) that holds one."""
    finite = np.isfinite(values)
    if not finite.all():
        row = int(np.flatnonzero(~finite.reshape(len(values), -1).all(axis=1))[0])
        raise ValueError(f"{name} must be finite; row {row} is not")


def quartile_labels(values: Sequence[float]) -> np.ndarray:
    """Assign classes 0..3 by the quartile each value lies in.

    Quartiles use linear interpolation between order statistics over the
    full list; bins are left-closed at the top (``v <= Q1`` is class 0,
    ``Q1 < v <= Q2`` class 1, and so on).
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 4:
        raise ValueError("need at least 4 values for quartile labels")
    _check_finite("values", v)
    quartiles = np.quantile(v, (0.25, 0.5, 0.75))
    return np.searchsorted(quartiles, v, side="left").astype(np.int64)


def _mean_scale(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and standard deviation of a training split, the scale 1.0 where a column is constant."""
    std = data.std(axis=0)
    return data.mean(axis=0), np.where(std == 0, 1.0, std)


# The network is fixed: two hidden layers of 50 and 20 rectified linear
# units, trained with mini-batch Adam.  Weights start uniform with fan-in
# scaling; the L2 penalty applies to weight matrices only.  The batch is
# ``min(_BATCH, n_samples)``.
_HIDDEN = (50, 20)
_LEARNING_RATE = 0.001
_L2 = 1e-4
_EPOCHS = 200
_BATCH = 200
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass
class MLP:
    """A trained feed-forward network (parameters plus task head)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    task: Task

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]


def _zero_params(dims: list[int]) -> list[np.ndarray]:
    """Zeroed ``W1, b1, W2, b2, W3, b3``, views of consecutive spans of one flat block (their ``base``)."""
    shapes = [shape for fan_in, fan_out in zip(dims, dims[1:]) for shape in ((fan_in, fan_out), (fan_out,))]
    sizes = [math.prod(shape) for shape in shapes]
    spans = np.split(np.zeros(sum(sizes)), np.cumsum(sizes)[:-1])
    return [span.reshape(shape) for span, shape in zip(spans, shapes)]


def _init_params(dims: list[int], seed) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Uniform fan-in scaled weights and zero biases, all views of one flat block."""
    rng = np.random.default_rng(seed)
    params = _zero_params(dims)
    weights, biases = params[::2], params[1::2]
    for W in weights:
        bound = 1.0 / np.sqrt(W.shape[0])
        W[...] = rng.uniform(-bound, bound, size=W.shape)
    return weights, biases


def _forward(weights, biases, X, out=(None,) * 5):
    """Forward pass keeping pre-activations for backprop, written into ``out`` where given."""
    z1, h1, z2, h2, z3 = out
    z1 = np.matmul(X, weights[0], out=z1)
    z1 += biases[0]
    h1 = np.maximum(z1, 0.0, out=h1)
    z2 = np.matmul(h1, weights[1], out=z2)
    z2 += biases[1]
    h2 = np.maximum(z2, 0.0, out=h2)
    z3 = np.matmul(h2, weights[2], out=z3)
    z3 += biases[2]
    return z1, h1, z2, h2, z3


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _grads(net: MLP, X: np.ndarray, y: np.ndarray, grads: list[np.ndarray], work=(None,) * 7) -> None:
    """Write the batch gradients into ``grads`` (order W1, b1, W2, b2, W3, b3).

    They are the gradients of the half mean squared error (regression) or
    the mean cross entropy of a 4-way softmax (classification), plus
    ``_L2 / (2 n) * sum|W|^2`` over the weight matrices; the loss itself is
    not computed.  ``work`` holds buffers for z1, h1, z2, h2, z3, dz2 and
    dz1; without them the step allocates its own.
    """
    weights, biases = net.weights, net.biases
    dW1, db1, dW2, db2, dW3, db3 = grads
    n = X.shape[0]
    z1, h1, z2, h2, z3 = _forward(weights, biases, X, work[:5])

    if net.task is Task.REGRESSION:
        dz3 = ((z3[:, 0] - y) / n)[:, None]
    else:
        dz3 = np.exp(_log_softmax(z3))
        dz3[np.arange(n), y] -= 1.0
        dz3 /= n

    np.matmul(h2.T, dz3, out=dW3)
    dW3 += (_L2 / n) * weights[2]
    dz3.sum(axis=0, out=db3)
    dz2 = np.matmul(dz3, weights[2].T, out=work[5])
    dz2 *= z2 > 0
    np.matmul(h1.T, dz2, out=dW2)
    dW2 += (_L2 / n) * weights[1]
    dz2.sum(axis=0, out=db2)
    dz1 = np.matmul(dz2, weights[1].T, out=work[6])
    dz1 *= z1 > 0
    np.matmul(X.T, dz1, out=dW1)
    dW1 += (_L2 / n) * weights[0]
    dz1.sum(axis=0, out=db1)


def _check_samples(X: np.ndarray, y: np.ndarray, task: Task) -> None:
    """Shape and value checks shared by :func:`mlp_train` and :func:`cross_validate`."""
    if X.ndim != 2:
        raise ValueError("features must be a 2-d array")
    n = X.shape[0]
    if X.shape[1] == 0:
        raise ValueError("features must have at least one column")
    if y.shape != (n,):
        raise ValueError(f"targets must have shape ({n},), got {y.shape}")
    _check_finite("features", X)
    if task is Task.REGRESSION:
        _check_finite("targets", y)
    elif y.dtype.kind not in "iu" or ((y < 0) | (y >= N_CLASSES)).any():
        raise ValueError(f"classification targets must be integers in 0..{N_CLASSES - 1}")


def mlp_train(features: np.ndarray, targets: np.ndarray, task: Task, seed: int) -> MLP:
    """Train the fixed 50/20 network with mini-batch Adam, seeded by ``seed``.

    Each batch takes one in-place Adam step over the flat parameter block,
    without computing the loss.  Its batch-sized arrays live in buffers made
    once: a step that allocated and freed them could make the allocator hand
    the heap top back and fault it in again every step (glibc trims a free
    top over 128 KiB), at a cost that depends on the heap's earlier layout.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64 if task is Task.REGRESSION else None)
    _check_samples(X, y, task)
    n = X.shape[0]
    if n == 0:
        raise ValueError("cannot train on empty data")
    if task is Task.CLASSIFICATION:
        y = y.astype(np.int64)

    out_dim = 1 if task is Task.REGRESSION else N_CLASSES
    dims = [X.shape[1], *_HIDDEN, out_dim]
    init_ss, shuffle_ss = np.random.SeedSequence(seed).spawn(2)
    weights, biases = _init_params(dims, init_ss)
    net = MLP(weights=weights, biases=biases, task=task)

    theta = weights[0].base
    grads = _zero_params(dims)
    grad = grads[0].base
    mom, vel = np.zeros_like(theta), np.zeros_like(theta)
    step, denom = np.empty_like(theta), np.empty_like(theta)
    t = 0
    batch = min(_BATCH, n)
    d0, d1, d2, d3 = dims
    # The batch, z1, h1, z2, h2, z3, dz2 and dz1 of a step.
    work = [np.empty((batch, width)) for width in (d0, d1, d1, d2, d2, d3, d2, d1)]
    rng = np.random.default_rng(shuffle_ss)
    for _ in range(_EPOCHS):
        perm = rng.permutation(n)
        for start in range(0, n, batch):
            idx = perm[start : start + batch]
            xb, *buffers = work if len(idx) == batch else [w[: len(idx)] for w in work]
            np.take(X, idx, axis=0, out=xb)
            _grads(net, xb, y[idx], grads, work=buffers)
            t += 1
            bc1 = 1.0 - _BETA1**t
            bc2 = 1.0 - _BETA2**t
            # m += (1 - b1)(g - m); v += (1 - b2)(g g - v); p -= lr (m / bc1) / (sqrt(v / bc2) + eps),
            # in place but in that operand order, so every bit is that of the expressions.
            np.subtract(grad, mom, out=step)
            step *= 1.0 - _BETA1
            mom += step
            np.multiply(grad, grad, out=step)
            step -= vel
            step *= 1.0 - _BETA2
            vel += step
            np.divide(mom, bc1, out=step)
            step *= _LEARNING_RATE
            np.divide(vel, bc2, out=denom)
            np.sqrt(denom, out=denom)
            denom += _EPS
            step /= denom
            theta -= step
    return net


def mlp_predict(net: MLP, features: np.ndarray) -> np.ndarray:
    """Predictions: continuous values (regression) or class labels."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ValueError(f"features must have shape (n, {net.input_dim})")
    _check_finite("features", X)
    *_, z3 = _forward(net.weights, net.biases, X)
    if net.task is Task.REGRESSION:
        return z3[:, 0]
    return z3.argmax(axis=1)


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def compute_metrics(predictions: np.ndarray, targets: np.ndarray, task: Task) -> dict[str, float]:
    """Fold-level metrics.

    Regression: RMSE, MAE and the fold's median absolute error (the
    cross-fold mean of the latter is the reported MMAE).  Classification:
    micro F1 (accuracy for single-label problems) and macro F1, averaged
    over the four quartile classes (a class absent from both truth and
    prediction contributes F1 = 0).
    """
    p = np.asarray(predictions)
    t = np.asarray(targets)
    if p.shape != t.shape or p.ndim != 1:
        raise ValueError(f"predictions and targets must be 1-d and equal-length, got {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ValueError("cannot compute metrics on empty input")

    if task is Task.REGRESSION:
        err = p.astype(np.float64) - t.astype(np.float64)
        return {
            "rmse": float(np.sqrt(np.mean(err**2))),
            "mae": float(np.mean(np.abs(err))),
            "median_ae": float(np.median(np.abs(err))),
        }

    per_class = []
    for c in range(N_CLASSES):
        tp = int(np.sum((p == c) & (t == c)))
        fp = int(np.sum((p == c) & (t != c)))
        fn = int(np.sum((p != c) & (t == c)))
        per_class.append(_f1(tp, fp, fn))
    return {
        "micro_f1": float(np.mean(p == t)),
        "macro_f1": float(np.mean(per_class)),
    }


_DISPLAY_NAMES = {
    "rmse": "RMSE",
    "mae": "MAE",
    "median_ae": "MMAE",
    "micro_f1": "Micro F1",
    "macro_f1": "Macro F1",
}

N_FOLDS = 5


@dataclass
class EvalReport:
    """Per-fold metrics plus mean and population standard deviation."""

    task: Task
    per_fold: dict[str, list[float]]
    mean: dict[str, float]
    std: dict[str, float]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for metric, values in self.per_fold.items():
            if len(values) != N_FOLDS:
                raise ValueError(f"metric {metric!r} has {len(values)} folds, expected {N_FOLDS}")

    @classmethod
    def from_folds(cls, task: Task, fold_metrics: list[dict[str, float]], metadata: dict | None = None) -> "EvalReport":
        per_fold = {m: [fm[m] for fm in fold_metrics] for m in fold_metrics[0]}
        mean = {m: float(np.mean(v)) for m, v in per_fold.items()}
        std = {m: float(np.std(v)) for m, v in per_fold.items()}
        return cls(task=task, per_fold=per_fold, mean=mean, std=std, metadata=metadata or {})

    def to_dict(self) -> dict:
        return {
            "task": self.task.value,
            "folds": N_FOLDS,
            "per_fold": self.per_fold,
            "aggregate": {
                m: {"mean": self.mean[m], "std": self.std[m]} for m in self.per_fold
            },
            "metadata": self.metadata,
        }

    def format_table(self) -> str:
        """One aligned row of ``mean +/- std`` per metric column."""
        record = {"representation": self.metadata.get("representation", "features")}
        for m in self.per_fold:
            record[_DISPLAY_NAMES.get(m, m)] = f"{self.mean[m]:.2f} ± {self.std[m]:.2f}"
        return format_aligned([record], list(record))


def cv_folds(n_samples: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle split into 5 near-equal validation folds.

    The first ``n_samples mod 5`` folds take one extra sample; together the
    folds partition ``range(n_samples)`` exactly.
    """
    if n_samples < N_FOLDS:
        raise ValueError(f"need at least {N_FOLDS} samples, got {n_samples}")
    shuffle_ss = np.random.SeedSequence(seed).spawn(N_FOLDS + 1)[0]
    perm = np.random.default_rng(shuffle_ss).permutation(n_samples)
    return np.array_split(perm, N_FOLDS)


def cross_validate(
    features: np.ndarray,
    targets: np.ndarray,
    task: Task,
    seed: int,
    standardize_features: bool = False,
    metadata: dict | None = None,
) -> EvalReport:
    """5-fold cross-validation of MLP prediction quality.

    Samples are shuffled with ``seed`` and split into five near-equal folds;
    each fold trains the fixed network, seeded from ``seed``.
    Regression targets are standardized on each training split and
    predictions are mapped back to original units before computing metrics;
    features are standardized per split only when ``standardize_features``
    is set (the count-based representations).
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets)
    n = X.shape[0]
    if n < N_FOLDS:
        raise ValueError(f"need at least {N_FOLDS} samples, got {n}")
    _check_samples(X, y, task)

    fold_seeds = np.random.SeedSequence(seed).spawn(N_FOLDS + 1)[1:]
    folds = cv_folds(n, seed)

    fold_metrics = []
    for k, val_idx in enumerate(folds):
        train_idx = np.concatenate([f for i, f in enumerate(folds) if i != k])
        X_tr, X_val, y_tr = X[train_idx], X[val_idx], y[train_idx]
        if standardize_features:
            mean, scale = _mean_scale(X_tr)
            X_tr, X_val = (X_tr - mean) / scale, (X_val - mean) / scale

        fold_seed = int(fold_seeds[k].generate_state(1)[0])
        if task is Task.REGRESSION:
            y_tr = y_tr.astype(np.float64)
            mean, scale = _mean_scale(y_tr)
            net = mlp_train(X_tr, (y_tr - mean) / scale, task, fold_seed)
            predictions = mlp_predict(net, X_val) * scale + mean
        else:
            predictions = mlp_predict(mlp_train(X_tr, y_tr, task, fold_seed), X_val)
        fold_metrics.append(compute_metrics(predictions, y[val_idx], task))

    meta = {"n_samples": n, "standardize_features": standardize_features}
    if task is Task.CLASSIFICATION:
        meta["quartile_binning"] = "full dataset, before fold splits"
    meta.update(metadata or {})
    return EvalReport.from_folds(task, fold_metrics, metadata=meta)
