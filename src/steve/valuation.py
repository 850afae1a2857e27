"""Market-value estimation harness: features, MLP, metrics, cross-validation.

Team market value (million EUR) is predicted from a feature vector, either
as regression or as 4-class quartile classification, using a small
feed-forward network under 5-fold cross-validation.  Everything is seeded
and deterministic so reports are reproducible.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

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
    for row_no, row in enumerate(csv.reader(stream), start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
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


@dataclass(frozen=True)
class Standardizer:
    """Per-column centering/scaling fitted on a training split."""

    mean: np.ndarray
    scale: np.ndarray  # 1.0 where the column is constant


def standardize_fit(train: np.ndarray) -> Standardizer:
    """Fit per-column mean and standard deviation on training data only.

    Columns with zero standard deviation are centered but not divided.
    """
    data = np.asarray(train, dtype=np.float64)
    if data.size == 0:
        raise ValueError("cannot fit a standardizer on empty data")
    mean = data.mean(axis=0)
    std = data.std(axis=0)
    scale = np.where(std == 0, 1.0, std)
    return Standardizer(mean=mean, scale=scale)


def standardize_apply(transform: Standardizer, data: np.ndarray) -> np.ndarray:
    return (np.asarray(data, dtype=np.float64) - transform.mean) / transform.scale


def standardize_invert(transform: Standardizer, data: np.ndarray) -> np.ndarray:
    return np.asarray(data, dtype=np.float64) * transform.scale + transform.mean


@dataclass
class MLPConfig:
    """Network and optimizer constants for :func:`mlp_train`.

    The architecture is fixed: two hidden layers of 50 and 20 rectified
    linear units.  Weights start uniform with fan-in scaling; the L2
    penalty applies to weight matrices only.  ``batch_size`` is a cap; the
    effective batch is ``min(batch_size, n_samples)``.
    """

    learning_rate: float = 0.001
    l2: float = 1e-4
    epochs: int = 200
    batch_size: int = 200
    seed: int = 0

    HIDDEN = (50, 20)
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (np.isfinite(self.l2) and self.l2 >= 0):
            raise ValueError(f"l2 must be finite and >= 0, got {self.l2}")


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


def _forward(weights, biases, X):
    """Forward pass keeping pre-activations for backprop."""
    z1 = X @ weights[0] + biases[0]
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ weights[1] + biases[1]
    h2 = np.maximum(z2, 0.0)
    z3 = h2 @ weights[2] + biases[2]
    return z1, h1, z2, h2, z3


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _loss_and_grads(
    net: MLP, X: np.ndarray, y: np.ndarray, l2: float, grads: list[np.ndarray], with_loss: bool
) -> float | None:
    """Write the batch gradients into ``grads`` (order W1, b1, W2, b2, W3, b3).

    Returns the loss, or ``None`` unless ``with_loss``; the gradients do not
    depend on it.  See :func:`mlp_loss_and_grads` for the loss.
    """
    weights, biases = net.weights, net.biases
    dW1, db1, dW2, db2, dW3, db3 = grads
    n = X.shape[0]
    z1, h1, z2, h2, z3 = _forward(weights, biases, X)

    if net.task is Task.REGRESSION:
        resid = z3[:, 0] - y
        loss = 0.5 * float(np.mean(resid**2)) if with_loss else None
        dz3 = (resid / n)[:, None]
    else:
        log_probs = _log_softmax(z3)
        loss = -float(np.mean(log_probs[np.arange(n), y])) if with_loss else None
        dz3 = np.exp(log_probs)
        dz3[np.arange(n), y] -= 1.0
        dz3 /= n

    if with_loss:
        loss += l2 / (2 * n) * sum(float(np.sum(W**2)) for W in weights)

    np.matmul(h2.T, dz3, out=dW3)
    dW3 += (l2 / n) * weights[2]
    dz3.sum(axis=0, out=db3)
    dz2 = (dz3 @ weights[2].T) * (z2 > 0)
    np.matmul(h1.T, dz2, out=dW2)
    dW2 += (l2 / n) * weights[1]
    dz2.sum(axis=0, out=db2)
    dz1 = (dz2 @ weights[1].T) * (z1 > 0)
    np.matmul(X.T, dz1, out=dW1)
    dW1 += (l2 / n) * weights[0]
    dz1.sum(axis=0, out=db1)
    return loss


def mlp_loss_and_grads(
    net: MLP, X: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, list[np.ndarray]]:
    """Batch loss and analytic gradients in parameter order W1,b1,W2,b2,W3,b3.

    Regression: half mean squared error.  Classification: mean cross
    entropy of a 4-way softmax.  Both add ``l2 / (2 n) * sum|W|^2`` over the
    weight matrices, so the gradients here match finite differences of the
    returned loss exactly.  This runs the same kernel as :func:`mlp_train`.
    """
    grads = _zero_params([net.input_dim, *(W.shape[1] for W in net.weights)])
    loss = _loss_and_grads(net, X, y, l2, grads, with_loss=True)
    return loss, grads


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


def mlp_train(
    features: np.ndarray, targets: np.ndarray, task: Task, cfg: MLPConfig
) -> MLP:
    """Train the fixed 50/20 network with mini-batch Adam.

    Each batch takes one in-place Adam step over the flat parameter block,
    without computing the loss.
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
    dims = [X.shape[1], *MLPConfig.HIDDEN, out_dim]
    init_ss, shuffle_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    weights, biases = _init_params(dims, init_ss)
    net = MLP(weights=weights, biases=biases, task=task)

    theta = weights[0].base
    grads = _zero_params(dims)
    grad = grads[0].base
    mom, vel = np.zeros_like(theta), np.zeros_like(theta)
    step, denom = np.empty_like(theta), np.empty_like(theta)
    t = 0
    batch = min(cfg.batch_size, n)
    rng = np.random.default_rng(shuffle_ss)
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch):
            idx = perm[start : start + batch]
            _loss_and_grads(net, X[idx], y[idx], cfg.l2, grads, with_loss=False)
            t += 1
            bc1 = 1.0 - MLPConfig.BETA1**t
            bc2 = 1.0 - MLPConfig.BETA2**t
            # m += (1 - b1)(g - m); v += (1 - b2)(g g - v); p -= lr (m / bc1) / (sqrt(v / bc2) + eps),
            # in place but in that operand order, so every bit is that of the expressions.
            np.subtract(grad, mom, out=step)
            step *= 1.0 - MLPConfig.BETA1
            mom += step
            np.multiply(grad, grad, out=step)
            step -= vel
            step *= 1.0 - MLPConfig.BETA2
            vel += step
            np.divide(mom, bc1, out=step)
            step *= cfg.learning_rate
            np.divide(vel, bc2, out=denom)
            np.sqrt(denom, out=denom)
            denom += MLPConfig.EPS
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


def compute_metrics(
    predictions: np.ndarray,
    targets: np.ndarray,
    task: Task,
    labels: Sequence[int] | None = None,
) -> dict[str, float]:
    """Fold-level metrics.

    Regression: RMSE, MAE and the fold's median absolute error (the
    cross-fold mean of the latter is the reported MMAE).  Classification:
    micro F1 (accuracy for single-label problems) and macro F1.  The macro
    average runs over ``labels`` when given (a label absent from both truth
    and prediction then contributes F1 = 0); otherwise over the classes
    observed in either.
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

    label_set = sorted(set(np.unique(t)) | set(np.unique(p))) if labels is None else list(labels)
    per_class = []
    for c in label_set:
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

    def format_table(self, label: str | None = None) -> str:
        """One aligned row of ``mean +/- std`` per metric column."""
        label = label or self.metadata.get("representation", "features")
        metrics = list(self.per_fold)
        cells = [f"{self.mean[m]:.2f} ± {self.std[m]:.2f}" for m in metrics]
        headers = [_DISPLAY_NAMES.get(m, m) for m in metrics]
        widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
        name_w = max(len(label), len("representation"))
        lines = [
            "  ".join(["representation".ljust(name_w)] + [h.ljust(w) for h, w in zip(headers, widths)]),
            "  ".join(["-" * name_w] + ["-" * w for w in widths]),
            "  ".join([label.ljust(name_w)] + [c.ljust(w) for c, w in zip(cells, widths)]),
        ]
        return "\n".join(lines)


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
    mlp_config: MLPConfig | None = None,
    metadata: dict | None = None,
) -> EvalReport:
    """5-fold cross-validation of MLP prediction quality.

    Samples are shuffled with ``seed`` and split into five near-equal folds.
    Regression targets are standardized on each training split and
    predictions are mapped back to original units before computing metrics;
    features are standardized per split only when ``standardize_features``
    is set (the count-based representations).  Classification always uses
    the full quartile label set 0..3 for the macro average.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets)
    n = X.shape[0]
    if n < N_FOLDS:
        raise ValueError(f"need at least {N_FOLDS} samples, got {n}")
    _check_samples(X, y, task)

    base_cfg = mlp_config or MLPConfig()
    fold_seeds = np.random.SeedSequence(seed).spawn(N_FOLDS + 1)[1:]
    folds = cv_folds(n, seed)

    fold_metrics = []
    for k, val_idx in enumerate(folds):
        train_idx = np.concatenate([f for i, f in enumerate(folds) if i != k])
        X_tr, X_val = X[train_idx], X[val_idx]
        if standardize_features:
            ft = standardize_fit(X_tr)
            X_tr = standardize_apply(ft, X_tr)
            X_val = standardize_apply(ft, X_val)

        cfg = replace(base_cfg, seed=int(fold_seeds[k].generate_state(1)[0]))
        if task is Task.REGRESSION:
            tt = standardize_fit(y[train_idx].astype(np.float64))
            net = mlp_train(X_tr, standardize_apply(tt, y[train_idx]), task, cfg)
            predictions = standardize_invert(tt, mlp_predict(net, X_val))
            fold_metrics.append(compute_metrics(predictions, y[val_idx], task))
        else:
            net = mlp_train(X_tr, y[train_idx], task, cfg)
            predictions = mlp_predict(net, X_val)
            fold_metrics.append(
                compute_metrics(predictions, y[val_idx], task, labels=range(N_CLASSES))
            )

    meta = {"n_samples": n, "standardize_features": standardize_features}
    if task is Task.CLASSIFICATION:
        meta["quartile_binning"] = "full dataset, before fold splits"
    meta.update(metadata or {})
    return EvalReport.from_folds(task, fold_metrics, metadata=meta)
