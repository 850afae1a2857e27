"""Learning winner/loser team vectors with mini-batch Adam.

Each team owns two unit-norm rows: a winner representation (``phi``) and a
loser representation (``psi``).  Both live in one stacked parameter block
``theta = [phi; psi]`` of shape ``(2m, delta)``, loser rows offset by ``m``.
A draw pulls the two winner rows together; a decided match pulls the
winner's ``phi`` row toward the loser's ``psi`` row, so every match pulls
row ``a`` of ``theta`` toward its opponent row ``b + m * (1 - d)``.  Losses
are weighted ``s / x_max`` so old seasons matter less.  Updates are sparse:
only rows touched by a batch move, each along its tangent plane on the unit
sphere (Riemannian Adam), and exactly those rows are renormalized to unit
length after every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .teams import TeamRegistry

if TYPE_CHECKING:
    from .match_data import Dataset

ProgressSink = Callable[[int, float], None]


def _store_ints(obj, names: tuple[str, ...]) -> None:
    """Store each named field of ``obj`` as a plain ``int``; a float or a bool is refused.

    A numpy integer is accepted and converted, so that the field writes to JSON.
    """
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")
        object.__setattr__(obj, name, int(value))


@dataclass
class TrainConfig:
    """Hyperparameters for :func:`train`.

    ``weight_decay`` changes only the reported loss, not the trained
    vectors: its gradient is radial on unit rows, and the tangent Adam step
    removes it.
    """

    delta: int = 16
    batch_size: int = 128
    learning_rate: float = 0.0001
    epochs: int = 40
    weight_decay: float = 1e-6
    seed: int = 7

    def __post_init__(self):
        _store_ints(self, ("delta", "batch_size", "epochs", "seed"))
        if self.delta < 1:
            raise ValueError("delta must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True, eq=False)
class EmbeddingModel:
    """Winner matrix ``phi`` and loser matrix ``psi``, one row per team.

    Rows are kept at unit L2 norm.  Row ``i`` of either matrix belongs to
    the team with id ``i + 1`` (registry ids are 1-based).  The model stores
    one stacked block ``theta = [phi; psi]`` of shape ``(2m, delta)``, which
    the constructor copies.  No field can be rebound; ``phi`` and ``psi``
    are views of ``theta``, so a write into their rows writes into it.
    """

    theta: np.ndarray
    registry: TeamRegistry
    x_max: int

    def __post_init__(self):
        _store_ints(self, ("x_max",))
        theta = np.array(self.theta, dtype=np.float64)
        if theta.ndim != 2 or theta.shape[0] != 2 * self.m or theta.shape[1] < 1:
            raise ValueError(f"theta must have shape ({2 * self.m}, delta) with delta >= 1, got {theta.shape}")
        if self.x_max < 1:
            raise ValueError("x_max must be >= 1")
        object.__setattr__(self, "theta", theta)

    @property
    def m(self) -> int:
        return self.registry.m

    @property
    def delta(self) -> int:
        return self.theta.shape[1]

    @property
    def phi(self) -> np.ndarray:
        return self.theta[: self.m]

    @property
    def psi(self) -> np.ndarray:
        return self.theta[self.m :]

    def first_non_finite_team(self) -> int | None:
        """Id of the first team with a NaN or infinity in ``phi`` or ``psi``, else ``None``."""
        finite = np.isfinite(self.theta).all(axis=1)
        bad = np.flatnonzero(~(finite[: self.m] & finite[self.m :]))
        return int(bad[0]) + 1 if bad.size else None

    def __eq__(self, other) -> bool:
        """Same team names, ``x_max`` and every bit of ``theta``."""
        if not isinstance(other, EmbeddingModel):
            return NotImplemented
        return (
            self.x_max == other.x_max
            and self.registry.names == other.registry.names
            and np.array_equal(self.theta, other.theta)
        )


@dataclass
class AdamState:
    """Moment accumulators for the stacked block, in the style of Riemannian Adam.

    The first moments ``first`` hold one tangent vector per row of
    ``theta``, shape ``(2m, delta)``.  The second moments ``second`` hold
    one scalar per row, shape ``(2m,)``: the running mean of the squared
    norm of that row's tangent gradient.  The timestep advances once per
    batch; bias correction uses the global timestep even though only
    touched rows are updated.
    """

    first: np.ndarray
    second: np.ndarray
    t: int = 0

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    @classmethod
    def zeros(cls, m: int, delta: int) -> "AdamState":
        return cls(first=np.zeros((2 * m, delta)), second=np.zeros(2 * m))


@dataclass
class GradientUpdate:
    """Sparse per-batch gradients: only rows touched by the batch appear.

    Row indices are 0-based matrix rows (team id minus 1), sorted ascending.
    ``phi_grads[i]`` is the accumulated gradient for matrix row
    ``phi_rows[i]``; likewise for ``psi``.
    """

    phi_rows: np.ndarray
    phi_grads: np.ndarray
    psi_rows: np.ndarray
    psi_grads: np.ndarray

    @classmethod
    def split(cls, rows: np.ndarray, grads: np.ndarray, m: int) -> "GradientUpdate":
        """Split sorted rows of the stacked block (loser rows offset by ``m``)."""
        k = int(np.searchsorted(rows, m))
        return cls(rows[:k], grads[:k], rows[k:] - m, grads[k:])


def _unit_rows(rng: np.random.Generator, m: int, delta: int) -> np.ndarray:
    rows = rng.standard_normal((m, delta))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows


def _stacked_gradients(
    theta: np.ndarray, a: np.ndarray, opp: np.ndarray, w: np.ndarray, weight_decay: float,
    mask: np.ndarray, pos: np.ndarray, with_loss: bool,
) -> tuple[float | None, np.ndarray, np.ndarray, np.ndarray]:
    """Batch loss, touched rows of ``theta`` (sorted), those rows and their summed gradients.

    Match ``i`` pulls row ``a[i]`` toward row ``opp[i]`` with weight
    ``w[i]``.  The loss is ``None`` unless ``with_loss``; the gradients do
    not depend on it.  The gathered rows ``theta[rows]`` are a copy, which
    :func:`_adam_step` may overwrite.  ``mask`` (all False, length 2m) and
    ``pos`` (length 2m) are scratch buffers reused across batches; ``mask``
    is left all False.
    """
    diff = theta.take(a, axis=0)
    diff -= theta.take(opp, axis=0)
    loss = float(np.sum(w * np.einsum("ij,ij->i", diff, diff))) if with_loss else None

    # d(loss)/d(theta_a) per sample; the opposing row gets the negation.
    g = (2.0 * w)[:, None] * diff
    target = np.concatenate([a, opp])
    mask[target] = True
    rows = np.flatnonzero(mask)
    mask[rows] = False
    pos[rows] = np.arange(rows.size)
    # One weighted bincount adds each row's contributions in input order,
    # starting from 0.0, so the sums are those of a sequential np.add.at.
    delta = theta.shape[1]
    flat = (pos[target] * delta)[:, None] + np.arange(delta)
    grads = np.bincount(
        flat.ravel(), weights=np.concatenate([g, -g]).ravel(), minlength=rows.size * delta
    ).reshape(rows.size, delta)

    x = theta.take(rows, axis=0)
    if weight_decay:
        # Coupled L2 on exactly the touched rows, evaluated pre-update, with
        # the winner and loser sums added separately.
        if with_loss:
            sq = x**2
            split = np.searchsorted(rows, theta.shape[0] // 2)
            loss += weight_decay * (float(np.sum(sq[:split])) + float(np.sum(sq[split:])))
        grads += 2.0 * weight_decay * x

    return loss, rows, x, grads


def _adam_step(
    theta: np.ndarray, opt: AdamState, rows: np.ndarray, x: np.ndarray, grads: np.ndarray,
    learning_rate: float,
) -> None:
    """One Riemannian Adam step on the touched rows, then their renormalization.

    ``x`` holds a copy of ``theta[rows]``, which the step overwrites.  Each
    row lives on the unit sphere, so only the gradient's tangent part can
    move it: the radial part is removed before it reaches the moments, and
    the stored momentum is re-projected onto the row's current tangent
    plane.  The step is scaled by one second-moment scalar per row, so a
    row moves along its descent direction instead of a coordinate-wise
    rescaling of it.
    """
    opt.t += 1
    bc1 = 1.0 - AdamState.BETA1 ** opt.t
    bc2 = 1.0 - AdamState.BETA2 ** opt.t
    g = grads - np.einsum("ij,ij->i", grads, x)[:, None] * x
    mo = opt.first.take(rows, axis=0)
    mo -= np.einsum("ij,ij->i", mo, x)[:, None] * x
    mo *= AdamState.BETA1
    mo += (1.0 - AdamState.BETA1) * g
    ve = opt.second.take(rows)
    ve *= AdamState.BETA2
    ve += (1.0 - AdamState.BETA2) * np.einsum("ij,ij->i", g, g)
    opt.first[rows] = mo
    opt.second[rows] = ve
    # step = learning_rate * (mo / bc1) / (sqrt(ve / bc2) + eps), built in place.
    mo /= bc1
    mo *= learning_rate
    ve /= bc2
    np.sqrt(ve, out=ve)
    ve += AdamState.EPS
    mo /= ve[:, None]
    x -= mo
    # np.linalg.norm(x, axis=1, keepdims=True), spelled out: the same bits, fewer calls.
    x /= np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True))
    theta[rows] = x


def train(
    ds: Dataset,
    cfg: TrainConfig,
    progress: ProgressSink | None = None,
    on_batch: Callable[[EmbeddingModel, GradientUpdate], None] | None = None,
) -> EmbeddingModel:
    """Train a model on ``ds``: seeded shuffling, mini-batches, sparse Adam.

    Training starts from one seeded draw of winner rows, i.i.d. N(0, 1)
    and then unit-normalized, with every loser row set equal to its team's
    winner row, so the untrained model rates every pair a tie.  Each batch
    then takes one Riemannian Adam step (see :func:`_adam_step`) on the
    stacked block: tangent gradients and momentum, one second-moment scalar
    per row, and renormalization of the touched rows.

    Every epoch reshuffles the quadruples with one generator advanced across
    epochs, so identical inputs and seed give a bit-identical model.  The
    optional ``progress`` sink receives ``(epoch, mean_loss)`` where
    ``mean_loss`` is the summed batch loss (weight decay included) divided
    by the number of quadruples.  The loss is computed only when
    ``progress`` is given; the trained model is the same bits either way.
    ``on_batch`` runs after each completed batch update and is meant for
    instrumentation; only when it is given is the batch's update split into
    its winner and loser rows.  The batches run, sinks included, under
    ``np.errstate`` that raises on overflow, invalid values and division by
    zero, so a step too large for float64 ends training with an error
    naming the winner of its batch's first match; a model that still holds
    a NaN or an infinity is refused naming the first such team.
    """
    if not len(ds):
        raise ValueError("dataset is empty")

    m = ds.registry.m
    init_ss, shuffle_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    phi = _unit_rows(np.random.default_rng(init_ss), m, cfg.delta)
    model = EmbeddingModel(np.concatenate([phi, phi]), ds.registry, ds.x_max)
    theta = model.theta
    opt = AdamState.zeros(m, cfg.delta)
    mask = np.zeros(2 * m, dtype=bool)
    pos = np.empty(2 * m, dtype=np.int64)

    n = len(ds)
    a = ds.a - 1
    opp = ds.b - 1 + m * (1 - ds.d)
    w = ds.s / ds.x_max

    def diverged(team: int) -> ValueError:
        return ValueError(
            f"training diverged: team {ds.registry.name_of(team)!r} has a non-finite vector "
            f"(learning_rate={cfg.learning_rate}, weight_decay={cfg.weight_decay})"
        )

    with_loss = progress is not None
    shuffle_rng = np.random.default_rng(shuffle_ss)
    # An overflow, a 0/0 or a division by a zero norm stops the step before
    # it writes a NaN or an infinity into theta.
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for epoch in range(1, cfg.epochs + 1):
            perm = shuffle_rng.permutation(n)
            ea, eopp, ew = a.take(perm), opp.take(perm), w.take(perm)
            total = 0.0
            for start in range(0, n, cfg.batch_size):
                stop = start + cfg.batch_size
                try:
                    loss, rows, x, grads = _stacked_gradients(
                        theta, ea[start:stop], eopp[start:stop], ew[start:stop], cfg.weight_decay,
                        mask, pos, with_loss,
                    )
                    _adam_step(theta, opt, rows, x, grads, cfg.learning_rate)
                except FloatingPointError:
                    raise diverged(int(ea[start]) + 1) from None
                if with_loss:
                    total += loss
                if on_batch is not None:
                    on_batch(model, GradientUpdate.split(rows, grads, m))
            if progress is not None:
                progress(epoch, total / n)
    team = model.first_non_finite_team()
    if team is not None:
        raise diverged(team)
    return model
