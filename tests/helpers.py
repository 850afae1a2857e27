"""Shared synthetic-league builders and small statistics for the tests."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from steve.analytics import HeadToHead, Outcome, RankingEntry
from steve.match_data import CSV_FIELDS, Competition, Dataset, MatchQuad, Matches, TeamRegistry
from steve.trainer import EmbeddingModel, GradientUpdate, TrainConfig, _stacked_gradients, _unit_rows
from steve.valuation import MLP, N_CLASSES, Task


ROOT = Path(__file__).resolve().parent.parent


def run_python(*args: str, env: dict | None = None, timeout: float = 120, cwd=None,
               stdout=subprocess.PIPE, **popen):
    """``python *args`` in a fresh interpreter that imports ``steve`` from this tree.

    The child sees the runner's environment, thread variables included, less
    ``PYTHONUNBUFFERED``: its stdout is block-buffered, as a user's shell
    leaves it.  ``env`` adds to the environment, so a test that needs a
    stdout mode sets it there.  ``stdout`` and ``popen`` go to
    :func:`subprocess.run`.  Returns the ``CompletedProcess``, with its output
    as text.
    """
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    inherited = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, *args], env={**inherited, "PYTHONPATH": path, **(env or {})},
        cwd=cwd, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=timeout, **popen,
    )


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks for ties."""

    def ranks(values):
        v = np.asarray(values, dtype=np.float64)
        order = np.argsort(v, kind="stable")
        pos = np.empty(len(v))
        pos[order] = np.arange(1, len(v) + 1)
        out = np.empty(len(v))
        for val in np.unique(v):
            mask = v == val
            out[mask] = pos[mask].mean()
        return out

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx**2).sum() * (ry**2).sum()))


def placeholder_registry(n_teams: int) -> TeamRegistry:
    width = len(str(n_teams))
    return TeamRegistry(f"team_{i:0{width}d}" for i in range(1, n_teams + 1))


def init_model(
    m: int,
    delta: int,
    seed: int | np.random.SeedSequence,
    registry: TeamRegistry | None = None,
    x_max: int = 1,
) -> EmbeddingModel:
    """Create a model with rows drawn i.i.d. N(0, 1), then unit-normalized.

    The draw order is fixed (phi first, then psi) so a given seed always
    produces the bit-identical model; ``train`` starts from the phi draw of
    its first spawned seed.  When no registry is supplied, one is generated
    with zero-padded placeholder names ``team_01 .. team_m``.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if registry is None:
        registry = placeholder_registry(m)
    elif registry.m != m:
        raise ValueError(f"registry holds {registry.m} teams, expected {m}")
    rng = np.random.default_rng(seed)
    phi = _unit_rows(rng, m, delta)
    psi = _unit_rows(rng, m, delta)
    return EmbeddingModel(np.concatenate([phi, psi]), registry, x_max)


def kernel_gradients(
    model: EmbeddingModel, batch: Sequence[MatchQuad], weight_decay: float = 0.0
) -> tuple[float, GradientUpdate]:
    """Loss and summed gradients of ``batch`` from the stacked kernel ``train`` runs.

    The loss is the season-weighted squared distance of every quadruple,
    ``(s / x_max) * |phi_a - (phi_b if d else psi_b)|^2``, plus
    ``weight_decay * |row|^2`` once per touched row.
    """
    quads = Dataset.from_quads(batch, model.x_max, model.registry)
    m = model.m
    loss, rows, _, grads = _stacked_gradients(
        model.theta, quads.a - 1, quads.b - 1 + m * (1 - quads.d), quads.s / model.x_max, weight_decay,
        np.zeros(2 * m, dtype=bool), np.empty(2 * m, dtype=np.int64), with_loss=True,
    )
    return loss, GradientUpdate.split(rows, grads, m)


def brute_batch_loss(model: EmbeddingModel, batch: Sequence[MatchQuad], weight_decay: float) -> float:
    """Plain-python reference for the batch loss, independent of the trainer.

    The sum of the season-weighted sample losses, plus ``weight_decay`` times
    the squared norm of each touched row.
    """
    total = 0.0
    touched_phi, touched_psi = set(), set()
    for q in batch:
        w = q.s / model.x_max
        if q.d == 1:
            diff = model.phi[q.a - 1] - model.phi[q.b - 1]
            touched_phi.update((q.a - 1, q.b - 1))
        else:
            diff = model.phi[q.a - 1] - model.psi[q.b - 1]
            touched_phi.add(q.a - 1)
            touched_psi.add(q.b - 1)
        total += w * float(diff @ diff)
    for r in touched_phi:
        total += weight_decay * float(model.phi[r] @ model.phi[r])
    for r in touched_psi:
        total += weight_decay * float(model.psi[r] @ model.psi[r])
    return total


def gradients_by_row(update: GradientUpdate) -> dict[tuple[str, int], np.ndarray]:
    """``{("phi" or "psi", row): gradient}`` for every row ``update`` touches."""
    return {
        **{("phi", int(row)): grad for row, grad in zip(update.phi_rows, update.phi_grads)},
        **{("psi", int(row)): grad for row, grad in zip(update.psi_rows, update.psi_grads)},
    }


def strength_league(
    n_teams: int,
    seasons: int,
    rounds: int,
    seed: int,
    steep: float = 4.0,
    draw_amp: float = 0.10,
    draw_width: float = np.inf,
    strengths=None,
):
    """Quadruple dataset from latent strengths with logistic outcomes.

    Every unordered pair meets ``rounds`` times per season.  A match is a
    draw with probability ``draw_amp * exp(-(gap / draw_width)^2)`` (just
    ``draw_amp`` when ``draw_width`` is inf); otherwise the winner is drawn
    from a logistic in the strength gap.  Returns (dataset, strengths) with
    team ``i`` having strength ``strengths[i - 1]``.
    """
    rng = np.random.default_rng(seed)
    if strengths is None:
        strengths = np.sort(rng.uniform(-2.0, 2.0, n_teams))[::-1]
    strengths = np.asarray(strengths, dtype=np.float64)
    quads = []
    for s in range(1, seasons + 1):
        for _ in range(rounds):
            for i in range(1, n_teams + 1):
                for j in range(i + 1, n_teams + 1):
                    gap = strengths[i - 1] - strengths[j - 1]
                    p_draw = draw_amp if np.isinf(draw_width) else draw_amp * np.exp(-((gap / draw_width) ** 2))
                    if rng.random() < p_draw:
                        quads.append(MatchQuad(i, j, s, 1))
                    else:
                        win_i = rng.random() < sigmoid(steep * gap)
                        w, l = (i, j) if win_i else (j, i)
                        quads.append(MatchQuad(w, l, s, 0))
    ds = Dataset.from_quads(quads, x_max=seasons, registry=placeholder_registry(n_teams))
    return ds, strengths


def circulant_wins(team_ids: list[int], beats: int) -> list[tuple[int, int]]:
    """Balanced sub-tournament: each team beats the next ``beats`` around a circle."""
    n = len(team_ids)
    return [
        (team_ids[i], team_ids[(i + step) % n])
        for i in range(n)
        for step in range(1, beats + 1)
    ]


def hierarchy_dataset(n_teams: int = 4, n_rounds: int = 20) -> Dataset:
    """Strict transitive hierarchy: lower team id always beats higher."""
    quads = [
        MatchQuad(i, j, 1, 0)
        for _ in range(n_rounds)
        for i in range(1, n_teams + 1)
        for j in range(i + 1, n_teams + 1)
    ]
    return Dataset.from_quads(quads, x_max=1, registry=placeholder_registry(n_teams))


def draw_pair_dataset(seed: int, n_others: int = 8, seasons: int = 3, rounds: int = 3) -> Dataset:
    """Teams 1 and 2 always draw each other and share results against others."""
    rng = np.random.default_rng(seed)
    p, q = 1, 2
    others = list(range(3, 3 + n_others))
    quads = []
    for s in range(1, seasons + 1):
        for _ in range(rounds):
            quads.append(MatchQuad(p, q, s, 1))
            for o in others:
                if rng.random() < 0.5:
                    quads.append(MatchQuad(p, o, s, 0))
                    quads.append(MatchQuad(q, o, s, 0))
                else:
                    quads.append(MatchQuad(o, p, s, 0))
                    quads.append(MatchQuad(o, q, s, 0))
        for a, b in circulant_wins(others, n_others // 2 - 1):
            quads.append(MatchQuad(a, b, s, 0))
    return Dataset.from_quads(quads, x_max=seasons, registry=placeholder_registry(2 + n_others))


def common_victims_dataset(n_others: int = 8, seasons: int = 3, rounds: int = 2) -> Dataset:
    """Teams 1 and 2 beat every other team but never meet each other."""
    p, q = 1, 2
    others = list(range(3, 3 + n_others))
    quads = []
    for s in range(1, seasons + 1):
        for _ in range(rounds):
            for o in others:
                quads.append(MatchQuad(p, o, s, 0))
                quads.append(MatchQuad(q, o, s, 0))
        for a, b in circulant_wins(others, n_others // 2 - 1):
            quads.append(MatchQuad(a, b, s, 0))
    return Dataset.from_quads(quads, x_max=seasons, registry=placeholder_registry(2 + n_others))


def league_csv(n_teams: int = 8, seasons: int = 2, seed: int = 0, rounds: int = 2) -> str:
    """Matches CSV text: national round-robins plus a few international rows."""
    rng = np.random.default_rng(seed)
    names = [f"Club {chr(ord('A') + i)}" for i in range(n_teams)]
    lines = ["season_label,competition,home,away,home_goals,away_goals"]
    for s in range(seasons):
        label = f"{2010 + s}/{2011 + s}"
        for _ in range(rounds):
            for i in range(n_teams):
                for j in range(n_teams):
                    if i == j:
                        continue
                    hg, ag = rng.integers(0, 5), rng.integers(0, 5)
                    lines.append(f"{label},NationalLeague,{names[i]},{names[j]},{hg},{ag}")
        # top teams also meet in Europe
        for comp, (i, j) in (("ChampionsLeague", (0, 1)), ("EuropaLeague", (2, 3))):
            hg, ag = rng.integers(0, 5), rng.integers(0, 5)
            lines.append(f"{label},{comp},{names[i]},{names[j]},{hg},{ag}")
    return "\n".join(lines) + "\n"


def values_csv(names: list[str], seed: int = 0) -> str:
    rng = np.random.default_rng(seed)
    lines = ["team,value_millions"]
    for name in names:
        lines.append(f"{name},{rng.uniform(10, 1200):.2f}")
    return "\n".join(lines) + "\n"


def random_league(n_teams: int, n_matches: int, seasons: int, seed: int, draw_share: float = 0.25) -> Dataset:
    """Uniformly random pairings, seasons and draws; the shape of a benchmark league."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, n_teams + 1, n_matches)
    b = (a - 1 + rng.integers(1, n_teams, n_matches)) % n_teams + 1
    s = np.sort(rng.integers(1, seasons + 1, n_matches))
    d = (rng.random(n_matches) < draw_share).astype(int)
    return Dataset(a=a, b=b, s=s, d=d, x_max=seasons, registry=placeholder_registry(n_teams))


def broken_model_file(path, tmp_path, case):
    """A copy of the model file at ``path`` with one defect, by case name."""
    bad = tmp_path / "broken.json"
    if case == "nested too deeply":
        # Deeper than json's recursive parser can go.
        bad.write_text("[" * 200_000 + "]" * 200_000)
        return bad
    doc = json.loads(path.read_text())
    if case == "team without phi":
        del doc["teams"][1]["phi"]
    elif case == "no x_max":
        del doc["x_max"]
    elif case == "x_max zero":
        doc["x_max"] = 0
    elif case == "delta not an int":
        doc["delta"] = 4.0
    elif case == "delta a bool":
        doc["delta"] = True
    elif case == "nan row":
        doc["teams"][2]["phi"][0] = float("nan")
    elif case == "infinite row":
        doc["teams"][2]["psi"][1] = float("inf")
    elif case == "non-unit row":
        doc["teams"][2]["psi"] = [2 * v for v in doc["teams"][2]["psi"]]
    elif case == "team without name":
        del doc["teams"][0]["name"]
    elif case == "non-numeric value":
        doc["teams"][0]["psi"][0] = "x"
    elif case == "format_version true":
        doc["format_version"] = True
    elif case == "format_version 1.0":
        doc["format_version"] = 1.0
    bad.write_text(json.dumps(doc))
    return bad


BROKEN_CASES = [
    ("team without phi", "phi"),
    ("no x_max", "x_max"),
    ("x_max zero", "x_max"),
    ("delta not an int", "delta"),
    ("delta a bool", "delta"),
    ("nan row", "non-finite"),
    ("infinite row", "non-finite"),
    ("non-unit row", "norm off 1"),
    ("team without name", "name"),
    ("non-numeric value", "non-numeric"),
    ("format_version true", "unsupported model file"),
    ("format_version 1.0", "unsupported model file"),
    ("nested too deeply", "not valid JSON"),
]


# ---------------------------------------------------------------------------
# Reference trainer: the per-matrix batch loop that the stacked trainer
# replaced, kept unchanged as a bit-exact oracle for ``steve.trainer.train``.


@dataclass
class _ReferenceAdamState:
    m_phi: np.ndarray
    v_phi: np.ndarray
    m_psi: np.ndarray
    v_psi: np.ndarray
    t: int = 0

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    @classmethod
    def zeros(cls, m: int, delta: int) -> "_ReferenceAdamState":
        return cls(
            m_phi=np.zeros((m, delta)),
            v_phi=np.zeros(m),
            m_psi=np.zeros((m, delta)),
            v_psi=np.zeros(m),
        )


def reference_batch_arrays(
    model: EmbeddingModel, a: np.ndarray, b: np.ndarray, s: np.ndarray, d: np.ndarray,
    weight_decay: float,
) -> tuple[float, GradientUpdate]:
    """Vectorized loss + sparse gradients over pre-validated index arrays."""
    phi, psi = model.phi, model.psi
    w = s / model.x_max
    draws = d == 1

    other = psi[b].copy()
    other[draws] = phi[b[draws]]
    diff = phi[a] - other
    data_loss = float(np.sum(w * np.einsum("ij,ij->i", diff, diff)))

    # d(loss)/d(phi_a) per sample; the opposing row gets the negation.
    g = (2.0 * w)[:, None] * diff
    phi_target = np.concatenate([a, b[draws]])
    phi_contrib = np.concatenate([g, -g[draws]])
    psi_target = b[~draws]
    psi_contrib = -g[~draws]

    phi_rows, inv = np.unique(phi_target, return_inverse=True)
    phi_grads = np.zeros((phi_rows.size, model.delta))
    np.add.at(phi_grads, inv, phi_contrib)
    if psi_target.size:
        psi_rows, inv = np.unique(psi_target, return_inverse=True)
        psi_grads = np.zeros((psi_rows.size, model.delta))
        np.add.at(psi_grads, inv, psi_contrib)
    else:
        psi_rows = np.empty(0, dtype=np.int64)
        psi_grads = np.empty((0, model.delta))

    loss = data_loss
    if weight_decay:
        # Coupled L2 on exactly the touched rows, evaluated pre-update.
        loss += weight_decay * (
            float(np.sum(phi[phi_rows] ** 2)) + float(np.sum(psi[psi_rows] ** 2))
        )
        phi_grads += 2.0 * weight_decay * phi[phi_rows]
        psi_grads += 2.0 * weight_decay * psi[psi_rows]

    return loss, GradientUpdate(phi_rows, phi_grads, psi_rows, psi_grads)


def _reference_adam_step(
    model: EmbeddingModel, opt: _ReferenceAdamState, update: GradientUpdate, learning_rate: float
) -> None:
    """One Riemannian Adam step on the touched rows, then their renormalization."""
    opt.t += 1
    bc1 = 1.0 - _ReferenceAdamState.BETA1 ** opt.t
    bc2 = 1.0 - _ReferenceAdamState.BETA2 ** opt.t
    for rows, grads, mat, mom, vel in (
        (update.phi_rows, update.phi_grads, model.phi, opt.m_phi, opt.v_phi),
        (update.psi_rows, update.psi_grads, model.psi, opt.m_psi, opt.v_psi),
    ):
        if rows.size == 0:
            continue
        x = mat.take(rows, axis=0)
        g = grads - np.einsum("ij,ij->i", grads, x)[:, None] * x
        mo = mom.take(rows, axis=0)
        mo -= np.einsum("ij,ij->i", mo, x)[:, None] * x
        mo = _ReferenceAdamState.BETA1 * mo + (1.0 - _ReferenceAdamState.BETA1) * g
        sq = np.einsum("ij,ij->i", g, g)
        ve = _ReferenceAdamState.BETA2 * vel.take(rows) + (1.0 - _ReferenceAdamState.BETA2) * sq
        mom[rows] = mo
        vel[rows] = ve
        step = learning_rate * (mo / bc1) / (np.sqrt(ve / bc2) + _ReferenceAdamState.EPS)[:, None]
        moved = x - step
        mat[rows] = moved / np.linalg.norm(moved, axis=1, keepdims=True)


def reference_train(ds: Dataset, cfg: TrainConfig, progress=None, on_batch=None) -> EmbeddingModel:
    """The per-matrix trainer: same seeds, draws, shuffles and arithmetic as ``train``."""
    if not len(ds):
        raise ValueError("dataset is empty")

    init_ss, shuffle_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    model = init_model(ds.registry.m, cfg.delta, init_ss, registry=ds.registry, x_max=ds.x_max)
    model.psi[:] = model.phi
    opt = _ReferenceAdamState.zeros(model.m, cfg.delta)

    n = len(ds)
    a = ds.a - 1
    b = ds.b - 1
    s = ds.s.astype(np.float64)
    d = ds.d

    shuffle_rng = np.random.default_rng(shuffle_ss)
    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            loss, update = reference_batch_arrays(model, a[idx], b[idx], s[idx], d[idx], cfg.weight_decay)
            _reference_adam_step(model, opt, update, cfg.learning_rate)
            total += loss
            if on_batch is not None:
                on_batch(model, update)
        if progress is not None:
            progress(epoch, total / n)
    return model


# ---------------------------------------------------------------------------
# Reference analytics: the one-pair-at-a-time loops that the array kernel in
# ``steve.analytics`` replaced, kept unchanged (``diff @ diff`` per pair) as
# bit-exact oracles for ``rank_teams``, ``most_similar`` and ``head_to_head``.


def _reference_sqdist(u: np.ndarray, v: np.ndarray) -> float:
    diff = u - v
    return float(diff @ diff)


def reference_winner_distance(model: EmbeddingModel, a: int, b: int) -> float:
    """Squared euclidean distance between the winner representations."""
    model.registry.check_id(a)
    model.registry.check_id(b)
    return _reference_sqdist(model.phi[a - 1], model.phi[b - 1])


def reference_most_similar(model: EmbeddingModel, team: int, k: int) -> list[tuple[int, float]]:
    """The ``k`` teams closest to ``team`` by winner distance, ascending.

    The query team itself is excluded; exact distance ties are broken by
    ascending team name.
    """
    model.registry.check_id(team)
    if not 1 <= k <= model.m - 1:
        raise ValueError(f"k must be in 1..{model.m - 1}, got {k}")
    scored = [
        (reference_winner_distance(model, team, other), model.registry.name_of(other), other)
        for other in range(1, model.m + 1)
        if other != team
    ]
    scored.sort(key=lambda t: (t[0], t[1]))
    return [(other, dist) for dist, _, other in scored[:k]]


def reference_head_to_head(model: EmbeddingModel, a: int, b: int) -> HeadToHead:
    """Simulate one match by comparing cross winner/loser distances."""
    model.registry.check_id(a)
    model.registry.check_id(b)
    if a == b:
        raise ValueError("a and b must be distinct teams")
    alpha = _reference_sqdist(model.phi[a - 1], model.psi[b - 1])
    beta = _reference_sqdist(model.phi[b - 1], model.psi[a - 1])
    if alpha < beta:
        outcome = Outcome.A_WINS
    elif alpha > beta:
        outcome = Outcome.B_WINS
    else:
        outcome = Outcome.TIE
    return HeadToHead(alpha_score=alpha, beta_score=beta, outcome=outcome)


def reference_rank_teams(model: EmbeddingModel, teams: Sequence[int]) -> list[RankingEntry]:
    """Single round-robin over ``teams``, ranked by victories.

    Every unordered pair plays once; the winner gains one victory and an
    exact tie awards half a victory to both, so totals always sum to
    ``n * (n - 1) / 2``.  Output order is descending victories, ties broken
    by ascending team name; ranks run 1..n.
    """
    if len(teams) < 2:
        raise ValueError("need at least 2 teams to rank")
    seen = set()
    for t in teams:
        model.registry.check_id(t)
        if t in seen:
            raise ValueError(f"duplicate team in ranking list: {model.registry.name_of(t)!r}")
        seen.add(t)

    victories = {t: 0.0 for t in teams}
    for a, b in combinations(teams, 2):
        result = reference_head_to_head(model, a, b)
        if result.outcome is Outcome.A_WINS:
            victories[a] += 1.0
        elif result.outcome is Outcome.B_WINS:
            victories[b] += 1.0
        else:
            victories[a] += 0.5
            victories[b] += 0.5

    order = sorted(teams, key=lambda t: (-victories[t], model.registry.name_of(t)))
    return [RankingEntry(team=t, victories=victories[t], rank=i) for i, t in enumerate(order, 1)]


# ---------------------------------------------------------------------------
# Reference ingest: the per-match dataclasses and the row-by-row parser that
# the columnar ``steve.match_data`` replaced, kept unchanged (the classes
# renamed where the library keeps the name) as oracles for ``ingest_csv``,
# ``to_quads`` and ``dataset_summary``.  ``RawMatch`` lists also feed the
# reference baselines below.


@dataclass(frozen=True)
class RawMatch:
    """One match result, including the goal counts the quadruples drop."""

    home: int
    away: int
    home_goals: int
    away_goals: int
    season_label: str
    season_index: int
    competition: Competition

    def __post_init__(self):
        if self.home == self.away:
            raise ValueError("home and away team must differ")
        if self.home_goals < 0 or self.away_goals < 0:
            raise ValueError("goal counts must be non-negative")
        if self.season_index < 1:
            raise ValueError("season_index must be >= 1")


@dataclass(frozen=True)
class ReferenceQuad:
    """Canonical training record ``(a, b, s, d)``; ``a`` won iff ``d == 0``."""

    a: int
    b: int
    s: int
    d: int

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("a and b must differ")
        if self.d not in (0, 1):
            raise ValueError("d must be 0 or 1")
        if self.s < 1:
            raise ValueError("s must be >= 1")


@dataclass
class ReferenceDataset:
    """Training quadruples plus the raw matches and registry behind them."""

    quads: list[ReferenceQuad]
    x_max: int
    registry: TeamRegistry
    raw: list[RawMatch] = field(default_factory=list)

    def __post_init__(self):
        m = self.registry.m
        for q in self.quads:
            if not (1 <= q.a <= m and 1 <= q.b <= m):
                raise ValueError(f"quad references unknown team id: {q}")
            if q.s > self.x_max:
                raise ValueError(f"quad season {q.s} exceeds x_max={self.x_max}")


def reference_ingest_csv(stream: Iterable[str]) -> tuple[TeamRegistry, list[RawMatch]]:
    """Parse match rows from ``stream`` (an iterable of CSV lines).

    The header row is mandatory and must name exactly the columns in
    :data:`CSV_FIELDS` (any order).  Season indices are assigned by sorting
    the distinct season labels lexicographically ascending, so labels must
    be zero-padded (e.g. ``"2018/2019"``) for lexical order to match
    chronology.  Malformed rows abort the parse with their row number.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty input: missing header row") from None
    header = [h.strip() for h in header]
    if sorted(header) != sorted(CSV_FIELDS):
        raise ValueError(
            f"row 1: header must name columns {', '.join(CSV_FIELDS)}; got {header}"
        )
    col = {name: header.index(name) for name in CSV_FIELDS}

    competitions = {c.value: c for c in Competition}
    ids: dict[str, int] = {}  # team name -> id, in first-appearance order
    staged = []  # (row_no, home_id, away_id, hg, ag, label, competition)
    for row_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # ignore blank lines
        if len(row) != len(CSV_FIELDS):
            raise ValueError(f"row {row_no}: expected {len(CSV_FIELDS)} fields, got {len(row)}")
        label = row[col["season_label"]].strip()
        comp_tag = row[col["competition"]].strip()
        home = row[col["home"]].strip()
        away = row[col["away"]].strip()
        if not label:
            raise ValueError(f"row {row_no}: empty season_label")
        if comp_tag not in competitions:
            raise ValueError(
                f"row {row_no}: unknown competition tag {comp_tag!r} "
                f"(expected one of {sorted(competitions)})"
            )
        if not home or not away:
            raise ValueError(f"row {row_no}: empty team name")
        if home == away:
            raise ValueError(f"row {row_no}: home and away team are both {home!r}")
        try:
            hg = int(row[col["home_goals"]])
            ag = int(row[col["away_goals"]])
        except ValueError:
            raise ValueError(f"row {row_no}: goals must be integers") from None
        if hg < 0 or ag < 0:
            raise ValueError(f"row {row_no}: goals must be non-negative")
        home_id, away_id = (ids.setdefault(name, len(ids) + 1) for name in (home, away))
        staged.append((home_id, away_id, hg, ag, label, competitions[comp_tag]))

    if not staged:
        raise ValueError("empty input: no match rows")

    season_index = {label: i for i, label in enumerate(sorted({s[4] for s in staged}), start=1)}
    raw = [
        RawMatch(
            home=home,
            away=away,
            home_goals=hg,
            away_goals=ag,
            season_label=label,
            season_index=season_index[label],
            competition=comp,
        )
        for home, away, hg, ag, label, comp in staged
    ]
    return TeamRegistry(ids), raw


def reference_to_quads(raw: list[RawMatch], registry: TeamRegistry) -> ReferenceDataset:
    """Turn raw results into the winner-first quadruple dataset.

    Decided matches emit ``(winner, loser, s, 0)``; draws emit
    ``(home, away, s, 1)``.  The raw list is kept on the dataset for the
    baseline feature extractors.
    """
    if not raw:
        raise ValueError("raw match list is empty")
    quads = []
    for match in raw:
        if match.home_goals > match.away_goals:
            quads.append(ReferenceQuad(match.home, match.away, match.season_index, 0))
        elif match.away_goals > match.home_goals:
            quads.append(ReferenceQuad(match.away, match.home, match.season_index, 0))
        else:
            quads.append(ReferenceQuad(match.home, match.away, match.season_index, 1))
    x_max = max(m.season_index for m in raw)
    return ReferenceDataset(quads=quads, x_max=x_max, registry=registry, raw=raw)


def reference_dataset_summary(ds: ReferenceDataset) -> dict:
    """Summarize a dataset: match/team counts, draw fraction, per-season counts.

    The result is a plain dict ready for JSON serialization.  Seasons
    ``1..x_max`` all appear in ``per_season``, with count 0 where the
    dataset holds no matches (possible for sliced datasets).
    """
    matches = len(ds.quads)
    draws = sum(q.d for q in ds.quads)
    labels: dict[int, str] = {}
    for match in ds.raw:
        labels.setdefault(match.season_index, match.season_label)
    counts = {s: 0 for s in range(1, ds.x_max + 1)}
    for q in ds.quads:
        counts[q.s] += 1
    return {
        "matches": matches,
        "teams": ds.registry.m,
        "draw_fraction": draws / matches if matches else 0.0,
        "per_season": [
            {"season_index": s, "season_label": labels.get(s), "matches": counts[s]}
            for s in range(1, ds.x_max + 1)
        ],
    }


def as_matches(raw: list[RawMatch]) -> Matches:
    """The columns of a ``RawMatch`` list; a season without a match has label ``None``."""
    labels: dict[int, str] = {}
    for match in raw:
        labels.setdefault(match.season_index, match.season_label)
    code = {comp: i for i, comp in enumerate(Competition)}
    columns = [
        np.array([getattr(match, name) for match in raw], dtype=np.int64)
        for name in ("home", "away", "home_goals", "away_goals", "season_index")
    ]
    competition = np.array([code[match.competition] for match in raw], dtype=np.int64)
    season_labels = tuple(labels.get(s) for s in range(1, max(labels, default=0) + 1))
    return Matches(*columns, competition, season_labels)


# ---------------------------------------------------------------------------
# Reference baselines: the per-team scan of every match that the one-pass
# tally in ``steve.baselines`` replaced, kept unchanged as its oracle.


def reference_tally_matches(
    raw: list[RawMatch], team: int, seasons: set[int]
) -> dict[int, np.ndarray]:
    """Per-season 3x5 count blocks (comp x [w, d, l, gf, ga]) for one team."""
    comp_row = {comp: i for i, comp in enumerate(Competition)}
    tallies = {season: np.zeros((3, 5)) for season in seasons}
    for match in raw:
        if match.season_index not in tallies:
            continue
        if match.home == team:
            gf, ga = match.home_goals, match.away_goals
        elif match.away == team:
            gf, ga = match.away_goals, match.home_goals
        else:
            continue
        block = tallies[match.season_index][comp_row[match.competition]]
        if gf > ga:
            block[0] += 1
        elif gf == ga:
            block[1] += 1
        else:
            block[2] += 1
        block[3] += gf
        block[4] += ga
    return tallies


def _reference_vector_from_tally(tally: np.ndarray) -> np.ndarray:
    """Assemble the 18-entry vector from a 3x5 count block."""
    counts = tally.reshape(15)
    matches_per_comp = tally[:, :3].sum(axis=1)
    goals_per_comp = tally[:, 3]
    total_matches = matches_per_comp.sum()
    national_matches = matches_per_comp[0]
    intl_matches = matches_per_comp[1] + matches_per_comp[2]
    total_goals = goals_per_comp.sum()
    national_goals = goals_per_comp[0]
    intl_goals = goals_per_comp[1] + goals_per_comp[2]
    ratios = np.array(
        [
            total_goals / total_matches if total_matches else 0.0,
            national_goals / national_matches if national_matches else 0.0,
            intl_goals / intl_matches if intl_matches else 0.0,
        ]
    )
    return np.concatenate([counts, ratios])


def reference_season_stats(raw, registry, team: int, season: int) -> np.ndarray:
    registry.check_id(team)
    if season < 1:
        raise ValueError("season index must be >= 1")
    tally = reference_tally_matches(raw, team, {season})[season]
    return _reference_vector_from_tally(tally)


def _reference_season_window(newest_season: int, x: int) -> list[int]:
    if x < 1:
        raise ValueError("x must be >= 1")
    if newest_season - x + 1 < 1:
        raise ValueError(
            f"window of {x} seasons ending at {newest_season} reaches below season 1"
        )
    return [newest_season - i for i in range(x)]


def reference_cat_features(raw, registry, team: int, newest_season: int, x: int) -> np.ndarray:
    registry.check_id(team)
    seasons = _reference_season_window(newest_season, x)
    tallies = reference_tally_matches(raw, team, set(seasons))
    return np.concatenate([_reference_vector_from_tally(tallies[s]) for s in seasons])


def reference_sum_features(raw, registry, team: int, newest_season: int, x: int) -> np.ndarray:
    registry.check_id(team)
    seasons = _reference_season_window(newest_season, x)
    tallies = reference_tally_matches(raw, team, set(seasons))
    vectors = [_reference_vector_from_tally(tallies[s]) for s in seasons]
    return np.sum(vectors, axis=0)


# ---------------------------------------------------------------------------
# Reference steve features: the per-team loop that one fancy index in
# ``steve.valuation.steve_features`` replaced, kept unchanged as its oracle.


def reference_steve_features(model: EmbeddingModel, teams: Sequence[int]) -> np.ndarray:
    """Per-team feature rows: winner and loser representation concatenated."""
    rows = []
    for team in teams:
        model.registry.check_id(team)
        rows.append(np.concatenate([model.phi[team - 1], model.psi[team - 1]]))
    return np.asarray(rows)


# ---------------------------------------------------------------------------
# Reference MLP: the per-array training loop and gradient function that the
# one-block ``steve.valuation.mlp_train`` replaced, kept unchanged (renamed,
# with their private helpers) as bit-exact oracles for ``mlp_train`` and
# its gradient kernel ``_grads``.


def _reference_init_params(dims: list[int], seed) -> tuple[list[np.ndarray], list[np.ndarray]]:
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _reference_forward(weights, biases, X):
    """Forward pass keeping pre-activations for backprop."""
    z1 = X @ weights[0] + biases[0]
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ weights[1] + biases[1]
    h2 = np.maximum(z2, 0.0)
    z3 = h2 @ weights[2] + biases[2]
    return z1, h1, z2, h2, z3


def _reference_log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def reference_mlp_loss_and_grads(
    net: MLP, X: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, list[np.ndarray]]:
    """Batch loss and analytic gradients in parameter order W1,b1,W2,b2,W3,b3.

    Regression: half mean squared error.  Classification: mean cross
    entropy of a 4-way softmax.  Both add ``l2 / (2 n) * sum|W|^2`` over the
    weight matrices, so the gradients here match finite differences of the
    returned loss exactly.
    """
    weights, biases = net.weights, net.biases
    n = X.shape[0]
    z1, h1, z2, h2, z3 = _reference_forward(weights, biases, X)

    if net.task is Task.REGRESSION:
        resid = z3[:, 0] - y
        loss = 0.5 * float(np.mean(resid**2))
        dz3 = (resid / n)[:, None]
    else:
        log_probs = _reference_log_softmax(z3)
        loss = -float(np.mean(log_probs[np.arange(n), y]))
        dz3 = np.exp(log_probs)
        dz3[np.arange(n), y] -= 1.0
        dz3 /= n

    loss += l2 / (2 * n) * sum(float(np.sum(W**2)) for W in weights)

    dW3 = h2.T @ dz3 + (l2 / n) * weights[2]
    db3 = dz3.sum(axis=0)
    dz2 = (dz3 @ weights[2].T) * (z2 > 0)
    dW2 = h1.T @ dz2 + (l2 / n) * weights[1]
    db2 = dz2.sum(axis=0)
    dz1 = (dz2 @ weights[1].T) * (z1 > 0)
    dW1 = X.T @ dz1 + (l2 / n) * weights[0]
    db1 = dz1.sum(axis=0)
    return loss, [dW1, db1, dW2, db2, dW3, db3]


def reference_mlp_train(features: np.ndarray, targets: np.ndarray, task: Task, seed: int) -> MLP:
    """Train the fixed 50/20 network with mini-batch Adam.

    Its constants are the README's, written out here so that a changed
    constant in ``steve.valuation`` fails the bit-for-bit comparison.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("features must be a 2-d array")
    n = X.shape[0]
    if task is Task.REGRESSION:
        y = np.asarray(targets, dtype=np.float64)
    else:
        y = np.asarray(targets)
        if y.dtype.kind not in "iu" or ((y < 0) | (y >= N_CLASSES)).any():
            raise ValueError(f"classification targets must be integers in 0..{N_CLASSES - 1}")
        y = y.astype(np.int64)
    if y.shape != (n,):
        raise ValueError(f"targets must have shape ({n},), got {y.shape}")
    if n == 0:
        raise ValueError("cannot train on empty data")

    out_dim = 1 if task is Task.REGRESSION else N_CLASSES
    init_ss, shuffle_ss = np.random.SeedSequence(seed).spawn(2)
    weights, biases = _reference_init_params([X.shape[1], 50, 20, out_dim], init_ss)
    net = MLP(weights=weights, biases=biases, task=task)

    params = [weights[0], biases[0], weights[1], biases[1], weights[2], biases[2]]
    mom = [np.zeros_like(p) for p in params]
    vel = [np.zeros_like(p) for p in params]
    t = 0
    batch = min(200, n)
    rng = np.random.default_rng(shuffle_ss)
    for _ in range(200):
        perm = rng.permutation(n)
        for start in range(0, n, batch):
            idx = perm[start : start + batch]
            _, grads = reference_mlp_loss_and_grads(net, X[idx], y[idx], 1e-4)
            t += 1
            bc1 = 1.0 - 0.9**t
            bc2 = 1.0 - 0.999**t
            for p, g, m_acc, v_acc in zip(params, grads, mom, vel):
                m_acc += (1.0 - 0.9) * (g - m_acc)
                v_acc += (1.0 - 0.999) * (g**2 - v_acc)
                p -= 0.001 * (m_acc / bc1) / (np.sqrt(v_acc / bc2) + 1e-8)
    return net
