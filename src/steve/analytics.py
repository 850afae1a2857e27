"""Similarity search and tournament ranking over a trained model.

Team similarity is the squared euclidean distance between winner
representations.  A hypothetical match between ``a`` and ``b`` is decided by
comparing cross distances: ``a`` wins when its winner row is closer to
``b``'s loser row than vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .trainer import EmbeddingModel


class Outcome(Enum):
    A_WINS = "a_wins"
    B_WINS = "b_wins"
    TIE = "tie"


@dataclass(frozen=True)
class HeadToHead:
    """Cross distances and the resulting outcome of one simulated match."""

    alpha_score: float  # |phi_a - psi_b|^2
    beta_score: float   # |phi_b - psi_a|^2
    outcome: Outcome


@dataclass(frozen=True)
class RankingEntry:
    team: int
    victories: float
    rank: int


#: Element cap on one temporary of the ranking kernel (2**16 float64, 512 KB).
#: Row blocks are sized to it, so memory stays flat as the team list grows.
#: Ranking 378 or 500 teams (delta 16, 2-vCPU Xeon), 2**16 ran within 3 % of
#: the fastest cap from 2**14 to 2**18, and 2**18 added 2 MB of peak memory.
_BLOCK_ELEMENTS = 2**16


def _sqdist(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Squared euclidean distances ``|u - v|^2`` over the last axis, broadcast.

    The difference form with ``np.vecdot`` gives the same floats as
    ``diff @ diff`` on every pair, so stacked and single-pair calls agree
    bit for bit (``2 - 2 u.v`` and ``einsum`` do not).
    """
    diff = u - v
    return np.vecdot(diff, diff)


def _block_rows(n: int, delta: int) -> int:
    """Rows per ranking block: an ``(rows, n, delta)`` temporary fits the cap."""
    return max(1, _BLOCK_ELEMENTS // (n * delta))


def _cross_block(phi: np.ndarray, psi: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Cross distances of rows ``lo:hi`` against every row, shape ``(hi - lo, n)``.

    ``alpha[i, j] = |phi[lo + i] - psi[j]|^2`` and
    ``beta[i, j] = |phi[j] - psi[lo + i]|^2``: the scores of
    :func:`head_to_head` with ``lo + i`` as ``a`` and ``j`` as ``b``.
    """
    return _sqdist(phi[lo:hi, None], psi[None]), _sqdist(phi[None], psi[lo:hi, None])


def winner_distance(model: EmbeddingModel, a: int, b: int) -> float:
    """Squared euclidean distance between the winner representations."""
    model.registry.check_id(a)
    model.registry.check_id(b)
    return float(_sqdist(model.phi[a - 1], model.phi[b - 1]))


def most_similar(model: EmbeddingModel, team: int, k: int) -> list[tuple[int, float]]:
    """The ``k`` teams closest to ``team`` by winner distance, ascending.

    The query team itself is excluded; exact distance ties are broken by
    ascending team name.
    """
    model.registry.check_id(team)
    if not 1 <= k <= model.m - 1:
        raise ValueError(f"k must be in 1..{model.m - 1}, got {k}")
    dist = _sqdist(model.phi[team - 1], model.phi)
    order = np.lexsort((np.array(model.registry.names), dist))
    order = order[order != team - 1][:k]
    return [(i + 1, d) for i, d in zip(order.tolist(), dist[order].tolist())]


def head_to_head(model: EmbeddingModel, a: int, b: int) -> HeadToHead:
    """Simulate one match by comparing cross winner/loser distances."""
    model.registry.check_id(a)
    model.registry.check_id(b)
    if a == b:
        raise ValueError("a and b must be distinct teams")
    alpha = float(_sqdist(model.phi[a - 1], model.psi[b - 1]))
    beta = float(_sqdist(model.phi[b - 1], model.psi[a - 1]))
    if alpha < beta:
        outcome = Outcome.A_WINS
    elif alpha > beta:
        outcome = Outcome.B_WINS
    else:
        outcome = Outcome.TIE
    return HeadToHead(alpha_score=alpha, beta_score=beta, outcome=outcome)


def rank_teams(model: EmbeddingModel, teams: Sequence[int]) -> list[RankingEntry]:
    """Single round-robin over ``teams``, ranked by victories.

    Every unordered pair plays once, decided as by :func:`head_to_head`; the
    winner gains one victory and an exact tie awards half a victory to both,
    so totals always sum to ``n * (n - 1) / 2``.  Output order is descending
    victories, ties broken by ascending team name; ranks run 1..n.

    All pairs are scored at once, in row blocks of at most
    ``_BLOCK_ELEMENTS`` elements per temporary: a row's victories count the
    columns where ``alpha < beta``, plus half of those where neither
    ``alpha < beta`` nor ``alpha > beta`` holds (a tie, as in
    :func:`head_to_head`, also for NaN), minus the half from its own
    diagonal tie.
    """
    if len(teams) < 2:
        raise ValueError("need at least 2 teams to rank")
    seen = set()
    for t in teams:
        model.registry.check_id(t)
        if t in seen:
            raise ValueError(f"duplicate team in ranking list: {model.registry.name_of(t)!r}")
        seen.add(t)

    rows = np.asarray(teams) - 1
    phi, psi = model.phi[rows], model.psi[rows]
    n = len(teams)
    victories = np.empty(n)
    step = _block_rows(n, model.delta)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        alpha, beta = _cross_block(phi, psi, lo, hi)
        won, lost = (alpha < beta).sum(1), (alpha > beta).sum(1)
        victories[lo:hi] = won + 0.5 * (n - won - lost) - 0.5

    score = dict(zip(teams, victories.tolist()))
    order = sorted(teams, key=lambda t: (-score[t], model.registry.name_of(t)))
    return [RankingEntry(team=t, victories=score[t], rank=i) for i, t in enumerate(order, 1)]


def similarity_records(model: EmbeddingModel, neighbors: list[tuple[int, float]]) -> list[dict]:
    """JSON-ready rows for a :func:`most_similar` result."""
    return [
        {"team": model.registry.name_of(t), "distance": dist} for t, dist in neighbors
    ]


def ranking_records(model: EmbeddingModel, entries: list[RankingEntry]) -> list[dict]:
    """JSON-ready rows for a :func:`rank_teams` result."""
    return [
        {"rank": e.rank, "team": model.registry.name_of(e.team), "victories": e.victories}
        for e in entries
    ]


def format_aligned(records: list[dict], columns: Sequence[str]) -> str:
    """Render records as aligned plain-text columns for terminal display."""
    rows = [[_cell(r[c]) for c in columns] for r in records]
    widths = [max(len(c), *(len(row[i]) for row in rows)) if rows else len(c)
              for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
