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


def _prepass_rows(n: int) -> int:
    """Rows per pre-pass block: an ``(rows, n)`` temporary fits the cap."""
    return max(1, _BLOCK_ELEMENTS // n)


def _cross_block(phi: np.ndarray, psi: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Cross distances of rows ``lo:hi`` against every row, shape ``(hi - lo, n)``.

    ``alpha[i, j] = |phi[lo + i] - psi[j]|^2`` and
    ``beta[i, j] = |phi[j] - psi[lo + i]|^2``: the scores of
    :func:`head_to_head` with ``lo + i`` as ``a`` and ``j`` as ``b``.
    """
    return _sqdist(phi[lo:hi, None], psi[None]), _sqdist(phi[None], psi[lo:hi, None])


def _gamma(k: int) -> float:
    """``k u / (1 - k u)``: the relative error of ``k`` roundings, ``u = 2**-53``."""
    u = 2.0**-53
    return k * u / (1 - k * u)


def _margin_factors(phi: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """``(x, y, bound)``: ``x @ y.T`` holds every pair's margin ``beta - alpha``
    up to ``bound``, where ``alpha``, ``beta`` are the floats of :func:`_cross_block`.

    With ``R = |phi|^2 - |psi|^2``, rows ``x_i = [phi_i, psi_i, 1, R_i]`` and
    ``y_j = [2 psi_j, -2 phi_j, R_j, -1]`` give in exact arithmetic
    ``x_i . y_j = |phi_j - psi_i|^2 - |phi_i - psi_j|^2``.  On the diagonal
    ``alpha`` and ``beta`` are the same expression, so every diagonal pair
    is a tie and its entry lies within ``bound``.

    When a row is not finite or so long that the product could overflow,
    ``x @ y.T`` is zero and ``bound`` is ``inf``: no pair is decided by it.
    Otherwise, with ``N = max|phi_i| + max|psi_j|`` and ``gamma_k`` as in
    :func:`_gamma`: a dot product of length ``k``, summed in any order and
    with or without fused multiply-add (as a BLAS ``dgemm`` or a numpy loop
    computes each entry), is within ``gamma_k |x||y|`` of its exact value.
    Hence:

    - ``alpha`` rounds each difference once, then sums non-negative
      squares: it is within ``gamma_(delta+2) N^2`` of ``|phi_i - psi_j|^2``,
      and ``beta`` likewise;
    - each computed ``R_i`` is within ``gamma_(delta+1) N^2`` of its exact
      value, and ``|R_i| <= N^2``;
    - ``x_i . y_j`` sums terms whose magnitudes add up to at most
      ``2|phi_i||psi_j| + 2|psi_i||phi_j| + |R_i| + |R_j| <= 3 N^2``: the computed entry is within
      ``3 gamma_(2 delta+2) N^2`` of its exact value, and within
      ``2 gamma_(delta+1) N^2`` more of the exact ``beta - alpha``.

    So an entry is within ``7 gamma_(2 delta+2) N^2`` of ``beta - alpha`` as
    computed, and ``bound = 16 gamma_(2 delta+4) N^2`` also covers the
    rounding of ``N``, of ``R`` and of ``bound`` itself.  The smallest normal
    float is added for gradual underflow, where each of the ``O(delta)``
    products adds at most ``2**-1075``.
    """
    sq_phi, sq_psi = np.vecdot(phi, phi), np.vecdot(psi, psi)
    norm = np.sqrt(sq_phi.max()) + np.sqrt(sq_psi.max())
    scale = norm * norm
    if not np.isfinite(4 * scale):
        return np.zeros((len(phi), 1)), np.zeros((len(psi), 1)), np.inf
    r = (sq_phi - sq_psi)[:, None]
    ones = np.ones_like(r)
    x = np.hstack([phi, psi, ones, r])
    y = np.hstack([2 * psi, -2 * phi, r, -ones])
    return x, y, 16 * _gamma(2 * phi.shape[1] + 4) * scale + np.finfo(np.float64).tiny


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
    diagonal tie.  A pair whose margin from one matrix product
    (:func:`_margin_factors`) clears its rounding bound is decided by that
    margin's sign, which is then the sign of ``beta - alpha``.  A block of
    :func:`_block_rows` rows that holds any other pair besides a diagonal
    is scored by :func:`_cross_block` as a whole.  So every decision is the
    difference form's, bit for bit.
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
    x, y, bound = _margin_factors(phi, psi)
    victories = np.empty(n)
    step, prepass = _block_rows(n, model.delta), _prepass_rows(n)
    for lo in range(0, n, prepass):
        hi = min(lo + prepass, n)
        margin = x[lo:hi] @ y.T
        wins = np.count_nonzero(margin > bound, axis=1)
        losses = np.count_nonzero(margin < -bound, axis=1)
        # A row's own diagonal tie lies within the bound; a row with another
        # undecided pair is scored again with the rest of its ``step``-row block.
        recheck = wins + losses < n - 1
        for sub in range(0, hi - lo, step):
            part = slice(sub, sub + step)
            if recheck[part].any():
                alpha, beta = _cross_block(phi, psi, lo + sub, min(lo + sub + step, hi))
                wins[part], losses[part] = (alpha < beta).sum(1), (alpha > beta).sum(1)
        victories[lo:hi] = wins + 0.5 * (n - wins - losses) - 0.5

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
