"""Count-based baseline feature vectors built from raw match results.

The per-season vector has 18 entries: five counts (wins, draws, defeats,
goals for, goals against) for each of the three competition groups, then
three goals-per-match ratios (overall, national, international).  Windowed
variants either concatenate (CAT) or sum (SUM) the per-season vectors of
the most recent ``x`` seasons.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .match_data import Matches, TeamRegistry

_BLOCK_PREFIXES = ("national", "champions_league", "europa_league")
_BLOCK_STATS = ("wins", "draws", "defeats", "goals_for", "goals_against")

#: Names of the 18 entries of a season-stats vector, in order.
SEASON_STATS_COLUMNS = tuple(
    f"{prefix}_{stat}" for prefix in _BLOCK_PREFIXES for stat in _BLOCK_STATS
) + (
    "goals_per_match",
    "goals_per_national_match",
    "goals_per_international_match",
)


def cat_feature_columns(x: int) -> tuple[str, ...]:
    """Column names for a CAT-x vector; ``s0`` is the newest season."""
    return tuple(f"s{i}_{name}" for i in range(x) for name in SEASON_STATS_COLUMNS)


def match_tally(matches: Matches, m: int, newest_season: int) -> np.ndarray:
    """Counts of every team's matches, shape ``(m, newest_season + 1, 3, 5)``.

    ``tally[team - 1, season, comp]`` holds ``[w, d, l, gf, ga]`` for the
    competition block ``comp`` (in :class:`Competition` order); seasons above
    ``newest_season`` are left out and index 0 stays zero.  Both sides of
    every match are added in one pass.  The counts are integers, so the
    float sums are exact in any order.
    """
    keep = matches.season <= newest_season
    home, away, hg, ag, season, comp = (
        column[keep]
        for column in (matches.home, matches.away, matches.home_goals, matches.away_goals,
                       matches.season, matches.competition)
    )
    result = np.sign(ag - hg) + 1  # home side: 0 win, 1 draw, 2 defeat
    tally = np.zeros((m, newest_season + 1, 3, 5))
    for team, gf, ga, res in ((home, hg, ag, result), (away, ag, hg, 2 - result)):
        cell = (team - 1, season, comp)
        np.add.at(tally, (*cell, res), 1.0)
        np.add.at(tally, (*cell, 3), gf)
        np.add.at(tally, (*cell, 4), ga)
    return tally


def _vectors(tally: np.ndarray) -> np.ndarray:
    """18-entry vectors from ``(..., 3, 5)`` count blocks, shape ``(..., 18)``."""
    matches = tally[..., :3].sum(axis=-1)
    goals = tally[..., 3]
    num = np.stack([goals.sum(axis=-1), goals[..., 0], goals[..., 1] + goals[..., 2]], axis=-1)
    den = np.stack([matches.sum(axis=-1), matches[..., 0], matches[..., 1] + matches[..., 2]], axis=-1)
    ratios = np.divide(num, den, out=np.zeros_like(num), where=den != 0)
    return np.concatenate([tally.reshape(*tally.shape[:-2], 15), ratios], axis=-1)


def season_stats(
    matches: Matches, registry: TeamRegistry, team: int | Sequence[int], season: int
) -> np.ndarray:
    """18-entry count vector for one team and season.

    Counts cover all of the team's matches (home or away) in the season;
    goals mean goals scored by this team.  Ratio entries are 0 whenever the
    corresponding match count is 0.  ``team`` may also be a sequence of
    ids, giving one row per team.
    """
    rows = registry.rows(team)
    if season < 1:
        raise ValueError("season index must be >= 1")
    return _vectors(match_tally(matches, registry.m, season)[rows, season])


def _season_window(newest_season: int, x: int) -> list[int]:
    if x < 1:
        raise ValueError("x must be >= 1")
    if newest_season - x + 1 < 1:
        raise ValueError(
            f"window of {x} seasons ending at {newest_season} reaches below season 1"
        )
    return [newest_season - i for i in range(x)]


def _window_tallies(matches, registry, team, newest_season, x) -> np.ndarray:
    """Count blocks of the last ``x`` seasons, newest first: ``(..., x, 3, 5)``."""
    rows = registry.rows(team)
    seasons = _season_window(newest_season, x)
    return match_tally(matches, registry.m, newest_season)[rows[..., None], seasons]


def cat_features(
    matches: Matches,
    registry: TeamRegistry,
    team: int | Sequence[int],
    newest_season: int,
    x: int,
) -> np.ndarray:
    """Concatenated season-stats of the last ``x`` seasons, newest first.

    ``team`` may also be a sequence of ids, giving one row per team.
    """
    vectors = _vectors(_window_tallies(matches, registry, team, newest_season, x))
    return vectors.reshape(*vectors.shape[:-2], x * len(SEASON_STATS_COLUMNS))


def sum_features(
    matches: Matches,
    registry: TeamRegistry,
    team: int | Sequence[int],
    newest_season: int,
    x: int,
) -> np.ndarray:
    """Elementwise sum of the last ``x`` season-stats vectors.

    The three ratio entries are summed along with the counts (literal
    reading).  ``team`` may also be a sequence of ids, giving one row per
    team.
    """
    return _vectors(_window_tallies(matches, registry, team, newest_season, x)).sum(axis=-2)
