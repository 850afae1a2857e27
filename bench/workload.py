"""Seeded synthetic leagues: the only inputs the benchmarked program sees.

A league has teams with a hidden strength, matches spread over nine
seasons labelled ``2010/2011`` .. ``2018/2019`` (fixed width, so lexical
order is chronological), about a quarter of them drawn, goals for both
sides and one of the three competition tags.  Market values grow with the
hidden strength.  The same seed always gives byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COMPETITIONS = ("NationalLeague", "ChampionsLeague", "EuropaLeague")
COMPETITION_SHARES = (0.80, 0.12, 0.08)
DRAW_SHARE = 0.25
FIRST_SEASON_YEAR = 2010


@dataclass(frozen=True)
class Spec:
    """Size of one workload's league and of the slices its commands use."""

    teams: int
    matches: int
    seasons: int
    #: Teams passed to ``rank``; ``None`` means every team.
    rank_teams: int | None
    #: Teams of the sub-league (those teams and the matches among them)
    #: that ``evaluate`` runs on, drawn from the ``rank`` teams; ``None``
    #: means the whole league.
    eval_teams: int | None
    #: ``train --epochs`` for the workload's ``train`` command; ``None``
    #: keeps the CLI default.
    train_epochs: int | None


#: The matches are 40 % of the desk scale (30,000) and of its 10x (300,000),
#: so that every command runs four to eight times in one 60 s run.
SPECS = {
    "desk": Spec(teams=378, matches=12_000, seasons=9, rank_teams=None, eval_teams=None, train_epochs=None),
    "wide": Spec(teams=3_780, matches=120_000, seasons=9, rank_teams=500, eval_teams=300, train_epochs=1),
}


@dataclass(frozen=True)
class League:
    """Generated files plus the ground truth the output checks compare to."""

    matches_csv: bytes
    values_csv: bytes
    #: Teams for ``rank``, one name per line.
    teams_txt: bytes
    #: Matches and values for ``evaluate``.
    eval_matches_csv: bytes
    eval_values_csv: bytes
    n_matches: int
    n_teams: int
    n_draws: int
    names: tuple[str, ...]
    rank_names: tuple[str, ...]
    #: Every team once, in seeded order: the ``similar`` queries.
    queries: tuple[str, ...]


def season_label(season: int) -> str:
    year = FIRST_SEASON_YEAR + season - 1
    return f"{year}/{year + 1}"


def _matches_csv(names, home, away, hg, ag, season, comp) -> bytes:
    labels = [season_label(s) for s in range(1, int(season.max()) + 1)]
    lines = ["season_label,competition,home,away,home_goals,away_goals"]
    lines += [
        f"{labels[s - 1]},{COMPETITIONS[c]},{names[h]},{names[a]},{x},{y}"
        for s, c, h, a, x, y in zip(
            season.tolist(), comp.tolist(), home.tolist(), away.tolist(), hg.tolist(), ag.tolist()
        )
    ]
    return ("\n".join(lines) + "\n").encode()


def _values_csv(names, values, teams) -> bytes:
    lines = ["team,value_millions"] + [f"{names[t]},{values[t]:.3f}" for t in teams]
    return ("\n".join(lines) + "\n").encode()


def generate(spec: Spec, seed: int) -> League:
    """Build one league from ``seed``; see the module docstring."""
    rng = np.random.default_rng(seed)
    m, n = spec.teams, spec.matches
    width = len(str(m))
    names = [f"Club {i:0{width}d}" for i in range(1, m + 1)]
    strength = rng.standard_normal(m)

    home = rng.integers(0, m, n)
    away = rng.integers(0, m - 1, n)
    away += away >= home  # uniform over the other m - 1 teams
    season = np.sort(rng.integers(1, spec.seasons + 1, n))
    comp = rng.choice(len(COMPETITIONS), size=n, p=COMPETITION_SHARES)
    draw = rng.random(n) < DRAW_SHARE
    home_wins = rng.random(n) < 1.0 / (1.0 + np.exp(-(strength[home] - strength[away] + 0.3)))
    loser_goals = rng.poisson(0.8, n)
    margin = 1 + rng.poisson(0.6, n)
    draw_goals = rng.poisson(1.1, n)
    hg = np.where(draw, draw_goals, np.where(home_wins, loser_goals + margin, loser_goals))
    ag = np.where(draw, draw_goals, np.where(home_wins, loser_goals, loser_goals + margin))
    values = np.maximum(np.exp(3.0 + strength + 0.3 * rng.standard_normal(m)), 0.01)

    picked = rng.permutation(m)
    rank_names = tuple(names[t] for t in np.sort(picked[: spec.rank_teams]))
    queries = tuple(names[t] for t in rng.permutation(m))

    matches_csv = _matches_csv(names, home, away, hg, ag, season, comp)
    values_csv = _values_csv(names, values, range(m))
    if spec.eval_teams is None:
        eval_matches_csv, eval_values_csv = matches_csv, values_csv
    else:
        member = np.zeros(m, dtype=bool)
        member[picked[: spec.eval_teams]] = True
        keep = member[home] & member[away]
        eval_matches_csv = _matches_csv(
            names, home[keep], away[keep], hg[keep], ag[keep], season[keep], comp[keep]
        )
        eval_values_csv = _values_csv(names, values, np.flatnonzero(member))

    return League(
        matches_csv=matches_csv,
        values_csv=values_csv,
        teams_txt=("\n".join(rank_names) + "\n").encode(),
        eval_matches_csv=eval_matches_csv,
        eval_values_csv=eval_values_csv,
        n_matches=n,
        n_teams=int(np.unique(np.concatenate([home, away])).size),
        n_draws=int(draw.sum()),
        names=tuple(names),
        rank_names=rank_names,
        queries=queries,
    )
