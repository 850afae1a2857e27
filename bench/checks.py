"""Checks on every command's output; a failed check is a failed operation.

Each ``Checker`` check takes what one command printed (or, for ``train``,
the model file it wrote) and returns the problems found, an empty list when
the output is right.  ``Checker.record`` runs a check and counts attempted
and failed operations for ``ops_failed_ratio``; output that does not parse
fails too.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from workload import League, season_label

DELTA = 16  # the CLI's default ``train --delta``
UNIT_NORM_TOL = 1e-9
DISTANCE_TOL = 1e-12
FOLDS = 5


class Checker:
    def __init__(self, league: League):
        self.league = league
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._phi = None
        self._row_of: dict[str, int] = {}
        self._first: dict[str, str] = {}

    def record(self, op: str, check, *args) -> bool:
        """Count one operation judged by ``check(*args)``; returns whether it passed."""
        try:
            problems = check(*args)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
            problems = [f"unreadable output ({e!r})"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{op}: {p}" for p in problems]
        return not problems

    def repeat(self, key: str, digest: str) -> list[str]:
        """Outputs that must not change between repeats of the same command."""
        first = self._first.setdefault(key, digest)
        return [] if first == digest else [f"{key} changed between repeats ({first} vs {digest})"]

    def summary(self, out: str) -> list[str]:
        doc = json.loads(out)
        lg = self.league
        problems = []
        if doc["matches"] != lg.n_matches:
            problems.append(f"matches {doc['matches']} != generated {lg.n_matches}")
        if doc["teams"] != lg.n_teams:
            problems.append(f"teams {doc['teams']} != generated {lg.n_teams}")
        if doc["draw_fraction"] != lg.n_draws / lg.n_matches:
            problems.append(f"draw_fraction {doc['draw_fraction']} != {lg.n_draws / lg.n_matches}")
        if sum(s["matches"] for s in doc["per_season"]) != lg.n_matches:
            problems.append("per-season counts do not add up to the match count")
        if [s["season_label"] for s in doc["per_season"]] != [
            season_label(s["season_index"]) for s in doc["per_season"]
        ]:
            problems.append("season labels are not in chronological order")
        return problems

    def model(self, text: str) -> list[str]:
        """Check a written model file and keep its vectors for ``similar``."""
        doc = json.loads(text)
        teams = doc["teams"]
        names = [t["name"] for t in teams]
        phi = np.array([t["phi"] for t in teams], dtype=np.float64)
        psi = np.array([t["psi"] for t in teams], dtype=np.float64)
        problems = []
        distinct = set(names)
        if len(names) != self.league.n_teams or len(distinct) != len(names) or not distinct <= set(self.league.names):
            problems.append(f"model holds {len(names)} teams, expected the {self.league.n_teams} generated")
        if doc["delta"] != DELTA or phi.shape != (len(names), DELTA) or psi.shape != phi.shape:
            problems.append(f"vectors are not {len(names)} x {DELTA}")
            return problems
        for label, mat in (("phi", phi), ("psi", psi)):
            worst = float(np.max(np.abs(np.linalg.norm(mat, axis=1) - 1.0)))
            if not worst <= UNIT_NORM_TOL:
                problems.append(f"{label} row norm off 1 by {worst:.3g}")
        self._phi = phi
        self._row_of = {name: i for i, name in enumerate(names)}
        digest = hashlib.sha256(phi.tobytes() + psi.tobytes()).hexdigest()
        return problems + self.repeat("model phi/psi sha256", digest)

    def rank(self, out: str, teams) -> list[str]:
        records = json.loads(out)
        n = len(teams)
        problems = []
        if [r["rank"] for r in records] != list(range(1, n + 1)):
            problems.append(f"ranks do not run 1..{n}")
        if sorted(r["team"] for r in records) != sorted(teams):
            problems.append("ranked teams differ from the requested list")
        victories = [r["victories"] for r in records]
        if sum(victories) != n * (n - 1) / 2:
            problems.append(f"victories sum to {sum(victories)}, not n(n-1)/2 = {n * (n - 1) / 2}")
        if any(v * 2 != int(v * 2) or not 0 <= v <= n - 1 for v in victories):
            problems.append("a victory count is not a multiple of 0.5 in 0..n-1")
        if any(a < b for a, b in zip(victories, victories[1:])):
            problems.append("victories are not in descending order")
        return problems

    def similar(self, out: str, query: str, k: int) -> list[str]:
        """k rows, ascending, query excluded, and truly the k nearest teams."""
        records = json.loads(out)
        names = [r["team"] for r in records]
        got = np.array([r["distance"] for r in records], dtype=np.float64)
        problems = []
        if len(records) != k:
            problems.append(f"{len(records)} rows, expected {k}")
        if query in names:
            problems.append("the query team is among its own neighbours")
        if np.any(np.diff(got) < 0):
            problems.append("distances are not ascending")
        if len(set(names)) != len(names) or any(n not in self._row_of for n in names):
            problems.append("unknown or repeated teams")
        if problems:
            return problems
        diff = self._phi - self._phi[self._row_of[query]]
        dist = np.einsum("ij,ij->i", diff, diff)
        rows = [self._row_of[n] for n in names]
        if np.any(np.abs(dist[rows] - got) > DISTANCE_TOL):
            problems.append("distances differ from the model's winner vectors")
        others = np.ones(len(dist), dtype=bool)
        others[rows + [self._row_of[query]]] = False
        if others.any() and dist[others].min() < got.max() - DISTANCE_TOL:
            problems.append("a closer team was left out")
        return problems

    def evaluate(self, out: str, representation: str) -> list[str]:
        doc = json.loads(out)
        problems = []
        if doc["folds"] != FOLDS or any(len(v) != FOLDS for v in doc["per_fold"].values()):
            problems.append(f"report does not have {FOLDS} folds")
        values = [x for v in doc["per_fold"].values() for x in v]
        values += [x for agg in doc["aggregate"].values() for x in agg.values()]
        if not values or not all(isinstance(x, (int, float)) and math.isfinite(x) for x in values):
            problems.append("a metric is missing or not finite")
        digest = hashlib.sha256(out.strip().encode()).hexdigest()
        return problems + self.repeat(f"evaluate {representation} report", digest)
