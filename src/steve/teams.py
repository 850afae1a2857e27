"""The team registry: team names and their dense integer ids."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class TeamRegistry:
    """Bidirectional map between team names and dense integer ids, fixed when built.

    Ids are 1-based (``1..m``), in the order of ``names``.  An empty name or
    a repeated name raises ``ValueError``, naming the first repeat.
    """

    def __init__(self, names: Iterable[str]):
        self._names: list[str] = list(names)
        self._ids: dict[str, int] = {}
        for team_id, name in enumerate(self._names, 1):
            if not name:
                raise ValueError("team name must be non-empty")
            if self._ids.setdefault(name, team_id) != team_id:
                raise ValueError(f"duplicate team name: {name!r}")

    def id_of(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise ValueError(f"unknown team name: {name!r}") from None

    def name_of(self, team_id: int) -> str:
        self.check_id(team_id)
        return self._names[team_id - 1]

    def check_id(self, team_id: int) -> None:
        """Raise ``ValueError`` unless ``team_id`` is an in-range integer.

        Python and numpy integers pass; ``bool``, ``np.bool_`` and floats do not.
        """
        if not isinstance(team_id, (int, np.integer)) or isinstance(team_id, bool):
            raise ValueError(f"team id must be an integer, got {team_id!r}")
        if not 1 <= team_id <= len(self._names):
            raise ValueError(f"team id {team_id} out of range 1..{len(self._names)}")

    def rows(self, teams: int | Sequence[int]) -> np.ndarray:
        """0-based row index of one id, or of each id in a sequence.

        Every id is checked as by :meth:`check_id`, in order, so the error
        names the first bad one.
        """
        ids = np.asarray(teams, dtype=object)
        for team in ids.reshape(-1).tolist():
            self.check_id(team)
        return ids.astype(np.int64) - 1

    @property
    def names(self) -> list[str]:
        return list(self._names)

    @property
    def m(self) -> int:
        """Number of registered teams."""
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids
