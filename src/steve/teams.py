"""The team registry, and the model of one vector pair per registered team."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def _store_ints(obj, names: tuple[str, ...]) -> None:
    """Store each named field of ``obj`` as a plain ``int``; a float or a bool is refused.

    A numpy integer is accepted and converted, so that the field writes to JSON.
    """
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")
        object.__setattr__(obj, name, int(value))


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
