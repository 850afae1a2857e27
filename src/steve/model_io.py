"""Versioned JSON persistence for trained models.

The file keeps one record per team (name plus winner and loser vector) in
registry order.  Floats are written as Python's shortest round-tripping
decimal representation, so a save/load cycle reproduces every vector
bit-exactly.  A save writes a temporary file beside the target and renames
it over the target, so a failed save leaves any earlier file intact.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

import numpy as np

from .teams import TeamRegistry
from .trainer import EmbeddingModel, TrainConfig

MODEL_FORMAT_VERSION = 1

#: Largest deviation from unit L2 norm that :func:`load_model` accepts in a row.
UNIT_NORM_TOL = 1e-6


#: Teams per chunk of text handed to ``writelines`` by :func:`save_model`.
_SLAB_TEAMS = 256


def _float_texts(block: np.ndarray) -> list[str]:
    """Each finite value of ``block`` (row-major) as ``json`` writes a float."""
    return list(map(float.__repr__, block.ravel().tolist()))


def _team_slabs(model: EmbeddingModel):
    """The ``teams`` records as ``json.dump(indent=1)`` writes them, a slab of teams at a time.

    Each record starts with its separator: a newline for the first team,
    a comma and a newline for every later one.
    """
    names, delta = model.registry.names, model.delta
    vector_sep = ",\n    "
    for start in range(0, len(names), _SLAB_TEAMS):
        stop = start + _SLAB_TEAMS
        phi = _float_texts(model.phi[start:stop])
        psi = _float_texts(model.psi[start:stop])
        slab = []
        for i, name in enumerate(names[start:stop]):
            cols = slice(i * delta, (i + 1) * delta)
            lead = ",\n" if start + i else "\n"
            slab.append(
                f'{lead}  {{\n   "name": {json.dumps(name)},\n'
                f'   "phi": [\n    {vector_sep.join(phi[cols])}\n   ],\n'
                f'   "psi": [\n    {vector_sep.join(psi[cols])}\n   ]\n  }}'
            )
        yield slab


def save_model(
    model: EmbeddingModel, path: str | Path, train_config: TrainConfig | None = None
) -> None:
    """Write ``model`` as versioned JSON; see :func:`load_model`.

    The file holds the bytes ``json.dump(doc, f, indent=1)`` and a final
    newline would write, but the team records are formatted a slab at a
    time instead of by ``json``'s pure-Python encoder.  A model that
    :func:`load_model` would refuse, one with no teams or with a NaN or an
    infinity in a vector, raises ``ValueError`` and writes nothing.
    """
    if not model.m:
        raise ValueError("model has no teams")
    team = model.first_non_finite_team()
    if team is not None:
        raise ValueError(f"team {model.registry.name_of(team)!r} has a non-finite vector")
    header = json.dumps(
        {
            "format_version": MODEL_FORMAT_VERSION,
            "delta": model.delta,
            "x_max": model.x_max,
            "train_config": asdict(train_config) if train_config is not None else None,
            "created_at": datetime.now(timezone.utc).isoformat(),
        },
        indent=1,
    )
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            # The header without its closing "\n}", then the teams list.
            f.write(header[:-2] + ',\n "teams": [')
            for slab in _team_slabs(model):
                f.writelines(slab)
            f.write("\n ]\n}\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_model_file(path: str | Path) -> dict:
    """Load and structurally validate the raw model document."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: not valid JSON ({e})") from None
    version = doc.get("format_version") if isinstance(doc, dict) else None
    # ``True`` and ``1.0`` both compare equal to 1.
    if not isinstance(version, int) or isinstance(version, bool) or version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported model file (expected format_version {MODEL_FORMAT_VERSION})"
        )
    for key in ("delta", "x_max"):
        value = doc.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{path}: {key} must be a positive integer, got {value!r}")
    teams = doc.get("teams")
    if not isinstance(teams, list) or not teams:
        raise ValueError(f"{path}: model file has no teams")
    return doc


def load_model(path: str | Path) -> EmbeddingModel:
    """Rebuild an :class:`EmbeddingModel` from a file written by :func:`save_model`.

    Every team record needs a name and finite ``phi`` and ``psi`` vectors of
    width ``delta`` and unit norm (within :data:`UNIT_NORM_TOL`); anything
    else raises ``ValueError`` naming the file.
    """
    doc = read_model_file(path)
    delta = doc["delta"]
    teams = doc["teams"]
    if not all(isinstance(t, dict) and isinstance(t.get("name"), str) for t in teams):
        raise ValueError(f"{path}: every team record needs a name")
    names = [t["name"] for t in teams]
    try:
        registry = TeamRegistry(names)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    if registry.m != len(teams):
        repeated = next(name for i, name in enumerate(names) if registry.id_of(name) != i + 1)
        raise ValueError(f"{path}: duplicate team names in model file: {repeated!r}")
    for team in teams:
        for key in ("phi", "psi"):
            vec = team.get(key)
            if not isinstance(vec, list):
                raise ValueError(f"{path}: team {team['name']!r} has no {key} vector")
            if len(vec) != delta:
                raise ValueError(f"{path}: team {team['name']!r} has vectors of the wrong width")
    vectors = {}
    for key in ("phi", "psi"):
        rows = [t[key] for t in teams]
        # numpy would also take a numeric string or a bool.
        if not set(map(type, chain.from_iterable(rows))) <= {float, int}:
            raise ValueError(f"{path}: a {key} vector holds a non-numeric value")
        try:
            mat = np.array(rows, dtype=np.float64)
        except OverflowError:
            raise ValueError(f"{path}: a {key} vector holds a number too large for a float") from None
        finite = np.isfinite(mat).all(axis=1)
        off = np.abs(np.linalg.norm(mat, axis=1) - 1.0)
        bad = ~finite | (off > UNIT_NORM_TOL)
        if bad.any():
            i = int(np.argmax(bad))
            problem = "non-finite values" if not finite[i] else f"a norm off 1 by {off[i]:.3g}"
            raise ValueError(f"{path}: team {names[i]!r} has a {key} vector with {problem}")
        vectors[key] = mat
    return EmbeddingModel(
        phi=vectors["phi"], psi=vectors["psi"], delta=delta, registry=registry, x_max=doc["x_max"]
    )
