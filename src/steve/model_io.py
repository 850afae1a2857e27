"""Versioned JSON persistence for trained models, with a binary sidecar for fast loads.

The file keeps one record per team (name plus winner and loser vector) in
registry order.  Floats are written as Python's shortest round-tripping
decimal representation, so a save/load cycle reproduces every vector
bit-exactly.

A save also writes the sidecar ``<model file>.theta``: one JSON header line
(a format tag, the model file's byte length and CRC-32, ``m``, ``delta``,
``x_max`` and the team names), the stacked block ``theta = [phi; psi]`` as
little-endian float64, and a CRC-32 of everything before it.  A load takes
the model from the sidecar when the sidecar is whole and was written with
exactly the model file's bytes, and parses the JSON otherwise; both paths end
in one validation, so they accept and refuse the same files.  The JSON stays
the file of record, and a load never writes.

Each file is written to a temporary file beside its target and renamed over
the target, so a failed save leaves any earlier model loading as before.
"""

from __future__ import annotations

import io
import json
import os
import zlib
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


#: Teams per chunk of text written by :func:`save_model`.
_SLAB_TEAMS = 256

#: The ``format`` tag of a sidecar's header line.
_SIDECAR_FORMAT = "steve-theta-1"


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".theta")


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
        yield "".join(slab)


def _sidecar_bytes(model: EmbeddingModel, json_size: int, json_crc: int) -> bytes:
    header = {
        "format": _SIDECAR_FORMAT,
        "json_bytes": json_size,
        "json_crc32": json_crc,
        "m": model.m,
        "delta": model.delta,
        "x_max": model.x_max,
        "names": model.registry.names,
    }
    body = json.dumps(header).encode() + b"\n" + model.theta.astype("<f8", copy=False).tobytes()
    return body + zlib.crc32(body).to_bytes(4, "little")


def save_model(
    model: EmbeddingModel, path: str | Path, train_config: TrainConfig | None = None
) -> None:
    """Write ``model`` as versioned JSON and its sidecar; see :func:`load_model`.

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
    sidecar = _sidecar(path)
    tmp, sidecar_tmp = (p.with_name(f".{p.name}.{os.getpid()}.tmp") for p in (path, sidecar))
    try:
        size = crc = 0
        with open(tmp, "wb") as f:
            # The header without its closing "\n}", then the teams list.
            parts = chain([header[:-2] + ',\n "teams": ['], _team_slabs(model), ["\n ]\n}\n"])
            for part in parts:
                data = part.encode()
                f.write(data)
                size += len(data)
                crc = zlib.crc32(data, crc)
        sidecar_tmp.write_bytes(_sidecar_bytes(model, size, crc))
        # The sidecar first: until the model file is replaced too, the new
        # sidecar does not match it, and the earlier model loads from the JSON.
        os.replace(sidecar_tmp, sidecar)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        sidecar_tmp.unlink(missing_ok=True)
        raise


def _model_doc(path, data: bytes) -> dict:
    """The model document in the bytes ``data`` of ``path``; see :func:`read_model_file`."""
    # Decoded as ``open(path, encoding="utf-8")`` would, so errors read the same.
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: not valid JSON ({e})") from None
    version = doc.get("format_version") if isinstance(doc, dict) else None
    # ``True`` and ``1.0`` both compare equal to 1.
    if not isinstance(version, int) or isinstance(version, bool) or version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported model file (expected format_version {MODEL_FORMAT_VERSION})"
        )
    _check_sizes(path, doc.get("delta"), doc.get("x_max"))
    teams = doc.get("teams")
    if not isinstance(teams, list) or not teams:
        raise ValueError(f"{path}: model file has no teams")
    return doc


def _check_sizes(path, delta, x_max) -> None:
    for key, value in (("delta", delta), ("x_max", x_max)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{path}: {key} must be a positive integer, got {value!r}")


def read_model_file(path: str | Path) -> dict:
    """Load and structurally validate the raw model document."""
    with open(path, "rb") as f:
        return _model_doc(path, f.read())


def _json_parts(path, data: bytes):
    """``(delta, x_max, names, blocks)`` of the model file's bytes; see :func:`_checked_model`."""
    doc = _model_doc(path, data)
    teams = doc["teams"]
    if not all(isinstance(t, dict) and isinstance(t.get("name"), str) for t in teams):
        raise ValueError(f"{path}: every team record needs a name")

    def blocks(delta: int):
        for team in teams:
            for key in ("phi", "psi"):
                vec = team.get(key)
                if not isinstance(vec, list):
                    raise ValueError(f"{path}: team {team['name']!r} has no {key} vector")
                if len(vec) != delta:
                    raise ValueError(f"{path}: team {team['name']!r} has vectors of the wrong width")
        for key in ("phi", "psi"):
            rows = [t[key] for t in teams]
            # numpy would also take a numeric string or a bool.
            if not set(map(type, chain.from_iterable(rows))) <= {float, int}:
                raise ValueError(f"{path}: a {key} vector holds a non-numeric value")
            try:
                mat = np.array(rows, dtype=np.float64)
            except OverflowError:
                raise ValueError(f"{path}: a {key} vector holds a number too large for a float") from None
            yield mat

    return doc["delta"], doc["x_max"], [t["name"] for t in teams], blocks


def _sidecar_parts(path: Path, data: bytes):
    """``(delta, x_max, names, blocks)`` from the sidecar of ``path``, or ``None``.

    ``None`` unless the sidecar is whole (its trailing CRC-32 matches), has
    this format's header, was written with exactly the bytes ``data`` (same
    length and CRC-32) and holds a block of the header's size.
    """
    try:
        raw = _sidecar(path).read_bytes()
    except OSError:
        return None
    if len(raw) < 4 or zlib.crc32(memoryview(raw)[:-4]) != int.from_bytes(raw[-4:], "little"):
        return None
    end = raw.find(b"\n")
    try:
        header = json.loads(raw[:end]) if end > 0 else None
    except (ValueError, RecursionError):
        return None
    if not isinstance(header, dict) or (
        header.get("format"), header.get("json_bytes"), header.get("json_crc32")
    ) != (_SIDECAR_FORMAT, len(data), zlib.crc32(data)):
        return None
    m, delta, names = header.get("m"), header.get("delta"), header.get("names")
    if not (
        type(m) is int and type(delta) is int and m > 0 and delta > 0
        and isinstance(names, list) and len(names) == m and all(isinstance(n, str) for n in names)
        and len(raw) - end - 5 == 2 * m * delta * 8
    ):
        return None
    theta = np.frombuffer(raw, dtype="<f8", count=2 * m * delta, offset=end + 1).reshape(2 * m, delta)
    return delta, header.get("x_max"), names, lambda _: (theta[:m], theta[m:])


def _checked_model(path, delta, x_max, names: list[str], blocks) -> EmbeddingModel:
    """The model of one file's parts, after the checks that both file kinds share.

    ``blocks(delta)`` yields the ``phi`` block, then the ``psi`` block, each
    of shape ``(m, delta)``; the JSON reader checks every vector's width and
    entries as it builds them.  Anything wrong raises ``ValueError`` naming
    ``path``.
    """
    _check_sizes(path, delta, x_max)
    try:
        registry = TeamRegistry(names)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    if registry.m != len(names):
        repeated = next(name for i, name in enumerate(names) if registry.id_of(name) != i + 1)
        raise ValueError(f"{path}: duplicate team names in model file: {repeated!r}")
    vectors = {}
    for key, mat in zip(("phi", "psi"), blocks(delta)):
        finite = np.isfinite(mat).all(axis=1)
        off = np.abs(np.linalg.norm(mat, axis=1) - 1.0)
        bad = ~finite | (off > UNIT_NORM_TOL)
        if bad.any():
            i = int(np.argmax(bad))
            problem = "non-finite values" if not finite[i] else f"a norm off 1 by {off[i]:.3g}"
            raise ValueError(f"{path}: team {names[i]!r} has a {key} vector with {problem}")
        vectors[key] = mat
    return EmbeddingModel(
        phi=vectors["phi"], psi=vectors["psi"], delta=delta, registry=registry, x_max=x_max
    )


def load_model(path: str | Path) -> EmbeddingModel:
    """Rebuild an :class:`EmbeddingModel` from a file written by :func:`save_model`.

    The vectors come from the sidecar when it matches the file (see the
    module docstring) and from the JSON otherwise.  Every team record needs
    a name and finite ``phi`` and ``psi`` vectors of width ``delta`` and unit
    norm (within :data:`UNIT_NORM_TOL`); anything else raises ``ValueError``
    naming the file.
    """
    with open(path, "rb") as f:
        data = f.read()
    parts = _sidecar_parts(Path(path), data) or _json_parts(path, data)
    return _checked_model(path, *parts)
