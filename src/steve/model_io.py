"""Versioned JSON persistence for trained models, with a binary sidecar for fast loads.

The file keeps one record per team (name plus winner and loser vector) in
registry order.  Floats are written as Python's shortest round-tripping
decimal representation, so a save/load cycle reproduces every vector
bit-exactly.  The file holds the bytes ``json.dump(indent=1)`` would write,
but the team records are formatted a slab of teams at a time, their floats
by :func:`steve.float_text.row_texts`: an array kernel writes every vector
whose values all lie in 1e-4 <= |v| < 1, as almost every value of a unit
vector does, and ``float.__repr__`` every other vector.

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

import codecs
import io
import json
import os
import zlib
from dataclasses import asdict
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .teams import EmbeddingModel, TeamRegistry

if TYPE_CHECKING:
    from .trainer import TrainConfig

MODEL_FORMAT_VERSION = 1

#: Largest deviation from unit L2 norm that :func:`load_model` accepts in a row.
UNIT_NORM_TOL = 1e-6


#: Teams per chunk of text written by :func:`save_model`: 4,096 values at
#: delta 16, whose float text is made in arrays that stay in the cache.
_SLAB_TEAMS = 256

#: The ``format`` tag of a sidecar's header line.
_SIDECAR_FORMAT = "steve-theta-1"


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".theta")


def _team_slabs(model: EmbeddingModel):
    """The ``teams`` records as ``json.dump(indent=1)`` writes them, a slab of teams at a time.

    Each record starts with its separator: a newline for the first team,
    a comma and a newline for every later one.
    """
    # Imported here: the commands that only load a model do not need it.
    from .float_text import row_texts

    names = model.registry.names
    for start in range(0, len(names), _SLAB_TEAMS):
        stop = start + _SLAB_TEAMS
        rows = zip(names[start:stop], row_texts(model.phi[start:stop]), row_texts(model.psi[start:stop]))
        slab = []
        for i, (name, phi, psi) in enumerate(rows):
            lead = ",\n" if start + i else "\n"
            slab.append(
                f'{lead}  {{\n   "name": {json.dumps(name)},\n'
                f'   "phi": [\n    {phi}\n   ],\n'
                f'   "psi": [\n    {psi}\n   ]\n  }}'
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
    time instead of by ``json``'s pure-Python encoder.  A model with no
    teams or with a NaN or an infinity in a vector raises ``ValueError``
    and writes nothing.  Row norms are not checked, though
    :func:`load_model` refuses a row off unit norm.
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
    # The file an I/O error names: the user's, not its temporary file.
    target = path
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
        target = sidecar
        sidecar_tmp.write_bytes(_sidecar_bytes(model, size, crc))
        # The sidecar first: until the model file is replaced too, the new
        # sidecar does not match it, and the earlier model loads from the JSON.
        os.replace(sidecar_tmp, sidecar)
        target = path
        try:
            os.replace(tmp, path)
        except BaseException:
            sidecar.unlink(missing_ok=True)
            raise
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        sidecar_tmp.unlink(missing_ok=True)
        if isinstance(e, OSError) and e.errno is not None:
            raise type(e)(e.errno, e.strerror, str(target)) from None
        raise


def not_utf8(path, blocks) -> ValueError:
    """The error for a file, read as byte ``blocks``, that is not UTF-8.

    It names the first byte that does not decode by its offset in the file
    and its line, which a text reader's error does not: it counts from the
    start of the block the reader was decoding.
    """
    offset = lines = 0
    pending = b""
    for block in chain(blocks, [b""]):
        data = pending + block
        try:
            used = codecs.utf_8_decode(data, "strict", not block)[1]
        except UnicodeDecodeError as e:
            bad = data[e.start:e.end]
            what = ("byte " if len(bad) == 1 else "bytes ") + " ".join(f"0x{b:02x}" for b in bad)
            line = lines + data.count(b"\n", 0, e.start) + 1
            return ValueError(
                f"{path}: not valid UTF-8 ('utf-8' codec can't decode {what} "
                f"at byte offset {offset + e.start}, line {line}: {e.reason})"
            )
        lines += data.count(b"\n", 0, used)
        offset += used
        pending = data[used:]
    # The file decoded this time: it changed since it was read.
    return ValueError(f"{path}: not valid UTF-8")


def _json_parts(path, data: bytes):
    """``(x_max, names, theta)`` of the model file's bytes; see :func:`_checked_model`."""
    try:
        # Decoded as ``open(path, encoding="utf-8")`` would.
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError:
        raise not_utf8(path, [data]) from None
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        # RecursionError: nested deeper than the parser's recursion allows.
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
    if not all(isinstance(t, dict) and isinstance(t.get("name"), str) for t in teams):
        raise ValueError(f"{path}: every team record needs a name")

    for team in teams:
        for key in ("phi", "psi"):
            vec = team.get(key)
            if not isinstance(vec, list):
                raise ValueError(f"{path}: team {team['name']!r} has no {key} vector")
            if len(vec) != doc["delta"]:
                raise ValueError(f"{path}: team {team['name']!r} has vectors of the wrong width")
    blocks = []
    for key in ("phi", "psi"):
        rows = [t[key] for t in teams]
        # numpy would also take a numeric string or a bool.
        if not set(map(type, chain.from_iterable(rows))) <= {float, int}:
            raise ValueError(f"{path}: a {key} vector holds a non-numeric value")
        try:
            blocks.append(np.array(rows, dtype=np.float64))
        except OverflowError:
            raise ValueError(f"{path}: a {key} vector holds a number too large for a float") from None
    return doc["x_max"], [t["name"] for t in teams], np.concatenate(blocks)


def _sidecar_parts(path: Path, data: bytes):
    """``(x_max, names, theta)`` from the sidecar of ``path``, or ``None``.

    ``None`` unless the sidecar is whole (its trailing CRC-32 matches), has
    this format's header with positive integer ``m``, ``delta`` and
    ``x_max``, was written with exactly the bytes ``data`` (same length and
    CRC-32) and holds a block of the header's size.
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
    m, delta, x_max, names = (header.get(key) for key in ("m", "delta", "x_max", "names"))
    if not (
        type(m) is int and type(delta) is int and type(x_max) is int and min(m, delta, x_max) > 0
        and isinstance(names, list) and len(names) == m and all(isinstance(n, str) for n in names)
        and len(raw) - end - 5 == 2 * m * delta * 8
    ):
        return None
    theta = np.frombuffer(raw, dtype="<f8", count=2 * m * delta, offset=end + 1).reshape(2 * m, delta)
    return x_max, names, theta


def _checked_model(path, x_max, names: list[str], theta: np.ndarray) -> EmbeddingModel:
    """The model of one file's parts, after the checks that both file kinds share.

    ``theta`` is the stacked block ``[phi; psi]``, whose widths and entries
    the JSON reader has checked as it built it.  The first row that is not
    finite or off unit norm is named, ``phi`` rows first.  Anything wrong
    raises ``ValueError`` naming ``path``.
    """
    try:
        registry = TeamRegistry(names)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    finite = np.isfinite(theta).all(axis=1)
    off = np.abs(np.linalg.norm(theta, axis=1) - 1.0)
    bad = ~finite | (off > UNIT_NORM_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        key, team = ("psi", i - registry.m) if i >= registry.m else ("phi", i)
        problem = "non-finite values" if not finite[i] else f"a norm off 1 by {off[i]:.3g}"
        raise ValueError(f"{path}: team {names[team]!r} has a {key} vector with {problem}")
    return EmbeddingModel(theta, registry, x_max)


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
