"""Match-result ingestion: team registry, raw result columns and training quadruples.

The training data format is a quadruple per match, ``(a, b, s, d)``: the two
team ids, the season index and a draw flag.  Decided matches are stored
winner-first (``a`` won iff ``d == 0``); draws keep home-team-first order.
Raw results and quadruples are both held as int64 columns, one entry per
match in file order.  The raw results (goals, competition) are kept
because the count-based baseline features need them.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import os
import pickle
import signal
import stat
import warnings
from dataclasses import dataclass
from enum import Enum
from collections import defaultdict
from contextlib import suppress
from itertools import chain, count, islice
from operator import eq, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .teams import TeamRegistry


class Competition(Enum):
    """The three competition groups distinguished by the baseline features.

    A match's competition code is its group's position in this enum.
    """

    NATIONAL_LEAGUE = "NationalLeague"
    CHAMPIONS_LEAGUE = "ChampionsLeague"
    EUROPA_LEAGUE = "EuropaLeague"


#: Required CSV columns, in canonical order.
CSV_FIELDS = ("season_label", "competition", "home", "away", "home_goals", "away_goals")

#: Lines of a plain chunk, or CSV records, parsed and checked together by
#: :func:`ingest_csv`.
_CHUNK_ROWS = 1 << 12
#: Bytes after the header from which :func:`ingest_csv` parses a file in
#: two processes, where two CPUs are usable: about 21,000 lines of the
#: benchmark's leagues.  In fresh processes the two parses of a 1 MiB file
#: took the same time (about 43 ms), and of a 2 MiB file 71 against 112 ms.
_SPLIT_BYTES = 1 << 20
#: Bytes read at a time to find a line end; a longer line is not split at.
_PROBE_BYTES = 1 << 16
_COMPETITION_CODE = {c.value: code for code, c in enumerate(Competition)}
_INT64_MAX = int(np.iinfo(np.int64).max)
#: The common spellings of goal counts, read without ``int``.
_GOALS = {str(goals): goals for goals in range(100)}
#: A plain line's commas and line end, and the NUL :func:`_plain_fields`
#: puts after it; every other byte.
_PLAIN_SEPARATORS = b"," * (len(CSV_FIELDS) - 1) + b"\n\0"
_NOT_SEPARATORS = bytes(set(range(256)) - set(_PLAIN_SEPARATORS))


@dataclass(frozen=True, eq=False)
class Matches:
    """Raw match results as int64 columns, one entry per match in file order.

    ``home`` and ``away`` are team ids.  ``season`` is the 1-based season
    index, whose label is ``season_labels[season - 1]``.  ``competition`` is
    a :class:`Competition` code.
    """

    home: np.ndarray
    away: np.ndarray
    home_goals: np.ndarray
    away_goals: np.ndarray
    season: np.ndarray
    competition: np.ndarray
    season_labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.home)


class MatchQuad(NamedTuple):
    """One training record ``(a, b, s, d)``; ``a`` won iff ``d == 0``.

    :meth:`Dataset.from_quads` turns a list of them into a dataset.
    """

    a: int
    b: int
    s: int
    d: int


def _raise_first(checks) -> None:
    """Raise for the first entry failing any check, with its first failing check.

    ``checks`` holds ``(failed, message)`` pairs: a boolean mask over the
    entries and a function of the failing entry's index.
    """
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if failed.any():
        i = int(failed.argmax())
        raise ValueError(next(message(i) for mask, message in checks if mask[i]))


@dataclass(eq=False)
class Dataset:
    """Training quadruples as int64 columns ``a, b, s, d``, with their registry.

    ``matches`` holds the raw results the quadruples came from, row for
    row; it is ``None`` for a dataset built from quadruples alone.
    """

    a: np.ndarray
    b: np.ndarray
    s: np.ndarray
    d: np.ndarray
    x_max: int
    registry: TeamRegistry
    matches: Matches | None = None

    def __post_init__(self):
        a, b, s, d = self.a, self.b, self.s, self.d = tuple(
            np.asarray(c, dtype=np.int64) for c in (self.a, self.b, self.s, self.d)
        )
        if a.ndim != 1 or not a.shape == b.shape == s.shape == d.shape:
            raise ValueError("quad columns a, b, s, d must be 1-D and of equal length")
        m = self.registry.m

        def quad(i):
            return MatchQuad(int(a[i]), int(b[i]), int(s[i]), int(d[i]))

        _raise_first([
            (a == b, lambda i: "a and b must differ"),
            ((d != 0) & (d != 1), lambda i: "d must be 0 or 1"),
            (s < 1, lambda i: "s must be >= 1"),
        ])
        _raise_first([
            ((a < 1) | (a > m) | (b < 1) | (b > m),
             lambda i: f"quad references unknown team id: {quad(i)}"),
            (s > self.x_max, lambda i: f"quad season {s[i]} exceeds x_max={self.x_max}"),
        ])

    @classmethod
    def from_quads(
        cls, quads: Sequence[tuple[int, int, int, int]], x_max: int, registry: TeamRegistry
    ) -> "Dataset":
        """A dataset from ``(a, b, s, d)`` tuples, for example :class:`MatchQuad` values."""
        a, b, s, d = np.array(quads, dtype=np.int64).reshape(-1, 4).T
        return cls(a=a, b=b, s=s, d=d, x_max=x_max, registry=registry)

    def __len__(self) -> int:
        return len(self.a)


def csv_records(
    lines: Iterable[str], row_no: int = 1, until_line: float = math.inf
) -> tuple[list[list[str]], Exception | None]:
    """The records ``csv.reader`` reads from ``lines`` up to the first record end at or past line ``until_line``.

    ``row_no`` is the number of the first record.  Reading stops early at
    the end of ``lines`` or at a line or record that cannot be read, which
    is returned as the second item (a ``csv.Error`` as ``ValueError("row N: …")``).
    """
    reader = csv.reader(lines)
    rows = []
    try:
        for row in reader:
            rows.append(row)
            if reader.line_num >= until_line:
                break
    except csv.Error as e:
        return rows, ValueError(f"row {row_no + len(rows)}: {e}")
    except (OSError, ValueError) as e:
        return rows, e
    return rows, None


def _blank(row: list[str]) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def _plain_fields(lines: list[str]) -> list[str] | None:
    """The fields of ``lines``, six a line in file order, if the chunk is plain.

    Plain means what :mod:`csv` would read as one record a line, each field
    the text between the commas: no quote, no NUL, no ``\\r`` but in a
    trailing ``\\r\\n``, exactly five commas and a ``\\n`` end on every line,
    and no line longer than the field size limit.  Otherwise ``None``.
    """
    # Joined by NULs, a plain chunk's commas, line ends and NULs come in a
    # fixed order (compared as UTF-8 bytes, which keep ASCII as it is), and
    # no line end is left once the last character is dropped and each line
    # end before a NUL is turned into a comma.
    text = "\0".join(lines)
    if '"' in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    if (
        text.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATORS)
        != (_PLAIN_SEPARATORS * len(lines))[:-1]
        or max(map(len, lines)) > csv.field_size_limit()
    ):
        return None
    text = text[:-1].replace("\n\0", ",")
    return None if "\n" in text else text.split(",")


def _goals(columns: list[list[str]]) -> list[list[int]]:
    """The goal counts of ``columns``; each must be an integer in 0..2**63 - 1."""
    try:
        return [list(map(_GOALS.__getitem__, column)) for column in columns]
    except KeyError:
        pass
    try:
        goals = [list(map(int, column)) for column in columns]
    except ValueError:
        raise ValueError("goals must be integers") from None
    if min(map(min, goals)) < 0:
        raise ValueError("goals must be non-negative")
    if max(map(max, goals)) > _INT64_MAX:
        raise ValueError("goals must fit a 64-bit integer")
    return goals


def _fields(columns: list[list[str]]) -> tuple[list, ...]:
    """Checked fields from raw fields by column, in :data:`CSV_FIELDS` order.

    Returns the columns label, competition code, home, away, home goals and
    away goals.  Raises ``ValueError`` with the message of the first check
    that any record fails, checked in this order: empty season label,
    unknown competition tag, empty team name, equal teams, then the goals.
    For one record that is its first failing check.
    """
    label, comp, home, away = (list(map(str.strip, column)) for column in columns[:4])
    codes = list(map(_COMPETITION_CODE.get, comp))
    if not all(label):
        raise ValueError("empty season_label")
    if None in codes:
        raise ValueError(
            f"unknown competition tag {comp[codes.index(None)]!r} "
            f"(expected one of {sorted(_COMPETITION_CODE)})"
        )
    if not all(home) or not all(away):
        raise ValueError("empty team name")
    if any(map(eq, home, away)):
        raise ValueError(f"home and away team are both {home[list(map(eq, home, away)).index(True)]!r}")
    return label, codes, home, away, *_goals(columns[4:])


def _record_fields(rows: list[list[str]], row_no: int, col: list[int]) -> tuple[list, ...]:
    """What :func:`_fields` returns for the records ``rows``, blank lines left out.

    ``row_no`` is the number of ``rows[0]``.  If the records fail a check
    together, they are checked again one at a time, and the first bad one
    raises with its number.
    """
    records = rows
    if set(map(len, rows)) != {len(CSV_FIELDS)}:
        records = [row for row in rows if not _blank(row)]
    if set(map(len, records)) <= {len(CSV_FIELDS)}:
        with suppress(ValueError):
            return _fields([list(map(itemgetter(i), records)) for i in col])
    for row_no, row in enumerate(rows, start=row_no):
        if _blank(row):
            continue
        if len(row) != len(CSV_FIELDS):
            raise ValueError(f"row {row_no}: expected {len(CSV_FIELDS)} fields, got {len(row)}")
        try:
            _fields([[row[i]] for i in col])
        except ValueError as e:
            raise ValueError(f"row {row_no}: {e}") from None
    raise AssertionError("records that fail a check together hold one that fails it alone")


def _raising(error: Exception) -> Iterator[str]:
    """Lines that raise ``error`` where the first would be."""
    raise error
    yield


def _checked_chunks(lines: Iterator[str], col: list[int]) -> Iterator[tuple[list, ...]]:
    """What :func:`_fields` returns for the records after the header, by chunk.

    Plain chunks (see :func:`_plain_fields`) are split as text, one record a
    line.  A chunk that is not plain, or that holds a bad record, goes to
    ``csv.reader``, which names the first bad record and reads on past the
    chunk only to the end of a record that spans its last line.  A line or
    record that cannot be read is raised after the records before it are
    checked, as a row-by-row parse would.
    """
    row_no = 2
    while True:
        chunk, unreadable = [], None
        try:
            chunk.extend(islice(lines, _CHUNK_ROWS))
        except (OSError, ValueError) as e:
            unreadable = e
        if not chunk and unreadable is None:
            return
        fields = unreadable is None and _plain_fields(chunk)
        try:
            checked = fields and _fields([fields[i::len(CSV_FIELDS)] for i in col])
        except ValueError:
            checked = None
        if checked:
            yield checked
            row_no += len(chunk)
        else:
            rest = lines if unreadable is None else _raising(unreadable)
            rows, error = csv_records(chain(chunk, rest), row_no, len(chunk))
            yield _record_fields(rows, row_no, col)
            if error or unreadable:
                raise error or unreadable
            row_no += len(rows)
        if len(chunk) < _CHUNK_ROWS:
            return


def _id_block(checked: Iterable[tuple[list, ...]]) -> tuple[dict[str, int], dict[str, int], np.ndarray]:
    """Team ids and season label codes for checked fields, by first appearance.

    Returns the id of each team name and the code of each season label,
    both numbered 1, 2, ... in first-appearance order (home before away,
    row by row), and the int64 rows home id, away id, home goals, away
    goals, label code and competition code.  A name or label new to the
    returned dicts gets the next number when it is looked up.
    """
    # A key seen for the first time gets the next number: 1, 2, ...
    team_ids: dict[str, int] = defaultdict(count(1).__next__)
    label_codes: dict[str, int] = defaultdict(count(1).__next__)
    blocks = [np.zeros((len(CSV_FIELDS), 0), dtype=np.int64)]
    for label, comp, home, away, hg, ag in checked:
        names = [None] * (2 * len(home))
        names[::2], names[1::2] = home, away
        ids = list(map(team_ids.__getitem__, names))
        codes = list(map(label_codes.__getitem__, label))
        blocks.append(np.array([ids[::2], ids[1::2], hg, ag, codes, comp], dtype=np.int64))
    return team_ids, label_codes, np.concatenate(blocks, axis=1)


def _one_record_a_line(data: bytes) -> bool:
    """Whether ``data`` holds no ``"`` and no ``\\r`` but in ``\\r\\n``.

    Then ``csv`` reads each line as one record, and a text stream with
    universal newlines ends its lines exactly where ``data`` has ``\\n``.
    """
    return b'"' not in data and (b"\r" not in data or data.count(b"\r") == data.count(b"\r\n"))


def _line_end(fd: int, at: int) -> int | None:
    """The offset just past the first ``\\n`` at or after ``at`` in file ``fd``.

    ``None`` if the next :data:`_PROBE_BYTES` bytes hold none.
    """
    end = os.pread(fd, _PROBE_BYTES, at).find(b"\n")
    return None if end < 0 else at + end + 1


def _parse_range(
    fd: int, start: int, stop: int, col: list[int]
) -> tuple[dict[str, int], dict[str, int], np.ndarray] | None:
    """``_id_block(_checked_chunks(...))`` of the lines in bytes ``start:stop`` of file ``fd``.

    ``None`` if they hold a ``"``, a lone ``\\r`` or a byte that is not
    UTF-8, or if fewer bytes are read; a bad record raises as in a serial
    parse of these lines alone.
    """
    data = os.pread(fd, stop - start, start)
    if len(data) != stop - start or not _one_record_a_line(data):
        return None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    # Decoded again a block at a time, which holds less than all of the text.
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")
    return _id_block(_checked_chunks(lines, col))


def _split_id_blocks(fd: int, col: list[int]) -> tuple[dict[str, int], dict[str, int], np.ndarray] | None:
    """What the serial parse returns for the records after the header of file ``fd``, from two processes.

    The file holds the header on its first line, and :data:`_SPLIT_BYTES`
    or more after it.  Its bytes after the header are cut at the first line
    end at or after their middle, and one child is forked before any of
    them is read.  Each process reads its own half with ``os.pread`` and
    parses it (see :func:`_parse_range`); the child pickles its
    :func:`_id_block` (names and labels in order) back through a pipe, and
    its ids and codes are renumbered to follow on from the first half's.  A
    bad record in the first half raises as in a serial parse.  ``None`` if
    the file is smaller, either half is not one record a line or not UTF-8,
    a read, the pipe, the fork or the child fails, or the second half holds
    a bad record; the caller then parses the file serially from its text
    stream, which ``os.pread`` does not move.  The child is always waited
    for, and killed first if the first half does not parse.
    """
    try:
        info = os.fstat(fd)
        start = _line_end(fd, 0) if stat.S_ISREG(info.st_mode) else None
        if start is None or info.st_size - start < _SPLIT_BYTES or not _one_record_a_line(os.pread(fd, start, 0)):
            return None
        cut = _line_end(fd, start + (info.st_size - start) // 2)
        if cut is None:
            return None
        r, w = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with other threads forks.
            # The child is safe with them (an idle OpenBLAS pool, say): it
            # calls no BLAS, takes no lock such a thread can hold, and ends
            # through os._exit.
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)", DeprecationWarning
            )
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(r)
            parsed = _parse_range(fd, cut, info.st_size, col)
            if parsed is not None:
                names, labels, block = parsed
                with os.fdopen(w, "wb") as pipe:
                    pickle.dump((list(names), list(labels), block), pipe, pickle.HIGHEST_PROTOCOL)
                status = 0
        finally:
            os._exit(status)

    os.close(w)
    first = sent = None
    try:
        with os.fdopen(r, "rb") as pipe:
            first = _parse_range(fd, start, cut, col)
            if first is not None:
                sent = pipe.read()
    except OSError:
        pass
    finally:
        if sent is None:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if sent is None or os.waitstatus_to_exitcode(status) != 0:
        return None

    team_ids, label_codes, block = first
    names, labels, child = pickle.loads(sent)
    team = np.array([0, *map(team_ids.__getitem__, names)], dtype=np.int64)
    code = np.array([0, *map(label_codes.__getitem__, labels)], dtype=np.int64)
    child[:2] = team[child[:2]]
    child[4] = code[child[4]]
    return team_ids, label_codes, np.concatenate([block, child], axis=1)


def _unread_utf8_file(stream) -> int | None:
    """The descriptor of ``stream`` if it is a UTF-8 text file not yet read from, else ``None``."""
    if not isinstance(stream, io.TextIOWrapper) or stream.errors != "strict":
        return None
    try:
        if codecs.lookup(stream.encoding).name in ("utf-8", "utf-8-sig") and stream.tell() == 0:
            return stream.fileno()
    except (LookupError, OSError, ValueError):
        pass
    return None


def ingest_csv(stream: Iterable[str]) -> tuple[TeamRegistry, Matches]:
    """Parse match rows from ``stream`` (an iterable of CSV lines).

    The header row is mandatory and must name exactly the columns in
    :data:`CSV_FIELDS` (any order).  Team ids follow first appearance, home
    before away, row by row.  Season indices are assigned by sorting the
    distinct season labels lexicographically ascending, so labels must be
    zero-padded (e.g. ``"2018/2019"``) for lexical order to match
    chronology.  A malformed file aborts the parse at its first bad record,
    named by its record number (the header is record 1; a quoted field may
    span lines).  Goal counts must fit a 64-bit integer.

    Where at least two CPUs are usable and ``stream`` is a UTF-8 text file
    with universal newlines, opened at its start (as :func:`open` gives
    one), a file with :data:`_SPLIT_BYTES` or more after the header is
    parsed in two processes from its descriptor (see
    :func:`_split_id_blocks`), with the same result and the same errors.
    """
    two_cpus = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
    fd = _unread_utf8_file(stream) if two_cpus else None
    lines = iter(stream)
    rows, error = csv_records(lines, until_line=1)
    if error:
        raise error
    if not rows:
        raise ValueError("empty input: missing header row")
    header = [h.strip() for h in rows[0]]
    if sorted(header) != sorted(CSV_FIELDS):
        raise ValueError(
            f"row 1: header must name columns {', '.join(CSV_FIELDS)}; got {header}"
        )
    col = [header.index(name) for name in CSV_FIELDS]

    # Universal newlines (``newlines`` is set once a line end is read) end
    # the stream's lines at each "\n" of a file with no lone "\r".
    parsed = fd is not None and stream.newlines is not None and _split_id_blocks(fd, col)
    team_ids, label_codes, block = parsed or _id_block(_checked_chunks(lines, col))

    home, away, hg, ag, label_code, comp = block
    if not home.size:
        raise ValueError("empty input: no match rows")
    labels = sorted(label_codes)
    season_of_code = np.zeros(len(labels) + 1, dtype=np.int64)
    season_of_code[[label_codes[label] for label in labels]] = np.arange(1, len(labels) + 1)
    matches = Matches(home, away, hg, ag, season_of_code[label_code], comp, tuple(labels))
    return TeamRegistry(team_ids), matches


def to_quads(matches: Matches, registry: TeamRegistry) -> Dataset:
    """Turn raw results into the winner-first quadruple dataset.

    Decided matches give ``(winner, loser, s, 0)``; draws give
    ``(home, away, s, 1)``.  The raw results are kept on the dataset for
    the baseline feature extractors.
    """
    if not len(matches):
        raise ValueError("raw match list is empty")
    away_won = matches.away_goals > matches.home_goals
    return Dataset(
        a=np.where(away_won, matches.away, matches.home),
        b=np.where(away_won, matches.home, matches.away),
        s=matches.season,
        d=(matches.home_goals == matches.away_goals).astype(np.int64),
        x_max=int(matches.season.max()),
        registry=registry,
        matches=matches,
    )


def dataset_summary(ds: Dataset) -> dict:
    """Summarize a dataset: match/team counts, draw fraction, per-season counts.

    The result is a plain dict ready for JSON serialization.  Seasons
    ``1..x_max`` all appear in ``per_season``, with count 0 where the
    dataset holds no matches (possible for sliced datasets), and label
    ``None`` where no raw results give one.
    """
    matches = len(ds)
    labels = () if ds.matches is None else ds.matches.season_labels
    counts = np.bincount(ds.s, minlength=ds.x_max + 1)[1 : ds.x_max + 1].tolist()
    return {
        "matches": matches,
        "teams": ds.registry.m,
        "draw_fraction": int(ds.d.sum()) / matches if matches else 0.0,
        "per_season": [
            {"season_index": s, "season_label": labels[s - 1] if s <= len(labels) else None,
             "matches": n}
            for s, n in enumerate(counts, start=1)
        ],
    }
