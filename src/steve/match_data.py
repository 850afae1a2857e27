"""Match-result ingestion: team registry, raw result columns and training quadruples.

The training data format is a quadruple per match, ``(a, b, s, d)``: the two
team ids, the season index and a draw flag.  Decided matches are stored
winner-first (``a`` won iff ``d == 0``); draws keep home-team-first order.
Raw results and quadruples are both held as int64 columns, one entry per
match in file order.  The raw results (goals, competition) are kept
because the count-based baseline features need them.

:func:`ingest_csv` parses a matches file in one loop over pieces: blocks
of whole lines of a binary file, or chunks of lines of a text stream.
:func:`_plain_block` parses a piece that holds one plain record a line
with numpy over its bytes; from the start of any other piece,
``csv.reader`` reads :data:`_CHUNK_ROWS` lines and names the first bad
record.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from collections import defaultdict
from contextlib import suppress
from itertools import chain, count, islice, repeat
from operator import eq, itemgetter
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

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

#: Lines of a text stream parsed together by :func:`ingest_csv`, and the
#: lines ``csv.reader`` reads from the start of a piece that is not plain.
_CHUNK_ROWS = 1 << 12
#: Bytes of a binary file that :func:`ingest_csv` reads at a time, parsed
#: together once cut back to their last line end: about 10,000 lines of the
#: benchmark's leagues.  Blocks of 1 MiB parsed the wide league no faster,
#: and raised the process's peak RSS by 4 MB.
_BLOCK_BYTES = 1 << 19
_COMPETITION_CODE = {c.value: code for code, c in enumerate(Competition)}
_INT64_MAX = int(np.iinfo(np.int64).max)
#: The common spellings of goal counts, read without ``int``.
_GOALS = {str(goals): goals for goals in range(100)}
#: ``_WORD_MASKS[k]`` keeps the first ``k`` bytes of a little-endian 8-byte word.
_WORD_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
#: A plain record's separators: five commas, then its line end.
_RECORD_ENDS = np.array([False] * (len(CSV_FIELDS) - 1) + [True])


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


def _stripped(column: list[str], empty: str) -> list[str]:
    """The raw fields ``column`` stripped; an empty one raises ``ValueError(empty)``."""
    stripped = list(map(str.strip, column))
    if not all(stripped):
        raise ValueError(empty)
    return stripped


def _codes(column: list[str]) -> list[int]:
    """The :class:`Competition` codes of the raw fields ``column``."""
    comp = list(map(str.strip, column))
    codes = list(map(_COMPETITION_CODE.get, comp))
    if None in codes:
        raise ValueError(
            f"unknown competition tag {comp[codes.index(None)]!r} "
            f"(expected one of {sorted(_COMPETITION_CODE)})"
        )
    return codes


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
    For one record that is its first failing check.  Every check but equal
    teams depends only on the field's own text.
    """
    label, codes = _stripped(columns[0], "empty season_label"), _codes(columns[1])
    home, away = (_stripped(column, "empty team name") for column in columns[2:4])
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


def _id_rows(fields: tuple[list, ...], team_ids: dict[str, int], label_codes: dict[str, int]) -> np.ndarray:
    """The int64 rows home id, away id, home goals, away goals, label code and competition code of checked fields.

    A name or label new to ``team_ids`` or ``label_codes`` gets the next
    number when it is looked up: home before away, row by row.
    """
    label, comp, home, away, hg, ag = fields
    names = [None] * (2 * len(home))
    names[::2], names[1::2] = home, away
    ids = list(map(team_ids.__getitem__, names))
    codes = list(map(label_codes.__getitem__, label))
    return np.array([ids[::2], ids[1::2], hg, ag, codes, comp], dtype=np.int64)


def _mix(words: list[np.ndarray], lengths: np.ndarray) -> np.ndarray:
    """A 64-bit key of each field from its byte length and its masked 8-byte words."""
    key = lengths.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for word in words:
        key ^= word
        key *= np.uint64(0xBF58476D1CE4E5B9)
        key ^= key >> np.uint64(31)
    return key


def _first_appearances(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of each distinct key's first entry, in entry order, and the position of each entry's key among them.

    Keys that differ only in their low bits, which hold the entry's index
    in one sort, count as one.
    """
    bits = len(keys).bit_length()
    shift, low = np.uint64(bits), np.uint64((1 << bits) - 1)
    ordered = keys & ~low | np.arange(len(keys), dtype=np.uint64)
    ordered.sort()
    order = (ordered & low).astype(np.intp)
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    ordered >>= shift
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    first = order[new]
    by_appearance = np.argsort(first)
    position = np.empty_like(by_appearance)
    position[by_appearance] = np.arange(len(first))
    inverse = np.empty_like(order)
    inverse[order] = position[np.cumsum(new) - 1]
    return first[by_appearance], inverse


def _distinct(words_at: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """:func:`_first_appearances` of the fields at ``starts`` of ``lengths`` bytes, by their bytes.

    ``words_at[i]`` is the 8-byte word at byte ``i`` of the text, which
    ends in at least as many zero bytes as the longest field has.  No field
    holds a NUL, so its words with the bytes past its end masked to zero
    give its bytes and its length.  Each field's words are compared with
    those of the first field of its key; ``None`` if two fields of one key
    differ.
    """
    words = []
    for at in range(0, int(lengths.max()), 8):
        word = words_at[starts + at]
        if lengths.min() < at + 8:
            word &= _WORD_MASKS[np.clip(lengths - at, 0, 8)]
        words.append(word)
    first, inverse = _first_appearances(_mix(words, lengths))
    same = first[inverse]
    if any((word != word[same]).any() for word in words):
        return None
    return first, inverse


def _texts(text: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> list[str]:
    """The fields at ``starts`` of ``lengths`` bytes of the UTF-8 ``text``, each followed there by a separator."""
    # The fields with the byte after each, as one text with a line end after each field.
    ends = np.cumsum(lengths + 1)
    joined = text[np.arange(ends[-1]) + np.repeat(starts + lengths + 1 - ends, lengths + 1)]
    joined[ends - 1] = ord("\n")
    return joined.tobytes().decode("utf-8").split("\n")[:-1]


def _plain_block(
    data: bytes, col: list[int], team_ids: dict[str, int], label_codes: dict[str, int]
) -> np.ndarray | None:
    """The :func:`_id_rows` of the records ``data``, UTF-8 lines that each end in a line end, if plain.

    Plain means what :mod:`csv` would read as one record a line, each field
    the bytes between the commas: no quote, no NUL, no ``\\r`` but in
    ``\\r\\n``, and on each line five commas, or none and only white space
    (a blank line), with no field longer than the field size limit.  The
    checks of :func:`_fields` but equal teams run once on each distinct
    field text, the names and labels are numbered in ``team_ids`` and
    ``label_codes`` in first-appearance order, and equal teams are found by
    their ids.  ``None`` if the lines are not plain or not UTF-8, or hold a
    record that fails a check; where that is a record with equal teams, the
    lines' new names are already numbered.
    """
    if b'"' in data or b"\0" in data:
        return None
    if b"\r" in data:
        if data.count(b"\r") != data.count(b"\r\n"):
            return None
        data = data.replace(b"\r\n", b"\n")
    text = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero((text == ord(",")) | (text == ord("\n")))
    line_end = text[seps] == ord("\n")
    starts = np.zeros_like(seps)
    starts[1:] = seps[:-1] + 1
    lengths = seps - starts
    longest = int(lengths.max(initial=0))
    if longest > csv.field_size_limit():
        return None
    # With zero bytes after the lines, an 8-byte word starts at each byte of every
    # field, read little-endian so that its first bytes are its low bytes.
    padded = np.frombuffer(data + bytes(longest + 8), dtype=np.uint8)
    words_at = as_strided(padded, shape=(len(padded) - 7, 8), strides=(1, 1)).view("<u8")[:, 0]
    try:
        # A line with no comma is a blank line, or not a record of six fields.
        blank = line_end.copy()
        blank[1:] &= line_end[:-1]
        if blank.any():
            if any(map(str.strip, _texts(text, starts[blank], lengths[blank]))):
                return None
            starts, lengths, line_end = starts[~blank], lengths[~blank], line_end[~blank]
        if len(starts) % len(CSV_FIELDS) or not (line_end.reshape(-1, len(CSV_FIELDS)) == _RECORD_ENDS).all():
            return None
        n = len(starts) // len(CSV_FIELDS)
        if not n:
            return np.zeros((len(CSV_FIELDS), 0), dtype=np.int64)
        # Label, competition, names and goals: home and away names share
        # their distinct texts, as do the goals.
        texts, inverse = [], []
        for fields in ([col[0]], [col[1]], col[2:4], col[4:]):
            field_starts, field_lengths = (column.reshape(n, len(CSV_FIELDS))[:, fields].ravel()
                                           for column in (starts, lengths))
            distinct = _distinct(words_at, field_starts, field_lengths)
            if distinct is None:
                return None
            texts.append(_texts(text, field_starts[distinct[0]], field_lengths[distinct[0]]))
            inverse.append(distinct[1])
        labels, codes = _stripped(texts[0], "empty season_label"), _codes(texts[1])
        names, (goals,) = _stripped(texts[2], "empty team name"), _goals(texts[3:])
    except ValueError:
        return None
    teams = np.array(list(map(team_ids.__getitem__, names)), dtype=np.int64)[inverse[2]].reshape(n, 2)
    if (teams[:, 0] == teams[:, 1]).any():
        return None
    seasons = np.array(list(map(label_codes.__getitem__, labels)), dtype=np.int64)
    return np.stack([
        *teams.T,
        *np.array(goals, dtype=np.int64)[inverse[3]].reshape(n, 2).T,
        seasons[inverse[0]],
        np.array(codes, dtype=np.int64)[inverse[1]],
    ])


def _chunks(lines: Iterator[str]) -> Iterator[list[str]]:
    """The first of ``lines`` alone (the header's), then the rest :data:`_CHUNK_ROWS` at a time.

    A line that cannot be read raises after the chunk of the lines before it.
    """
    for size in chain([1], repeat(_CHUNK_ROWS)):
        chunk: list[str] = []
        try:
            chunk.extend(islice(lines, size))
        except (OSError, ValueError):
            if chunk:
                yield chunk
            raise
        if not chunk:
            return
        yield chunk


def _blocks(f: BinaryIO) -> Iterator[bytes]:
    """The bytes of the binary file ``f`` past a byte-order mark, in blocks of whole lines.

    The first line is a block of its own if a ``\\n`` ends it within
    :data:`_BLOCK_BYTES` bytes.  Then each read asks for :data:`_BLOCK_BYTES`
    bytes, and a block ends at the read's last line end; the bytes past it
    start the next block.  The last block ends where the file does.
    """
    rest = f.readline(_BLOCK_BYTES).removeprefix(b"\xef\xbb\xbf")
    if rest.endswith(b"\n"):
        yield rest
        rest = b""
    while data := f.read(_BLOCK_BYTES):
        # The last "\n", or the last "\r" that a "\n" of the next read cannot follow.
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1
        if not cut:
            rest += data
            continue
        block, rest = b"".join((rest, memoryview(data)[:cut])), data[cut:]
        del data  # one copy of the block while it is parsed
        yield block
    if rest:
        yield rest


def _plain_piece(
    piece: bytes | list[str], col: list[int], team_ids: dict[str, int], label_codes: dict[str, int]
) -> tuple[np.ndarray | None, int]:
    """:func:`_plain_block` of a block of a binary file or a chunk of text lines, and its line count.

    A chunk is parsed as its UTF-8 text where each of its lines ends in a
    ``\\n`` and holds no other; the last block of a file may end without one.
    """
    if isinstance(piece, list):
        text = "".join(piece)
        if text.count("\n") != len(piece) or not all(map(str.endswith, piece, repeat("\n"))):
            return None, 0
        # A lone surrogate passes as bytes that are not UTF-8, which _plain_block refuses.
        piece = text.encode("utf-8", "surrogatepass")
    if not piece.endswith(b"\n"):
        piece += b"\n"
    block = _plain_block(piece, col, team_ids, label_codes)
    # Its lines are its "\n"s, which numpy counts six times as fast as bytes.count.
    return block, 0 if block is None else int(np.count_nonzero(np.frombuffer(piece, dtype=np.uint8) == ord("\n")))


def _records_from(
    piece: bytes | list[str], pieces: Iterator, row_no: int, until_line: int
) -> tuple[list[list[str]], Exception | None, bytes | list[str]]:
    """:func:`csv_records` of the lines from the start of ``piece`` on, and the piece of the lines left unread.

    The lines of a block are its ``bytes.splitlines(keepends=True)``, each
    decoded as UTF-8 when ``csv.reader`` reaches it; those of a chunk are
    its items.  Past the end of ``piece`` the reader goes on into the next
    of ``pieces``, and the piece left is the unread rest of the last one begun.
    """
    text = isinstance(piece, list)
    unread = iter(())

    def lines():
        nonlocal unread
        for each in chain([piece], pieces):
            unread = iter(each if text else each.splitlines(keepends=True))
            yield from (unread if text else map(bytes.decode, unread))

    rows, error = csv_records(lines(), row_no, until_line)
    return rows, error, list(unread) if text else b"".join(unread)


def ingest_csv(stream: BinaryIO | Iterable[str]) -> tuple[TeamRegistry, Matches]:
    """Parse match rows from ``stream``: a binary file of UTF-8 CSV, or an iterable of CSV lines.

    The header row is mandatory and must name exactly the columns in
    :data:`CSV_FIELDS` (any order).  Team ids follow first appearance, home
    before away, row by row.  Season indices are assigned by sorting the
    distinct season labels lexicographically ascending, so labels must be
    zero-padded (e.g. ``"2018/2019"``) for lexical order to match
    chronology.  A malformed file aborts the parse at its first bad record,
    named by its record number (the header is record 1; a quoted field may
    span lines).  Goal counts must fit a 64-bit integer.

    A binary file (``open(path, "rb")``, a pipe, ``io.BytesIO``) is read in
    blocks of :data:`_BLOCK_BYTES` (see :func:`_blocks`), and its lines are
    those ``open(path, encoding="utf-8-sig", newline="")`` gives.  Any other
    stream is read by its lines, :data:`_CHUNK_ROWS` at a time.  Each block
    or chunk goes to :func:`_plain_block`; from the start of one it refuses,
    ``csv.reader`` reads :data:`_CHUNK_ROWS` lines, and on to the end of a
    record that spans the last of them, and the parse goes on from there.
    A line of a binary file is decoded when ``csv.reader`` reaches it, so a
    byte that is not UTF-8 raises ``UnicodeDecodeError`` after the records
    before it are checked.
    """
    binary = isinstance(stream, (io.RawIOBase, io.BufferedIOBase))
    pieces = _blocks(stream) if binary else _chunks(iter(stream))
    rows, error, piece = _records_from(next(pieces, []), pieces, 1, 1)
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

    team_ids: dict[str, int] = defaultdict(count(1).__next__)
    label_codes: dict[str, int] = defaultdict(count(1).__next__)
    blocks = [np.zeros((len(CSV_FIELDS), 0), dtype=np.int64)]
    row_no = 2
    while piece or (piece := next(pieces, None)):
        block, lines = _plain_piece(piece, col, team_ids, label_codes)
        if block is None:
            rows, error, piece = _records_from(piece, pieces, row_no, _CHUNK_ROWS)
            block, lines = _id_rows(_record_fields(rows, row_no, col), team_ids, label_codes), len(rows)
            if error:
                raise error
        else:
            piece = None
        blocks.append(block)
        row_no += lines

    home, away, hg, ag, label_code, comp = np.concatenate(blocks, axis=1)
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
