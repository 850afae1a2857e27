import csv
import io
import os
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    RawMatch,
    as_matches,
    reference_dataset_summary,
    reference_ingest_csv,
    reference_to_quads,
)
from steve import cli, match_data
from steve.match_data import (
    CSV_FIELDS,
    Competition,
    Dataset,
    MatchQuad,
    TeamRegistry,
    dataset_summary,
    ingest_csv,
    to_quads,
)

HEADER = "season_label,competition,home,away,home_goals,away_goals"


def parse(text: str):
    return ingest_csv(io.StringIO(text))


class TestTeamRegistry:
    def test_repeated_name_refused_naming_the_first_repeat(self):
        with pytest.raises(ValueError, match=r"^duplicate team name: 'b'$"):
            TeamRegistry(["a", "b", "c", "b", "a"])

    @pytest.mark.parametrize("names", [["a", ""], ["", "a", "a"]], ids=["last", "before a repeat"])
    def test_empty_name_refused(self, names):
        with pytest.raises(ValueError, match="^team name must be non-empty$"):
            TeamRegistry(names)

    def test_cannot_grow(self):
        registry = TeamRegistry(["a"])
        assert not hasattr(registry, "add")
        registry.names.append("b")
        assert registry.m == 1 and "b" not in registry


class TestIngest:
    def test_direct_field_mapping(self):
        registry, matches = parse(HEADER + "\n2018/2019,NationalLeague,Liverpool,Arsenal,5,1\n")
        assert registry.name_of(matches.home[0]) == "Liverpool"
        assert registry.name_of(matches.away[0]) == "Arsenal"
        assert (matches.home_goals[0], matches.away_goals[0]) == (5, 1)
        assert matches.season_labels[matches.season[0] - 1] == "2018/2019"
        assert tuple(Competition)[matches.competition[0]] is Competition.NATIONAL_LEAGUE

    def test_registry_uniqueness(self):
        registry, matches = parse(
            HEADER
            + "\n2018/2019,NationalLeague,Liverpool,Arsenal,5,1"
            + "\n2018/2019,NationalLeague,Chelsea,Liverpool,0,0\n"
        )
        assert registry.m == 3
        assert matches.home[0] == matches.away[1] == registry.id_of("Liverpool")

    def test_chronological_indexing(self):
        _, matches = parse(
            HEADER
            + "\n2018/2019,NationalLeague,A,B,1,0"
            + "\n2010/2011,NationalLeague,A,B,0,1\n"
        )
        assert matches.season[0] == 2
        assert matches.season[1] == 1

    def test_unpadded_season_labels_sort_as_strings(self):
        # The documented rule: labels are ordered lexicographically, so an
        # unpadded "Season 10" comes before "Season 9".
        _, matches = parse(
            HEADER
            + "\nSeason 9,NationalLeague,A,B,1,0"
            + "\nSeason 10,NationalLeague,A,B,0,1\n"
        )
        assert matches.season_labels == ("Season 10", "Season 9")
        assert matches.season.tolist() == [2, 1]

    def test_header_column_order_free(self):
        registry, matches = parse(
            "home,away,season_label,competition,home_goals,away_goals\n"
            "X,Y,2019/2020,EuropaLeague,2,3\n"
        )
        assert registry.name_of(matches.home[0]) == "X"
        assert tuple(Competition)[matches.competition[0]] is Competition.EUROPA_LEAGUE

    def test_columns_are_int64_and_len_counts_rows(self):
        _, matches = parse(HEADER + "\n2018/2019,NationalLeague,A,B,1,0\n\n2018/2019,EuropaLeague,B,C,2,2\n")
        assert len(matches) == 2
        for column in (matches.home, matches.away, matches.home_goals, matches.away_goals,
                       matches.season, matches.competition):
            assert column.dtype == np.int64 and column.shape == (2,)

    @pytest.mark.parametrize(
        "row,fragment",
        [
            ("2018/2019,NationalLeague,A,B,5", "row 2"),  # wrong arity
            ("2018/2019,NationalLeague,A,B,x,1", "row 2"),  # non-integer goals
            ("2018/2019,NationalLeague,A,B,-1,1", "row 2"),  # negative goals
            ("2018/2019,FriendlyCup,A,B,1,1", "FriendlyCup"),  # unknown competition
            ("2018/2019,NationalLeague,A,A,1,1", "row 2"),  # home == away
        ],
    )
    def test_malformed_rows_rejected_with_row_number(self, row, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse(HEADER + "\n" + row + "\n")

    @pytest.mark.parametrize("goals", ["9223372036854775808", "99999999999999999999"])
    def test_goals_beyond_int64_rejected(self, goals):
        text = HEADER + "\n2018/2019,NationalLeague,A,B,1,0\n2018/2019,NationalLeague,A,B,0," + goals + "\n"
        with pytest.raises(ValueError, match=r"^row 3: goals must fit a 64-bit integer$"):
            parse(text)

    def test_largest_int64_goal_count_accepted(self):
        _, matches = parse(HEADER + "\n2018/2019,NationalLeague,A,B,9223372036854775807,0\n")
        assert matches.home_goals[0] == 2**63 - 1

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty input"):
            parse("")
        with pytest.raises(ValueError, match="empty input"):
            parse(HEADER + "\n")

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse("season,comp,home,away,hg,ag\nx,y,a,b,1,2\n")


class TestToQuads:
    def test_winner_first(self):
        _, matches = parse(HEADER + "\n2018/2019,NationalLeague,X,Y,0,2\n")
        registry, _ = parse(HEADER + "\n2018/2019,NationalLeague,X,Y,0,2\n")
        ds = to_quads(matches, registry)
        assert registry.name_of(ds.a[0]) == "Y"
        assert registry.name_of(ds.b[0]) == "X"
        assert ds.d[0] == 0

    def test_draw_keeps_home_first(self):
        registry, matches = parse(HEADER + "\n2018/2019,NationalLeague,X,Y,1,1\n")
        ds = to_quads(matches, registry)
        assert registry.name_of(ds.a[0]) == "X"
        assert ds.d[0] == 1

    def test_cardinality_preserved(self):
        registry, matches = parse(
            HEADER
            + "\n2018/2019,NationalLeague,A,B,2,0"
            + "\n2018/2019,NationalLeague,B,C,1,1"
            + "\n2018/2019,NationalLeague,C,A,0,3\n"
        )
        ds = to_quads(matches, registry)
        assert len(ds) == 3
        assert ds.d.sum() == 1

    def test_empty_raw_rejected(self):
        with pytest.raises(ValueError):
            to_quads(as_matches([]), TeamRegistry(["A", "B"]))


class TestSummary:
    def test_direct_counting(self):
        registry, matches = parse(
            HEADER
            + "\n2018/2019,NationalLeague,A,B,2,0"
            + "\n2018/2019,NationalLeague,C,D,1,1"
            + "\n2018/2019,NationalLeague,A,C,0,1\n"
        )
        summary = dataset_summary(to_quads(matches, registry))
        assert summary["matches"] == 3
        assert summary["teams"] == 4
        assert summary["draw_fraction"] == pytest.approx(1 / 3)

    def test_empty_season_slice_counts_zero(self):
        registry = TeamRegistry(["A", "B"])
        ds = Dataset.from_quads([MatchQuad(1, 2, 1, 0), MatchQuad(2, 1, 3, 0)], x_max=3, registry=registry)
        per_season = {e["season_index"]: e["matches"] for e in dataset_summary(ds)["per_season"]}
        assert per_season == {1: 1, 2: 0, 3: 1}


class TestInvariants:
    def _random_raw(self, seed):
        rng = np.random.default_rng(seed)
        names = [f"T{i}" for i in range(6)]
        registry = TeamRegistry(names)
        raw = []
        for _ in range(60):
            home, away = rng.choice(6, size=2, replace=False) + 1
            raw.append(
                RawMatch(
                    home=int(home),
                    away=int(away),
                    home_goals=int(rng.integers(0, 5)),
                    away_goals=int(rng.integers(0, 5)),
                    season_label=f"s{rng.integers(1, 4)}",
                    season_index=int(rng.integers(1, 4)),
                    competition=Competition.NATIONAL_LEAGUE,
                )
            )
        return registry, raw

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_pair_multiset(self, seed):
        registry, raw = self._random_raw(seed)
        ds = to_quads(as_matches(raw), registry)
        assert len(ds) == len(raw)
        raw_pairs = sorted((m.season_index, *sorted((m.home, m.away))) for m in raw)
        quad_pairs = sorted((s, *sorted((a, b))) for a, b, s in zip(ds.a.tolist(), ds.b.tolist(), ds.s.tolist()))
        assert raw_pairs == quad_pairs

    @pytest.mark.parametrize("seed", range(5))
    def test_winner_goals_exceed_losers(self, seed):
        registry, raw = self._random_raw(seed)
        ds = to_quads(as_matches(raw), registry)
        for match, a, b, d in zip(raw, ds.a, ds.b, ds.d):
            if d == 0:
                goals = {match.home: match.home_goals, match.away: match.away_goals}
                assert goals[a] > goals[b]

    def test_registry_ids_contiguous(self):
        registry, _ = self._random_raw(0)
        assert [registry.id_of(n) for n in registry.names] == list(range(1, registry.m + 1))

    def test_registry_rejects_unknown(self):
        registry = TeamRegistry(["A"])
        with pytest.raises(ValueError):
            registry.id_of("B")
        with pytest.raises(ValueError):
            registry.name_of(2)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint16, np.uint64])
    def test_registry_accepts_numpy_integer_ids(self, dtype):
        registry = TeamRegistry(["A", "B"])
        assert registry.name_of(dtype(2)) == "B"
        assert registry.rows([dtype(2), 1]).tolist() == [1, 0]
        with pytest.raises(ValueError, match=r"^team id 3 out of range 1\.\.2$"):
            registry.name_of(dtype(3))

    @pytest.mark.parametrize("team_id", [True, np.True_, np.False_, 1.0, np.float64(1.0), np.float32(2.0)])
    def test_registry_rejects_bool_and_float_ids(self, team_id):
        registry = TeamRegistry(["A", "B"])
        with pytest.raises(ValueError, match="^team id must be an integer, got "):
            registry.check_id(team_id)
        with pytest.raises(ValueError, match="^team id must be an integer, got "):
            registry.rows([1, team_id])

    def test_quad_validation(self):
        registry = TeamRegistry(["A", "B"])
        with pytest.raises(ValueError, match="^a and b must differ$"):
            Dataset.from_quads([MatchQuad(1, 1, 1, 0)], x_max=1, registry=registry)
        with pytest.raises(ValueError, match="^d must be 0 or 1$"):
            Dataset.from_quads([MatchQuad(1, 2, 1, 2)], x_max=1, registry=registry)
        with pytest.raises(ValueError, match="^s must be >= 1$"):
            Dataset.from_quads([MatchQuad(1, 2, 0, 0)], x_max=1, registry=registry)

    def test_dataset_validation(self):
        registry = TeamRegistry(["A", "B"])
        with pytest.raises(ValueError, match="unknown team"):
            Dataset.from_quads([MatchQuad(1, 3, 1, 0)], x_max=1, registry=registry)
        with pytest.raises(ValueError, match="x_max"):
            Dataset.from_quads([MatchQuad(1, 2, 2, 0)], x_max=1, registry=registry)

    def test_dataset_reports_first_bad_quad_as_the_per_quad_checks_did(self):
        registry = TeamRegistry(["A", "B", "C"])
        quads = [MatchQuad(1, 2, 1, 0), MatchQuad(2, 4, 2, 0), MatchQuad(3, 3, 1, 0), MatchQuad(1, 5, 9, 0)]
        # Every quad's own checks come before the dataset's checks.
        with pytest.raises(ValueError, match="^a and b must differ$"):
            Dataset.from_quads(quads, x_max=1, registry=registry)
        with pytest.raises(ValueError, match=r"^quad references unknown team id: MatchQuad\(a=2, b=4, s=2, d=0\)$"):
            Dataset.from_quads(quads[:2] + quads[3:], x_max=1, registry=registry)
        with pytest.raises(ValueError, match="^quad season 2 exceeds x_max=1$"):
            Dataset.from_quads([quads[0], MatchQuad(2, 3, 2, 0), quads[3]], x_max=1, registry=registry)


# ---------------------------------------------------------------------------
# The columnar ingest against the row-by-row parser it replaced
# (``helpers.reference_*``): same registry, columns, quads, summary and
# error text, at any chunk size.

NAMES = ["Ajax", " Ajax ", "PSV", "Club, A", "Club\nB", 'Say "Hi"', "Émile", "Twente  ", "\tVitesse"]
LABELS = ["2018/2019", " 2019/2020", "2020/2021 ", "2017,18", "2016\n17"]
TAGS = [c.value for c in Competition] + [" NationalLeague", "EuropaLeague "]
ODD_GOALS = [" 2", "+3", "1_0", "٣", "07", "4 ", "0"]
GOALS = st.one_of(st.integers(0, 10**6).map(str), st.sampled_from(ODD_GOALS))
#: Names and labels that ``csv.writer`` writes without quotes.
UNQUOTED_NAMES = [n for n in NAMES if not set(n) & set('",\n')]
UNQUOTED_LABELS = [label for label in LABELS if not set(label) & set('",\n')]

#: One way to spoil a row per check of the parser, in the order it checks,
#: then records with two faults.
BAD_ROWS = {
    "field count": lambda row, extra: [*row.values(), "1"] if extra else list(row.values())[:-1],
    "empty season_label": lambda row, extra: {**row, "season_label": " " if extra else ""},
    "competition tag": lambda row, extra: {**row, "competition": "FriendlyCup" if extra else "nationalleague"},
    "empty team name": lambda row, extra: {**row, "away" if extra else "home": "  "},
    "home == away": lambda row, extra: {**row, "away": " " + row["home"].strip() + " "},
    "integer goals": lambda row, extra: {**row, "home_goals" if extra else "away_goals": "1.5" if extra else "x"},
    "negative goals": lambda row, extra: {**row, "away_goals" if extra else "home_goals": "-1"},
    # Two faults in one record: the earlier check is the one reported.
    "competition tag and empty team name":
        lambda row, extra: {**row, "competition": "Cup", "away" if extra else "home": ""},
    "home == away and bad goals":
        lambda row, extra: {**row, "away": row["home"], "away_goals": "x" if extra else "-1"},
    "negative and non-integer goals":
        lambda row, extra: {**row, "home_goals": "x" if extra else "-1", "away_goals": "-1" if extra else "x"},
}


@st.composite
def rows(draw, names=NAMES, labels=LABELS):
    home = draw(st.sampled_from(names))
    away = draw(st.sampled_from([n for n in names if n.strip() != home.strip()]))
    return {
        "season_label": draw(st.sampled_from(labels)),
        "competition": draw(st.sampled_from(TAGS)),
        "home": home,
        "away": away,
        "home_goals": draw(GOALS),
        "away_goals": draw(GOALS),
    }


@st.composite
def csv_texts(draw, bad_kind=None, quoted=True):
    """Header in any order, rows with quoted and padded fields, blank lines.

    With ``quoted=False``, no field needs quotes, so the file holds no
    ``"``, and it has 8 records or more.
    """
    header = draw(st.permutations(CSV_FIELDS))
    record = rows() if quoted else rows(UNQUOTED_NAMES, UNQUOTED_LABELS)
    records = draw(st.lists(record, min_size=0 if quoted else 8, max_size=40))
    if bad_kind is not None:
        at = draw(st.integers(0, len(records)))
        records.insert(at, BAD_ROWS[bad_kind](draw(record), draw(st.booleans())))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    pad = draw(st.sampled_from(["", " "]))
    writer.writerow([pad + name for name in header])
    for record in records:
        if draw(st.integers(0, 5)) == 0:
            out.write(draw(st.sampled_from(["\n", "  \n", "\t\n"])))  # a blank line
        writer.writerow(record if isinstance(record, list) else [record[name] for name in header])
    return out.getvalue()


#: White space that ``str.strip`` takes off a field: U+00A0 and U+3000 too.
PADS = ["", " ", "  ", "\t", "\u00a0", "\u3000"]
#: Goal spellings that ``int`` reads, most of them not in ``match_data._GOALS``.
SPELLED_GOALS = ["05", " 1", "+1", "1_0", "\u0661", "100", "0", "3", "12", "00", "1 ", "9223372036854775807"]
#: Names that differ only in padding, and names longer than 8 and 16 bytes.
PLAIN_NAMES = ["Ajax", " Ajax", "Ajax\u00a0", "PSV", "Émile", "Club 0123", "Sporting Clube de Portugal", "a"]


@st.composite
def plain_texts(draw, bad_kind=None):
    """Files with no quote: padded fields, goals in any spelling ``int`` reads, blank lines.

    Every field may carry white space on either side, so distinct field
    texts strip to one name, label, tag or goal count.  Lines end in LF or
    CRLF, and the last may have no line end.
    """
    header = draw(st.permutations(CSV_FIELDS))
    record = rows(PLAIN_NAMES, ["2018/2019", "2019/2020 ", "s"])
    records = draw(st.lists(record, min_size=1, max_size=40))
    for good in records:
        if draw(st.booleans()):
            good["home_goals"], good["away_goals"] = draw(st.lists(st.sampled_from(SPELLED_GOALS), min_size=2, max_size=2))
    if bad_kind is not None:
        records.insert(draw(st.integers(0, len(records))), BAD_ROWS[bad_kind](draw(record), draw(st.booleans())))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)]
    for record in records:
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t", "\u00a0"])))  # a blank line
        if isinstance(record, dict):
            record = [draw(st.sampled_from(PADS)) + record[name] + draw(st.sampled_from(PADS)) for name in header]
        lines.append(",".join(record))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def stream_of(source):
    """A file's text as a text stream; a list of lines as it is."""
    return io.StringIO(source) if isinstance(source, str) else iter(source)


@contextmanager
def written(data: bytes):
    """The path of a temporary file holding ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "matches.csv")
        path.write_bytes(data)
        yield path


def columns_of(parsed):
    """An ``ingest_csv`` result as registry names, season labels and every column."""
    if parsed is None:
        return None
    registry, matches = parsed
    return (registry.names, matches.season_labels,
            [getattr(matches, c).tolist() for c in ("home", "away", "home_goals", "away_goals",
                                                     "season", "competition")])


def outcome(parse_fn, source):
    """``parse_fn``'s result or error text; a ``Path`` is opened as the CLI opens a matches file."""
    try:
        if isinstance(source, Path):
            with cli._open_utf8(source) as f:
                return None, parse_fn(f)
        return None, parse_fn(stream_of(source))
    except ValueError as e:
        return f"{type(e).__name__}: {e}", None
    finally:
        # No process outlives the parse.
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def reference_outcome(source):
    """The reference parser's outcome; where ``csv.reader`` raises in it, the
    error ``ingest_csv`` gives instead: the record's number and the reader's
    message."""
    try:
        return outcome(reference_ingest_csv, source)
    except csv.Error as e:
        records = csv.reader(stream_of(source))
        read = 0
        with pytest.raises(csv.Error):
            for read, _ in enumerate(records, start=1):
                pass
        return f"ValueError: row {read + 1}: {e}", None


def assert_same_as_reference(text, chunk):
    """Either the same error text, or equal registry, columns, quads and summary.

    ``text`` is a file's text or a list of lines.
    """
    ref_error, ref = reference_outcome(text)
    with mock.patch.object(match_data, "_CHUNK_ROWS", chunk):
        error, got = outcome(ingest_csv, text)
        if isinstance(text, str):
            # The same text read from a file, whose bytes are parsed a block at a time.
            with written(text.encode()) as path:
                error_from_file, from_file = outcome(ingest_csv, path)
            assert (error_from_file, columns_of(from_file)) == (error, columns_of(got))
    assert error == ref_error
    if ref_error is not None:
        return ref_error
    (ref_registry, raw), (registry, matches) = ref, got
    assert registry.names == ref_registry.names
    assert len(matches) == len(raw)
    for column, field in (("home", "home"), ("away", "away"), ("home_goals", "home_goals"),
                          ("away_goals", "away_goals"), ("season", "season_index")):
        assert getattr(matches, column).tolist() == [getattr(r, field) for r in raw]
    assert [tuple(Competition)[c] for c in matches.competition] == [r.competition for r in raw]
    assert [matches.season_labels[s - 1] for s in matches.season] == [r.season_label for r in raw]
    assert matches.season_labels == tuple(sorted({r.season_label for r in raw}))

    ref_ds, ds = reference_to_quads(raw, ref_registry), to_quads(matches, registry)
    assert ds.x_max == ref_ds.x_max and ds.registry is registry and ds.matches is matches
    for column in "absd":
        assert getattr(ds, column).tolist() == [getattr(q, column) for q in ref_ds.quads]
    assert dataset_summary(ds) == reference_dataset_summary(ref_ds)
    return None


CHUNKS = st.integers(1, 9)


def plain_lines(n, seed=5):
    """A header and ``n`` records of a file with no quotes, without line ends.

    Goals below 100 and above: both ways of reading them."""
    rng = np.random.default_rng(seed)
    lines = [",".join(CSV_FIELDS)]
    for _ in range(n):
        i, j = rng.choice(12, size=2, replace=False)
        lines.append(f"{2010 + rng.integers(0, 3)}/x,{TAGS[rng.integers(0, 3)]},Club {i},Club {j},"
                     f"{rng.integers(0, 6)},{rng.integers(0, 120)}")
    return lines


#: A block size that cuts the test files into blocks of a few lines.
SMALL_BLOCK = 128


@pytest.fixture(scope="class", params=[match_data._BLOCK_BYTES, SMALL_BLOCK], ids=["whole", "small blocks"])
def block_bytes(request):
    """Run a test class once with each file read in one block, once in blocks of a few lines."""
    with mock.patch.object(match_data, "_BLOCK_BYTES", request.param):
        yield request.param


@pytest.mark.usefixtures("block_bytes")
class TestIngestMatchesReferenceParser:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=csv_texts(), chunk=CHUNKS)
    def test_valid_files(self, text, chunk):
        assert_same_as_reference(text, chunk)

    # Files with no quotes are parsed from their bytes.

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=csv_texts(quoted=False), chunk=st.integers(1, 3))
    def test_valid_unquoted_files(self, text, chunk):
        assert_same_as_reference(text, chunk)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=plain_texts(), chunk=st.integers(1, 3))
    def test_valid_padded_files(self, text, chunk):
        assert_same_as_reference(text, chunk)

    @pytest.mark.parametrize("kind", list(BAD_ROWS))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), chunk=st.integers(1, 3))
    def test_first_bad_row_in_a_padded_file(self, kind, data, chunk):
        text = data.draw(plain_texts(bad_kind=kind), label="text")
        assert assert_same_as_reference(text, chunk) is not None

    @pytest.mark.parametrize("kind", list(BAD_ROWS))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), chunk=st.integers(1, 3))
    def test_first_bad_row_in_an_unquoted_file(self, kind, data, chunk):
        text = data.draw(csv_texts(bad_kind=kind, quoted=False), label="text")
        assert assert_same_as_reference(text, chunk) is not None

    @pytest.mark.parametrize("kind", list(BAD_ROWS))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), chunk=CHUNKS)
    def test_first_bad_row_gives_the_same_error(self, kind, data, chunk):
        text = data.draw(csv_texts(bad_kind=kind), label="text")
        assert assert_same_as_reference(text, chunk) is not None

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5, 2**12])
    @pytest.mark.parametrize("kind", list(BAD_ROWS))
    def test_bad_row_placed_around_chunk_boundaries(self, kind, chunk):
        good = ["2018/2019", "NationalLeague", "Ajax", "PSV", "1", "0"]
        bad = BAD_ROWS[kind](dict(zip(CSV_FIELDS, good)), False)
        bad = bad if isinstance(bad, list) else [bad[name] for name in CSV_FIELDS]
        for at in range(7):
            records = [good] * at + [bad] + [good] * 3
            out = io.StringIO()
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(CSV_FIELDS)
            for i, record in enumerate(records):
                if i == at - 1:
                    writer.writerow(["multi\nline", *good[1:]])  # record number != line number
                    out.write("\n")
                writer.writerow(record)
            error = assert_same_as_reference(out.getvalue(), chunk)
            assert error is not None and error.startswith(f"ValueError: row {at + 2 + 2 * (at > 0)}:")

    def test_more_rows_than_one_chunk(self):
        rng = np.random.default_rng(3)
        names = [f"Club {i:03d}" for i in range(300)]
        lines = [",".join(CSV_FIELDS)]
        for _ in range(3 * match_data._CHUNK_ROWS + 17):
            i, j = rng.choice(300, size=2, replace=False)
            comp = TAGS[rng.integers(0, 3)]
            lines.append(f"{2010 + rng.integers(0, 9)}/x,{comp},{names[i]},{names[j]},"
                         f"{rng.integers(0, 6)},{rng.integers(0, 6)}")
        text = "\n".join(lines) + "\n"
        assert assert_same_as_reference(text, match_data._CHUNK_ROWS) is None
        at = 2 * match_data._CHUNK_ROWS + 5  # the bad record's number
        bad = lines[: at - 1] + ["2010/x,NationalLeague,A,A,1,1"] + lines[at - 1 :]
        error = assert_same_as_reference("\n".join(bad) + "\n", match_data._CHUNK_ROWS)
        assert error == f"ValueError: row {at}: home and away team are both 'A'"

    @pytest.mark.parametrize("chunk", [1, 2, 2**12])
    @pytest.mark.parametrize("failing_at", [1, 3, 5])
    def test_unreadable_input_after_rows_read_first(self, failing_at, chunk):
        # A read error surfaces where the row-by-row parser met it: after
        # the rows before it were checked, before the rows after it.
        lines = [HEADER, "s,NationalLeague,A,B,1,0", "s,NationalLeague,A,B,1,0",
                 "s,NationalLeague,A,A,1,0", "s,NationalLeague,A,B,1,0", "s,NationalLeague,A,B,1,0"]

        def stream():
            for i, line in enumerate(lines):
                if i == failing_at:
                    raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
                yield line + "\n"

        errors = []
        for parse_fn in (reference_ingest_csv, ingest_csv):
            with pytest.raises(ValueError) as info, mock.patch.object(match_data, "_CHUNK_ROWS", chunk):
                parse_fn(stream())
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert (errors[1][0] is UnicodeDecodeError) == (failing_at <= 3)

    # Plain chunks (one record a line, no quotes) are parsed from their
    # UTF-8 text; csv.reader reads any other chunk, and on only to the end of
    # a record that spans its last line.

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 2**12])
    @pytest.mark.parametrize("end", ["\n", "\r\n", ""])
    def test_plain_lines_with_and_without_line_ends(self, end, chunk):
        lines = [line + end for line in plain_lines(20)]
        assert assert_same_as_reference(lines, chunk) is None
        assert assert_same_as_reference("".join(lines) if end else "\n".join(lines), chunk) is None
        lines[-1] = lines[-1].rstrip("\r\n")  # the last line without its end
        assert assert_same_as_reference(lines, chunk) is None
        assert assert_same_as_reference("".join(lines) if end else "\n".join(lines), chunk) is None

    @pytest.mark.parametrize("chunk", [1, 2, 3, 2**12])
    @pytest.mark.parametrize("odd", ["\r", "\n", "\0"])
    @pytest.mark.parametrize("where", ["line end", "team name", "goals"])
    def test_line_break_or_nul_inside_a_line(self, odd, where, chunk):
        # csv.reader may read these or raise (a line break inside an
        # unquoted field, a NUL on Python 3.10); ingest_csv reads what it reads.
        lines = [line + "\n" for line in plain_lines(12)]
        line = lines[6]
        lines[6] = {"line end": line[:-1] + odd,
                    "team name": line.replace("Club ", "Club" + odd, 1),
                    "goals": line[:-2] + odd + line[-2:]}[where]
        assert_same_as_reference(lines, chunk)

    @pytest.mark.parametrize("chunk", [2, 3, 2**12])
    def test_list_item_without_its_line_end(self, chunk):
        # Read as one text, the two items below hold two good records
        # ("...,0" + "8,..." and "2010/x,...,Club\n4,1"); csv.reader reads
        # the first item as a record and refuses the line break in the second.
        lines = [line + "\n" for line in plain_lines(12)]
        lines[5:7] = ["2010/x,NationalLeague,Club 1,Club 2,1,0", "8,2010/x,NationalLeague,Club 3,Club\n4,1\n"]
        assert assert_same_as_reference(lines, chunk).startswith("ValueError: row 7: new-line character")

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 2**12])
    @pytest.mark.parametrize("after", ["X", "Club 3,Club 4,1,0", "\0"])
    def test_list_item_with_text_after_its_line_end(self, after, chunk):
        # The item's commas and line end are in a plain line's order, but
        # csv.reader refuses what follows the line end.  A parse of the last
        # two items as one text would read a good record shifted by one field.
        lines = ["season_label,competition,home_goals,away_goals,home,away\n"]
        lines += [f"2010/x,NationalLeague,1,0,Club {i},Club {i + 1}\n" for i in range(11)]
        lines += ["2010/x,2010/x,NationalLeague,1,0,Club 12\n"]
        lines[11] += after
        assert assert_same_as_reference(lines, chunk).startswith("ValueError: row 12: ")

    @pytest.fixture
    def field_limit_40(self):
        old = csv.field_size_limit(40)
        yield
        csv.field_size_limit(old)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 2**12])
    def test_line_over_the_field_limit(self, field_limit_40, chunk):
        lines = [line + "\n" for line in plain_lines(12)]
        # Every field fits, but the line is longer than the limit.
        lines[4] = f"2010/x,NationalLeague,{'A' * 30},{'B' * 30},1,0\n"
        assert assert_same_as_reference(lines, chunk) is None
        lines[8] = f"2010/x,NationalLeague,{'C' * 41},Club 1,1,0\n"
        assert assert_same_as_reference(lines, chunk) == "ValueError: row 9: field larger than field limit (40)"

    @pytest.mark.parametrize("chunk", [*range(1, 10), 2**12])
    @pytest.mark.parametrize("blank", ["\n", "\r\n", "   \n", "\t\n", ""])
    def test_blank_line_in_a_plain_file(self, blank, chunk):
        lines = [line + "\n" for line in plain_lines(12)]
        lines.insert(7, blank)
        assert assert_same_as_reference(lines, chunk) is None
        lines.insert(10, "2010/x,NationalLeague,Club 1,Club 1,1,0\n")
        assert assert_same_as_reference(lines, chunk) == "ValueError: row 11: home and away team are both 'Club 1'"

    @pytest.mark.parametrize("chunk", [*range(1, 10), 2**12])
    def test_quoted_multi_line_record_after_plain_chunks(self, chunk):
        lines = [line + "\n" for line in plain_lines(30)]
        lines[14:14] = ['2010/x,NationalLeague,"Club\n', ' 1",Club 2,1,0\n']  # record 15
        assert assert_same_as_reference(lines, chunk) is None
        assert assert_same_as_reference("".join(lines), chunk) is None
        lines.insert(20, "2010/x,NationalLeague,Club 3,Club 3,1,0\n")  # record 20
        error = assert_same_as_reference("".join(lines), chunk)
        assert error == "ValueError: row 20: home and away team are both 'Club 3'"

    @pytest.fixture
    def csv_reader_records(self, monkeypatch):
        """The records every ``csv.reader`` in ``match_data`` reads, in order."""
        records = []
        reader = csv.reader

        class CountingReader:
            def __init__(self, *args, **kwargs):
                self.reader = reader(*args, **kwargs)

            def __iter__(self):
                return self

            def __next__(self):
                records.append(next(self.reader))
                return records[-1]

            @property
            def line_num(self):
                return self.reader.line_num

        monkeypatch.setattr(match_data.csv, "reader", CountingReader)
        monkeypatch.setattr(match_data, "_CHUNK_ROWS", 4)
        return records

    def test_plain_file_reads_only_the_header_with_csv_reader(self, csv_reader_records):
        _, matches = parse("".join(line + "\r\n" for line in plain_lines(30)))
        assert len(matches) == 30
        assert csv_reader_records == [list(CSV_FIELDS)]

    def test_text_split_resumes_after_a_chunk_that_is_not_plain(self, csv_reader_records):
        # The text parse takes over again at the first record end at or past
        # the last line of a chunk csv.reader read: here the end of the
        # quoted record 5, which spans lines 5 and 6.
        lines = [line + "\n" for line in plain_lines(30)]
        head, tail = lines[4].split("Club ", 1)
        lines[4:5] = [head + '"Club\n', tail.replace(",", '",', 1)]
        expected = [list(CSV_FIELDS), *csv.reader(lines[1:6])]
        csv_reader_records.clear()
        _, matches = parse("".join(lines))
        assert len(matches) == 30
        assert csv_reader_records == expected


def ingest_on(source, chunk=4, block_bytes=256):
    """``outcome`` of ``ingest_csv``, and the number of lines each ``csv.reader`` read, in order.

    A list of lines or ``bytes`` is written to a temporary file, opened as
    the CLI opens it, and named ``<file>`` in the error text; any other
    source is parsed as it is.  The result is compared as registry names,
    every column and the season labels.  A parse that reads only its
    header with ``csv.reader`` gives ``[1]`` as the line counts.
    """
    reads = []
    reader = csv.reader

    def counting(lines, *args, **kwargs):
        reads.append(0)

        def counted(line):
            reads[-1] += 1
            return line

        return reader(map(counted, lines), *args, **kwargs)

    fds = len(os.listdir("/proc/self/fd"))
    with ExitStack() as patched:
        if isinstance(source, (list, bytes)):
            source = patched.enter_context(written(source if isinstance(source, bytes) else "".join(source).encode()))
        patched.enter_context(mock.patch.object(match_data, "_CHUNK_ROWS", chunk))
        patched.enter_context(mock.patch.object(match_data, "_BLOCK_BYTES", block_bytes))
        patched.enter_context(mock.patch.object(match_data.csv, "reader", counting))
        error, got = outcome(ingest_csv, source)
        if error is not None:
            error = error.replace(str(source), "<file>")
    assert len(os.listdir("/proc/self/fd")) == fds
    return error, columns_of(got), reads


@contextmanager
def recorded_blocks():
    """The data of every call of ``_plain_block`` made inside the block, in order."""
    blocks = []
    plain_block = match_data._plain_block

    def recorded(data, *args):
        blocks.append(data)
        return plain_block(data, *args)

    with mock.patch.object(match_data, "_plain_block", recorded):
        yield blocks


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestBlockIngest:
    """A binary file is parsed a block at a time, with the result and errors of its text.

    With the 256 bytes ``ingest_on`` takes as the block size, the 60
    records of ``lines()`` (2,474 bytes after the header) take ten blocks
    of about six lines.  From the start of a block that ``_plain_block``
    refuses, ``csv.reader`` reads four lines (``ingest_on``'s chunk size),
    or on to the end of a record that spans the fourth, and the blocks go
    on from there.
    """

    def lines(self):
        return [line + "\n" for line in plain_lines(60, seed=7)]  # the header, then records 2..61

    def assert_as_text(self, lines, plain=True, **kwargs):
        """The file of ``lines`` gives the outcome of their text as a ``StringIO``, and the list the reference's.

        ``plain``: whether ``csv.reader`` reads only the header of the file.
        ``kwargs`` go to ``ingest_on``.  Returns the error text.
        """
        from_text = ingest_on(io.StringIO("".join(lines), newline=""), **kwargs)
        from_file = ingest_on(lines, **kwargs)
        assert from_file[:2] == from_text[:2]
        assert (from_file[2] == [1]) == plain, from_file[2]
        assert_same_as_reference(lines, 4)
        return from_text[0]

    def test_blocks_end_at_line_ends(self):
        lines = self.lines()
        with recorded_blocks() as blocks:
            assert ingest_on(lines)[2] == [1]
        assert b"".join(blocks) == "".join(lines[1:]).encode()
        # Each block is one read cut back to its last line end, after the rest of the read before.
        longest = max(map(len, lines))
        assert all(block.endswith(b"\n") and len(block) < 256 + longest for block in blocks) and len(blocks) == 10

    @pytest.mark.parametrize("quoted", [False, True])
    def test_each_byte_is_read_once(self, quoted):
        lines = self.lines()
        if quoted:
            lines[30:31] = ['2011/x,NationalLeague,"Club\n', ' 1",Club 2,1,0\n']
        data = b"\xef\xbb\xbf" + "".join(lines).encode()
        reads = []

        class Recorded(io.BytesIO):
            def read(self, size=-1):
                reads.append(super().read(size))
                return reads[-1]

            def readline(self, size=-1):
                reads.append(super().readline(size))
                return reads[-1]

        with mock.patch.object(match_data, "_BLOCK_BYTES", 256), mock.patch.object(match_data, "_CHUNK_ROWS", 4):
            got = ingest_csv(Recorded(data))
        assert b"".join(reads) == data and max(map(len, reads)) <= 256
        assert columns_of(got) == ingest_on(lines)[1] is not None

    def test_clean_file_is_read_in_blocks(self):
        assert self.assert_as_text(self.lines()) is None
        assert self.assert_as_text(self.lines()[:31]) is None

    @pytest.mark.parametrize("over", [-1, 0, 1])
    def test_file_at_the_block_size(self, over):
        # One read holds every byte after the header from the block size on.
        lines = self.lines()
        body = len("".join(lines[1:]).encode())
        assert self.assert_as_text(lines, block_bytes=body + over) is None

    def test_several_blocks_of_many_lines(self):
        # As many blocks as chunks of _CHUNK_ROWS lines, each with a bad record in reach.
        lines = [line + "\n" for line in plain_lines(3 * 4096 + 17, seed=3)]
        for block_bytes in (4096, match_data._BLOCK_BYTES):
            assert ingest_on(lines, chunk=4096, block_bytes=block_bytes) \
                == ingest_on(io.StringIO("".join(lines)), chunk=4096)
        lines[2 * 4096 + 5] = "2011/x,NationalLeague,Club 3,Club 3,1,0\n"
        error, columns, reads = ingest_on(lines, chunk=4096, block_bytes=4096)
        assert (error, columns) == ("ValueError: row 8198: home and away team are both 'Club 3'", None)
        assert reads[0] == 1 and sum(reads[1:]) <= 4096

    def test_crlf_line_ends_and_a_byte_order_mark(self):
        lines = [line.replace("\n", "\r\n") for line in self.lines()]
        assert self.assert_as_text(lines) is None
        assert ingest_on(lines)[1] == ingest_on(self.lines())[1]
        data = "".join(self.lines()).encode()
        assert ingest_on(b"\xef\xbb\xbf" + data) == ingest_on(data)

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_line_ends_across_reads(self, end):
        # Some of these reads end between the "\r" and the "\n" of a line end
        # (counted below), or just after a lone "\r".  The bad last record
        # shows that no line end is read as two.
        lines = [line.replace("\n", end) for line in self.lines()]
        lines[-1] = f"2011/x,NationalLeague,Club 3,Club 3,1,0{end}"
        expected = ingest_on(io.StringIO("".join(lines), newline=""))[:2]
        assert expected == ("ValueError: row 61: home and away team are both 'Club 3'", None)
        data, split = "".join(lines).encode(), 0
        for block_bytes in range(200, 300):
            assert ingest_on(lines, block_bytes=block_bytes)[:2] == expected
            # The last byte of each read after the header line's.
            split += data[len(lines[0]) - 1 + block_bytes::block_bytes].count(b"\r")
        assert split or end == "\r"

    @pytest.mark.parametrize("bad,message", [
        ("NationalLeague,Club 3,Club 3,1,0", "home and away team are both 'Club 3'"),
        # Two faults in one record: the earlier check is the one reported.
        ("NationalLeague,Club 3,Club 3,x,0", "home and away team are both 'Club 3'"),
        ("NationalLeague,Club 3,Club 4,-1,x", "goals must be integers"),
        ("Cup,,Club 4,1,0", "unknown competition tag 'Cup' "
                            "(expected one of ['ChampionsLeague', 'EuropaLeague', 'NationalLeague'])"),
        ("NationalLeague, \u00a0,Club 4,1,0", "empty team name"),
        ("NationalLeague,Club 3\u00a0, Club 3,1,0", "home and away team are both 'Club 3'"),
    ])
    @pytest.mark.parametrize("at", [1, 30, 31, 60])
    def test_bad_record(self, at, bad, message):
        lines = self.lines()
        lines[at] = f"2011/x,{bad}\n"
        error = self.assert_as_text(lines, plain=False)
        assert error == f"ValueError: row {at + 1}: {message}"

    def test_bad_records_in_two_blocks(self):
        lines = self.lines()
        lines[10] = "2011/x,NationalLeague,Club 3,Club 4,x,0\n"
        lines[45] = "2011/x,NationalLeague,Club 3,Club 3,1,0\n"
        assert self.assert_as_text(lines, plain=False) == "ValueError: row 11: goals must be integers"

    @pytest.mark.parametrize("at", [10, 45])
    @pytest.mark.parametrize("odd,plain", [
        ("\n", True), ("  \r\n", True), (" \n", True), ("\u00a0\n", True), ("X\n", False), ("crlf", True),
        ("no line end", True), ("lone cr", False), ("nul", False),
    ])
    def test_odd_line(self, odd, plain, at):
        lines = self.lines()
        if odd == "crlf":
            lines[at] = lines[at].replace("\n", "\r\n")
        elif odd == "no line end":
            lines[-1] = lines[-1].rstrip("\n")
        elif odd == "lone cr":
            lines[at] = lines[at].replace("Club ", "Club\r", 1)
        elif odd == "nul":
            lines[at] = lines[at].replace("Club ", "Club\0", 1)
        else:
            lines.insert(at, odd)
        error = self.assert_as_text(lines, plain=plain)
        if odd == "lone cr":
            # A lone "\r" ends a line, as it does in the file's text stream.
            assert error == f"ValueError: row {at + 1}: expected 6 fields, got 3"
        elif odd == "X\n":
            assert error == f"ValueError: row {at + 1}: expected 6 fields, got 1"
        else:
            assert error is None

    @pytest.mark.parametrize("odd", ['"', "\r", "\0"])
    @pytest.mark.parametrize("at", [10, 45, 60])
    def test_a_quote_a_lone_cr_or_a_nul_sends_a_chunk_to_csv_reader(self, at, odd):
        # Only the block that holds the odd line goes to csv.reader, four
        # lines at a time; the blocks before and after it parse as plain.
        lines = self.lines()
        lines[at] = lines[at].replace("Club ", f"Club{odd}", 1)
        reads = ingest_on(lines)[2]
        assert reads[0] == 1 and 1 <= len(reads) - 1 <= 2 and max(reads[1:]) <= 4, reads

    def test_padded_fields(self):
        # Fields that differ only in white space str.strip takes off, U+00A0
        # and U+3000 too, are one team, label, tag or goal count.
        lines = self.lines()
        lines[5] = " 2011/x ,\tNationalLeague , Ajax,Club 2 , 1 ,0\n"
        lines[6] = "2011/x,NationalLeague,Ajax\u00a0,\u3000Club 2,01,+0\n"
        lines[7] = "2011/x,NationalLeague,Club 2,Ajax,1,0\n"
        assert self.assert_as_text(lines) is None
        names, labels, columns = ingest_on(lines)[1]
        assert names.count("Ajax") == 1 and not {" Ajax", "Ajax\u00a0", "Club 2 "} & set(names)
        ajax, club_2 = names.index("Ajax") + 1, names.index("Club 2") + 1
        assert columns[0][4:7] == [ajax, ajax, club_2] and columns[1][4:7] == [club_2, club_2, ajax]
        assert columns[2][4:6] == [1, 1] and len(set(columns[4][4:7])) == 1

    @pytest.mark.parametrize("goals", ["05", " 1", "\u00a01", "+1", "1_0", "\u0661", "100", "1 "])
    def test_goal_spellings(self, goals):
        lines = self.lines()
        lines[7] = f"2011/x,NationalLeague,Club 1,Club 2,{goals},{goals}\n"
        assert self.assert_as_text(lines) is None
        assert ingest_on(lines)[1][2][2][6] == int(goals)

    @pytest.mark.parametrize("keys", ["every key", "labels"])
    def test_colliding_keys(self, monkeypatch, keys):
        # Fields of one key are compared byte for byte, so no two are taken
        # as one. With keys from the first word without its fourth byte,
        # the labels 2010/x, 2011/x and 2012/x share one, the names do not.
        mix = {"every key": lambda words, lengths: np.zeros(len(lengths), dtype=np.uint64),
               "labels": lambda words, lengths: (words[0] & ~np.uint64(0xFF << 24)) * np.uint64(0x9E3779B97F4A7C15)}
        monkeypatch.setattr(match_data, "_mix", mix[keys])
        assert self.assert_as_text(self.lines(), plain=False) is None
        if keys == "every key":
            assert sum(ingest_on(self.lines())[2]) == 61  # every line goes to csv.reader

    @pytest.mark.parametrize("at", [10, 250, 450])
    def test_byte_not_utf8(self, at):
        # Of these 600 records (26 KB), line 250 is past the first 8 KB
        # that a text reader decodes at once.  No line from the bad byte's
        # on reaches csv.reader.
        lines = [line + "\n" for line in plain_lines(600, seed=7)]
        data = "".join(lines).encode()
        offset = len("".join(lines[:at]).encode()) + 5
        data = data[:offset] + b"\xff" + data[offset + 1:]
        error, columns, reads = ingest_on(data, block_bytes=match_data._BLOCK_BYTES)
        assert ingest_on(data)[:2] == (error, None)
        assert error == (f"ValueError: <file>: not valid UTF-8 ('utf-8' codec can't decode byte 0xff "
                         f"at byte offset {offset}, line {at + 1}: invalid start byte)")
        assert sum(reads) <= at

    @pytest.mark.parametrize("bad_at", [5, 9])
    @pytest.mark.parametrize("byte_at", [10, 250])
    def test_bad_record_before_a_byte_not_utf8(self, bad_at, byte_at):
        # The record is named, in the bad byte's block or before it.
        lines = [line + "\n" for line in plain_lines(600, seed=7)]
        lines[byte_at - bad_at] = "2011/x,NationalLeague,Club 3,Club 3,1,0\n"
        data = "".join(lines).encode()
        offset = len("".join(lines[:byte_at]).encode()) + 5
        data = data[:offset] + b"\xff" + data[offset + 1:]
        expected = f"ValueError: row {byte_at - bad_at + 1}: home and away team are both 'Club 3'"
        for block_bytes in (256, match_data._BLOCK_BYTES):
            assert ingest_on(data, block_bytes=block_bytes)[:2] == (expected, None)

    @pytest.mark.parametrize("at", [10, 45])
    def test_quoted_field(self, at):
        lines = self.lines()
        fields = lines[at].split(",")
        fields[2] = f'"{fields[2]}"'
        lines[at] = ",".join(fields)
        assert self.assert_as_text(lines, plain=False) is None
        lines[at + 5:at + 6] = ['2011/x,NationalLeague,"Club\n', ' 1",Club 2,1,0\n']
        assert self.assert_as_text(lines, plain=False) is None

    def test_quoted_header(self):
        # Only the header goes to csv.reader.
        lines = self.lines()
        lines[0] = lines[0].replace("home,", '"home",')
        assert self.assert_as_text(lines) is None

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_quoted_record_across_a_block_cut(self, end):
        # Where a block ends inside the two-line record, csv.reader reads on
        # into the next block to finish it, and the blocks go on after it.
        lines = [line.replace("\n", end) for line in self.lines()]
        lines[30:31] = [f'2011/x,NationalLeague,"Club{end}', f' 1",Club 2,1,0{end}']
        cut_inside = 0
        for block_bytes in range(200, 260):
            assert self.assert_as_text(lines, plain=False, block_bytes=block_bytes) is None
            with recorded_blocks() as blocks:
                ingest_on(lines, block_bytes=block_bytes)
            cut_inside += any(block.endswith(f'"Club{end}'.encode()) for block in blocks)
        assert cut_inside

    @pytest.mark.parametrize("quote_at", [2, 45])
    def test_quoted_file_is_parsed_while_streaming(self, quote_at):
        # A bad record in the first chunk is raised before more than one
        # chunk after the header is read from the text stream, wherever the
        # quote is.
        lines = self.lines()
        fields = lines[quote_at].split(",")
        fields[2] = f'"{fields[2]}"'
        lines[quote_at] = ",".join(fields)
        lines[3] = "2011/x,NationalLeague,Club 3,Club 3,1,0\n"
        assert self.assert_as_text(lines, plain=False) == "ValueError: row 4: home and away team are both 'Club 3'"

        class Counting(io.TextIOWrapper):
            lines_read = 0

            def __next__(self):
                line = super().__next__()
                self.lines_read += 1
                return line

        with written("".join(lines).encode()) as path, \
                Counting(open(path, "rb"), encoding="utf-8-sig", newline="") as stream, \
                mock.patch.object(match_data, "_CHUNK_ROWS", 4), \
                mock.patch.object(match_data, "_BLOCK_BYTES", 256):
            with pytest.raises(ValueError, match="^row 4: home and away team are both 'Club 3'$"):
                ingest_csv(stream)
            assert stream.lines_read <= 1 + 4

    @pytest.mark.parametrize("bad_at", [None, 10])
    def test_read_error_in_a_stream(self, bad_at):
        # A stream of text lines, and a bad record before the read error still comes first.
        lines = self.lines()
        if bad_at is not None:
            lines[bad_at] = "2011/x,NationalLeague,Club 3,Club 3,1,0\n"

        class Stream:
            def __iter__(self):
                for i, line in enumerate(lines):
                    if i == 50:
                        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
                    yield line

        error = ingest_on(Stream())[:2]
        assert error == ("ValueError: row 11: home and away team are both 'Club 3'" if bad_at else
                         "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff in position 0: "
                         "invalid start byte", None)

    @pytest.mark.parametrize("bad_at", [None, 10, 45])
    def test_read_error_in_a_file(self, bad_at):
        # The records before the failed read are checked first: a bad
        # record in a block read before it is named.
        lines = self.lines()
        if bad_at is not None:
            lines[bad_at] = "2011/x,NationalLeague,Club 3,Club 3,1,0\n"
        data = "".join(lines).encode()
        failing_at = len("".join(lines[:40]).encode())

        class Failing(io.BytesIO):
            def read(self, size=-1):
                if self.tell() + size > failing_at:
                    raise OSError(5, "Input/output error")
                return super().read(size)

        with mock.patch.object(match_data, "_BLOCK_BYTES", 256), mock.patch.object(match_data, "_CHUNK_ROWS", 4), \
                pytest.raises(ValueError if bad_at == 10 else OSError) as info:
            ingest_csv(Failing(data))
        assert str(info.value) == ("row 11: home and away team are both 'Club 3'" if bad_at == 10 else
                                   "[Errno 5] Input/output error")

    def test_short_reads(self):
        # A read that returns fewer bytes than it asked for, as a pipe's may, is not the end of the file.
        class Short(io.BytesIO):
            def read(self, size=-1):
                return super().read(min(size, 100))

        lines = self.lines()
        lines[30:31] = ['2011/x,NationalLeague,"Club\n', ' 1",Club 2,1,0\n']
        with mock.patch.object(match_data, "_BLOCK_BYTES", 256), mock.patch.object(match_data, "_CHUNK_ROWS", 4):
            got = ingest_csv(Short("".join(lines).encode()))
        assert columns_of(got) == ingest_on(lines)[1] is not None

    def test_pipe_and_file_descriptor_parse_in_blocks(self, tmp_path):
        # /dev/stdin is a pipe, or a file when redirected from one.
        lines = self.lines()
        path = tmp_path / "matches.csv"
        path.write_text("".join(lines), encoding="utf-8")

        def parsed(source):
            with recorded_blocks() as blocks:
                return ingest_on(source), blocks

        from_file = parsed(path)
        assert from_file[0][2] == [1] and len(from_file[1]) == 10
        fd = os.open(path, os.O_RDONLY)
        try:
            assert parsed(Path(f"/dev/fd/{fd}")) == from_file
        finally:
            os.close(fd)
        r, w = os.pipe()
        try:
            os.write(w, "".join(lines).encode())  # less than a pipe holds
            os.close(w)
            assert parsed(Path(f"/dev/fd/{r}")) == from_file
        finally:
            os.close(r)
        # A list and a text stream are read by their lines.
        assert ingest_on(iter(lines)) == ingest_on(io.StringIO("".join(lines))) == from_file[0]

    @pytest.mark.parametrize("how", ["latin-1", "lines end at \\r", "read from"])
    def test_other_text_files_parse_from_their_lines(self, how, tmp_path):
        # A text file is an iterable of lines, whatever its encoding, line
        # ends or place.
        lines = [line.replace("\n", "\r\n") for line in self.lines()]
        lines[5] = lines[5].replace("Club 1,", "Émile,")
        path = tmp_path / "matches.csv"
        path.write_bytes((("# made by hand\n" if how == "read from" else "") + "".join(lines)).encode())

        def opened():
            f = open(path, encoding="latin-1" if how == "latin-1" else "utf-8",
                     newline="\r" if how == "lines end at \\r" else "")
            if how == "read from":
                f.readline()
            return f

        with opened() as f:
            from_lines = ingest_on(iter(list(f)))
        with opened() as f:
            assert ingest_on(f) == from_lines

    def test_line_longer_than_a_block(self):
        assert ingest_on(self.lines(), block_bytes=8) == ingest_on(iter(self.lines()))
