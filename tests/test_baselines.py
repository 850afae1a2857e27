import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    RawMatch,
    as_matches,
    reference_cat_features,
    reference_season_stats,
    reference_sum_features,
)
from steve.baselines import (
    SEASON_STATS_COLUMNS,
    cat_feature_columns,
    cat_features,
    match_tally,
    season_stats,
    sum_features,
)
from steve.match_data import Competition, TeamRegistry

NAT = Competition.NATIONAL_LEAGUE
CL = Competition.CHAMPIONS_LEAGUE
EL = Competition.EUROPA_LEAGUE


def match(home, away, hg, ag, season, comp=NAT):
    return RawMatch(
        home=home,
        away=away,
        home_goals=hg,
        away_goals=ag,
        season_label=f"s{season}",
        season_index=season,
        competition=comp,
    )


@pytest.fixture
def registry():
    return TeamRegistry(["Ajax", "Breda", "Cambuur", "Den Haag"])


class TestSeasonStats:
    def test_column_names(self):
        assert len(SEASON_STATS_COLUMNS) == 18
        assert SEASON_STATS_COLUMNS[0] == "national_wins"
        assert SEASON_STATS_COLUMNS[-3:] == (
            "goals_per_match",
            "goals_per_national_match",
            "goals_per_international_match",
        )

    def test_no_matches_all_zero(self, registry):
        raw = [match(2, 3, 1, 0, 1)]
        np.testing.assert_array_equal(season_stats(as_matches(raw), registry, 1, 1), np.zeros(18))

    def test_hand_counted_example(self, registry):
        # team 1: two national matches (3-1 win, 2-2 draw), one CL match (0-1 loss)
        raw = [
            match(1, 2, 3, 1, 1),
            match(3, 1, 2, 2, 1),
            match(1, 4, 0, 1, 1, comp=CL),
        ]
        vec = season_stats(as_matches(raw), registry, 1, 1)
        np.testing.assert_allclose(vec[0:5], [1, 1, 0, 5, 3])  # national block
        np.testing.assert_allclose(vec[5:10], [0, 0, 1, 0, 1])  # champions league block
        np.testing.assert_allclose(vec[10:15], np.zeros(5))  # europa league block
        np.testing.assert_allclose(vec[15:], [5 / 3, 5 / 2, 0 / 1])

    def test_duplicating_matches_doubles_counts_keeps_ratios(self, registry):
        raw = [
            match(1, 2, 3, 1, 1),
            match(3, 1, 2, 2, 1),
            match(1, 4, 0, 1, 1, comp=CL),
        ]
        single = season_stats(as_matches(raw), registry, 1, 1)
        double = season_stats(as_matches(raw + raw), registry, 1, 1)
        np.testing.assert_allclose(double[:15], 2 * single[:15])
        np.testing.assert_allclose(double[15:], single[15:])

    def test_block_counts_sum_to_match_count(self, registry):
        rng = np.random.default_rng(0)
        raw = []
        for _ in range(40):
            home, away = rng.choice(4, size=2, replace=False) + 1
            comp = [NAT, CL, EL][rng.integers(0, 3)]
            raw.append(match(int(home), int(away), int(rng.integers(0, 4)), int(rng.integers(0, 4)), 1, comp))
        for team in range(1, 5):
            vec = season_stats(as_matches(raw), registry, team, 1)
            for block, comp in zip(range(3), (NAT, CL, EL)):
                played = sum(
                    1
                    for m in raw
                    if m.competition is comp and team in (m.home, m.away)
                )
                assert vec[5 * block] + vec[5 * block + 1] + vec[5 * block + 2] == played

    def test_permutation_invariant(self, registry):
        raw = [
            match(1, 2, 3, 1, 1),
            match(3, 1, 2, 2, 1),
            match(1, 4, 0, 1, 1, comp=CL),
        ]
        np.testing.assert_array_equal(
            season_stats(as_matches(raw), registry, 1, 1),
            season_stats(as_matches(list(reversed(raw))), registry, 1, 1),
        )

    def test_invalid_team_or_season(self, registry):
        with pytest.raises(ValueError):
            season_stats(as_matches([]), registry, 9, 1)
        with pytest.raises(ValueError):
            season_stats(as_matches([]), registry, 1, 0)


class TestCatFeatures:
    def test_x1_equals_season_stats(self, registry):
        raw = [match(1, 2, 2, 0, 3), match(2, 1, 1, 1, 2)]
        np.testing.assert_array_equal(
            cat_features(as_matches(raw), registry, 1, 3, 1), season_stats(as_matches(raw), registry, 1, 3)
        )

    def test_x3_is_54_wide_newest_first(self, registry):
        raw = [match(1, 2, 2, 0, 3), match(2, 1, 1, 1, 2), match(1, 3, 0, 1, 1)]
        vec = cat_features(as_matches(raw), registry, 1, 3, 3)
        assert vec.shape == (54,)
        np.testing.assert_array_equal(vec[:18], season_stats(as_matches(raw), registry, 1, 3))
        np.testing.assert_array_equal(vec[18:36], season_stats(as_matches(raw), registry, 1, 2))
        np.testing.assert_array_equal(vec[36:], season_stats(as_matches(raw), registry, 1, 1))

    def test_absent_season_is_zero_block(self, registry):
        raw = [match(1, 2, 2, 0, 2)]  # nothing in season 1
        vec = cat_features(as_matches(raw), registry, 1, 2, 2)
        np.testing.assert_array_equal(vec[18:], np.zeros(18))

    def test_window_below_season_one_rejected(self, registry):
        with pytest.raises(ValueError):
            cat_features(as_matches([]), registry, 1, 2, 3)

    def test_column_names(self):
        cols = cat_feature_columns(2)
        assert len(cols) == 36
        assert cols[0] == "s0_national_wins"
        assert cols[18] == "s1_national_wins"


class TestSumFeatures:
    def test_x1_equals_season_stats(self, registry):
        raw = [match(1, 2, 2, 0, 2)]
        np.testing.assert_array_equal(
            sum_features(as_matches(raw), registry, 1, 2, 1), season_stats(as_matches(raw), registry, 1, 2)
        )

    def test_identical_seasons_double(self, registry):
        raw_one = [match(1, 2, 3, 1, 1), match(1, 3, 1, 1, 1, comp=CL)]
        raw_two = [match(1, 2, 3, 1, 2), match(1, 3, 1, 1, 2, comp=CL)]
        total = sum_features(as_matches(raw_one + raw_two), registry, 1, 2, 2)
        np.testing.assert_allclose(total, 2 * season_stats(as_matches(raw_one), registry, 1, 1))

    def test_hand_summed_two_seasons(self, registry):
        raw = [
            match(1, 2, 3, 1, 1),             # season 1: win 3-1
            match(3, 1, 2, 0, 2),             # season 2: loss 0-2
            match(1, 4, 2, 2, 2, comp=EL),    # season 2: EL draw 2-2
        ]
        literal = sum_features(as_matches(raw), registry, 1, 2, 2)
        by_hand = season_stats(as_matches(raw), registry, 1, 1) + season_stats(as_matches(raw), registry, 1, 2)
        np.testing.assert_allclose(literal, by_hand)

    def test_ratios_are_summed_literally(self, registry):
        raw = [
            match(1, 2, 3, 1, 1),   # 3 goals in 1 match -> ratio 3
            match(1, 3, 1, 0, 2),   # 1 goal in 1 match -> ratio 1
        ]
        literal = sum_features(as_matches(raw), registry, 1, 2, 2)
        by_hand = season_stats(as_matches(raw), registry, 1, 1) + season_stats(as_matches(raw), registry, 1, 2)
        assert literal[15] == pytest.approx(4.0)      # 3 + 1 summed
        np.testing.assert_allclose(literal, by_hand)


# ---------------------------------------------------------------------------
# The one-pass tally against the per-team scan it replaced
# (``helpers.reference_*``), compared with ``np.array_equal``.


def random_raw(rng, n_teams, n_matches, seasons):
    comps = (NAT, CL, EL)
    raw = []
    for _ in range(n_matches):
        home, away = rng.choice(n_teams, size=2, replace=False) + 1
        raw.append(match(int(home), int(away), int(rng.integers(0, 6)), int(rng.integers(0, 6)),
                         int(rng.integers(1, seasons + 1)), comps[rng.integers(0, 3)]))
    return raw


@st.composite
def leagues(draw):
    n_teams = draw(st.integers(2, 6))
    seasons = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = random_raw(rng, n_teams, draw(st.integers(0, 40)), seasons)
    registry = TeamRegistry(f"t{i}" for i in range(1, n_teams + 1))
    return raw, registry, seasons


def check_against_reference(raw, registry, newest, x):
    """Every feature of every team, one call per team and one for all teams."""
    teams = range(1, registry.m + 1)
    cases = [
        (season_stats, reference_season_stats, (newest,)),
        (cat_features, reference_cat_features, (newest, x)),
        (sum_features, reference_sum_features, (newest, x)),
    ]
    matches = as_matches(raw)
    for fast, slow, args in cases:
        expected = np.array([slow(raw, registry, t, *args) for t in teams])
        for t in teams:
            assert np.array_equal(fast(matches, registry, t, *args), expected[t - 1])
        assert np.array_equal(fast(matches, registry, teams, *args), expected)


class TestTallyMatchesReferenceScan:
    @settings(max_examples=80, deadline=None)
    @given(league=leagues(), data=st.data())
    def test_random_leagues(self, league, data):
        raw, registry, seasons = league
        newest = data.draw(st.integers(1, seasons + 1), label="newest")  # may pass the data
        x = data.draw(st.integers(1, newest), label="x")
        check_against_reference(raw, registry, newest, x)

    @pytest.mark.parametrize("newest, x", [(9, 3), (9, 9), (5, 2)])
    def test_league_of_sixty_teams(self, newest, x):
        raw = random_raw(np.random.default_rng(41), 60, 3000, 9)
        check_against_reference(raw, TeamRegistry(f"t{i}" for i in range(1, 61)), newest, x)

    def test_tally_shape_and_totals(self, registry):
        raw = [match(1, 2, 3, 1, 1), match(3, 1, 2, 2, 2, comp=CL), match(2, 4, 0, 1, 3, comp=EL)]
        tally = match_tally(as_matches(raw), registry.m, 2)  # season 3 is past the newest
        assert tally.shape == (4, 3, 3, 5)
        assert tally[:, 0].sum() == 0
        assert tally[..., :3].sum() == 2 * 2  # two matches, one result per side
        assert tally[..., 3].sum() == tally[..., 4].sum() == 3 + 1 + 2 + 2

    def test_team_list_rejects_bad_ids(self, registry):
        with pytest.raises(ValueError):
            cat_features(as_matches([]), registry, [1, 9], 2, 1)
        with pytest.raises(ValueError):
            season_stats(as_matches([]), registry, [1, True], 1)
