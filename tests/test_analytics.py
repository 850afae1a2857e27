import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    init_model,
    random_league,
    reference_head_to_head,
    reference_most_similar,
    reference_rank_teams,
    reference_winner_distance,
)
from steve import analytics
from steve.analytics import (
    Outcome,
    format_aligned,
    head_to_head,
    most_similar,
    rank_teams,
    ranking_records,
    similarity_records,
    winner_distance,
)
from steve.match_data import TeamRegistry
from steve.model_io import UNIT_NORM_TOL
from steve.trainer import EmbeddingModel, TrainConfig, train


def manual_model(phi_rows, psi_rows=None, names=None):
    phi = np.asarray(phi_rows, dtype=np.float64)
    psi = phi.copy() if psi_rows is None else np.asarray(psi_rows, dtype=np.float64)
    names = names or [f"T{i}" for i in range(1, len(phi) + 1)]
    registry = TeamRegistry(names)
    return EmbeddingModel(np.concatenate([phi, psi]), registry, 1)


class TestWinnerDistance:
    def test_identity_zero(self):
        model = init_model(4, 3, 0)
        assert winner_distance(model, 2, 2) == 0.0

    def test_hand_value(self):
        model = manual_model([[1, 0], [0, 1]])
        assert winner_distance(model, 1, 2) == pytest.approx(2.0)

    def test_symmetry(self):
        model = init_model(8, 5, 1)
        for a in range(1, 9):
            for b in range(1, 9):
                assert winner_distance(model, a, b) == winner_distance(model, b, a)

    def test_invalid_id(self):
        with pytest.raises(ValueError):
            winner_distance(init_model(3, 2, 0), 1, 4)


class TestMostSimilar:
    def test_hand_computed_neighbor(self):
        model = manual_model([[1, 0], [0.8, 0.6], [0, 1]], names=["A", "B", "C"])
        result = most_similar(model, 1, 1)
        assert result[0][0] == 2
        assert result[0][1] == pytest.approx(0.4)

    def test_k_max_returns_everyone(self):
        model = init_model(6, 3, 2)
        result = most_similar(model, 3, 5)
        assert sorted(t for t, _ in result) == [1, 2, 4, 5, 6]

    def test_sorted_ascending(self):
        model = init_model(10, 4, 3)
        result = most_similar(model, 1, 9)
        dists = [d for _, d in result]
        assert dists == sorted(dists)

    def test_distances_match_winner_distance(self):
        model = init_model(10, 4, 4)
        for team, dist in most_similar(model, 2, 9):
            assert dist == winner_distance(model, 2, team)

    def test_ties_broken_by_name(self):
        # two teams share the exact same winner vector
        model = manual_model(
            [[1, 0], [0, 1], [0, 1]], names=["Query", "Zebra", "Aardvark"]
        )
        result = most_similar(model, 1, 2)
        assert [model.registry.name_of(t) for t, _ in result] == ["Aardvark", "Zebra"]

    def test_k_out_of_range(self):
        model = init_model(4, 3, 0)
        with pytest.raises(ValueError):
            most_similar(model, 1, 0)
        with pytest.raises(ValueError):
            most_similar(model, 1, 4)


class TestHeadToHead:
    def test_hand_example(self):
        model = manual_model(
            [[1, 0], [0, 1]],
            [[0, 1], [0.6, 0.8]],
        )
        result = head_to_head(model, 1, 2)
        assert result.alpha_score == pytest.approx(0.80)
        assert result.beta_score == pytest.approx(0.0)
        assert result.outcome is Outcome.B_WINS

    def test_swap_antisymmetry(self):
        model = init_model(6, 4, 5)
        for a in range(1, 7):
            for b in range(a + 1, 7):
                fwd = head_to_head(model, a, b)
                rev = head_to_head(model, b, a)
                assert fwd.alpha_score == rev.beta_score
                assert fwd.beta_score == rev.alpha_score
                if fwd.outcome is Outcome.A_WINS:
                    assert rev.outcome is Outcome.B_WINS
                elif fwd.outcome is Outcome.B_WINS:
                    assert rev.outcome is Outcome.A_WINS
                else:
                    assert rev.outcome is Outcome.TIE

    def test_psi_equal_phi_gives_tie(self):
        model = manual_model([[1, 0], [0, 1], [0.6, 0.8]])  # psi defaults to phi copy
        for a in range(1, 4):
            for b in range(a + 1, 4):
                assert head_to_head(model, a, b).outcome is Outcome.TIE

    def test_same_team_rejected(self):
        with pytest.raises(ValueError):
            head_to_head(init_model(3, 2, 0), 2, 2)


class TestRankTeams:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_victories_conserved_on_trained_random_leagues(self, data):
        n_teams = data.draw(st.integers(2, 40), label="teams")
        ds = random_league(
            n_teams,
            data.draw(st.integers(1, 400), label="matches"),
            data.draw(st.integers(1, 5), label="seasons"),
            seed=data.draw(st.integers(0, 2**32 - 1), label="league seed"),
            draw_share=data.draw(st.sampled_from([0.0, 0.25, 1.0]), label="draw share"),
        )
        cfg = TrainConfig(
            delta=data.draw(st.sampled_from([1, 2, 8, 16]), label="delta"),
            batch_size=data.draw(st.integers(1, 64), label="batch"),
            learning_rate=data.draw(st.sampled_from([1e-4, 1e-2, 0.5]), label="learning rate"),
            epochs=data.draw(st.integers(1, 3), label="epochs"),
            seed=data.draw(st.integers(0, 1000), label="train seed"),
        )
        model = train(ds, cfg)
        order = data.draw(st.permutations(range(1, n_teams + 1)), label="team order")
        teams = order[: data.draw(st.integers(2, n_teams), label="subset size")]
        entries = rank_teams(model, teams)
        n = len(teams)
        assert sorted(e.team for e in entries) == sorted(teams)
        assert sum(e.victories for e in entries) == n * (n - 1) / 2
        assert all(0 <= e.victories <= n - 1 for e in entries)

    def test_two_teams(self):
        model = init_model(5, 4, 6)
        entries = rank_teams(model, [1, 2])
        assert sorted(e.victories for e in entries) == [0.0, 1.0]
        assert [e.rank for e in entries] == [1, 2]

    def test_three_team_transitive_brute_force(self):
        model = init_model(7, 4, 8)
        teams = [1, 2, 3]
        # independent recount of pairwise outcomes
        expected = {t: 0.0 for t in teams}
        for i, a in enumerate(teams):
            for b in teams[i + 1 :]:
                r = head_to_head(model, a, b)
                if r.outcome is Outcome.A_WINS:
                    expected[a] += 1
                elif r.outcome is Outcome.B_WINS:
                    expected[b] += 1
                else:
                    expected[a] += 0.5
                    expected[b] += 0.5
        entries = rank_teams(model, teams)
        assert {e.team: e.victories for e in entries} == expected
        assert [e.victories for e in entries] == sorted(expected.values(), reverse=True)

    def test_planted_transitive_victories(self):
        # each loser vector sits near the winner vectors of the teams that beat it
        r = np.sqrt(0.5)
        model = manual_model(
            [[1, 0], [0, 1], [-1, 0]],
            [[0, -1], [1, 0], [r, r]],
        )
        for a, b in [(1, 2), (1, 3), (2, 3)]:
            assert head_to_head(model, a, b).outcome is Outcome.A_WINS
        entries = rank_teams(model, [1, 2, 3])
        assert [(e.team, e.victories) for e in entries] == [(1, 2.0), (2, 1.0), (3, 0.0)]

    def test_tie_awards_half(self):
        model = manual_model([[1, 0], [0, 1]])  # psi == phi forces alpha == beta
        entries = rank_teams(model, [1, 2])
        assert [e.victories for e in entries] == [0.5, 0.5]

    def test_permutation_invariant(self):
        model = init_model(8, 4, 9)
        teams = list(range(1, 9))
        base = {(e.team, e.victories, e.rank) for e in rank_teams(model, teams)}
        shuffled = [5, 3, 8, 1, 7, 2, 6, 4]
        assert {(e.team, e.victories, e.rank) for e in rank_teams(model, shuffled)} == base

    @pytest.mark.parametrize("n", [2, 5, 11])
    def test_victory_conservation(self, n):
        model = init_model(12, 4, n)
        entries = rank_teams(model, list(range(1, n + 1)))
        assert sum(e.victories for e in entries) == n * (n - 1) / 2

    def test_rank_sorting_ties_by_name(self):
        model = manual_model(
            [[1, 0], [0, 1], [0.6, 0.8]],
            names=["Zebra", "Aardvark", "Mongoose"],
        )  # psi == phi: every match ties, all victories equal
        entries = rank_teams(model, [1, 2, 3])
        assert [model.registry.name_of(e.team) for e in entries] == [
            "Aardvark",
            "Mongoose",
            "Zebra",
        ]
        assert [e.rank for e in entries] == [1, 2, 3]

    def test_duplicate_and_unknown_rejected(self):
        model = init_model(4, 3, 0)
        with pytest.raises(ValueError):
            rank_teams(model, [1, 1, 2])
        with pytest.raises(ValueError):
            rank_teams(model, [1, 9])
        with pytest.raises(ValueError):
            rank_teams(model, [1])


class TestRendering:
    def test_records_and_table(self):
        model = manual_model([[1, 0], [0, 1], [0.6, 0.8]], names=["Alpha", "Beta", "Gamma"])
        sim = similarity_records(model, most_similar(model, 1, 2))
        assert list(sim[0]) == ["team", "distance"]
        rank = ranking_records(model, rank_teams(model, [1, 2, 3]))
        assert {r["team"] for r in rank} == {"Alpha", "Beta", "Gamma"}
        text = format_aligned(rank, ("rank", "team", "victories"))
        lines = text.splitlines()
        assert lines[0].startswith("rank")
        assert len(lines) == 2 + len(rank)


# ---------------------------------------------------------------------------
# The array kernel against the one-pair-at-a-time loops it replaced
# (``helpers.reference_*``), compared with ``==`` on every float.

MODEL_KINDS = (
    "random", "psi equals phi", "duplicated rows", "coarse", "psi ulps from phi", "off unit norm", "underflow",
)


@st.composite
def kernel_models(draw, min_teams=2, max_teams=12, kinds=MODEL_KINDS):
    """A model of one of ``kinds``, with names out of id order.

    "psi equals phi" sets ``psi = phi`` on some rows (pairs of such teams tie
    exactly), "duplicated rows" copies whole teams onto others (equal
    distances and equal victories), and "coarse" rounds rows onto a grid of
    quarter steps before normalizing (many exact ties of every kind).  The
    near ties: "psi ulps from phi" moves ``psi`` a few ulps from ``phi`` on
    some rows, "off unit norm" sets ``psi = phi`` on some rows and then
    scales rows by up to ``UNIT_NORM_TOL`` (as ``load_model`` accepts), and
    "underflow" scales some or all rows to about 1e-160, whose squares are
    subnormal.
    """
    m = draw(st.integers(min_teams, max_teams))
    delta = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(kinds))
    names = draw(st.lists(st.text("abAB", min_size=1, max_size=4), min_size=m, max_size=m, unique=True))
    model = init_model(m, delta, draw(st.integers(0, 2**32 - 1)), registry=TeamRegistry(names))
    rows = st.lists(st.integers(0, m - 1), max_size=m)
    if kind == "psi equals phi":
        picked = draw(rows)
        model.psi[picked] = model.phi[picked]
    elif kind == "duplicated rows":
        for src, dst in zip(draw(rows), draw(rows)):
            model.phi[dst], model.psi[dst] = model.phi[src], model.psi[src]
    elif kind == "coarse":
        grid = np.round(model.theta * 4) / 4
        grid[np.all(grid == 0, axis=1), 0] = 1.0
        model.theta[:] = grid / np.linalg.norm(grid, axis=1, keepdims=True)
    elif kind == "psi ulps from phi":
        picked = draw(rows)
        ulps = draw(st.lists(st.integers(-4, 4), min_size=delta, max_size=delta))
        model.psi[picked] = model.phi[picked] + np.array(ulps) * np.spacing(model.phi[picked])
    elif kind == "off unit norm":
        picked = draw(rows)
        model.psi[picked] = model.phi[picked]
        tol = UNIT_NORM_TOL
        factors = st.sampled_from([1.0, 1 - tol, 1 + tol, 1 - 2**-52, 1 + 2**-52, 1 + tol / 3])
        model.theta[:] *= np.array(draw(st.lists(factors, min_size=2 * m, max_size=2 * m)))[:, None]
    elif kind == "underflow":
        picked = slice(None) if draw(st.booleans()) else draw(st.lists(st.integers(0, 2 * m - 1)))
        model.theta[picked] *= draw(st.sampled_from([1e-155, 1e-160, 1e-162]))
    return model


def ranking_tuples(entries):
    return [(e.team, e.victories, e.rank) for e in entries]


def check_kernel_against_reference(model, teams):
    """Rankings, similarity lists and head-to-head scores equal the loops'."""
    assert ranking_tuples(rank_teams(model, teams)) == ranking_tuples(reference_rank_teams(model, teams))

    rows = np.asarray(teams) - 1
    phi, psi = model.phi[rows], model.psi[rows]
    n, step = len(teams), analytics._block_rows(len(teams), model.delta)
    blocks = [analytics._cross_block(phi, psi, lo, min(lo + step, n)) for lo in range(0, n, step)]
    alpha = np.concatenate([a for a, _ in blocks])
    beta = np.concatenate([b for _, b in blocks])
    for i, a in enumerate(teams):
        for j, b in enumerate(teams):
            if i == j:
                continue
            result, expected = head_to_head(model, a, b), reference_head_to_head(model, a, b)
            assert (result.alpha_score, result.beta_score) == (alpha[i, j], beta[i, j])
            assert result == expected

    for team in teams:
        full = most_similar(model, team, model.m - 1)
        assert full == reference_most_similar(model, team, model.m - 1)
        assert most_similar(model, team, 1) == full[:1]
        for other, dist in full:
            assert dist == winner_distance(model, team, other) == reference_winner_distance(model, team, other)


#: Team-list lengths around the row block: (block rows, n).
BLOCK_CASES = [(4, 2), (4, 3), (4, 4), (4, 5), (4, 9), (1, 3)]


class TestKernelMatchesReferenceLoop:
    @pytest.mark.parametrize("block, n", BLOCK_CASES)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_block_edges(self, block, n, data):
        model = data.draw(kernel_models(min_teams=n, max_teams=n + 3))
        teams = data.draw(st.permutations(range(1, model.m + 1)))[:n]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analytics, "_BLOCK_ELEMENTS", block * n * model.delta)
            assert analytics._block_rows(n, model.delta) == block
            check_kernel_against_reference(model, teams)

    @settings(max_examples=60, deadline=None)
    @given(model=kernel_models())
    def test_default_block(self, model):
        check_kernel_against_reference(model, list(range(1, model.m + 1)))

    def test_desk_shaped_trained_model(self):
        ds = random_league(378, 12_000, 9, seed=41)
        model = train(ds, TrainConfig())
        teams = list(range(1, model.m + 1))
        assert analytics._block_rows(len(teams), model.delta) < len(teams)
        assert ranking_tuples(rank_teams(model, teams)) == ranking_tuples(reference_rank_teams(model, teams))
        for team in (1, 50, 378):
            assert most_similar(model, team, model.m - 1) == reference_most_similar(model, team, model.m - 1)
        rows = np.asarray(teams) - 1
        alpha, beta = analytics._cross_block(model.phi[rows], model.psi[rows], 0, model.m)
        for a, b in ((1, 2), (2, 1), (17, 300), (378, 5)):
            result = head_to_head(model, a, b)
            assert (result.alpha_score, result.beta_score) == (alpha[a - 1, b - 1], beta[a - 1, b - 1])
            assert result == reference_head_to_head(model, a, b)

    @settings(max_examples=40, deadline=None)
    @given(model=kernel_models(), data=st.data())
    def test_nan_rows_tie_as_in_the_loop(self, model, data):
        picked = data.draw(st.lists(st.integers(0, 2 * model.m - 1), min_size=1, max_size=3))
        model.theta[picked, 0] = np.nan
        teams = list(range(1, model.m + 1))
        entries = rank_teams(model, teams)
        assert ranking_tuples(entries) == ranking_tuples(reference_rank_teams(model, teams))
        assert sum(e.victories for e in entries) == model.m * (model.m - 1) / 2

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_kind_through_prepass_and_recheck_blocks(self, kind, data):
        # Several pre-pass blocks, each split into several recheck blocks.
        model = data.draw(kernel_models(min_teams=2, max_teams=30, kinds=(kind,)))
        teams = data.draw(st.permutations(range(1, model.m + 1)))
        elements = data.draw(st.integers(1, 3 * len(teams) * model.delta), label="block elements")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analytics, "_BLOCK_ELEMENTS", elements)
            entries = rank_teams(model, teams)
        assert ranking_tuples(entries) == ranking_tuples(reference_rank_teams(model, teams))
        assert sum(e.victories for e in entries) == len(teams) * (len(teams) - 1) / 2

    def test_subnormal_products_are_not_decided_by_the_prepass(self):
        # Products of rows near 1e-160 round on the subnormal grid, where only
        # the bound's absolute term holds (seed 4 at 1e-160 needs it).
        teams = list(range(1, 13))
        for seed in range(40):
            for scale in (1e-160, 1e-162):
                model = init_model(12, 2, seed)
                model.theta[:] *= scale
                assert ranking_tuples(rank_teams(model, teams)) == ranking_tuples(reference_rank_teams(model, teams))

    def test_all_tied_model_is_rechecked_in_every_block(self, monkeypatch):
        model = init_model(40, 8, 5)
        model.psi[:] = model.phi
        teams = list(range(1, 41))
        calls = []
        cross_block = analytics._cross_block
        monkeypatch.setattr(analytics, "_cross_block", lambda *a: calls.append(a[2:]) or cross_block(*a))
        monkeypatch.setattr(analytics, "_BLOCK_ELEMENTS", 3 * 40 * 8)
        assert [e.victories for e in rank_teams(model, teams)] == [19.5] * 40
        assert calls == [(lo, min(lo + 3, 40)) for lo in range(0, 40, 3)]

    def test_desk_shaped_trained_model_needs_no_recheck(self, monkeypatch):
        # The ranking of test_desk_shaped_trained_model, decided by the pre-pass alone.
        model = train(random_league(378, 12_000, 9, seed=41), TrainConfig())
        teams = list(range(1, model.m + 1))
        expected = ranking_tuples(reference_rank_teams(model, teams))
        calls = []
        monkeypatch.setattr(analytics, "_cross_block", lambda *a: calls.append(a[2:]))
        assert ranking_tuples(rank_teams(model, teams)) == expected
        assert calls == []

    def test_prepass_temporaries_stay_under_the_cap(self):
        for n in (378, 500, 3780, 2, 20_000, analytics._BLOCK_ELEMENTS + 1):
            rows = analytics._prepass_rows(n)
            assert rows >= 1
            assert rows == 1 or rows * n <= analytics._BLOCK_ELEMENTS

    def test_block_temporaries_stay_under_the_cap(self):
        for n, delta in ((378, 16), (500, 16), (3780, 16), (2, 1), (20_000, 64)):
            rows = analytics._block_rows(n, delta)
            assert rows >= 1
            assert rows == 1 or rows * n * delta <= analytics._BLOCK_ELEMENTS
