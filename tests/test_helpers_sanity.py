"""Sanity checks for the measuring instruments the other tests rely on."""

import numpy as np
import pytest

from helpers import init_model, spearman, strength_league


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_reversal(self):
        assert spearman([1, 2, 3, 4], [8, 6, 4, 2]) == pytest.approx(-1.0)

    def test_monotone_transform_invariant(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50)
        assert spearman(x, np.exp(x)) == pytest.approx(1.0)

    def test_ties_get_average_ranks(self):
        # x = (1, 2, 2, 3) -> ranks (1, 2.5, 2.5, 4); hand-computed Pearson of ranks
        x = [1.0, 2.0, 2.0, 3.0]
        y = [1.0, 2.0, 3.0, 4.0]
        rx = np.array([1.0, 2.5, 2.5, 4.0])
        ry = np.array([1.0, 2.0, 3.0, 4.0])
        expected = np.corrcoef(rx, ry)[0, 1]
        assert spearman(x, y) == pytest.approx(expected)

    def test_independent_sequences_near_zero(self):
        rng = np.random.default_rng(1)
        values = [spearman(rng.standard_normal(200), rng.standard_normal(200)) for _ in range(20)]
        assert abs(np.mean(values)) < 0.1


class TestStrengthLeague:
    def test_match_counts_and_draw_fraction(self):
        ds, strengths = strength_league(10, 2, 2, seed=0, draw_amp=0.10)
        assert len(ds) == 2 * 2 * (10 * 9 // 2)
        assert len(strengths) == 10
        draw_fraction = ds.d.sum() / len(ds)
        assert 0.03 < draw_fraction < 0.2

    def test_stronger_team_wins_more_often(self):
        ds, strengths = strength_league(6, 3, 4, seed=2, steep=6.0, draw_amp=0.0)
        best = int(np.argmax(strengths)) + 1
        worst = int(np.argmin(strengths)) + 1
        wins = np.sum((ds.d == 0) & (ds.a == best))
        losses = np.sum((ds.d == 0) & (ds.a == worst))
        assert wins > losses


class TestInitModel:
    def test_deterministic(self):
        a = init_model(5, 3, 42)
        b = init_model(5, 3, 42)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.psi, b.psi)

    def test_different_seeds_differ(self):
        assert not np.array_equal(init_model(5, 3, 1).phi, init_model(5, 3, 2).phi)

    def test_rows_unit_norm(self):
        model = init_model(50, 16, 7)
        np.testing.assert_allclose(np.linalg.norm(model.phi, axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(model.psi, axis=1), 1.0, atol=1e-9)

    def test_paper_scale_shape(self):
        model = init_model(378, 16, 0)
        assert model.phi.shape == model.psi.shape == (378, 16)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            init_model(1, 3, 0)
        with pytest.raises(ValueError):
            init_model(5, 0, 0)
