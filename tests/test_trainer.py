import numpy as np
import pytest

from helpers import (
    hierarchy_dataset,
    placeholder_registry,
    random_league,
    reference_batch_arrays,
    reference_train,
    strength_league,
)
from steve.match_data import Dataset, MatchQuad, TeamRegistry
from steve.trainer import (
    AdamState,
    EmbeddingModel,
    TrainConfig,
    _adam_step,
    batch_gradients,
    init_model,
    sample_loss,
    train,
)
from steve.analytics import Outcome, head_to_head


def manual_model(phi_rows, psi_rows, x_max=1):
    phi = np.asarray(phi_rows, dtype=np.float64)
    psi = np.asarray(psi_rows, dtype=np.float64)
    registry = TeamRegistry(f"T{i}" for i in range(1, len(phi) + 1))
    return EmbeddingModel(phi=phi, psi=psi, delta=phi.shape[1], registry=registry, x_max=x_max)


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


class TestTrainConfig:
    def test_numpy_ints_accepted(self):
        cfg = TrainConfig(delta=np.int64(4), batch_size=np.int32(8), epochs=np.uint8(2), seed=np.int64(3))
        assert (cfg.delta, cfg.batch_size, cfg.epochs, cfg.seed) == (4, 8, 2, 3)

    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.delta, cfg.batch_size, cfg.epochs) == (16, 128, 40)
        assert cfg.learning_rate == 0.0001
        assert cfg.weight_decay == 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"delta": 0},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"weight_decay": -1e-6},
            {"learning_rate": float("inf")},
            {"learning_rate": float("nan")},
            {"weight_decay": float("inf")},
            {"weight_decay": float("nan")},
            {"epochs": 2.5},
            {"epochs": True},
            {"delta": 2.0},
            {"batch_size": np.True_},
            {"seed": 1.0},
            {"seed": False},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestSampleLoss:
    def test_draw_identical_rows_is_zero(self):
        model = manual_model([[1, 0], [1, 0]], [[0, 1], [0, 1]])
        assert sample_loss(model, MatchQuad(1, 2, 1, 1)) == 0.0

    def test_decided_hand_value(self):
        model = manual_model([[1, 0], [0, 1]], [[1, 0], [0, 1]], x_max=1)
        # |phi_1 - psi_2|^2 = |(1,-1)|^2 = 2, weight s/x_max = 1
        assert sample_loss(model, MatchQuad(1, 2, 1, 0)) == pytest.approx(2.0)

    def test_linear_weight_halves(self):
        model = manual_model([[1, 0], [0, 1]], [[1, 0], [0, 1]], x_max=2)
        assert sample_loss(model, MatchQuad(1, 2, 1, 0)) == pytest.approx(1.0)

    def test_monotone_in_season(self):
        model = manual_model([[1, 0], [0, 1]], [[0.6, 0.8], [0.8, 0.6]], x_max=5)
        losses = [sample_loss(model, MatchQuad(1, 2, s, 0)) for s in range(1, 6)]
        assert all(b > a for a, b in zip(losses, losses[1:]))

    def test_non_negative_and_zero_iff_equal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            phi = rng.standard_normal((3, 4))
            phi /= np.linalg.norm(phi, axis=1, keepdims=True)
            psi = rng.standard_normal((3, 4))
            psi /= np.linalg.norm(psi, axis=1, keepdims=True)
            model = manual_model(phi, psi, x_max=2)
            for q in (MatchQuad(1, 2, 1, 0), MatchQuad(2, 3, 2, 1)):
                assert sample_loss(model, q) > 0.0

    def test_bad_ids_rejected(self):
        model = manual_model([[1, 0], [0, 1]], [[1, 0], [0, 1]], x_max=1)
        with pytest.raises(ValueError):
            sample_loss(model, MatchQuad(1, 3, 1, 0))
        with pytest.raises(ValueError):
            sample_loss(model, MatchQuad(1, 2, 2, 0))

    @pytest.mark.parametrize("quad", [MatchQuad(1, 1, 1, 0), MatchQuad(1, 2, 1, 2), MatchQuad(1, 2, 0, 0)])
    def test_malformed_quad_rejected(self, quad):
        model = manual_model([[1, 0], [0, 1]], [[1, 0], [0, 1]], x_max=1)
        with pytest.raises(ValueError):
            sample_loss(model, quad)


def brute_batch_loss(model, batch, weight_decay):
    """Independent reference: plain-python sum of sample losses plus penalty."""
    total = 0.0
    touched_phi, touched_psi = set(), set()
    for q in batch:
        w = q.s / model.x_max
        if q.d == 1:
            diff = model.phi[q.a - 1] - model.phi[q.b - 1]
            touched_phi.update((q.a - 1, q.b - 1))
        else:
            diff = model.phi[q.a - 1] - model.psi[q.b - 1]
            touched_phi.add(q.a - 1)
            touched_psi.add(q.b - 1)
        total += w * float(diff @ diff)
    for r in touched_phi:
        total += weight_decay * float(model.phi[r] @ model.phi[r])
    for r in touched_psi:
        total += weight_decay * float(model.psi[r] @ model.psi[r])
    return total


class TestBatchGradients:
    def test_hand_example(self):
        model = manual_model([[1, 0], [0, 1]], [[1, 0], [0, 1]], x_max=1)
        loss, update = batch_gradients(model, [MatchQuad(1, 2, 1, 0)], weight_decay=0.0)
        grads = update.as_dict()
        assert loss == pytest.approx(2.0)
        np.testing.assert_allclose(grads[("phi", 0)], [2.0, -2.0])
        np.testing.assert_allclose(grads[("psi", 1)], [-2.0, 2.0])
        assert set(grads) == {("phi", 0), ("psi", 1)}

    def test_draw_touches_only_phi(self):
        model = init_model(4, 3, 0)
        _, update = batch_gradients(model, [MatchQuad(1, 2, 1, 1)])
        assert update.psi_rows.size == 0
        assert set(update.phi_rows) == {0, 1}

    def test_decided_touches_phi_a_psi_b(self):
        model = init_model(4, 3, 0)
        _, update = batch_gradients(model, [MatchQuad(3, 2, 1, 0)])
        assert set(update.phi_rows) == {2}
        assert set(update.psi_rows) == {1}

    def test_duplicate_rows_summed(self):
        model = init_model(5, 3, 1, x_max=2)
        q1, q2 = MatchQuad(1, 2, 1, 0), MatchQuad(1, 3, 2, 0)
        _, single1 = batch_gradients(model, [q1])
        _, single2 = batch_gradients(model, [q2])
        _, combined = batch_gradients(model, [q1, q2])
        np.testing.assert_allclose(
            combined.as_dict()[("phi", 0)],
            single1.as_dict()[("phi", 0)] + single2.as_dict()[("phi", 0)],
        )

    def test_weight_decay_terms(self):
        model = manual_model([[1, 0], [0, 1]], [[1, 0], [0, 1]], x_max=1)
        wd = 0.01
        loss, update = batch_gradients(model, [MatchQuad(1, 2, 1, 0)], weight_decay=wd)
        # unit rows: penalty adds wd per touched row (two rows touched)
        assert loss == pytest.approx(2.0 + 2 * wd)
        np.testing.assert_allclose(update.as_dict()[("phi", 0)], [2.0 + 2 * wd, -2.0])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        m, delta, x_max = 6, 4, 3
        model = init_model(m, delta, seed, x_max=x_max)
        batch = []
        for _ in range(rng.integers(1, 7)):
            a, b = rng.choice(m, size=2, replace=False) + 1
            batch.append(
                MatchQuad(int(a), int(b), int(rng.integers(1, x_max + 1)), int(rng.integers(0, 2)))
            )
        wd = float(rng.choice([0.0, 1e-3]))
        _, update = batch_gradients(model, batch, weight_decay=wd)
        h = 1e-5
        for (mat_name, row), grad in update.as_dict().items():
            mat = model.phi if mat_name == "phi" else model.psi
            for col in range(delta):
                orig = mat[row, col]
                mat[row, col] = orig + h
                up = brute_batch_loss(model, batch, wd)
                mat[row, col] = orig - h
                down = brute_batch_loss(model, batch, wd)
                mat[row, col] = orig
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(grad[col]), 1e-8)
                assert abs(fd - grad[col]) / denom < 1e-5

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batch_gradients(init_model(3, 2, 0), [])

    def test_bad_ids_rejected(self):
        model = init_model(3, 2, 0)
        with pytest.raises(ValueError):
            batch_gradients(model, [MatchQuad(1, 4, 1, 0)])


class TestTrain:
    def small_ds(self, seed=0):
        ds, _ = strength_league(6, 2, 2, seed=seed)
        return ds

    def test_deterministic(self):
        ds = self.small_ds()
        cfg = TrainConfig(delta=4, epochs=3, batch_size=8, seed=11)
        a = train(ds, cfg)
        b = train(ds, cfg)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.psi, b.psi)

    def test_progress_reports_every_epoch(self):
        ds = self.small_ds()
        seen = []
        train(ds, TrainConfig(delta=4, epochs=5, batch_size=8, seed=0),
              progress=lambda e, l: seen.append((e, l)))
        assert [e for e, _ in seen] == [1, 2, 3, 4, 5]
        assert all(l >= 0 for _, l in seen)

    def test_touched_rows_renormalized_untouched_bit_identical(self):
        ds = self.small_ds()
        cfg = TrainConfig(delta=4, epochs=2, batch_size=2, learning_rate=0.01, seed=3)
        snapshots = {}

        def on_batch(model, update):
            if snapshots:
                for rows, mat, prev in (
                    (update.phi_rows, model.phi, snapshots["phi"]),
                    (update.psi_rows, model.psi, snapshots["psi"]),
                ):
                    touched = set(int(r) for r in rows)
                    for r in range(mat.shape[0]):
                        if r in touched:
                            assert abs(np.linalg.norm(mat[r]) - 1.0) < 1e-6
                        else:
                            assert np.array_equal(mat[r], prev[r])
            snapshots["phi"] = model.phi.copy()
            snapshots["psi"] = model.psi.copy()

        train(ds, cfg, on_batch=on_batch)

    def test_loss_decreases_on_hierarchy(self):
        ds = hierarchy_dataset(n_teams=4, n_rounds=20)
        losses = []
        train(
            ds,
            TrainConfig(delta=16, batch_size=32, learning_rate=0.01, epochs=30, seed=1),
            progress=lambda e, l: losses.append(l),
        )
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("seed", range(3))
    def test_planted_hierarchy_recovered(self, seed):
        ds = hierarchy_dataset(n_teams=4, n_rounds=20)
        model = train(
            ds, TrainConfig(delta=16, batch_size=32, learning_rate=0.01, epochs=60, seed=seed)
        )
        for i in range(1, 5):
            for j in range(i + 1, 5):
                assert head_to_head(model, i, j).outcome is Outcome.A_WINS

    def test_empty_dataset_rejected(self):
        ds = Dataset.from_quads([], x_max=1, registry=TeamRegistry(["A", "B"]))
        with pytest.raises(ValueError):
            train(ds, TrainConfig(delta=2, epochs=1))

    def test_x_max_override_must_cover_dataset(self):
        ds = self.small_ds()
        with pytest.raises(ValueError):
            train(ds, TrainConfig(delta=2, epochs=1, x_max=1))

    def test_adam_state_zeros(self):
        # One stacked state: winner rows first, loser rows offset by m = 3.
        state = AdamState.zeros(3, 2)
        assert state.t == 0
        assert not state.first.any() and not state.second.any()
        assert state.first[:3].shape == state.first[3:].shape == (3, 2)
        assert state.second[:3].shape == state.second[3:].shape == (3,)

    def test_training_starts_with_psi_equal_to_phi(self):
        # Teams 4 and 5 never play, so their rows keep the starting values.
        quads = [MatchQuad(1, 2, 1, 0), MatchQuad(2, 3, 1, 1), MatchQuad(3, 1, 1, 0)]
        ds = Dataset.from_quads(quads, x_max=1, registry=placeholder_registry(5))
        model = train(ds, TrainConfig(delta=4, epochs=3, batch_size=2, learning_rate=0.01, seed=5))
        start = init_model(5, 4, np.random.SeedSequence(5).spawn(2)[0]).phi
        assert np.array_equal(model.phi[3:], start[3:])
        assert np.array_equal(model.psi[3:], model.phi[3:])
        assert head_to_head(model, 4, 5).outcome is Outcome.TIE

    def test_phi_and_psi_are_views_of_one_block(self):
        model = train(self.small_ds(), TrainConfig(delta=4, epochs=1, batch_size=8, seed=0))
        assert model.theta.shape == (2 * model.m, 4)
        assert np.array_equal(model.theta, np.concatenate([model.phi, model.psi]))
        model.theta[0, 0] = 5.0
        model.theta[model.m, 1] = 7.0
        assert model.phi[0, 0] == 5.0 and model.psi[0, 1] == 7.0


def oracle_configs():
    """Name -> (dataset, config) pairs on which ``train`` must equal ``reference_train``."""
    strengths = np.linspace(1.5, -1.5, 20)
    small, _ = strength_league(8, 3, 2, seed=1)
    configs = {
        f"criterion3-seed{seed}": (
            lambda seed=seed: strength_league(
                20, 5, 16, seed=seed, steep=4.0, draw_amp=0.10, strengths=strengths
            )[0],
            TrainConfig(seed=seed),
        )
        for seed in range(5)
    }
    configs.update({
        "no-weight-decay-batch7": (lambda: small, TrainConfig(
            delta=4, epochs=5, batch_size=7, learning_rate=0.01, weight_decay=0.0, seed=2)),
        "weight-decay-1e-2-delta1-batch1": (lambda: small, TrainConfig(
            delta=1, epochs=3, batch_size=1, learning_rate=0.01, weight_decay=1e-2, seed=3)),
        "delta32-explicit-x-max": (lambda: small, TrainConfig(
            delta=32, epochs=4, batch_size=16, learning_rate=0.01, x_max=5, seed=4)),
        "one-batch-larger-than-data": (lambda: small, TrainConfig(
            delta=8, epochs=6, batch_size=10_000, learning_rate=0.01, seed=5)),
        "desk-league": (lambda: random_league(378, 12_000, 9, seed=41), TrainConfig(seed=41)),
        "wide-league": (lambda: random_league(3_780, 120_000, 9, seed=41), TrainConfig(epochs=1, seed=41)),
    })
    return configs


@pytest.mark.parametrize("name", list(oracle_configs()))
def test_train_matches_reference_trainer_bit_for_bit(name):
    make_ds, cfg = oracle_configs()[name]
    ds = make_ds()
    expected, got = [], []
    reference = reference_train(ds, cfg, progress=lambda e, l: expected.append(l))
    # With a sink ``train`` computes the loss; without one it skips it, and
    # the model must come out the same either way.
    for progress in (lambda e, l: got.append(l), None):
        model = train(ds, cfg, progress=progress)
        assert np.array_equal(model.phi, reference.phi)
        assert np.array_equal(model.psi, reference.psi)
        assert model.theta.tobytes() == reference.theta.tobytes()
    assert got == expected and len(got) == cfg.epochs


def test_batch_gradients_match_reference_kernel_bit_for_bit():
    # Large batches and a large penalty: summing the penalty over all touched
    # rows at once, instead of winner and loser rows apart, changes the loss
    # in the last bit for about one batch in a hundred.
    rng = np.random.default_rng(0)
    for trial in range(600):
        m, delta, x_max = int(rng.integers(2, 60)), int(rng.choice([1, 4, 8, 16])), 3
        model = init_model(m, delta, trial, x_max=x_max)
        model.psi[: m // 2] = model.phi[: m // 2]
        n = int(rng.integers(1, 300))
        a = rng.integers(1, m + 1, n)
        b = (a - 1 + rng.integers(1, m, n)) % m + 1
        s = rng.integers(1, x_max + 1, n)
        d = rng.integers(0, 2, n)
        wd = float(rng.choice([0.0, 1.0, 3.7]))
        batch = [MatchQuad(int(i), int(j), int(k), int(x)) for i, j, k, x in zip(a, b, s, d)]
        loss, update = batch_gradients(model, batch, weight_decay=wd)
        ref_loss, ref = reference_batch_arrays(model, a - 1, b - 1, s.astype(np.float64), d, wd)
        assert loss == ref_loss
        for got, want in (
            (update.phi_rows, ref.phi_rows), (update.phi_grads, ref.phi_grads),
            (update.psi_rows, ref.psi_rows), (update.psi_grads, ref.psi_grads),
        ):
            assert got.shape == want.shape and np.array_equal(got, want)


def test_on_batch_updates_match_reference_trainer():
    ds, _ = strength_league(8, 3, 2, seed=1)
    cfg = TrainConfig(delta=4, epochs=2, batch_size=5, learning_rate=0.01, weight_decay=1e-2, seed=6)
    expected, got = [], []

    def keep(seen):
        def on_batch(model, u):
            seen.append((u.phi_rows, u.phi_grads, u.psi_rows, u.psi_grads,
                         model.phi.copy(), model.psi.copy()))
        return on_batch

    reference_train(ds, cfg, on_batch=keep(expected))
    train(ds, cfg, on_batch=keep(got))
    assert len(got) == len(expected) == 2 * -(-len(ds) // 5)
    for ours, theirs in zip(got, expected):
        for x, y in zip(ours, theirs):
            assert x.dtype == y.dtype and np.array_equal(x, y)


class TestAdamStep:
    def test_first_step_moves_each_row_along_its_tangent_gradient(self):
        model = init_model(4, 3, 0)
        before = {"phi": model.phi.copy(), "psi": model.psi.copy()}
        _, update = batch_gradients(model, [MatchQuad(1, 2, 1, 0), MatchQuad(3, 4, 1, 1)])
        lr = 0.01
        # Stacked rows: loser rows are offset by m = 4.
        rows = np.concatenate([update.phi_rows, update.psi_rows + 4])
        grads = np.concatenate([update.phi_grads, update.psi_grads])
        _adam_step(model.theta, AdamState.zeros(4, 3), rows, model.theta[rows], grads, lr)
        for name, rows, grads in (
            ("phi", update.phi_rows, update.phi_grads),
            ("psi", update.psi_rows, update.psi_grads),
        ):
            for row, g in zip(rows, grads):
                x = before[name][row]
                tangent = g - (g @ x) * x
                # Bias-corrected moments at t = 1 are g and |g|^2: a step of length lr.
                expected = x - lr * tangent / np.linalg.norm(tangent)
                expected /= np.linalg.norm(expected)
                np.testing.assert_allclose(getattr(model, name)[row], expected, atol=1e-9)

    def test_radial_parts_of_gradient_and_momentum_do_not_change_the_step(self):
        rng = np.random.default_rng(2)
        rows = np.array([0, 2])
        grads = rng.standard_normal((2, 4))
        momentum = rng.standard_normal((2, 4))
        start = init_model(3, 4, 1).phi
        moved = []
        for radial in (0.0, 20.0):
            model = init_model(3, 4, 1)
            opt = AdamState.zeros(3, 4)
            opt.t = 5
            # Rows 0 and 2 of the stacked block are winner rows.
            opt.first[rows] = momentum + radial * start[rows]
            opt.second[rows] = 1.0
            _adam_step(model.theta, opt, rows, model.theta[rows], grads + radial * start[rows],
                       learning_rate=0.1)
            moved.append(model.phi)
        np.testing.assert_allclose(moved[1], moved[0], atol=1e-12)
        assert not np.allclose(moved[0][rows], start[rows])
