"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers so the run reads as a checklist.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import time

import numpy as np

from helpers import (
    brute_batch_loss,
    common_victims_dataset,
    draw_pair_dataset,
    gradients_by_row,
    init_model,
    kernel_gradients,
    league_csv,
    placeholder_registry,
    sigmoid,
    spearman,
    strength_league,
    values_csv,
)
from steve.analytics import most_similar, rank_teams, winner_distance
from steve.cli import main
from steve.match_data import Dataset, MatchQuad
from steve.trainer import TrainConfig, train
from steve.valuation import Task, compute_metrics, cross_validate, quartile_labels, steve_features


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_gradient_oracle():
    """Analytic batch gradients vs central finite differences (h = 1e-5)."""
    start = time.perf_counter()
    worst = 0.0
    h = 1e-5
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 11))
        delta = int(rng.integers(2, 7))
        x_max = int(rng.integers(1, 6))
        model = init_model(m, delta, seed, x_max=x_max)
        batch = []
        for _ in range(int(rng.integers(1, 9))):
            a, b = rng.choice(m, size=2, replace=False) + 1
            batch.append(MatchQuad(int(a), int(b), int(rng.integers(1, x_max + 1)), int(rng.integers(0, 2))))
        wd = float(rng.choice([0.0, 1e-3]))
        _, update = kernel_gradients(model, batch, weight_decay=wd)

        analytic, numeric = [], []
        for (mat_name, row), grad in gradients_by_row(update).items():
            mat = model.phi if mat_name == "phi" else model.psi
            for col in range(delta):
                orig = mat[row, col]
                mat[row, col] = orig + h
                up = brute_batch_loss(model, batch, wd)
                mat[row, col] = orig - h
                down = brute_batch_loss(model, batch, wd)
                mat[row, col] = orig
                numeric.append((up - down) / (2 * h))
                analytic.append(grad[col])
        analytic = np.asarray(analytic)
        numeric = np.asarray(numeric)
        rel = float(np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(
        1,
        "gradient oracle",
        worst < 1e-5 and elapsed < 5.0,
        f"worst relative error {worst:.2e} over 100 instances in {elapsed:.1f}s",
    )


def test_criterion_2_norm_invariant():
    """Touched rows renormalized, untouched rows bit-identical, every batch."""
    ds, _ = strength_league(50, 2, 1, seed=0)
    cfg = TrainConfig(delta=16, batch_size=16, learning_rate=0.001, epochs=10, seed=4)
    state = {"worst": 0.0, "batches": 0, "untouched_seen": 0, "violations": 0}
    snapshots = {}

    def on_batch(model, update):
        state["batches"] += 1
        if snapshots:
            for rows, mat, prev in (
                (update.phi_rows, model.phi, snapshots["phi"]),
                (update.psi_rows, model.psi, snapshots["psi"]),
            ):
                touched = np.zeros(mat.shape[0], dtype=bool)
                touched[rows] = True
                norm_err = np.abs(np.linalg.norm(mat[touched], axis=1) - 1.0)
                state["worst"] = max(state["worst"], float(norm_err.max(initial=0.0)))
                if (~touched).any():
                    state["untouched_seen"] += 1
                    if not np.array_equal(mat[~touched], prev[~touched]):
                        state["violations"] += 1
        snapshots["phi"] = model.phi.copy()
        snapshots["psi"] = model.psi.copy()

    train(ds, cfg, on_batch=on_batch)
    ok = state["worst"] < 1e-6 and state["violations"] == 0 and state["untouched_seen"] > 0
    report(
        2,
        "norm invariant",
        ok,
        f"max |norm-1| {state['worst']:.2e} over {state['batches']} batches, "
        f"{state['violations']} untouched-row changes",
    )


def test_criterion_3_hierarchy_recovery():
    """20-team latent-strength league, production-default training config.

    Each pair meets 16 times per season for 5 seasons (15,200 matches, ~10%
    draws); rankings must recover the planted order (Spearman >= 0.9) on 4
    of 5 seeds.  At the default learning rate recovery needs this volume:
    the README records that at 1,900 matches (two meetings per season) the
    rows move too little for the order to come out reliably.
    """
    strengths = np.linspace(1.5, -1.5, 20)
    rhos = []
    slowest = 0.0
    for seed in range(5):
        ds, _ = strength_league(
            20, 5, 16, seed=seed, steep=4.0, draw_amp=0.10, strengths=strengths
        )
        start = time.perf_counter()
        model = train(ds, TrainConfig(seed=seed))
        slowest = max(slowest, time.perf_counter() - start)
        entries = rank_teams(model, list(range(1, 21)))
        victories = {e.team: e.victories for e in entries}
        rhos.append(spearman([victories[t] for t in range(1, 21)], strengths))
    passed = sum(r >= 0.9 for r in rhos)
    ok = passed >= 4 and slowest < 30.0
    report(
        3,
        "hierarchy recovery",
        ok,
        f"spearman per seed {[f'{r:.3f}' for r in rhos]}, {passed}/5 >= 0.9, "
        f"slowest run {slowest:.1f}s",
    )


def test_criterion_4_draw_similarity():
    """Teams that always draw each other end up closer than the median pair."""
    hits = 0
    for seed in range(20):
        ds = draw_pair_dataset(seed)
        model = train(
            ds, TrainConfig(delta=16, batch_size=32, learning_rate=0.01, epochs=100, seed=seed)
        )
        n = model.m
        dists = [
            winner_distance(model, a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
        ]
        hits += winner_distance(model, 1, 2) < float(np.median(dists))
    report(4, "draw similarity", hits >= 19, f"{hits}/20 runs below the median distance")


def test_criterion_5_common_victims():
    """Teams beating identical opponents become mutual nearest neighbours."""
    ds = common_victims_dataset()
    hits = 0
    for seed in range(20):
        model = train(
            ds, TrainConfig(delta=16, batch_size=32, learning_rate=0.005, epochs=100, seed=seed)
        )
        hits += most_similar(model, 1, 1)[0][0] == 2 and most_similar(model, 2, 1)[0][0] == 1
    report(5, "common victims", hits >= 18, f"{hits}/20 runs mutually nearest")


def brute_regression(predictions, targets):
    errors = [abs(p - t) for p, t in zip(predictions, targets)]
    n = len(errors)
    rmse = math.sqrt(sum(e * e for e in errors) / n)
    mae = sum(errors) / n
    ordered = sorted(errors)
    med = ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2
    return rmse, mae, med


def brute_f1(predictions, targets, labels):
    correct = sum(1 for p, t in zip(predictions, targets) if p == t)
    per_class = []
    for c in labels:
        tp = sum(1 for p, t in zip(predictions, targets) if p == c and t == c)
        fp = sum(1 for p, t in zip(predictions, targets) if p == c and t != c)
        fn = sum(1 for p, t in zip(predictions, targets) if p != c and t == c)
        per_class.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
    return correct / len(targets), sum(per_class) / len(per_class)


def test_criterion_6_metric_oracles():
    """Metrics agree with brute-force references to 1e-12 on 1000 inputs."""
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 40))
        preds = rng.uniform(-50, 50, n)
        targets = rng.uniform(-50, 50, n)
        got = compute_metrics(preds, targets, Task.REGRESSION)
        rmse, mae, med = brute_regression(preds.tolist(), targets.tolist())
        worst = max(
            worst,
            abs(got["rmse"] - rmse),
            abs(got["mae"] - mae),
            abs(got["median_ae"] - med),
        )
    for _ in range(500):
        n = int(rng.integers(1, 40))
        preds = rng.integers(0, 4, n)
        targets = rng.integers(0, 4, n)
        got = compute_metrics(preds, targets, Task.CLASSIFICATION)
        micro, macro = brute_f1(preds.tolist(), targets.tolist(), range(4))
        worst = max(worst, abs(got["micro_f1"] - micro), abs(got["macro_f1"] - macro))

    hand = compute_metrics(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1]), Task.CLASSIFICATION)
    hand_ok = hand["micro_f1"] == 0.75 and abs(hand["macro_f1"] - (2 / 3 + 4 / 5) / 4) < 1e-15
    report(
        6,
        "metric oracles",
        worst < 1e-12 and hand_ok,
        f"worst deviation {worst:.2e} over 1000 inputs; "
        f"hand example micro={hand['micro_f1']}, macro={hand['macro_f1']:.4f}",
    )


def value_league(n_teams, seasons, rounds, seed, steep=5.0, draw_amp=0.5, draw_width=0.4):
    """League where draws concentrate between near-equals; value tracks strength."""
    rng = np.random.default_rng(seed)
    strengths = np.sort(rng.uniform(-2.0, 2.0, n_teams))[::-1]
    quads = []
    for s in range(1, seasons + 1):
        for _ in range(rounds):
            for i in range(1, n_teams + 1):
                for j in range(i + 1, n_teams + 1):
                    gap = strengths[i - 1] - strengths[j - 1]
                    if rng.random() < draw_amp * np.exp(-((gap / draw_width) ** 2)):
                        quads.append(MatchQuad(i, j, s, 1))
                    else:
                        win_i = rng.random() < sigmoid(steep * gap)
                        w, l = (i, j) if win_i else (j, i)
                        quads.append(MatchQuad(w, l, s, 0))
    ds = Dataset.from_quads(quads, x_max=seasons, registry=placeholder_registry(n_teams))
    values = (150.0 + 60.0 * strengths) * (1 + 0.1 * rng.standard_normal(n_teams))
    return ds, np.maximum(values, 1.0)


def test_criterion_7_valuation_pipeline_sanity():
    """Learned features must clearly beat a permuted-feature baseline."""
    ds, values = value_league(100, 3, 2, seed=0)
    model = train(ds, TrainConfig(delta=16, learning_rate=3e-4, epochs=40, seed=1))
    feats = steve_features(model, list(range(1, 101)))
    permuted = feats[np.random.default_rng(99).permutation(len(feats))]

    regression = cross_validate(feats, values, Task.REGRESSION, seed=5)
    baseline = cross_validate(permuted, values, Task.REGRESSION, seed=5)
    classification = cross_validate(feats, quartile_labels(values), Task.CLASSIFICATION, seed=5)

    mae, mae_base = regression.mean["mae"], baseline.mean["mae"]
    micro = classification.mean["micro_f1"]
    ok = mae <= 0.7 * mae_base and micro >= 0.25 + 0.2
    report(
        7,
        "valuation pipeline sanity",
        ok,
        f"MAE {mae:.1f} vs permuted {mae_base:.1f} "
        f"({100 * (1 - mae / mae_base):.0f}% better, need >=30%); micro-F1 {micro:.2f} (need >=0.45)",
    )


def test_criterion_8_tournament_conservation():
    """Victories always sum to n(n-1)/2, halves included."""
    ok = True
    for seed in range(3):
        model = init_model(20, 8, seed)
        rng = np.random.default_rng(seed)
        for n in range(2, 21):
            teams = (rng.choice(20, size=n, replace=False) + 1).tolist()
            total = sum(e.victories for e in rank_teams(model, teams))
            ok = ok and total == n * (n - 1) / 2
    # exact ties: psi == phi forces alpha == beta for every pair
    tie_model = init_model(6, 4, 0)
    tie_model.psi[:] = tie_model.phi
    tie_total = sum(e.victories for e in rank_teams(tie_model, list(range(1, 7))))
    ok = ok and tie_total == 15.0
    report(8, "tournament conservation", ok, "sum of victories exact for n in 2..20 and tie case")


def test_criterion_9_pipeline_determinism(tmp_path, capsys):
    """Two identically seeded train -> rank -> evaluate runs match exactly."""
    matches = tmp_path / "matches.csv"
    matches.write_text(league_csv(n_teams=8, seasons=2, seed=3), encoding="utf-8")

    artifacts = []
    for run in ("a", "b"):
        model_path = tmp_path / f"model_{run}.json"
        assert main(["train", str(matches), "-o", str(model_path), "--epochs", "5",
                     "--seed", "11", "--quiet"]) == 0
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        doc.pop("created_at")
        names = [t["name"] for t in doc["teams"]]

        values = tmp_path / f"values_{run}.csv"
        values.write_text(values_csv(names, seed=2), encoding="utf-8")

        capsys.readouterr()
        assert main(["rank", str(model_path), "--teams", ",".join(names),
                     "--output", "json", "--seed", "11"]) == 0
        rank_out = capsys.readouterr().out

        assert main(["evaluate", str(matches), str(values), "--representation", "steve-16",
                     "--task", "regression", "--output", "json", "--seed", "11",
                     "--quiet"]) == 0
        eval_out = capsys.readouterr().out
        artifacts.append((doc, rank_out, eval_out))

    ok = artifacts[0] == artifacts[1]
    report(9, "pipeline determinism", ok, "model, ranking and evaluation artifacts identical")


def test_criterion_10_desk_scale_performance():
    """Production-scale training (30k matches, 378 teams) under 60 s."""
    rng = np.random.default_rng(0)
    n_teams, n_matches, n_seasons = 378, 30000, 9
    pairs = rng.integers(1, n_teams + 1, size=(n_matches, 2))
    clash = pairs[:, 0] == pairs[:, 1]
    while clash.any():
        pairs[clash, 1] = rng.integers(1, n_teams + 1, size=int(clash.sum()))
        clash = pairs[:, 0] == pairs[:, 1]
    seasons = rng.integers(1, n_seasons + 1, size=n_matches)
    draws = rng.random(n_matches) < 0.25
    quads = [
        MatchQuad(int(a), int(b), int(s), int(d))
        for (a, b), s, d in zip(pairs, seasons, draws)
    ]
    ds = Dataset.from_quads(quads, x_max=n_seasons, registry=placeholder_registry(n_teams))

    start = time.perf_counter()
    model = train(ds, TrainConfig())
    elapsed = time.perf_counter() - start
    norms_ok = bool(
        np.allclose(np.linalg.norm(model.phi, axis=1), 1.0, atol=1e-6)
        and np.allclose(np.linalg.norm(model.psi, axis=1), 1.0, atol=1e-6)
    )
    report(
        10,
        "desk-scale performance",
        elapsed < 60.0 and norms_ok,
        f"40 epochs over 30000 matches in {elapsed:.1f}s",
    )
