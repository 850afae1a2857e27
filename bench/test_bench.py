"""Tests of the benchmark's own parts: ``python -m pytest bench -q``."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from checks import Checker
from metrics import probe_scaled, tail_percentile
from spans import NullTracer, Tracer, layer_self_times, self_times
from workload import SPECS, Spec, generate, season_label

ROOT = Path(__file__).resolve().parent.parent
SMALL = Spec(teams=40, matches=2_000, seasons=9, rank_teams=20, eval_teams=10, train_epochs=None)
FILES = ("matches_csv", "values_csv", "teams_txt", "eval_matches_csv", "eval_values_csv")


def test_generator_gives_same_bytes_for_same_seed_and_others_for_another():
    first, again, other = generate(SMALL, 5), generate(SMALL, 5), generate(SMALL, 6)
    for name in FILES:
        assert getattr(first, name) == getattr(again, name)
    assert first.queries == again.queries
    assert first.matches_csv != other.matches_csv
    assert first.values_csv != other.values_csv


def test_generator_shapes_the_desk_league():
    league = generate(SPECS["desk"], 1)
    rows = [line.split(",") for line in league.matches_csv.decode().splitlines()]
    assert rows[0] == ["season_label", "competition", "home", "away", "home_goals", "away_goals"]
    body = rows[1:]
    assert len(body) == league.n_matches == 12_000
    assert league.n_teams == 378 and len(league.rank_names) == 378
    assert {r[0] for r in body} == {season_label(s) for s in range(1, 10)}
    assert {r[1] for r in body} == {"NationalLeague", "ChampionsLeague", "EuropaLeague"}
    draws = sum(r[4] == r[5] for r in body)
    assert draws == league.n_draws and 0.23 < draws / len(body) < 0.27
    assert league.eval_matches_csv == league.matches_csv
    values = league.values_csv.decode().splitlines()
    assert len(values) == 379 and all(float(v.split(",")[1]) > 0 for v in values[1:])


def test_generator_draws_the_evaluated_sub_league_from_the_ranked_teams():
    league = generate(SMALL, 3)
    rows = [line.split(",") for line in league.eval_matches_csv.decode().splitlines()[1:]]
    evaluated = {r[2] for r in rows} | {r[3] for r in rows}
    valued = {line.split(",")[0] for line in league.eval_values_csv.decode().splitlines()[1:]}
    assert evaluated <= valued <= set(league.rank_names)
    assert len(valued) == SMALL.eval_teams and len(league.rank_names) == SMALL.rank_teams


@pytest.mark.parametrize(
    "n, percentile",
    [(20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (199, 90), (200, 95), (1000, 99), (10_000, 99.9)],
)
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(n, percentile):
    samples = list(range(1, n + 1))
    random.Random(n).shuffle(samples)
    p, value = tail_percentile(samples)
    assert p == percentile
    assert sum(s > value for s in samples) >= 10
    assert value == -(-round(p * 10) * n // 1000)  # nearest rank


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        tail_percentile(range(19))


def test_probe_scaled_divides_each_sample_by_the_probes_around_it():
    class Sample:
        def __init__(self, seconds):
            self.seconds = seconds

    a, b, c = Sample(1.0), Sample(3.0), Sample(0.5)
    scaled = probe_scaled([0.2, a, b, 0.6, c, 0.2], reference=0.2)
    assert scaled == pytest.approx({id(a): 0.5, id(b): 1.5, id(c): 0.25})
    with pytest.raises(ValueError):
        probe_scaled([a, 0.2], reference=0.2)
    with pytest.raises(ValueError):
        probe_scaled([0.2, a], reference=0.2)


def _span(span_id, name, start, end, parent):
    return {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "command": 1}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, "cli.train", 0.0, 10.0, None),
        _span(2, "match_data.ingest_csv", 1.0, 3.0, 1),
        _span(3, "trainer.train", 2.0, 5.0, 1),  # overlaps span 2
        _span(4, "trainer.epoch", 3.0, 4.0, 3),
        _span(5, "model_io.save_model", 8.0, 9.0, 1),
        _span(6, "model_io.save_model", 9.5, 11.0, 1),  # runs past its parent
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 10 - 4 - 1 - 0.5, 2: 2, 3: 2, 4: 1, 5: 1, 6: 1.5})
    assert layer_self_times(spans) == pytest.approx(
        {"cli": 4.5, "match_data": 2, "trainer": 3, "model_io": 2.5}
    )


class _Update:
    def __init__(self, phi_rows, psi_rows):
        self.phi_rows, self.psi_rows = np.arange(phi_rows), np.arange(psi_rows)


class _Model:
    m = 10


def test_train_hooks_nest_batches_under_epochs_under_train():
    tracer = Tracer()
    with tracer.span("cli.train"):
        with tracer.span("trainer.train") as train_span:
            hooks = tracer.train_hooks(train_span)
            for epoch in (1, 2):
                for _ in range(3):
                    hooks["on_batch"](_Model(), _Update(4, 2))
                hooks["progress"](epoch, 0.0)
    epochs = [s for s in tracer.spans if s["name"] == "trainer.epoch"]
    batches = [s for s in tracer.spans if s["name"] == "trainer.batch"]
    assert [s["parent"] for s in epochs] == [train_span["id"]] * 2
    assert sorted({s["parent"] for s in batches}) == sorted(s["id"] for s in epochs)
    assert all(s["rows"] == 6 and s["rows_total"] == 20 for s in batches)
    assert {s["command"] for s in tracer.spans} == {tracer.spans[0]["id"]}
    assert all(s["start"] <= s["end"] for s in tracer.spans)
    assert NullTracer().train_hooks(train_span) == {}


def test_traced_cli_prints_what_the_cli_prints(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import inprocess
    from steve import cli

    league = generate(SMALL, 4)
    files = {}
    for name in FILES:
        files[name] = str(tmp_path / name)
        Path(files[name]).write_bytes(getattr(league, name))
    model, out = str(tmp_path / "model.json"), ["--output", "json"]
    evaluate = ["evaluate", files["eval_matches_csv"], files["eval_values_csv"], *out]
    commands = [
        ["summary", files["matches_csv"], *out],
        ["train", files["matches_csv"], "-o", model, "--epochs", "2"],  # progress lines too
        ["rank", model, "--teams", files["teams_txt"], *out],
        ["similar", model, "--team", league.names[0], "--k", "3", *out],
        ["similar", model, "--team", "Nobody FC", *out],
        [*evaluate, "--representation", "cat-3"],
        [*evaluate, "--representation", "steve-32", "--task", "classification"],
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    tracer, original = Tracer(), cli.train
    for argv in commands:
        traced = inprocess.run(tracer, argv)
        assert cli.train is original
        child = subprocess.run([sys.executable, "-m", "steve.cli", *argv], env=env, capture_output=True, text=True)
        assert traced == (child.returncode, child.stdout, child.stderr)
    assert inprocess.run(NullTracer(), commands[4])[0] == 1  # the unknown team

    layers = inprocess.layer_metrics(tracer.spans)
    assert layers["match_data.rows"] == league.n_matches
    assert layers["analytics.pairs"] == SMALL.rank_teams * (SMALL.rank_teams - 1) // 2
    assert layers["model_io.file_bytes"] == os.path.getsize(model)
    assert layers["valuation.folds"] == 10
    assert layers["trainer.batches"] == 2 * -(-league.n_matches // 128)
    assert all(v >= 0 for v in layers.values())


# --- output checks -------------------------------------------------------


def _good_outputs(league):
    """Correct outputs of every checked command for ``league``."""
    rows = [line.split(",") for line in league.matches_csv.decode().splitlines()[1:]]
    per_season = [
        {"season_index": s, "season_label": season_label(s), "matches": sum(r[0] == season_label(s) for r in rows)}
        for s in range(1, 10)
    ]
    summary = {"matches": league.n_matches, "teams": league.n_teams,
               "draw_fraction": league.n_draws / league.n_matches, "per_season": per_season}
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((len(league.names), 16))
    psi = rng.standard_normal((len(league.names), 16))
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    model = {"delta": 16, "teams": [{"name": n, "phi": phi[i].tolist(), "psi": psi[i].tolist()}
                                    for i, n in enumerate(league.names)]}
    names = league.rank_names
    rank = [{"rank": i + 1, "team": n, "victories": float(len(names) - 1 - i)} for i, n in enumerate(names)]
    query = league.names[0]
    dist = np.sum((phi - phi[0]) ** 2, axis=1)
    nearest = [{"team": league.names[i], "distance": float(dist[i])}
               for i in np.argsort(dist, kind="stable") if i != 0]
    report = {"task": "regression", "folds": 5, "per_fold": {"rmse": [1.0, 2.0, 1.5, 1.2, 0.9]},
              "aggregate": {"rmse": {"mean": 1.32, "std": 0.38}}, "metadata": {}}
    return {"summary": summary, "model": model, "rank": rank, "similar": nearest[:10],
            "nearest": nearest, "query": query, "evaluate": report}


def _checks(checker, out):
    """(operation, check, args) for every command, in run order."""
    return [
        ("summary", checker.summary, (json.dumps(out["summary"]),)),
        ("train", checker.model, (json.dumps(out["model"]),)),
        ("rank", checker.rank, (json.dumps(out["rank"]), checker.league.rank_names)),
        ("similar", checker.similar, (json.dumps(out["similar"]), out["query"], 10)),
        ("evaluate", checker.evaluate, (json.dumps(out["evaluate"]), "cat-3")),
    ]


def test_correct_outputs_pass_every_check():
    league = generate(SMALL, 2)
    checker = Checker(league)
    for op, check, args in _checks(checker, _good_outputs(league)):
        assert checker.record(op, check, *args), checker.problems
    assert (checker.attempted, checker.failed) == (5, 0)


def _off_by_half(out):
    out["rank"][0]["victories"] += 0.5


def _rank_gap(out):
    out["rank"][1]["rank"] = 3


def _summary_count(out):
    out["summary"]["matches"] -= 1


def _non_unit_row(out):
    team = out["model"]["teams"][3]
    team["psi"] = [x * (1 + 1e-8) for x in team["psi"]]


def _query_included(out):
    out["similar"][-1] = {"team": out["query"], "distance": 0.0}


def _nearest_left_out(out):
    out["similar"] = out["nearest"][1:11]


def _four_folds(out):
    out["evaluate"]["per_fold"]["rmse"].pop()


def _nan_metric(out):
    out["evaluate"]["aggregate"]["rmse"]["std"] = float("nan")


@pytest.mark.parametrize(
    "corrupt, op",
    [(_off_by_half, "rank"), (_rank_gap, "rank"), (_summary_count, "summary"), (_non_unit_row, "train"),
     (_query_included, "similar"), (_nearest_left_out, "similar"), (_four_folds, "evaluate"),
     (_nan_metric, "evaluate")],
)
def test_a_corrupted_output_counts_as_a_failed_operation(corrupt, op):
    league = generate(SMALL, 2)
    out = _good_outputs(league)
    corrupt(out)
    checker = Checker(league)
    passed = {name: checker.record(name, check, *args) for name, check, args in _checks(checker, out)}
    assert passed == {name: name != op for name in passed}
    assert (checker.attempted, checker.failed) == (5, 1)


def test_unparsable_output_and_changed_repeats_fail():
    league = generate(SMALL, 2)
    checker = Checker(league)
    assert not checker.record("summary", checker.summary, "Traceback (most recent call last):")
    assert checker.record("evaluate", checker.repeat, "report", "abc")
    assert not checker.record("evaluate", checker.repeat, "report", "abd")
    assert (checker.attempted, checker.failed) == (3, 2)


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert {w["name"] for w in spec["workloads"]} == set(SPECS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
