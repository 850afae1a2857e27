import contextlib
import io
import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BROKEN_CASES,
    broken_model_file,
    league_csv,
    reference_cat_features,
    reference_ingest_csv,
    reference_season_stats,
    reference_sum_features,
    run_python,
    values_csv,
)
from steve import match_data, valuation
from steve.baselines import SEASON_STATS_COLUMNS, cat_feature_columns
from steve.cli import _stage_seed, main


@pytest.fixture
def matches_file(tmp_path):
    path = tmp_path / "matches.csv"
    path.write_text(league_csv(n_teams=8, seasons=2, seed=0), encoding="utf-8")
    return path


@pytest.fixture
def model_file(tmp_path, matches_file):
    path = tmp_path / "model.json"
    rc = main(["train", str(matches_file), "-o", str(path), "--epochs", "3",
               "--delta", "4", "--quiet"])
    assert rc == 0
    return path


def team_names(model_file):
    return [t["name"] for t in json.loads(model_file.read_text(encoding="utf-8"))["teams"]]


class TestTrain:
    def test_default_flags_match_training_defaults(self, tmp_path, matches_file, capsys):
        out = tmp_path / "m.json"
        rc = main(["train", str(matches_file), "-o", str(out), "--epochs", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len([l for l in lines if l.startswith("epoch")]) == 2
        doc = json.loads(out.read_text(encoding="utf-8"))
        cfg = doc["train_config"]
        assert cfg["delta"] == 16
        assert cfg["batch_size"] == 128
        assert cfg["learning_rate"] == 0.0001
        assert cfg["weight_decay"] == 1e-6
        assert cfg["seed"] == 7

    def test_per_league_setting(self, tmp_path, matches_file):
        out = tmp_path / "m.json"
        rc = main(["train", str(matches_file), "-o", str(out), "--delta", "10",
                   "--batch-size", "32", "--epochs", "2", "--quiet"])
        assert rc == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["delta"] == 10
        assert doc["train_config"]["batch_size"] == 32

    def test_json_progress(self, tmp_path, matches_file, capsys):
        rc = main(["train", str(matches_file), "-o", str(tmp_path / "m.json"),
                   "--epochs", "2", "--output", "json"])
        assert rc == 0
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        records = [r for r in records if "epoch" in r]
        assert [r["epoch"] for r in records] == [1, 2]
        assert all("mean_loss" in r for r in records)

    def test_deterministic_model_file_modulo_timestamp(self, tmp_path, matches_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["train", str(matches_file), "-o", str(out),
                         "--epochs", "2", "--seed", "3", "--quiet"]) == 0
        da, db = (json.loads(p.read_text(encoding="utf-8")) for p in (a, b))
        da.pop("created_at"), db.pop("created_at")
        assert da == db

    def test_missing_input_is_io_error(self, tmp_path):
        assert main(["train", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "m.json")]) == 2

    def test_invalid_config_is_validation_error(self, matches_file, tmp_path, capsys):
        rc = main(["train", str(matches_file), "-o", str(tmp_path / "m.json"), "--epochs", "0"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--learning-rate", "inf"], "learning_rate"),
            (["--learning-rate", "1e308"], "team 'Club "),
            (["--weight-decay", "1e308"], "team 'Club "),
            (["--weight-decay", "nan"], "weight_decay"),
            (["--weight-decay", "inf"], "weight_decay"),
        ],
    )
    def test_non_finite_model_is_refused_and_earlier_file_kept(self, matches_file, tmp_path, flags, message):
        # Run in a subprocess to see the whole of stderr: one error line, no
        # numpy RuntimeWarning from the overflowing step.
        out = tmp_path / "m.json"
        out.write_bytes(b"an earlier model\n")
        proc = run_python(
            "-c", "import sys; from steve.cli import main; sys.exit(main())",
            "train", str(matches_file), "-o", str(out), "--epochs", "3", "--quiet", *flags,
        )
        assert proc.returncode == 1
        assert "steve: error:" in proc.stderr and message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert out.read_bytes() == b"an earlier model\n"

    def test_model_out_a_directory_is_io_error_naming_it(self, matches_file, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["train", str(matches_file), "-o", str(out), "--epochs", "1", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("steve: I/O error: ") and err.endswith(f": {str(out)!r}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["matches.csv", "out"]


@pytest.mark.parametrize("command", ["train", "evaluate", "export-features"])
def test_json_output_is_json_on_every_line(matches_file, model_file, tmp_path, capsys, command):
    values = tmp_path / "values.csv"
    values.write_text(values_csv(team_names(model_file), seed=1), encoding="utf-8")
    out = str(tmp_path / "out")
    argv, epochs, last = {
        "train": (["train", str(matches_file), "-o", out, "--epochs", "2"], 2, {"wrote": out}),
        "evaluate": (["evaluate", str(matches_file), str(values), "--representation", "steve-16"], 40, None),
        "export-features": (["export-features", str(matches_file), "-o", out, "--representation", "cat-1"],
                            0, {"wrote": out}),
    }[command]
    assert main(argv + ["--output", "json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(records) == epochs + 1
    assert [r["epoch"] for r in records[:-1]] == list(range(1, epochs + 1))
    if last is None:  # the evaluate report
        assert records[-1]["metadata"]["representation"] == "steve-16"
    else:
        assert records[-1] == last


class TestSimilar:
    def test_k_rows_text(self, model_file, capsys):
        name = team_names(model_file)[0]
        rc = main(["similar", str(model_file), "--team", name, "--k", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 + 5  # header, rule, then k rows

    def test_json_output(self, model_file, capsys):
        name = team_names(model_file)[0]
        rc = main(["similar", str(model_file), "--team", name, "--k", "3", "--output", "json"])
        assert rc == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 3
        assert set(records[0]) == {"team", "distance"}
        dists = [r["distance"] for r in records]
        assert dists == sorted(dists)

    def test_k_zero_usage_error(self, model_file, capsys):
        rc = main(["similar", str(model_file), "--team", team_names(model_file)[0], "--k", "0"])
        assert rc == 1

    def test_unknown_team_lists_close_matches(self, model_file, capsys):
        rc = main(["similar", str(model_file), "--team", "Club Q", "--k", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown team" in err and "Club" in err


@pytest.mark.parametrize("case, message", BROKEN_CASES)
def test_similar_on_broken_model_file_is_validation_error(model_file, tmp_path, capsys, case, message):
    bad = broken_model_file(model_file, tmp_path, case)
    name = team_names(model_file)[0]
    assert main(["similar", str(bad), "--team", name]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("steve: error: ")
    assert str(bad) in captured.err and message in captured.err
    assert "Traceback" not in captured.err


class TestRank:
    def test_two_teams(self, model_file, capsys):
        names = team_names(model_file)[:2]
        rc = main(["rank", str(model_file), "--teams", ",".join(names), "--output", "json"])
        assert rc == 0
        records = json.loads(capsys.readouterr().out)
        assert sorted(r["victories"] for r in records) in ([0.0, 1.0], [0.5, 0.5])
        assert [r["rank"] for r in records] == [1, 2]

    def test_all_teams_victories_sum(self, model_file, capsys):
        names = team_names(model_file)
        rc = main(["rank", str(model_file), "--teams", ",".join(names), "--output", "json"])
        assert rc == 0
        records = json.loads(capsys.readouterr().out)
        n = len(names)
        assert sum(r["victories"] for r in records) == n * (n - 1) / 2

    def test_team_list_from_file(self, model_file, tmp_path, capsys):
        names = team_names(model_file)[:3]
        listing = tmp_path / "teams.txt"
        listing.write_text("\n".join(names) + "\n")
        rc = main(["rank", str(model_file), "--teams", str(listing), "--output", "json"])
        assert rc == 0
        assert len(json.loads(capsys.readouterr().out)) == 3

    def test_permutation_invariant_output(self, model_file, capsys):
        names = team_names(model_file)[:4]
        rc = main(["rank", str(model_file), "--teams", ",".join(names)])
        assert rc == 0
        first = capsys.readouterr().out
        rc = main(["rank", str(model_file), "--teams", ",".join(reversed(names))])
        assert rc == 0
        assert capsys.readouterr().out == first

    def test_unknown_team(self, model_file, capsys):
        rc = main(["rank", str(model_file), "--teams", "Nonesuch FC,Other FC"])
        assert rc == 1


class TestSummary:
    def test_json_object(self, matches_file, capsys):
        rc = main(["summary", str(matches_file), "--output", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["teams"] == 8
        assert doc["matches"] == len(league_csv(8, 2, 0).strip().splitlines()) - 1
        assert 0.0 <= doc["draw_fraction"] <= 1.0
        assert [s["season_index"] for s in doc["per_season"]] == [1, 2]


def test_text_output_bytes(tmp_path, capsys):
    """The text-mode stdout of every command that prints a result, byte for byte."""
    matches, values, model = tmp_path / "m.csv", tmp_path / "v.csv", tmp_path / "model.json"
    matches.write_text(league_csv(n_teams=6, seasons=2, seed=4, rounds=1), encoding="utf-8")
    values.write_text(values_csv([f"Club {c}" for c in "ABCDEF"], seed=2), encoding="utf-8")
    expected = [
        (["train", str(matches), "-o", str(model), "--epochs", "3", "--delta", "4", "--seed", "5"],
         "epoch   1/3  mean_loss 1.732873\n"
         "epoch   2/3  mean_loss 1.732804\n"
         "epoch   3/3  mean_loss 1.732735\n"
         f"wrote {model}\n"),
        (["similar", str(model), "--team", "Club C", "--k", "3"],
         "team    distance\n"
         "------  --------\n"
         "Club D  0.731147\n"
         "Club A  1.10448 \n"
         "Club B  2.07745 \n"),
        (["rank", str(model), "--teams", "Club A,Club D,Club F"],
         "rank  team    victories\n"
         "----  ------  ---------\n"
         "1     Club F  2        \n"
         "2     Club D  1        \n"
         "3     Club A  0        \n"),
        (["summary", str(matches)],
         '{\n  "matches": 64,\n  "teams": 6,\n  "draw_fraction": 0.234375,\n  "per_season": [\n'
         '    {\n      "season_index": 1,\n      "season_label": "2010/2011",\n      "matches": 32\n    },\n'
         '    {\n      "season_index": 2,\n      "season_label": "2011/2012",\n      "matches": 32\n    }\n'
         "  ]\n}\n"),
        (["evaluate", str(matches), str(values), "--representation", "cat-1", "--seed", "5"],
         "representation  RMSE             MAE              MMAE           \n"
         "--------------  ---------------  ---------------  ---------------\n"
         "cat-1           327.69 ± 277.59  312.02 ± 279.68  312.02 ± 279.68\n"),
    ]
    for argv, out in expected:
        assert main(argv) == 0
        assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("command", ["summary", "evaluate", "export-features"])
def test_goal_count_beyond_int64_is_validation_error(tmp_path, capsys, command):
    lines = league_csv(n_teams=6, seasons=2, seed=0, rounds=1).splitlines()
    lines.insert(5, "2010/2011,NationalLeague,Club A,Club B,99999999999999999999,0")
    matches = tmp_path / "m.csv"
    matches.write_text("\n".join(lines) + "\n", encoding="utf-8")
    values = tmp_path / "v.csv"
    values.write_text(values_csv([f"Club {c}" for c in "ABCDEF"]), encoding="utf-8")
    argv = {
        "summary": ["summary", str(matches)],
        "evaluate": ["evaluate", str(matches), str(values), "--representation", "cat-1"],
        "export-features": ["export-features", str(matches), "-o", str(tmp_path / "f.csv"),
                            "--representation", "season-stats"],
    }[command]
    assert main(argv + ["--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "steve: error: row 6: goals must fit a 64-bit integer\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "where, message",
    [
        ("header", "row 1: field larger than field limit (131072)"),
        ("matches", "row 6: field larger than field limit (131072)"),
        ("values", "row 4: field larger than field limit (131072)"),
        ("NUL", "row 6: "),  # "goals must be integers", or "line contains NUL" before Python 3.11
    ],
)
def test_record_csv_cannot_read_is_one_validation_error(tmp_path, capsys, where, message):
    long_name = "X" * 200_000
    lines = league_csv(n_teams=6, seasons=2, seed=0, rounds=1).splitlines()
    values = values_csv([f"Club {c}" for c in "ABCDEF"]).splitlines()
    if where == "header":
        lines[0] = lines[0].replace("home,", long_name + ",")
    elif where == "matches":
        lines.insert(5, f"2010/2011,NationalLeague,Club A,{long_name},1,0")
    elif where == "values":
        values.insert(3, f"{long_name},10")
    else:
        lines.insert(5, "2010/2011,NationalLeague,Club A,Club B,1\0,0")
    matches = tmp_path / "m.csv"
    matches.write_text("\n".join(lines) + "\n", encoding="utf-8")
    values_path = tmp_path / "v.csv"
    values_path.write_text("\n".join(values) + "\n", encoding="utf-8")
    argv = ["summary", str(matches)] if where in ("header", "matches") else [
        "evaluate", str(matches), str(values_path), "--representation", "cat-1"]
    assert main(argv + ["--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"steve: error: {message}")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


class TestEvaluate:
    @pytest.fixture
    def values_file(self, tmp_path, matches_file, model_file):
        path = tmp_path / "values.csv"
        path.write_text(values_csv(team_names(model_file), seed=1), encoding="utf-8")
        return path

    def test_season_stats_regression(self, matches_file, values_file, capsys):
        rc = main(["evaluate", str(matches_file), str(values_file),
                   "--representation", "season-stats", "--task", "regression",
                   "--output", "json", "--quiet"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["per_fold"]) == {"rmse", "mae", "median_ae"}
        assert doc["metadata"]["representation"] == "season-stats"
        assert doc["metadata"]["standardize_features"] is True

    def test_classification_report_carries_f1_columns(self, matches_file, values_file, capsys):
        rc = main(["evaluate", str(matches_file), str(values_file),
                   "--representation", "sum-2", "--task", "classification",
                   "--output", "json", "--quiet"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["per_fold"]) == {"micro_f1", "macro_f1"}

    def test_steve_16_features(self, matches_file, values_file, capsys):
        rc = main(["evaluate", str(matches_file), str(values_file),
                   "--representation", "steve-16", "--task", "regression",
                   "--output", "json", "--quiet"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metadata"]["standardize_features"] is False

    def test_missing_values_named(self, matches_file, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("team,value_millions\nClub A,10\n", encoding="utf-8")
        rc = main(["evaluate", str(matches_file), str(short),
                   "--representation", "season-stats", "--quiet"])
        assert rc == 1
        assert "Club B" in capsys.readouterr().err

    def test_unknown_representation(self, matches_file, values_file, capsys):
        rc = main(["evaluate", str(matches_file), str(values_file),
                   "--representation", "steve-7", "--quiet"])
        assert rc == 1

    def test_cat_window_beyond_history(self, matches_file, values_file, capsys):
        rc = main(["evaluate", str(matches_file), str(values_file),
                   "--representation", "cat-9", "--quiet"])
        assert rc == 1  # only 2 seasons of data


class TestExportFeatures:
    def test_season_stats_header(self, matches_file, tmp_path):
        out = tmp_path / "features.csv"
        rc = main(["export-features", str(matches_file), "-o", str(out),
                   "--representation", "season-stats", "--quiet"])
        assert rc == 0
        header = out.read_text().splitlines()[0].split(",")
        assert len(header) == 19
        assert header[0] == "team"
        assert header[1] == "national_wins"

    def test_cat9_is_162_wide(self, tmp_path):
        matches = tmp_path / "m9.csv"
        matches.write_text(league_csv(n_teams=5, seasons=9, seed=2, rounds=1), encoding="utf-8")
        out = tmp_path / "features.csv"
        rc = main(["export-features", str(matches), "-o", str(out),
                   "--representation", "cat-9", "--quiet"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines[0].split(",")) == 1 + 162
        assert len(lines) == 1 + 5

    @pytest.mark.parametrize("season", ["0", "3", "99999999999999999999"])
    def test_season_outside_the_data_is_refused(self, matches_file, tmp_path, capsys, season):
        out = tmp_path / "f.csv"
        rc = main(["export-features", str(matches_file), "-o", str(out),
                   "--representation", "cat-1", "--season", season, "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"steve: error: --season must be in 1..2, the data's newest season, got {season}\n"
        )
        assert not out.exists()

    def test_steve_export_requires_model(self, matches_file, tmp_path, capsys):
        rc = main(["export-features", str(matches_file), "-o", str(tmp_path / "f.csv"),
                   "--representation", "steve-16", "--quiet"])
        assert rc == 1

    def test_steve_export_round_trips_vectors(self, matches_file, tmp_path):
        model = tmp_path / "m8.json"
        assert main(["train", str(matches_file), "-o", str(model), "--delta", "8",
                     "--epochs", "2", "--quiet"]) == 0
        out = tmp_path / "f.csv"
        rc = main(["export-features", str(matches_file), "-o", str(out),
                   "--representation", "steve-16", "--model", str(model), "--quiet"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines[0].split(",")) == 1 + 16
        doc = json.loads(model.read_text(encoding="utf-8"))
        first = lines[1].split(",")
        assert first[0] == doc["teams"][0]["name"]
        np.testing.assert_array_equal(
            [float(v) for v in first[1:9]], doc["teams"][0]["phi"]
        )


    @pytest.fixture
    def model8(self, matches_file, tmp_path):
        model = tmp_path / "m8.json"
        assert main(["train", str(matches_file), "-o", str(model), "--delta", "8",
                     "--epochs", "2", "--quiet"]) == 0
        return model

    def test_steve_export_reads_the_matches_file(self, model8, tmp_path, capsys):
        out = tmp_path / "f.csv"
        rc = main(["export-features", str(tmp_path / "nope.csv"), "-o", str(out),
                   "--representation", "steve-16", "--model", str(model8), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("steve: I/O error: ")
        assert not out.exists()

    def test_steve_export_refuses_season(self, matches_file, model8, tmp_path, capsys):
        out = tmp_path / "f.csv"
        rc = main(["export-features", str(matches_file), "-o", str(out), "--representation", "steve-16",
                   "--model", str(model8), "--season", "2", "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "steve: error: --season applies only to the count representations, not steve-16\n"
        )
        assert not out.exists()

    def test_steve_rows_are_the_data_teams_in_data_order(self, matches_file, model8, tmp_path, capsys):
        header, *rows = matches_file.read_text(encoding="utf-8").splitlines()
        # Seven of the model's eight teams, first seen in another order than in training.
        rows = [row for row in reversed(rows) if "Club H" not in row]
        data = tmp_path / "d.csv"
        data.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        out = tmp_path / "f.csv"
        assert main(["export-features", str(data), "-o", str(out), "--representation", "steve-16",
                     "--model", str(model8), "--quiet"]) == 0
        order = list(dict.fromkeys(name for row in rows for name in row.split(",")[2:4]))
        vectors = {t["name"]: t["phi"] + t["psi"] for t in json.loads(model8.read_text(encoding="utf-8"))["teams"]}
        lines = out.read_text(encoding="utf-8").splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == order and len(order) == 7
        for line in lines:
            name, *values = line.split(",")
            assert [float(v) for v in values] == vectors[name]
        # A team of the data that the model lacks is refused by name.
        data.write_text(data.read_text(encoding="utf-8").replace("Club C", "Club Z"), encoding="utf-8")
        out.unlink()
        assert main(["export-features", str(data), "-o", str(out), "--representation", "steve-16",
                     "--model", str(model8), "--quiet"]) == 1
        assert capsys.readouterr().err == "steve: error: the model has no team 'Club Z' of the matches file\n"
        assert not out.exists()


@pytest.mark.parametrize("kind", ["matches", "values", "teams"])
def test_byte_order_mark_is_ignored(matches_file, model_file, tmp_path, capsys, kind):
    # Excel's "CSV UTF-8" export writes U+FEFF first.
    names = team_names(model_file)
    values, teams = tmp_path / "values.csv", tmp_path / "teams.txt"
    values.write_text(values_csv(names, seed=1), encoding="utf-8")
    teams.write_text("\n".join(names[:3]) + "\n", encoding="utf-8")
    path, argv = {
        "matches": (matches_file, ["summary", str(matches_file)]),
        "values": (values, ["evaluate", str(matches_file), str(values), "--representation", "cat-1",
                            "--output", "json"]),
        "teams": (teams, ["rank", str(model_file), "--teams", str(teams)]),
    }[kind]
    assert main(argv) == 0
    without = capsys.readouterr()
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main(argv) == 0
    assert capsys.readouterr() == without


@pytest.mark.parametrize("kind", ["matches", "values", "teams", "model"])
def test_byte_not_utf8_names_the_file(matches_file, model_file, tmp_path, capsys, kind):
    names = team_names(model_file)
    values, teams = tmp_path / "values.csv", tmp_path / "teams.txt"
    values.write_text(values_csv(names, seed=1), encoding="utf-8")
    teams.write_text("\n".join(names[:3]) + "\n", encoding="utf-8")
    rank = ["rank", str(model_file), "--teams"]
    path, argv = {
        "matches": (matches_file, ["summary", str(matches_file)]),
        "values": (values, ["evaluate", str(matches_file), str(values), "--representation", "cat-1"]),
        "teams": (teams, rank + [str(teams)]),
        "model": (model_file, rank + [",".join(names[:3])]),
    }[kind]
    head, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(head + b"\n\xff" + rest)  # the second line starts with a byte UTF-8 never uses
    assert main(argv + ["--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"steve: error: {path}: not valid UTF-8 ('utf-8' codec can't decode byte 0xff")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


@pytest.mark.parametrize("bom", [False, True])
@pytest.mark.parametrize("kind", ["matches", "values", "teams", "model"])
def test_byte_not_utf8_past_the_first_block_is_named_by_file_offset(
    matches_file, model_file, tmp_path, capsys, kind, bom
):
    # A text reader decodes 8 KB blocks; the error names the byte's place in the file.
    names = team_names(model_file)
    values, teams = tmp_path / "values.csv", tmp_path / "teams.txt"
    padding = [f"Extra Club {i:04},{i + 1}" for i in range(800)]
    values.write_text(values_csv(names, seed=1) + "\n".join(padding) + "\n", encoding="utf-8")
    teams.write_text("\n".join(names * 200) + "\n", encoding="utf-8")
    matches = matches_file.read_text(encoding="utf-8").splitlines(keepends=True)
    matches_file.write_text("".join(matches + matches[1:] * (10_000 // len("".join(matches)))), encoding="utf-8")
    if kind == "model":  # wide enough to pass 8 KB
        assert main(["train", str(matches_file), "-o", str(model_file), "--delta", "64", "--epochs", "1", "--quiet"]) == 0
    rank = ["rank", str(model_file), "--teams"]
    path, argv = {
        "matches": (matches_file, ["summary", str(matches_file)]),
        "values": (values, ["evaluate", str(matches_file), str(values), "--representation", "cat-1"]),
        "teams": (teams, rank + [str(teams)]),
        "model": (model_file, rank + [",".join(names[:3])]),
    }[kind]
    data = b"\xef\xbb\xbf" * bom + path.read_bytes()
    offset = data.index(b"\n", 9_000) + 1
    assert offset < len(data) - 1
    path.write_bytes(data[:offset] + b"\xff" + data[offset:])
    assert main(argv + ["--quiet"]) == 1
    line = data.count(b"\n", 0, offset) + 1
    assert capsys.readouterr().err == (
        f"steve: error: {path}: not valid UTF-8 ('utf-8' codec can't decode byte 0xff "
        f"at byte offset {offset}, line {line}: invalid start byte)\n"
    )


def test_truncated_character_at_the_end_is_named_by_file_offset(matches_file, capsys):
    data = matches_file.read_bytes() + b"\xe2\x82"
    matches_file.write_bytes(data)
    assert main(["summary", str(matches_file)]) == 1
    line = data.count(b"\n") + 1
    assert capsys.readouterr().err == (
        f"steve: error: {matches_file}: not valid UTF-8 ('utf-8' codec can't decode bytes 0xe2 0x82 "
        f"at byte offset {len(data) - 2}, line {line}: unexpected end of data)\n"
    )


@pytest.mark.parametrize("where", ["within the first 8 KB", "past the first 8 KB"])
@pytest.mark.parametrize("kind, message", [
    ("matches", "row 2: goals must be integers"), ("values", "row 2: non-numeric value 'x'"),
])
def test_bad_record_before_a_byte_not_utf8_is_named_first(matches_file, tmp_path, capsys, kind, message, where):
    # Wherever the bad byte lies: in the first 8 KB, which a text reader
    # decodes at once, or past them.
    values = tmp_path / "values.csv"
    values.write_text(values_csv([f"Club {c}" for c in "ABCDEFGH"], seed=1), encoding="utf-8")
    path = matches_file if kind == "matches" else values
    lines = path.read_text(encoding="utf-8").splitlines()[:6]
    lines[1] = lines[1].rsplit(",", 1)[0] + ",x"
    if where == "past the first 8 KB":
        lines += lines[2:] * (20_000 // len("\n".join(lines)) + 1)
    data = "\n".join(lines).encode() + b"\n\xff\n"
    assert (len(data) > 8192) == (where == "past the first 8 KB")
    path.write_bytes(data)
    argv = ["summary", str(matches_file)] if kind == "matches" else [
        "evaluate", str(matches_file), str(values), "--representation", "cat-1"]
    assert main(argv + ["--quiet"]) == 1
    assert capsys.readouterr().err == f"steve: error: {message}\n"


class TestBaselineOutputsMatchReferenceScan:
    """``export-features`` bytes and ``evaluate`` JSON as the per-team scan gives them."""

    CASES = [
        ("season-stats", SEASON_STATS_COLUMNS, reference_season_stats),
        ("cat-2", cat_feature_columns(2), lambda *team_season: reference_cat_features(*team_season, 2)),
        ("sum-3", SEASON_STATS_COLUMNS, lambda *team_season: reference_sum_features(*team_season, 3)),
    ]

    @pytest.fixture
    def league(self, tmp_path):
        matches = tmp_path / "m4.csv"
        matches.write_text(league_csv(n_teams=6, seasons=4, seed=3, rounds=1), encoding="utf-8")
        with open(matches, encoding="utf-8", newline="") as f:
            registry, raw = reference_ingest_csv(f)
        values = tmp_path / "v4.csv"
        values.write_text(values_csv(registry.names, seed=2), encoding="utf-8")
        return matches, values, registry, raw

    def reference_matrix(self, rule, raw, registry, newest):
        return np.array([rule(raw, registry, t, newest) for t in range(1, registry.m + 1)])

    @pytest.mark.parametrize("rep, columns, rule", CASES)
    @pytest.mark.parametrize("season", [None, 3, 4])
    def test_export_bytes(self, league, tmp_path, rep, columns, rule, season):
        matches, _, registry, raw = league
        out = tmp_path / "f.csv"
        flags = [] if season is None else ["--season", str(season)]
        assert main(["export-features", str(matches), "-o", str(out),
                     "--representation", rep, "--quiet", *flags]) == 0
        matrix = self.reference_matrix(rule, raw, registry, season or 4)
        lines = [",".join(["team", *columns])]
        lines += [",".join([name] + [repr(float(v)) for v in row]) for name, row in zip(registry.names, matrix)]
        assert out.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()

    @pytest.mark.parametrize("rep, columns, rule", CASES)
    def test_evaluate_json(self, league, capsys, rep, columns, rule):
        matches, values, registry, raw = league
        seed = 11
        assert main(["evaluate", str(matches), str(values), "--representation", rep,
                     "--output", "json", "--quiet", "--seed", str(seed)]) == 0
        with open(values, encoding="utf-8", newline="") as f:
            table = valuation.load_values(f)
        y = np.array([table[n] for n in registry.names])
        report = valuation.cross_validate(
            self.reference_matrix(rule, raw, registry, 4), y, valuation.Task.REGRESSION,
            seed=_stage_seed(seed, 1), standardize_features=True, metadata={"representation": rep},
        )
        assert capsys.readouterr().out == json.dumps(report.to_dict()) + "\n"


class TestRepresentationParsing:
    def test_steve_names_map_to_half_width_delta(self):
        from steve.cli import _parse_representation

        assert _parse_representation("steve-16") == ("steve", 8)
        assert _parse_representation("steve-32") == ("steve", 16)
        assert _parse_representation("steve-64") == ("steve", 32)
        assert _parse_representation("season-stats") == ("season-stats", None)
        assert _parse_representation("cat-9") == ("cat", 9)
        assert _parse_representation("sum-3") == ("sum", 3)

    @pytest.mark.parametrize("bad", ["steve-8", "cat-0", "sum-x", "elo"])
    def test_unknown_names_rejected(self, bad):
        from steve.cli import _parse_representation

        with pytest.raises(ValueError):
            _parse_representation(bad)


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["similar", "m.json"], "the following arguments are required: --team"),
            (["summary", "m.csv", "--output", "xml"], "argument --output: invalid choice: 'xml'"),
            (["train", "m.csv", "--epochs", "two"], "argument --epochs: invalid int value: 'two'"),
            (["summary", "m.csv", "--bogus"], "unrecognized arguments: --bogus"),
            (["train", "m.csv", "--seed", "-1"], "argument --seed: must be non-negative, got -1"),
            (["evaluate", "m.csv", "v.csv", "--representation", "cat-1", "--seed", "-1"],
             "argument --seed: must be non-negative, got -1"),
            (["summary", "m.csv", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        ],
    )
    def test_usage_error_is_one_validation_error_line(self, capsys, argv, message):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"steve: error: {message}")
        assert len(err.splitlines()) == 1


def steve_argv(command, matches_file, model_file, tmp_path):
    """The arguments of ``command`` on the small league, printing what it prints by default."""
    names = team_names(model_file)
    values = tmp_path / "values.csv"
    values.write_text(values_csv(names, seed=1), encoding="utf-8")
    return {
        "summary": ["summary", str(matches_file)],
        "train": ["train", str(matches_file), "-o", str(tmp_path / "m.json"), "--epochs", "2", "--delta", "4"],
        "rank": ["rank", str(model_file), "--teams", ",".join(names)],
        "similar": ["similar", str(model_file), "--team", names[0], "--k", "2"],
        "evaluate": ["evaluate", str(matches_file), str(values), "--representation", "cat-1"],
        "export-features": ["export-features", str(matches_file), "-o", str(tmp_path / "f.csv"),
                            "--representation", "cat-1"],
        "--help": ["--help"],
    }[command]


def run_steve_into(into, argv, unbuffered):
    """``python -m steve.cli *argv`` with stdout a closed pipe, ``/dev/full`` or a closed fd 1."""
    env = {"PYTHONUNBUFFERED": "1"} if unbuffered else None
    if into == "closed pipe":  # as `steve ... | (exec 0<&-; true)`: the reader is gone
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return run_python("-m", "steve.cli", *argv, env=env, stdout=write_end)
        finally:
            os.close(write_end)
    if into == "/dev/full":
        with open("/dev/full", "wb") as full:
            return run_python("-m", "steve.cli", *argv, env=env, stdout=full)
    # `steve ... >&-`: fd 1 is closed when the interpreter starts.
    return run_python("-m", "steve.cli", *argv, env=env, stdout=None, preexec_fn=lambda: os.close(1))


_COMMANDS = ["summary", "train", "rank", "similar", "evaluate", "export-features", "--help"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("into", ["closed pipe", "/dev/full", "closed fd"])
@pytest.mark.parametrize("command", _COMMANDS)
def test_output_that_cannot_be_written(matches_file, model_file, tmp_path, command, into, unbuffered):
    # A failed write of the output is an I/O error in either stdout mode,
    # never "Exception ignored" and exit 120 from the interpreter's teardown.
    proc = run_steve_into(into, steve_argv(command, matches_file, model_file, tmp_path), unbuffered)
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr, proc.stderr
    if into == "closed fd":
        # No stdout: print writes nothing, and the command succeeds (argparse
        # writes the help to stderr instead).
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.startswith("usage: steve") if command == "--help" else proc.stderr == ""
    else:
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("steve: I/O error: ")
        assert len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_train_into_a_closed_pipe_writes_no_model(matches_file, tmp_path, unbuffered):
    # The first epoch line fails in either stdout mode, before the model is saved.
    before = set(tmp_path.iterdir())
    argv = ["train", str(matches_file), "-o", str(tmp_path / "m.json"), "--epochs", "2", "--delta", "4"]
    proc = run_steve_into("closed pipe", argv, unbuffered)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("steve: I/O error: ") and len(proc.stderr.splitlines()) == 1, proc.stderr
    assert set(tmp_path.iterdir()) == before


def test_main_with_argv_returns_the_code_and_leaves_the_process(matches_file, capsys):
    with mock.patch("os._exit", side_effect=AssertionError("os._exit called")):
        assert main(["summary", str(matches_file)]) == 0
        assert main(["summary", str(matches_file) + ".missing"]) == 2
        assert main(["summary", str(matches_file), "--seed", "-1"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["teams"] == 8
    assert err.startswith("steve: I/O error: ") and len(err.splitlines()) == 2


def test_main_with_argv_help_raises_system_exit(capsys):
    with mock.patch("os._exit", side_effect=AssertionError("os._exit called")), \
            pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: steve")


class _Failing(io.StringIO):
    """A text stream whose ``write`` or ``flush`` raises ``BrokenPipeError``."""

    def __init__(self, method):
        super().__init__()
        self.method = method

    def write(self, text):
        self._fail("write")
        return super().write(text)

    def flush(self):
        self._fail("flush")

    def _fail(self, method):
        if method == self.method:
            raise BrokenPipeError(32, "Broken pipe")


#: case: argv (M: the matches file), what fails of stdout (None: no stream) and
#: of stderr, exit code, and the start of stderr (None: unreadable).
_PROGRAM_CASES = {
    "no stdout": (["summary", "M"], None, "", 0, ""),
    "stdout flush fails": (["summary", "M"], "flush", "", 2, "steve: I/O error: [Errno 32] Broken pipe\n"),
    "stdout flush fails after an error": (["summary", "M", "--seed", "-1"], "flush", "", 1,
                                          "steve: error: argument --seed"),
    "stderr write fails": (["summary", "M", "--seed", "-1"], "", "write", 2, None),
    "stderr flush fails": (["summary", "M"], "", "flush", 2, None),
    "--help": (["--help"], "", "", 0, ""),
}


@pytest.mark.parametrize("argv, stdout, stderr, code, err", _PROGRAM_CASES.values(), ids=_PROGRAM_CASES)
def test_main_as_the_program_flushes_then_exits(matches_file, argv, stdout, stderr, code, err):
    # Without argv, main flushes both streams and ends the process through os._exit.
    stdout = None if stdout is None else _Failing(stdout)
    stderr = _Failing(stderr)
    argv = ["steve"] + [str(matches_file) if a == "M" else a for a in argv]
    with mock.patch("sys.argv", argv), mock.patch("sys.stdout", stdout), mock.patch("sys.stderr", stderr), \
            mock.patch("os._exit", side_effect=SystemExit) as exit_, pytest.raises(SystemExit):
        main()
    exit_.assert_called_once_with(code)
    if err is not None:
        assert stderr.getvalue().startswith(err) and len(stderr.getvalue().splitlines()) == bool(err)


#: Prints the exit code of ``main(argv)`` and the ``steve.*`` modules it loaded.
_IMPORT_GRAPH = """
import contextlib, io, json, sys
from steve.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as e:
        code = e.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("steve."))]))
"""


@pytest.mark.parametrize("command, unloaded", [
    ("--help", {"steve.match_data", "steve.valuation", "steve.baselines"}),
    ("rank", {"steve.match_data", "steve.valuation", "steve.baselines"}),
    ("similar", {"steve.match_data", "steve.valuation", "steve.baselines"}),
    ("summary", {"steve.valuation", "steve.baselines"}),
    ("train", {"steve.valuation", "steve.baselines"}),
])
def test_command_loads_only_the_modules_it_runs(matches_file, model_file, tmp_path, command, unloaded):
    # Compiling a module it never calls would slow every start of the command.
    names = team_names(model_file)
    argv = {
        "--help": ["--help"],
        "rank": ["rank", str(model_file), "--teams", ",".join(names)],
        "similar": ["similar", str(model_file), "--team", names[0], "--k", "2"],
        "summary": ["summary", str(matches_file)],
        "train": ["train", str(matches_file), "-o", str(tmp_path / "m.json"), "--epochs", "1", "--quiet"],
    }[command]
    proc = run_python("-c", _IMPORT_GRAPH, *argv, env={"PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert "steve.cli" in loaded
    assert not unloaded & set(loaded)


# A fresh ``steve`` whose address space is capped at 2 GiB: a runaway
# allocation ends in a ``MemoryError`` at once instead of exhausting the host.
_CAPPED = """
import resource, sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
cap = 2 ** 31 if hard == resource.RLIM_INFINITY else min(2 ** 31, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from steve.cli import main
sys.exit(main())
"""


def run_capped(*argv):
    pytest.importorskip("resource")
    return run_python("-c", _CAPPED, *argv, env={"OPENBLAS_NUM_THREADS": "1"})


def assert_one_error_line(proc, message):
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"steve: error: {message}"), proc.stderr
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("command", ["export-features", "evaluate"])
def test_huge_cat_window_is_refused_before_its_header_is_built(matches_file, model_file, tmp_path, command):
    values = tmp_path / "values.csv"
    values.write_text(values_csv(team_names(model_file), seed=1), encoding="utf-8")
    x = "99999999999999999999"
    argv = {
        "export-features": ["export-features", str(matches_file), "-o", str(tmp_path / "f.csv")],
        "evaluate": ["evaluate", str(matches_file), str(values)],
    }[command]
    proc = run_capped(*argv, "--representation", f"cat-{x}", "--quiet")
    assert_one_error_line(proc, f"window of {x} seasons ending at 2 reaches below season 1")
    assert not (tmp_path / "f.csv").exists()


def test_allocation_failure_is_one_error_line(matches_file, tmp_path):
    out = tmp_path / "m.json"
    proc = run_capped("train", str(matches_file), "-o", str(out), "--delta", "100000000000", "--quiet")
    assert_one_error_line(proc, "out of memory: Unable to allocate")
    assert list(tmp_path.iterdir()) == [matches_file]


@pytest.mark.parametrize("command", ["rank", "similar"])
@pytest.mark.parametrize("output", ["text", "json"])
def test_output_identical_without_the_sidecar(model_file, capsys, command, output):
    names = team_names(model_file)
    argv = {
        "rank": ["rank", str(model_file), "--teams", ",".join(names)],
        "similar": ["similar", str(model_file), "--team", names[3], "--k", "4"],
    }[command] + ["--output", output]
    assert main(argv) == 0
    with_sidecar = capsys.readouterr()
    model_file.with_name("model.json.theta").unlink()
    assert main(argv) == 0
    assert capsys.readouterr() == with_sidecar
    assert not model_file.with_name("model.json.theta").exists()  # a load never writes


# ---------------------------------------------------------------------------
# Bad-input sweep: every subcommand, run in process on argvs drawn from a
# small pool of good and damaged files, ends in exit 0, or in exit 1 or 2
# with one ``steve: `` line on stderr.  Only small ``--delta`` and
# ``--epochs`` are drawn; allocation failures are the capped tests' job.

@pytest.fixture(scope="module")
def input_pool(tmp_path_factory):
    """The pool's directory, holding every file named in ``_POOL`` (and ``out/`` for outputs)."""
    pool = tmp_path_factory.mktemp("pool")
    (pool / "out").mkdir()
    good = league_csv(n_teams=6, seasons=2, seed=0, rounds=1)
    header, *rows = good.splitlines(keepends=True)
    names = [f"Club {c}" for c in "ABCDEF"]
    bad_row = "2010/2011,NationalLeague,Club A,Club A,1,0\n"
    values = values_csv(names).splitlines(keepends=True)
    for name, data in {
        "matches.csv": good.encode(),
        "header-only.csv": header.encode(),
        "bad-row.csv": "".join([header, *rows[:3], bad_row, *rows[3:]]).encode(),
        "bom.csv": b"\xef\xbb\xbf" + good.encode(),
        "bad-utf8.csv": good.encode().replace(b"Club C", b"Club \xff", 1),
        "values.csv": "".join(values).encode(),
        "values-missing-team.csv": "".join(values[:-1]).encode(),
        "values-nan.csv": "".join([*values[:2], "Club B,nan\n", *values[3:]]).encode(),
        "teams.txt": b"Club A\nClub B\n",
        "teams-bad-utf8.txt": b"Club A\n\xffClub B\n",
    }.items():
        (pool / name).write_bytes(data)
    assert main(["train", str(pool / "matches.csv"), "-o", str(pool / "model.json"),
                 "--delta", "8", "--epochs", "2", "--quiet"]) == 0
    text = (pool / "model.json").read_bytes()
    (pool / "truncated.json").write_bytes(text[: len(text) // 2])
    (pool / "nested.json").write_text("[" * 200_000 + "]" * 200_000)
    (pool / "corrupt").mkdir()
    (pool / "corrupt" / "model.json").write_bytes(text)
    sidecar = bytearray((pool / "model.json.theta").read_bytes())
    sidecar[len(sidecar) // 2] ^= 0xFF
    (pool / "corrupt" / "model.json.theta").write_bytes(sidecar)
    return pool


_POOL = {
    "matches": ["matches.csv", "header-only.csv", "bad-row.csv", "bom.csv", "bad-utf8.csv", "missing.csv"],
    "values": ["values.csv", "values-missing-team.csv", "values-nan.csv", "missing.csv"],
    "model": ["model.json", "truncated.json", "nested.json", "corrupt/model.json", "missing.json"],
}
_REPRESENTATIONS = ["cat-1", "cat-3", "sum-2", "season-stats", "steve-16", "steve-32", "cat-0", "bogus"]


def draw_argv(data, pool) -> list[str]:
    def path(role):
        return str(pool / data.draw(st.sampled_from(_POOL[role]), label=role))

    def small(lo, hi):
        return str(data.draw(st.integers(lo, hi)))

    command = data.draw(st.sampled_from(["train", "similar", "rank", "evaluate", "summary", "export-features"]))
    argv = [command]
    if command == "train":
        argv += [path("matches"), "-o", str(pool / "out" / "m.json"),
                 "--delta", small(-1, 4), "--epochs", small(0, 2), "--batch-size", small(0, 8)]
    elif command == "similar":
        argv += [path("model"), "--team", data.draw(st.sampled_from(["Club A", "Club Z", ""])), "--k", small(-1, 6)]
    elif command == "rank":
        teams = st.sampled_from(["Club A,Club F", "Club A", "Club A,Nobody", ",", str(pool / "teams.txt"),
                                 str(pool / "teams-bad-utf8.txt")])
        argv += [path("model"), "--teams", data.draw(teams)]
    elif command == "evaluate":
        argv += [path("matches"), path("values"), "--representation", data.draw(st.sampled_from(_REPRESENTATIONS)),
                 "--task", data.draw(st.sampled_from(["regression", "classification"]))]
    elif command == "summary":
        argv += [path("matches")]
    else:
        argv += [path("matches"), "-o", str(pool / "out" / "f.csv"),
                 "--representation", data.draw(st.sampled_from(_REPRESENTATIONS))]
        if data.draw(st.booleans(), label="with --model"):
            argv += ["--model", path("model")]
        if data.draw(st.booleans(), label="with --season"):
            argv += ["--season", small(-1, 3)]
    return argv + data.draw(st.sampled_from([[], ["--output", "json"], ["--quiet"]]), label="flags")


@pytest.mark.parametrize("block_bytes", [match_data._BLOCK_BYTES, 64])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bad_input_sweep_ends_in_one_error_line(input_pool, block_bytes, data):
    # Matches files are read in one block, and in blocks of one or two lines.
    argv = draw_argv(data, input_pool)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(match_data, "_BLOCK_BYTES", block_bytes):
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("steve: ") and err.getvalue().count("\n") == 1, err.getvalue()
        assert err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""
