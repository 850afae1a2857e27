import json
from datetime import datetime

import numpy as np
import pytest

from helpers import BROKEN_CASES, broken_model_file, strength_league
from steve.match_data import TeamRegistry
from steve.analytics import rank_teams
from steve.model_io import MODEL_FORMAT_VERSION, load_model, read_model_file, save_model
from steve.trainer import TrainConfig, init_model, train


@pytest.fixture
def trained(tmp_path):
    ds, _ = strength_league(6, 2, 2, seed=0)
    cfg = TrainConfig(delta=4, epochs=3, batch_size=8, seed=5)
    model = train(ds, cfg)
    path = tmp_path / "model.json"
    save_model(model, path, train_config=cfg)
    return model, cfg, path


class TestRoundTrip:
    def test_vectors_bit_exact(self, trained):
        model, _, path = trained
        loaded = load_model(path)
        assert np.array_equal(loaded.phi, model.phi)
        assert np.array_equal(loaded.psi, model.psi)
        assert loaded.delta == model.delta
        assert loaded.x_max == model.x_max
        assert loaded.registry.names == model.registry.names

    def test_analytics_identical_after_reload(self, trained):
        model, _, path = trained
        loaded = load_model(path)
        before = [(e.team, e.victories, e.rank) for e in rank_teams(model, [1, 2, 3, 4])]
        after = [(e.team, e.victories, e.rank) for e in rank_teams(loaded, [1, 2, 3, 4])]
        assert before == after

    def test_model_equal_after_round_trip(self, trained):
        model, _, path = trained
        assert load_model(path) == model

    def test_models_of_other_seeds_differ(self):
        assert init_model(3, 2, 0) != init_model(3, 2, 1)
        assert not init_model(3, 2, 0) == init_model(3, 2, 1)

    def test_equality_returns_a_bool(self):
        same = init_model(3, 2, 0) == init_model(3, 2, 0)
        assert same is True
        assert (init_model(3, 2, 0) == "model") is False
        other_names = init_model(3, 2, 0, registry=TeamRegistry(["x", "y", "z"]))
        assert (init_model(3, 2, 0) == other_names) is False

    def test_double_round_trip_stable(self, trained, tmp_path):
        _, _, path = trained
        loaded = load_model(path)
        second = tmp_path / "again.json"
        save_model(loaded, second)
        assert np.array_equal(load_model(second).phi, loaded.phi)


class TestFileContents:
    def test_document_fields(self, trained):
        model, cfg, path = trained
        doc = read_model_file(path)
        assert doc["format_version"] == MODEL_FORMAT_VERSION
        assert doc["delta"] == cfg.delta
        assert doc["train_config"]["epochs"] == cfg.epochs
        assert doc["train_config"]["seed"] == cfg.seed
        assert [t["name"] for t in doc["teams"]] == model.registry.names
        # created_at must be RFC 3339 / ISO 8601 with explicit UTC offset
        stamp = datetime.fromisoformat(doc["created_at"])
        assert stamp.utcoffset() is not None
        assert stamp.utcoffset().total_seconds() == 0

    def test_vector_widths(self, trained):
        _, cfg, path = trained
        doc = read_model_file(path)
        assert all(len(t["phi"]) == cfg.delta and len(t["psi"]) == cfg.delta for t in doc["teams"])


class TestValidation:
    def test_wrong_version(self, trained, tmp_path):
        _, _, path = trained
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="format_version"):
            load_model(bad)

    def test_not_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ truncated")
        with pytest.raises(ValueError, match="JSON"):
            load_model(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_model(tmp_path / "nope.json")

    def test_wrong_vector_width(self, trained, tmp_path):
        _, _, path = trained
        doc = json.loads(path.read_text())
        doc["teams"][0]["phi"] = doc["teams"][0]["phi"][:-1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="width"):
            load_model(bad)

    def test_duplicate_names(self, trained, tmp_path):
        _, _, path = trained
        doc = json.loads(path.read_text())
        doc["teams"][1]["name"] = doc["teams"][0]["name"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="duplicate"):
            load_model(bad)

    def test_no_teams(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format_version": 1, "delta": 2, "x_max": 1, "teams": []}))
        with pytest.raises(ValueError, match="no teams"):
            load_model(bad)


@pytest.mark.parametrize("case, message", BROKEN_CASES)
def test_broken_file_raises_value_error_naming_path(trained, tmp_path, case, message):
    _, _, path = trained
    bad = broken_model_file(path, tmp_path, case)
    with pytest.raises(ValueError, match=message) as err:
        load_model(bad)
    assert str(bad) in str(err.value)


def test_row_within_unit_norm_tolerance_loads(trained, tmp_path):
    _, _, path = trained
    doc = json.loads(path.read_text())
    doc["teams"][0]["phi"] = [v * (1 + 5e-7) for v in doc["teams"][0]["phi"]]
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(doc))
    assert load_model(ok).phi[0, 0] == doc["teams"][0]["phi"][0]


class TestAtomicSave:
    def test_failed_save_keeps_earlier_file_and_leaves_no_temp(self, trained, tmp_path, monkeypatch):
        model, _, path = trained
        before = path.read_bytes()

        def boom(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(json, "dump", boom)
        with pytest.raises(RuntimeError, match="disk full"):
            save_model(model, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    def test_save_replaces_earlier_file_and_leaves_no_temp(self, trained, tmp_path):
        _, _, path = trained
        other = init_model(3, 2, 0)
        save_model(other, path)
        assert np.array_equal(load_model(path).phi, other.phi)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


def test_save_without_config(tmp_path):
    model = init_model(3, 2, 0)
    path = tmp_path / "m.json"
    save_model(model, path)
    assert read_model_file(path)["train_config"] is None
    assert np.array_equal(load_model(path).phi, model.phi)
