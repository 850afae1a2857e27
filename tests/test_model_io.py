import io
import json
import os
import zlib
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import BROKEN_CASES, broken_model_file, init_model, strength_league
from steve import model_io
from steve.match_data import TeamRegistry
from steve.analytics import rank_teams
from steve.model_io import MODEL_FORMAT_VERSION, load_model, read_model_file, save_model
from steve.trainer import EmbeddingModel, TrainConfig, train


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
        names = [t["name"] for t in doc["teams"]]
        # The first repeat in file order, not the repeat of the first name.
        doc["teams"][4]["name"] = names[2]
        doc["teams"][5]["name"] = names[1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="duplicate") as err:
            load_model(bad)
        assert str(err.value) == f"{bad}: duplicate team names in model file: {names[2]!r}"

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


class TestVectorEntries:
    """Every vector entry must be a JSON number; numpy alone would take more."""

    def write(self, tmp_path, **vectors):
        teams = [{"name": name, "phi": [1.0, 0.0], "psi": [0.0, 1.0]} for name in "ABC"]
        teams[1].update(vectors)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": 1, "delta": 2, "x_max": 1, "teams": teams}))
        return path

    @pytest.mark.parametrize("vectors", [
        {"psi": ["0.0", 1.0]},
        {"phi": [True, False]},
        {"phi": [1.0, None]},
        {"psi": [[0.0], 1.0]},
    ], ids=["numeric string", "bools", "null", "list"])
    def test_non_number_rejected(self, tmp_path, vectors):
        path = self.write(tmp_path, **vectors)
        key = next(iter(vectors))
        with pytest.raises(ValueError, match=f"^{path}: a {key} vector holds a non-numeric value$"):
            load_model(path)

    def test_integer_entries_load(self, tmp_path):
        model = load_model(self.write(tmp_path, phi=[0, 1], psi=[-1, 0]))
        assert model.phi[1].tolist() == [0.0, 1.0] and model.psi[1].tolist() == [-1.0, 0.0]

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        path = self.write(tmp_path, psi=[10**400, 0])
        with pytest.raises(ValueError, match=f"^{path}: a psi vector holds a number too large for a float$"):
            load_model(path)


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

        write_slabs = model_io._team_slabs

        def boom(model):
            # Fail inside the writer once the header and the first slab of
            # team records have gone to the temporary file.
            yield next(write_slabs(model))
            assert any(p.name.endswith(".tmp") for p in tmp_path.iterdir())
            raise RuntimeError("disk full")

        monkeypatch.setattr(model_io, "_team_slabs", boom)
        with pytest.raises(RuntimeError, match="disk full"):
            save_model(model, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "model.json.theta"]

    def test_save_replaces_earlier_file_and_leaves_no_temp(self, trained, tmp_path):
        _, _, path = trained
        other = init_model(3, 2, 0)
        save_model(other, path)
        assert np.array_equal(load_model(path).phi, other.phi)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "model.json.theta"]


def test_save_without_config(tmp_path):
    model = init_model(3, 2, 0)
    path = tmp_path / "m.json"
    save_model(model, path)
    assert read_model_file(path)["train_config"] is None
    assert np.array_equal(load_model(path).phi, model.phi)


# ---------------------------------------------------------------------------
# The streamed writer against ``json.dump(doc, indent=1)``, the encoder it
# replaced, with ``created_at`` pinned.

STAMP = datetime(2021, 3, 4, 5, 6, 7, 890123, tzinfo=timezone.utc)
ODD_FLOATS = [-0.0, 5e-324, 1e-300, 1 - 2**-53, 1e16]


class _PinnedClock:
    @staticmethod
    def now(tz):
        return STAMP.astimezone(tz)


def json_dump_bytes(model, train_config):
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "delta": model.delta,
        "x_max": model.x_max,
        "train_config": asdict(train_config) if train_config is not None else None,
        "created_at": STAMP.isoformat(),
        "teams": [
            {"name": name, "phi": model.phi[i].tolist(), "psi": model.psi[i].tolist()}
            for i, name in enumerate(model.registry.names)
        ],
    }
    out = io.StringIO()
    json.dump(doc, out, indent=1)
    out.write("\n")
    return out.getvalue().encode("utf-8")


def saved_bytes(model, path, train_config=None):
    with mock.patch.object(model_io, "datetime", _PinnedClock):
        save_model(model, path, train_config=train_config)
    return path.read_bytes()


team_names = st.text(
    st.one_of(st.sampled_from('"\\/\n\t\x00é€😀 ,'), st.characters()), min_size=1, max_size=8
)
configs = st.one_of(
    st.none(),
    st.builds(
        TrainConfig,
        delta=st.integers(1, 64),
        learning_rate=st.floats(1e-9, 1.0),
        weight_decay=st.sampled_from([0.0, 1e-6, 5e-324, 1 - 2**-53]),
        seed=st.integers(0, 2**40),
    ),
)


class TestWriterMatchesJsonDump:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        m=st.one_of(st.integers(2, 12), st.sampled_from([255, 256, 257])),
        delta=st.integers(1, 64),
        special=st.lists(team_names, max_size=6, unique=True),
        odd=st.lists(
            st.tuples(
                st.integers(0, 2**31),
                st.one_of(st.sampled_from(ODD_FLOATS), st.floats(allow_nan=False, allow_infinity=False)),
            ),
            max_size=12,
        ),
        config=configs,
        x_max=st.integers(1, 30),
        seed=st.integers(0, 2**32),
    )
    def test_bytes_equal_json_dump(self, tmp_path, m, delta, special, odd, config, x_max, seed):
        names = special[:m] + [f"team {i}" for i in range(m - len(special[:m]))]
        if len(set(names)) < m:  # a special name may repeat a placeholder
            names = [f"{name}#{i}" for i, name in enumerate(names)]
        model = init_model(m, delta, seed, registry=TeamRegistry(names), x_max=x_max)
        flat = model.theta.reshape(-1)
        for where, value in odd:
            flat[where % flat.size] = value
        assert saved_bytes(model, tmp_path / "m.json", config) == json_dump_bytes(model, config)

    @pytest.mark.parametrize("m", [2, 255, 256, 257, 513])
    def test_every_odd_float_at_slab_edges(self, tmp_path, m):
        model = init_model(m, 8, m)
        for row in (0, m - 1, m, 2 * m - 1, min(255, m - 1), min(256, m - 1)):
            model.theta[row, : len(ODD_FLOATS)] = ODD_FLOATS
        config = TrainConfig(delta=8)
        assert saved_bytes(model, tmp_path / "m.json", config) == json_dump_bytes(model, config)


class TestSaveRefusesModelsLoadWouldRefuse:
    @pytest.mark.parametrize(
        "value", [None, float("nan"), float("inf"), float("-inf")], ids=["no teams", "nan", "+inf", "-inf"]
    )
    def test_refused_and_earlier_file_kept(self, tmp_path, value):
        if value is None:
            empty = np.zeros((0, 3))
            model = EmbeddingModel(phi=empty, psi=empty, delta=3, registry=TeamRegistry(), x_max=1)
            message = "model has no teams"
        else:
            model = init_model(4, 3, 0)
            model.psi[2, 1] = value
            message = "team 'team_3' has a non-finite vector"
        path = tmp_path / "m.json"
        path.write_bytes(b"an earlier model\n")
        with pytest.raises(ValueError, match=message):
            save_model(model, path)
        assert path.read_bytes() == b"an earlier model\n"
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    m=st.sampled_from([2, 3, 255, 257]),
    delta=st.integers(1, 64),
    odd=st.lists(
        st.tuples(st.integers(0, 2**31), st.sampled_from([-0.0, 5e-324, 1e-300, 1e-160, 1 - 2**-53, 1e16])),
        max_size=12,
    ),
    seed=st.integers(0, 2**32),
)
def test_save_load_keeps_every_bit_of_unit_rows(tmp_path, m, delta, odd, seed):
    theta = np.random.default_rng(seed).standard_normal((2 * m, delta))
    if delta > 1:  # column 0 stays normal, so no row has zero norm
        tail = theta[:, 1:].reshape(-1)
        for where, value in odd:
            tail[where % tail.size] = value
        theta[:, 1:] = tail.reshape(2 * m, delta - 1)
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    model = EmbeddingModel(phi=theta[:m], psi=theta[m:], delta=delta, registry=TeamRegistry(
        f"t{i}" for i in range(m)), x_max=2)
    path = tmp_path / "m.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.theta.tobytes() == model.theta.tobytes()
    assert loaded == model


# ---------------------------------------------------------------------------
# The sidecar ``<model>.theta``: taken only when it matches the model file,
# and with the same result as parsing the JSON.


def sidecar_of(path):
    return path.with_name(path.name + ".theta")


def json_only(path):
    """The model at ``path`` as loaded from its JSON alone."""
    sidecar = sidecar_of(path)
    kept = sidecar.read_bytes() if sidecar.exists() else None
    sidecar.unlink(missing_ok=True)
    try:
        return load_model(path)
    finally:
        if kept is not None:
            sidecar.write_bytes(kept)


def assert_same_bits(a, b):
    assert a.registry.names == b.registry.names
    assert (a.delta, a.x_max) == (b.delta, b.x_max)
    assert type(a.delta) is type(b.delta) is int and type(a.x_max) is type(b.x_max) is int
    assert a.phi.tobytes() == b.phi.tobytes() and a.psi.tobytes() == b.psi.tobytes()


def sealed(body: bytes) -> bytes:
    """``body`` with the trailing CRC-32 that a whole sidecar ends in."""
    return body + zlib.crc32(body).to_bytes(4, "little")


def sidecar_parts(path):
    """The sidecar's header (a dict) and its theta block."""
    raw = sidecar_of(path).read_bytes()[:-4]
    end = raw.index(b"\n")
    return json.loads(raw[:end]), np.frombuffer(raw[end + 1:], dtype="<f8")


def write_sidecar(path, header, theta):
    sidecar_of(path).write_bytes(sealed(json.dumps(header).encode() + b"\n" + theta.astype("<f8").tobytes()))


class TestSidecar:
    def test_save_writes_it_and_load_takes_it(self, trained):
        model, _, path = trained
        header, theta = sidecar_parts(path)
        data = path.read_bytes()
        assert header["json_bytes"] == len(data) and header["json_crc32"] == zlib.crc32(data)
        assert (header["m"], header["delta"], header["x_max"]) == (model.m, model.delta, model.x_max)
        assert header["names"] == model.registry.names
        assert theta.tobytes() == model.theta.tobytes()
        # Rows of the sidecar's own block, not the JSON's, come back: negated rows stay unit.
        write_sidecar(path, header, -theta)
        assert np.array_equal(load_model(path).theta, -model.theta)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        m=st.sampled_from([2, 3, 257]),
        delta=st.integers(1, 40),
        names=st.lists(team_names, min_size=257, max_size=257, unique=True),
        x_max=st.integers(1, 30),
        seed=st.integers(0, 2**32),
    )
    def test_same_model_with_and_without_it(self, tmp_path, m, delta, names, x_max, seed):
        model = init_model(m, delta, seed, registry=TeamRegistry(names[:m]), x_max=x_max)
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert_same_bits(loaded, model)
        assert_same_bits(json_only(path), loaded)

    def test_same_length_hand_edit_is_seen(self, trained):
        model, _, path = trained
        text = path.read_text()
        value = repr(float(model.phi[1, 2]))
        assert text.count(value) == 1 and value[-6].isdigit()
        # One changed digit: same length, and the row stays within the norm tolerance.
        edited = value[:-6] + str((int(value[-6]) + 1) % 10) + value[-5:]
        path.write_text(text.replace(value, edited))
        loaded = load_model(path)
        assert loaded.phi[1, 2] == float(edited) != model.phi[1, 2]
        assert_same_bits(loaded, json_only(path))

    @pytest.mark.parametrize("damage", [
        "missing", "empty", "truncated", "body bit", "header name bit", "trailer bit",
    ])
    def test_damaged_sidecar_is_ignored(self, trained, damage):
        model, _, path = trained
        sidecar = sidecar_of(path)
        header, theta = sidecar_parts(path)
        # Whatever a damaged sidecar would give, the JSON gives the saved model.
        write_sidecar(path, header, -theta)
        raw = bytearray(sidecar.read_bytes())
        if damage == "missing":
            sidecar.unlink()
        elif damage == "empty":
            sidecar.write_bytes(b"")
        elif damage == "truncated":
            sidecar.write_bytes(raw[: len(raw) // 2])
        else:
            at = {"body bit": -20, "header name bit": raw.index(b'"names": ["') + 12, "trailer bit": -1}[damage]
            raw[at] ^= 1
            sidecar.write_bytes(raw)
        assert_same_bits(load_model(path), model)

    @pytest.mark.parametrize("change", [
        "format", "json_bytes", "json_crc32", "m", "delta", "names", "short block", "long block",
        "no header line", "nested header",
    ])
    def test_sealed_sidecar_that_does_not_fit_is_ignored(self, trained, change):
        model, _, path = trained
        header, theta = sidecar_parts(path)
        theta = -theta
        if change == "format":
            header["format"] = "steve-theta-2"
        elif change in ("json_bytes", "json_crc32"):
            header[change] += 1
        elif change == "m":
            header["m"] -= 1
        elif change == "delta":
            header["delta"] += 1
        elif change == "names":
            header["names"] = header["names"][:-1]
        elif change == "short block":
            theta = theta[:-1]
        elif change == "long block":
            theta = np.concatenate([theta, theta[:1]])
        if change == "no header line":
            sidecar_of(path).write_bytes(sealed(theta.tobytes()))
        elif change == "nested header":
            sidecar_of(path).write_bytes(sealed(b"[" * 100_000 + b"]" * 100_000 + b"\n" + theta.tobytes()))
        else:
            write_sidecar(path, header, theta)
        assert_same_bits(load_model(path), model)

    def test_foreign_sidecar_is_ignored(self, trained, tmp_path):
        model, _, path = trained
        other = tmp_path / "other.json"
        save_model(init_model(model.m, model.delta, 99, registry=model.registry, x_max=model.x_max), other)
        sidecar_of(path).write_bytes(sidecar_of(other).read_bytes())
        assert_same_bits(load_model(path), model)

    @pytest.mark.parametrize("where, message", [
        ("phi", "team 'team_2' has a phi vector with a norm off 1 by 1"),
        ("psi", "team 'team_4' has a psi vector with non-finite values"),
    ])
    def test_refused_with_the_same_message_either_way(self, tmp_path, where, message):
        model = init_model(5, 3, 0)
        if where == "phi":
            model.phi[1] *= 2
        path = tmp_path / "m.json"
        save_model(model, path)
        if where == "psi":
            # save_model refuses a non-finite vector, so this one is put in by hand.
            header, theta = sidecar_parts(path)
            theta = theta.reshape(10, 3).copy()
            theta[8, 0] = np.inf
            text = path.read_text().replace(repr(float(model.psi[3, 0])), "Infinity")
            path.write_text(text)
            header["json_bytes"], header["json_crc32"] = len(text.encode()), zlib.crc32(text.encode())
            write_sidecar(path, header, theta)
        errors = []
        for load in (load_model, json_only):
            with pytest.raises(ValueError) as err:
                load(path)
            errors.append(str(err.value))
        assert errors[0] == errors[1] == f"{path}: {message}"

    def test_failed_save_leaves_earlier_model_loading_as_before(self, trained, monkeypatch):
        model, _, path = trained
        before = {p.name: p.read_bytes() for p in path.parent.iterdir()}
        real_replace = os.replace
        renamed = []

        def fail_on_the_second_rename(src, dst):
            if renamed:
                raise OSError("rename failed")
            real_replace(src, dst)
            renamed.append(Path(dst).name)

        monkeypatch.setattr(model_io.os, "replace", fail_on_the_second_rename)
        with pytest.raises(OSError, match="rename failed"):
            save_model(init_model(3, 2, 0), path)
        monkeypatch.undo()
        # The new sidecar is in place, but it does not match the earlier file.
        assert renamed == ["model.json.theta"]
        assert sorted(p.name for p in path.parent.iterdir()) == sorted(before)
        assert path.read_bytes() == before["model.json"]
        assert_same_bits(load_model(path), model)
        # A failure before either rename changes no file at all.
        save_model(model, path)
        before = {p.name: p.read_bytes() for p in path.parent.iterdir()}
        monkeypatch.setattr(model_io, "_sidecar_bytes", mock.Mock(side_effect=RuntimeError("disk full")))
        with pytest.raises(RuntimeError, match="disk full"):
            save_model(init_model(3, 2, 0), path)
        assert {p.name: p.read_bytes() for p in path.parent.iterdir()} == before
        assert_same_bits(load_model(path), model)

    def test_load_writes_nothing(self, trained):
        _, _, path = trained
        sidecar_of(path).unlink()
        load_model(path)
        assert sorted(p.name for p in path.parent.iterdir()) == ["model.json"]
