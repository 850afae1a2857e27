"""Every seeded output of the CLI is byte-identical to the committed manifest.

The inputs are the seed-41 desk and wide leagues of ``bench/workload.py``;
each command runs in process through ``cli.main``, and ``golden.json`` holds
the sha256 of every input file, every stdout and every written file.  The
model's ``created_at`` is pinned to one instant, so the model JSON and its
sidecar are compared whole.

A change that alters an output on purpose rewrites the manifest with

    PYTHONPATH=src python tests/test_golden.py

and logs the old and new hashes in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from datetime import datetime
from pathlib import Path

import pytest

from steve import cli, model_io

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("golden.json")
SEED = 41


class _FixedClock(datetime):
    @classmethod
    def now(cls, tz=None):
        return datetime(2020, 1, 1, tzinfo=tz)


def _workload():
    spec = importlib.util.spec_from_file_location("golden_workload", ROOT / "bench" / "workload.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, argv
    return out.getvalue().encode()


def _write_inputs(workload, name: str, inputs: dict) -> object:
    league = workload.generate(workload.SPECS[name], SEED)
    files = {
        "matches.csv": league.matches_csv,
        "values.csv": league.values_csv,
        "teams.txt": league.teams_txt,
        "all-teams.txt": "".join(f"{t}\n" for t in league.names).encode(),
    }
    for file, data in files.items():
        Path(f"{name}-{file}").write_bytes(data)
        inputs[f"{name}/{file}"] = _sha256(data)
    return league


#: ``train`` options: the CLI defaults on desk, one epoch on wide (as the benchmark runs them).
TRAIN_ARGS = {"desk": [], "wide": ["--epochs", "1"]}


def golden_outputs(work: Path) -> dict:
    """``{"inputs": {file: sha256}, "outputs": {name: sha256}}`` of the runs in ``work``."""
    workload = _workload()
    inputs, outputs = {}, {}

    def record(name, argv, *files):
        outputs[f"{name} stdout"] = _sha256(_run(argv))
        for file in files:
            outputs[f"{name} {file}"] = _sha256(Path(file).read_bytes())

    def record_model(name):
        path = f"{name}-model.json"
        record(f"{name} train", ["train", f"{name}-matches.csv", "-o", path, *TRAIN_ARGS[name]],
               path, path + ".theta")
        model = model_io.load_model(path)
        outputs[f"{name} train phi/psi"] = _sha256(model.phi.tobytes() + model.psi.tobytes())

    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(work)
        patch.setattr(model_io, "datetime", _FixedClock)
        desk = _write_inputs(workload, "desk", inputs)
        _write_inputs(workload, "wide", inputs)
        json_out = ["--output", "json"]

        record_model("desk")
        record_model("wide")
        record("desk summary", ["summary", "desk-matches.csv", *json_out])
        for name, teams in (("desk", "all-teams"), ("wide", "teams"), ("wide", "all-teams")):
            record(f"{name} rank {teams}",
                   ["rank", f"{name}-model.json", "--teams", f"{name}-{teams}.txt", *json_out])
        for query, k in ((desk.queries[0], 5), (desk.queries[1], 377)):
            record(f"desk similar {query} k{k}",
                   ["similar", "desk-model.json", "--team", query, "--k", str(k), *json_out])
        for rep, task in (("cat-3", "regression"), ("steve-32", "classification")):
            record(f"desk evaluate {rep} {task}", ["evaluate", "desk-matches.csv", "desk-values.csv",
                                                   "--representation", rep, "--task", task, *json_out])
        for rep in ("cat-3", "sum-2", "season-stats", "steve-32"):
            features = f"desk-{rep}.csv"
            model = ["--model", "desk-model.json"] if rep.startswith("steve") else []
            record(f"desk export-features {rep}",
                   ["export-features", "desk-matches.csv", "-o", features, "--representation", rep, *model],
                   features)
    return {"inputs": inputs, "outputs": outputs}


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_inputs_are_the_manifest_leagues(computed, manifest):
    # A change to the league generator shows here, not as changed outputs.
    assert computed["inputs"] == manifest["inputs"]


def test_outputs_are_byte_identical(computed, manifest):
    assert computed["outputs"] == manifest["outputs"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        doc = golden_outputs(Path(work))
    MANIFEST.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}: {len(doc['inputs'])} inputs, {len(doc['outputs'])} outputs", file=sys.stderr)
