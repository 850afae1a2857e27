"""The traced run: the real ``steve`` CLI in process, with spans at its layer calls.

``run(tracer, argv)`` calls ``steve.cli.main(argv)`` with standard output
and error captured, and returns ``(exit code, stdout, stderr)``.  While the
command runs, ``tracer`` wraps the public functions the CLI reaches in the
other layers (see ``_patches``), each call in a span under the command's
``cli.<command>`` span.  A ``NullTracer`` wraps nothing, so the untraced
run is the plain CLI.

``layer_metrics(spans)`` turns one traced round into the per-layer metrics.
"""

from __future__ import annotations

import io
import os
from contextlib import ExitStack, redirect_stderr, redirect_stdout

import numpy as np

from steve import baselines, cli, match_data, model_io, valuation

from metrics import LAYERS, median
from spans import layer_self_times


def _patches(tracer):
    """Every call the benchmarked commands make from ``cli`` into another layer.

    ``cli`` reaches ``match_data``, ``model_io``, ``baselines`` and
    ``valuation`` through module attributes, and binds ``train``,
    ``rank_teams``, ``most_similar`` and the record helpers into its own
    namespace, so each is wrapped where ``cli`` looks it up.
    """
    return [
        tracer.patch(match_data, "ingest_csv", "match_data.ingest_csv",
                     counts=lambda out, *a, **k: {"rows": len(out[1])}),
        tracer.patch(match_data, "to_quads", "match_data.to_quads"),
        tracer.patch(match_data, "dataset_summary", "match_data.dataset_summary"),
        tracer.patch(cli, "train", "trainer.train", hooks=tracer.train_hooks),
        tracer.patch(model_io, "save_model", "model_io.save_model",
                     counts=lambda out, model, path, *a, **k: {"bytes": os.path.getsize(path)}),
        tracer.patch(model_io, "load_model", "model_io.load_model"),
        tracer.patch(cli, "rank_teams", "analytics.rank_teams",
                     counts=lambda out, model, teams: {"pairs": len(teams) * (len(teams) - 1) // 2}),
        tracer.patch(cli, "ranking_records", "analytics.ranking_records"),
        tracer.patch(cli, "most_similar", "analytics.most_similar"),
        tracer.patch(cli, "similarity_records", "analytics.similarity_records"),
        tracer.patch(baselines, "cat_features", "baselines.cat_features"),
        tracer.patch(valuation, "load_values", "valuation.load_values"),
        tracer.patch(valuation, "steve_features", "valuation.steve_features"),
        tracer.patch(valuation, "cross_validate", "valuation.cross_validate"),
        tracer.patch(valuation, "mlp_train", "valuation.mlp_train"),
    ]


def run(tracer, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with ExitStack() as patched:
        for patch in _patches(tracer):
            patched.enter_context(patch)
        with tracer.span(f"cli.{argv[0]}"), redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced round of a workload's commands.

    Times of one call come from the command that owns the work: ingest and
    the quad build from ``summary``; the trainer and the model save from
    ``train``; ranking from ``rank``.  Calls repeated within a round report
    their median (loads, similarity queries, MLP folds) or their sum (the
    per-team ``cat_features`` calls, the two cross-validations).
    ``<layer>.self_s`` is the layer's self time summed over the round.
    """
    command_of = {s["id"]: s["name"] for s in spans if s["parent"] is None}

    def named(name, command=None):
        return [s for s in spans if s["name"] == name and command in (None, command_of[s["command"]])]

    def only(name, command=None):
        (span,) = named(name, command)
        return span

    def took(span):
        return span["end"] - span["start"]

    ingest = only("match_data.ingest_csv", "cli.summary")
    trained = only("trainer.train", "cli.train")
    epochs = [s for s in named("trainer.epoch") if s["parent"] == trained["id"]]
    epoch_ids = {s["id"] for s in epochs}
    batches = [s for s in named("trainer.batch") if s["parent"] in epoch_ids]
    saved = only("model_io.save_model", "cli.train")
    ranked = only("analytics.rank_teams", "cli.rank")
    folds = named("valuation.mlp_train")
    own = layer_self_times(spans)
    return {
        "match_data.ingest_csv_s": took(ingest),
        "match_data.to_quads_s": took(only("match_data.to_quads", "cli.summary")),
        "match_data.dataset_summary_s": took(only("match_data.dataset_summary")),
        "match_data.rows": ingest["rows"],
        "trainer.train_s": took(trained),
        "trainer.epoch_s": median(took(s) for s in epochs),
        "trainer.batches": len(batches),
        "trainer.batch_s": median(took(s) for s in batches),
        "trainer.rows_touched_ratio": float(np.mean([s["rows"] / s["rows_total"] for s in batches])),
        "model_io.save_model_s": took(saved),
        "model_io.load_model_s": median(took(s) for s in named("model_io.load_model")),
        "model_io.file_bytes": saved["bytes"],
        "analytics.rank_teams_s": took(ranked),
        "analytics.pairs": ranked["pairs"],
        "analytics.most_similar_s": median(took(s) for s in named("analytics.most_similar")),
        "baselines.cat_features_s": sum(took(s) for s in named("baselines.cat_features")),
        "valuation.steve_features_s": took(only("valuation.steve_features")),
        "valuation.cross_validate_s": sum(took(s) for s in named("valuation.cross_validate")),
        "valuation.mlp_train_s": median(took(s) for s in folds),
        "valuation.folds": len(folds),
        **{f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS},
    }
