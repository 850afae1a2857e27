"""Command-line front-end.

Subcommands: ``train``, ``similar``, ``rank``, ``evaluate``, ``summary``
and ``export-features``.  Every command takes ``--seed`` (default 7),
``--output {text,json}`` and ``--quiet``; all randomness derives from the
one seed, fanned out into per-stage sub-seeds, so reruns with identical
inputs are reproducible.  With ``--output json`` every line a command
prints is one JSON document.  Exit codes: 0 success, 1 validation error or
out of memory, 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .analytics import format_aligned, most_similar, rank_teams, ranking_records, similarity_records
from .teams import TeamRegistry
from .trainer import TrainConfig, train

if TYPE_CHECKING:
    from .match_data import Dataset

# Each command imports the other steve modules it calls, so that ``rank``
# and ``similar`` start without compiling the ingest and valuation code.

_STAGE_TRAIN = 0
_STAGE_EVAL = 1


class _Parser(argparse.ArgumentParser):
    # Usage problems are validation errors (exit 1), not I/O errors.
    def error(self, message):
        raise ValueError(message)


def _stage_seed(seed: int, stage: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(stage,)).generate_state(1)[0])


def _open_text(path: str):
    return open(path, "r", encoding="utf-8", newline="")


def _load_dataset(path: str) -> Dataset:
    from . import match_data

    with _open_text(path) as f:
        registry, matches = match_data.ingest_csv(f)
    return match_data.to_quads(matches, registry)


def _resolve_team(registry: TeamRegistry, name: str) -> int:
    if name in registry:
        return registry.id_of(name)
    import difflib

    close = difflib.get_close_matches(name, registry.names, n=3)
    hint = f"; close matches: {', '.join(close)}" if close else ""
    raise ValueError(f"unknown team {name!r}{hint}")


def _team_list(arg: str) -> list[str]:
    """Interpret --teams as a file of names (one per line) or a comma list."""
    path = Path(arg)
    if path.exists():
        names = [line.strip() for line in path.read_text(encoding="utf-8").splitlines()]
    else:
        names = [piece.strip() for piece in arg.split(",")]
    names = [n for n in names if n]
    if not names:
        raise ValueError("empty team list")
    return names


def _progress(args, epochs: int):
    """The ``progress`` sink of :func:`train`: one line per epoch, ``None`` when quiet."""
    if args.quiet:
        return None
    if args.output == "json":
        return lambda epoch, loss: print(json.dumps({"epoch": epoch, "mean_loss": loss}))
    return lambda epoch, loss: print(f"epoch {epoch:>3}/{epochs}  mean_loss {loss:.6f}")


def _report_written(args, path: str) -> None:
    if not args.quiet:
        print(json.dumps({"wrote": path}) if args.output == "json" else f"wrote {path}")


def cmd_train(args) -> int:
    from . import model_io

    cfg = TrainConfig(
        delta=args.delta,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        weight_decay=args.weight_decay,
        seed=args.seed,
    )
    model = train(_load_dataset(args.matches), cfg, progress=_progress(args, cfg.epochs))
    model_io.save_model(model, args.model_out, train_config=cfg)
    _report_written(args, args.model_out)
    return 0


def cmd_similar(args) -> int:
    from . import model_io

    model = model_io.load_model(args.model)
    team = _resolve_team(model.registry, args.team)
    if not 1 <= args.k <= model.m - 1:
        raise ValueError(f"--k must be in 1..{model.m - 1}, got {args.k}")
    records = similarity_records(model, most_similar(model, team, args.k))
    if args.output == "json":
        print(json.dumps(records))
    else:
        print(format_aligned(records, ("team", "distance")))
    return 0


def cmd_rank(args) -> int:
    from . import model_io

    model = model_io.load_model(args.model)
    ids = [_resolve_team(model.registry, name) for name in _team_list(args.teams)]
    records = ranking_records(model, rank_teams(model, ids))
    if args.output == "json":
        print(json.dumps(records))
    else:
        print(format_aligned(records, ("rank", "team", "victories")))
    return 0


def cmd_summary(args) -> int:
    from . import match_data

    summary = match_data.dataset_summary(_load_dataset(args.matches))
    if args.output == "json":
        print(json.dumps(summary))
    else:
        print(json.dumps(summary, indent=2))
    return 0


_REPRESENTATIONS = "steve-16, steve-32, steve-64, season-stats, cat-<x>, sum-<x>"


def _parse_representation(rep: str):
    """Return ("steve", delta) | ("season-stats", None) | ("cat"|"sum", x)."""
    if rep in ("steve-16", "steve-32", "steve-64"):
        return "steve", int(rep.split("-")[1]) // 2
    if rep == "season-stats":
        return "season-stats", None
    m = re.fullmatch(r"(cat|sum)-(\d+)", rep)
    if m and int(m.group(2)) >= 1:
        return m.group(1), int(m.group(2))
    raise ValueError(f"unknown representation {rep!r} (expected one of {_REPRESENTATIONS})")


def _features(kind, param, ds, newest, model):
    """``(header, matrix, standardize)`` of one representation over all teams.

    ``steve`` rows are the winner and loser vectors of ``model``; the count
    baselines are built from ``ds`` with ``newest`` as the newest season
    and are standardized per fold.
    """
    from . import baselines, valuation

    if kind == "steve":
        header = [f"phi_{i}" for i in range(model.delta)] + [f"psi_{i}" for i in range(model.delta)]
        return header, valuation.steve_features(model, list(range(1, model.m + 1))), False
    teams = range(1, ds.registry.m + 1)
    if kind == "season-stats":
        header = baselines.SEASON_STATS_COLUMNS
        matrix = baselines.season_stats(ds.matches, ds.registry, teams, newest)
    elif kind == "cat":
        # The matrix first: it checks the season window before the 18x-wide header exists.
        matrix = baselines.cat_features(ds.matches, ds.registry, teams, newest, param)
        header = baselines.cat_feature_columns(param)
    else:
        header = baselines.SEASON_STATS_COLUMNS
        matrix = baselines.sum_features(ds.matches, ds.registry, teams, newest, param)
    return list(header), matrix, True


def cmd_evaluate(args) -> int:
    from . import valuation

    kind, param = _parse_representation(args.representation)
    ds = _load_dataset(args.matches)
    with _open_text(args.values) as f:
        values = valuation.load_values(f)
    names = ds.registry.names
    missing = [n for n in names if n not in values]
    if missing:
        raise ValueError(f"teams missing market values: {', '.join(missing)}")
    y = np.array([values[n] for n in names])

    model = None
    if kind == "steve":
        cfg = TrainConfig(delta=param, seed=_stage_seed(args.seed, _STAGE_TRAIN))
        model = train(ds, cfg, progress=_progress(args, cfg.epochs))
    _, features, standardize = _features(kind, param, ds, ds.x_max, model)
    task = valuation.Task(args.task)
    targets = y if task is valuation.Task.REGRESSION else valuation.quartile_labels(y)
    report = valuation.cross_validate(
        features,
        targets,
        task,
        seed=_stage_seed(args.seed, _STAGE_EVAL),
        standardize_features=standardize,
        metadata={"representation": args.representation},
    )
    if args.output == "json":
        print(json.dumps(report.to_dict()))
    else:
        print(report.format_table())
    return 0


def cmd_export_features(args) -> int:
    from . import model_io

    kind, param = _parse_representation(args.representation)
    ds = model = newest = None
    if kind == "steve":
        if not args.model:
            raise ValueError("exporting a steve-* representation requires --model")
        model = model_io.load_model(args.model)
        if model.delta != param:
            raise ValueError(
                f"model has delta={model.delta}, but {args.representation} needs delta={param}"
            )
        names = model.registry.names
    else:
        ds = _load_dataset(args.matches)
        names = ds.registry.names
        newest = args.season if args.season is not None else ds.x_max
    header, rows, _ = _features(kind, param, ds, newest, model)

    with open(args.features_out, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["team"] + header)
        for name, row in zip(names, rows):
            writer.writerow([name] + [repr(float(v)) for v in row])
    _report_written(args, args.features_out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=7, help="master random seed (default 7)")
    common.add_argument("--output", choices=("text", "json"), default="text")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = _Parser(prog="steve", description="Soccer team vectors: train, search, rank, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", parents=[common], help="learn team vectors from a matches CSV")
    p.add_argument("matches", help="matches CSV file")
    p.add_argument("-o", "--model-out", default="model.json", help="output model file")
    p.add_argument("--delta", type=int, default=16, help="vector dimension (default 16)")
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--learning-rate", type=float, default=0.0001)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--weight-decay", type=float, default=1e-6,
                   help="L2 penalty counted in the reported loss only; it does not change "
                        "the trained vectors (its gradient is radial on unit rows)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("similar", parents=[common], help="most similar teams by winner distance")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--team", required=True)
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(func=cmd_similar)

    p = sub.add_parser("rank", parents=[common], help="round-robin ranking of a team list")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--teams", required=True, help="comma-separated names, or a file with one per line")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("evaluate", parents=[common], help="market-value prediction quality")
    p.add_argument("matches", help="matches CSV file")
    p.add_argument("values", help="market values CSV file (team,value_millions)")
    p.add_argument("--representation", required=True, help=_REPRESENTATIONS)
    p.add_argument("--task", choices=("regression", "classification"), default="regression")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("summary", parents=[common], help="dataset summary as JSON")
    p.add_argument("matches", help="matches CSV file")
    p.set_defaults(func=cmd_summary)

    p = sub.add_parser("export-features", parents=[common], help="write a feature matrix CSV")
    p.add_argument("matches", help="matches CSV file")
    p.add_argument("-o", "--features-out", default="features.csv", help="output CSV file")
    p.add_argument("--representation", required=True, help=_REPRESENTATIONS)
    p.add_argument("--model", help="model JSON (required for steve-* representations)")
    p.add_argument("--season", type=int, help="newest season index (default: newest in data)")
    p.set_defaults(func=cmd_export_features)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as e:
        print(f"steve: error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"steve: I/O error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        detail = f": {e}" if str(e) else ""
        print(f"steve: error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
