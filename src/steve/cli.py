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
import json
import os
import re
import sys
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .match_data import Dataset
    from .teams import TeamRegistry

# Each command imports only the steve modules it calls, once its arguments
# parse: ``--help`` and usage errors load no numpy, and ``summary`` loads
# neither the trainer nor the ranking code.  The names below are attributes
# of this module, each bound from its layer on first use, and every command
# reaches them through ``_cli``, so replacing ``cli.train`` replaces what
# ``cmd_train`` calls.
_LAZY = {
    "TrainConfig": "trainer",
    "train": "trainer",
    "format_aligned": "analytics",
    "most_similar": "analytics",
    "rank_teams": "analytics",
    "ranking_records": "analytics",
    "similarity_records": "analytics",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __package__), name)
    return value


_cli = sys.modules[__name__]
_STAGE_TRAIN = 0
_STAGE_EVAL = 1


class _Parser(argparse.ArgumentParser):
    # Usage problems are validation errors (exit 1), not I/O errors.
    def error(self, message):
        raise ValueError(message)

    # argparse drops a failed write of the help; a closed or full stdout is an I/O error.
    def print_help(self, file=None):
        file = file or sys.stdout or sys.stderr
        if file is not None:
            file.write(self.format_help())


def _seed(text: str) -> int:
    """The value of ``--seed``: numpy takes no negative seed."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


def _stage_seed(seed: int, stage: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence(seed, spawn_key=(stage,)).generate_state(1)[0])


@contextmanager
def _open_utf8(path: str):
    """The file ``path`` in binary, read as UTF-8: a byte that is not UTF-8 raises ``ValueError`` naming it."""
    with open(path, "rb") as f:
        try:
            yield f
        except UnicodeDecodeError:
            from .model_io import not_utf8

            with open(path, "rb") as raw:
                raise not_utf8(path, iter(lambda: raw.read(1 << 20), b"")) from None


def _load_dataset(path: str) -> Dataset:
    from . import match_data

    with _open_utf8(path) as f:
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
    if Path(arg).exists():
        with _open_utf8(arg) as f:
            # "utf-8-sig" drops the byte-order mark that Excel's "CSV UTF-8" writes first.
            names = [line.strip() for line in f.read().decode("utf-8-sig").splitlines()]
    else:
        names = [piece.strip() for piece in arg.split(",")]
    names = [n for n in names if n]
    if not names:
        raise ValueError("empty team list")
    return names


def _print(args, doc, text) -> None:
    """Print one result line: ``doc`` as JSON with ``--output json``, else ``text()``."""
    # Flushed at once, so a failed write is met at the line that failed in either stdout mode.
    print(json.dumps(doc) if args.output == "json" else text(), flush=True)


def _progress(args, epochs: int):
    """The ``progress`` sink of :func:`train`: one line per epoch, ``None`` when quiet."""
    if args.quiet:
        return None
    return lambda epoch, loss: _print(
        args, {"epoch": epoch, "mean_loss": loss}, lambda: f"epoch {epoch:>3}/{epochs}  mean_loss {loss:.6f}"
    )


def _report_written(args, path: str) -> None:
    if not args.quiet:
        _print(args, {"wrote": path}, lambda: f"wrote {path}")


def cmd_train(args) -> int:
    from . import model_io

    cfg = _cli.TrainConfig(
        delta=args.delta,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        seed=args.seed,
    )
    model = _cli.train(_load_dataset(args.matches), cfg, progress=_progress(args, cfg.epochs))
    model_io.save_model(model, args.model_out, train_config=cfg)
    _report_written(args, args.model_out)
    return 0


def cmd_similar(args) -> int:
    from . import model_io

    model = model_io.load_model(args.model)
    team = _resolve_team(model.registry, args.team)
    if not 1 <= args.k <= model.m - 1:
        raise ValueError(f"--k must be in 1..{model.m - 1}, got {args.k}")
    records = _cli.similarity_records(model, _cli.most_similar(model, team, args.k))
    _print(args, records, lambda: _cli.format_aligned(records, ("team", "distance")))
    return 0


def cmd_rank(args) -> int:
    from . import model_io

    model = model_io.load_model(args.model)
    ids = [_resolve_team(model.registry, name) for name in _team_list(args.teams)]
    records = _cli.ranking_records(model, _cli.rank_teams(model, ids))
    _print(args, records, lambda: _cli.format_aligned(records, ("rank", "team", "victories")))
    return 0


def cmd_summary(args) -> int:
    from . import match_data

    summary = match_data.dataset_summary(_load_dataset(args.matches))
    _print(args, summary, lambda: json.dumps(summary, indent=2))
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
    """``(header, matrix, standardize)`` of one representation, one row per team of ``ds``.

    ``steve`` rows are the winner and loser vectors of ``model``, looked up
    by team name; the count baselines are built from ``ds`` with ``newest``
    as the newest season and are standardized per fold.
    """
    from . import baselines, valuation

    if kind == "steve":
        missing = next((name for name in ds.registry.names if name not in model.registry), None)
        if missing is not None:
            raise ValueError(f"the model has no team {missing!r} of the matches file")
        header = [f"phi_{i}" for i in range(model.delta)] + [f"psi_{i}" for i in range(model.delta)]
        teams = [model.registry.id_of(name) for name in ds.registry.names]
        return header, valuation.steve_features(model, teams), False
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
    import numpy as np

    from . import valuation

    kind, param = _parse_representation(args.representation)
    ds = _load_dataset(args.matches)
    with _open_utf8(args.values) as f:
        # Each line decoded as it is read: a bad record before a bad byte is named first.
        lines = f.read().removeprefix(b"\xef\xbb\xbf").splitlines(keepends=True)
        values = valuation.load_values(map(bytes.decode, lines))
    names = ds.registry.names
    missing = [n for n in names if n not in values]
    if missing:
        raise ValueError(f"teams missing market values: {', '.join(missing)}")
    y = np.array([values[n] for n in names])

    model = None
    if kind == "steve":
        cfg = _cli.TrainConfig(delta=param, seed=_stage_seed(args.seed, _STAGE_TRAIN))
        model = _cli.train(ds, cfg, progress=_progress(args, cfg.epochs))
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
    _print(args, report.to_dict(), report.format_table)
    return 0


def cmd_export_features(args) -> int:
    import csv

    from . import model_io

    kind, param = _parse_representation(args.representation)
    model = None
    if kind == "steve":
        if args.season is not None:
            raise ValueError(f"--season applies only to the count representations, not {args.representation}")
        if not args.model:
            raise ValueError("exporting a steve-* representation requires --model")
        model = model_io.load_model(args.model)
        if model.delta != param:
            raise ValueError(
                f"model has delta={model.delta}, but {args.representation} needs delta={param}"
            )
    ds = _load_dataset(args.matches)
    newest = args.season if args.season is not None else ds.x_max
    if not 1 <= newest <= ds.x_max:
        raise ValueError(f"--season must be in 1..{ds.x_max}, the data's newest season, got {newest}")
    header, rows, _ = _features(kind, param, ds, newest, model)

    with open(args.features_out, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["team"] + header)
        for name, row in zip(ds.registry.names, rows):
            writer.writerow([name] + [repr(float(v)) for v in row])
    _report_written(args, args.features_out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=_seed, default=7, help="master random seed (default 7)")
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
    p.add_argument("--season", type=int,
                   help="newest season index of a count representation (default: newest in data)")
    p.set_defaults(func=cmd_export_features)

    return parser


def _run(argv) -> int:
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


def _flushed(code: int) -> int:
    """``code`` once stdout and stderr are flushed: 2 if stdout fails after a success, or stderr fails."""
    try:
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except OSError as e:
            if code == 0:
                print(f"steve: I/O error: {e}", file=sys.stderr)
                code = 2
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        return 2
    return code


def main(argv=None) -> int:
    """Run one command: ``main(["rank", "model.json", "--teams", "A,B"])``.

    Given ``argv``, ``main`` returns the exit code and leaves the interpreter
    as it was (``--help`` raises ``SystemExit``, as argparse does); that is
    how Python code and tests call it.  Called with no arguments, steve is
    the program (the ``steve`` console script, ``python -m steve.cli``): the
    command's output is flushed here, a failed write of it (a closed pipe, a
    full disk) is ``steve: I/O error`` with exit 2 unless the command had
    already failed, and the process ends through ``os._exit`` without the
    interpreter's teardown, about 20 ms of every command.  That skips
    ``atexit`` handlers and the closing of open files: steve registers no
    handler, and closes every file it writes before it returns.
    """
    if argv is not None:
        return _run(argv)
    try:
        code = _run(None)
    except SystemExit as e:  # --help
        code = e.code
    except OSError:  # stderr itself failed
        code = 2
    os._exit(_flushed(code))


if __name__ == "__main__":
    sys.exit(main())
