#!/usr/bin/env python3
"""Benchmark of the steve CLI on seeded synthetic leagues.

Run from the repository root:

    python3 bench/run.py --workload desk --seed 1 --seconds 60 --trace 0

One client runs the workload's ``steve`` commands one after another, each
as a fresh process started when the previous one exits (a closed loop), and
repeats the round until ``--seconds`` is used up, at least four times.
Every output is checked.  ``--trace 0`` reports the end-to-end metrics,
each time the median of its samples, each scaled by the host-speed probe
(``probe.py``) timed around it; ``--trace 1`` instead runs the same commands in process,
once untraced and once with spans around every call into a layer, and
reports the per-layer metrics.  The last line of output is one JSON object; the
exit code is 1 when any check failed.  See ``bench/README.md``.
"""

import os
import sys

# One BLAS/OpenMP thread for this process and every child, so the numbers
# measure the program and not the machine's core count.  Must be set before
# numpy is first imported.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import Checker  # noqa: E402
from metrics import median, probe_scaled, tail_percentile  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workload import SPECS, League, Spec, generate  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: What the installed ``steve`` console script runs.
STEVE = [sys.executable, "-c", "import sys; from steve.cli import main; sys.exit(main())"]
#: The host-speed probe, and its time on the host the end-to-end times are
#: scaled to.
PROBE = [sys.executable, str(BENCH / "probe.py")]
PROBE_REF_S = 0.2

#: Rounds of an untraced run: a repeat for the determinism checks, and
#: enough samples that each command's median is steady on a noisy host.
MIN_ROUNDS = 4
SIMILAR_PER_ROUND = 5  # 4 rounds give 20 samples: enough for a p50 tail
SIMILAR_K = 10
#: Untraced metrics timed per command: the median over the run of its
#: samples, each scaled by the host-speed probe.
TIMED = ("summary_s", "train_s", "rank_s", "similar_s", "evaluate_cat3_s", "evaluate_steve32_s")
IMPORT_SAMPLES = 5
DEADLINE_S = 170  # every child is killed by then, to exit within 180 s
#: League field -> file name in the run's work directory.
INPUT_FILES = {
    "matches_csv": "matches.csv",
    "values_csv": "values.csv",
    "teams_txt": "teams.txt",
    "eval_matches_csv": "eval_matches.csv",
    "eval_values_csv": "eval_values.csv",
}


class Failed(Exception):
    """A command failed or printed a wrong output; the run stops."""


@dataclass
class Outcome:
    seconds: float
    code: int
    stdout: str
    stderr: str
    rss_kb: int = 0
    #: User plus system CPU time of the child process.
    cpu_s: float = 0.0


def run_child(cmd, work: Path, env: dict, deadline: float) -> Outcome:
    """Run one child process to completion, with its peak resident memory."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(seconds, proc.returncode, out_path.read_text(), err_path.read_text(), usage.ru_maxrss,
                   usage.ru_utime + usage.ru_stime)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Context:
    """What every stage of one benchmark run needs."""

    args: argparse.Namespace
    spec: Spec
    work: Path
    env: dict
    deadline: float
    checker: Checker | None = None
    league: League | None = None
    files: dict | None = None

    @property
    def model(self) -> str:
        return str(self.work / "model.json")

    def child(self, cmd) -> Outcome:
        return run_child(cmd, self.work, self.env, self.deadline)


def set_up(ctx: Context) -> float:
    """Write the seeded input files and warm up one ``steve --help``."""
    start = time.perf_counter()
    league = generate(ctx.spec, ctx.args.seed)
    files = {}
    for field, name in INPUT_FILES.items():
        (ctx.work / name).write_bytes(getattr(league, field))
        files[field] = str(ctx.work / name)
    warm = ctx.child(STEVE + ["--help"])
    if warm.code != 0:
        raise Failed(f"steve --help exited {warm.code}: {warm.stderr[-500:]}")
    seconds = time.perf_counter() - start
    ctx.checker = ctx.checker or Checker(league)
    ctx.league, ctx.files = league, files
    digest = hashlib.sha256(b"".join(getattr(league, k) for k in files)).hexdigest()
    ctx.checker.record("generate inputs", ctx.checker.repeat, "input files sha256", digest)
    return seconds


def run_round(ctx: Context, execute, queries) -> dict:
    """The workload's commands once, in order; returns the outcomes per metric."""
    checker, league, files, model = ctx.checker, ctx.league, ctx.files, ctx.model
    outcomes = defaultdict(list)

    def step(metric, argv, check, *args):
        outcome = execute(argv)
        outcomes[metric].append(outcome)
        op = metric.removesuffix("_s")
        if outcome.code != 0:
            checker.record(op, lambda: [f"exit code {outcome.code}: {outcome.stderr[-500:]}"])
            raise Failed(op)
        if not checker.record(op, check, outcome.stdout, *args):
            raise Failed(op)

    json_out = ["--output", "json", "--quiet"]
    step("summary_s", ["summary", files["matches_csv"], *json_out], checker.summary)
    epochs = [] if ctx.spec.train_epochs is None else ["--epochs", str(ctx.spec.train_epochs)]
    step("train_s", ["train", files["matches_csv"], "-o", model, "--quiet", *epochs],
         lambda _: checker.model(Path(model).read_text()))
    step("rank_s", ["rank", model, "--teams", files["teams_txt"], *json_out],
         checker.rank, league.rank_names)
    for team in queries:
        step("similar_s", ["similar", model, "--team", team, "--k", str(SIMILAR_K), *json_out],
             checker.similar, team, SIMILAR_K)
    evaluate = ["evaluate", files["eval_matches_csv"], files["eval_values_csv"]]
    step("evaluate_cat3_s", [*evaluate, "--representation", "cat-3", "--task", "regression", *json_out],
         checker.evaluate, "cat-3")
    step("evaluate_steve32_s",
         [*evaluate, "--representation", "steve-32", "--task", "classification", *json_out],
         checker.evaluate, "steve-32")
    return outcomes


def queries(ctx: Context, i: int) -> tuple[str, ...]:
    """The ``similar`` query teams of round ``i``: each team at most once per run."""
    return ctx.league.queries[i * SIMILAR_PER_ROUND:(i + 1) * SIMILAR_PER_ROUND]


def repeat_rounds(ctx: Context, minimum: int, one_round) -> None:
    """Call ``one_round(i)`` at least ``minimum`` times, then while time is left.

    Another round starts only if one more of the median length still ends
    within ``--seconds`` and unused query teams remain.
    """
    done, lengths = 0, []
    started = time.perf_counter()
    while done < minimum or (
        (done + 1) * SIMILAR_PER_ROUND <= len(ctx.league.queries)
        and time.perf_counter() - started + median(lengths) <= ctx.args.seconds
    ):
        t = time.perf_counter()
        one_round(done)
        lengths.append(time.perf_counter() - t)
        done += 1


def untraced(ctx: Context) -> tuple[dict, dict]:
    """Closed loop of child processes; returns the end-to-end metrics.

    Each round starts with a set-up, so that ``setup_s`` too is sampled
    across the whole run.  The host-speed probe runs before the set-up,
    before every command but a ``similar`` query that follows another, and
    once after the last round, so probes bracket every sample.
    """
    rss, rounds, setups, timeline = [], [], [], []
    last = [None]  # the previous command's name

    def probe():
        outcome = ctx.child(PROBE)
        if outcome.code != 0:
            raise Failed(f"probe exited {outcome.code}: {outcome.stderr[-500:]}")
        timeline.append(outcome.seconds)

    def execute(argv):
        if not argv[0] == last[0] == "similar":
            probe()
        last[0] = argv[0]
        outcome = ctx.child(STEVE + argv)
        rss.append(outcome.rss_kb)
        timeline.append(outcome)
        return outcome

    def one_round(i):
        probe()
        setups.append(Outcome(set_up(ctx), 0, "", ""))
        timeline.append(setups[-1])
        last[0] = None
        rounds.append(run_round(ctx, execute, queries(ctx, i)))

    repeat_rounds(ctx, MIN_ROUNDS, one_round)
    probe()

    # The host runs everything up to 2x slower for minutes at a time, so a
    # raw time moves with the host.  Each sample is scaled by the probes
    # just before and after it, which moved with the host too.
    scaled = probe_scaled(timeline, PROBE_REF_S)
    probes = [item for item in timeline if isinstance(item, float)]
    print(f"probe: {len(probes)} runs, fastest {min(probes):.3f} s, median {median(probes):.3f} s; "
          f"each sample is scaled by {PROBE_REF_S} s / the mean of the probes around it")

    samples = {m: [o for r in rounds for o in r[m]] for m in TIMED}
    samples["setup_s"] = setups
    values, notes = {}, {}
    for m, s in samples.items():
        raw = [o.seconds for o in s]
        values[m] = median(scaled[id(o)] for o in s)
        # Child CPU time is printed beside the wall time: where the two
        # agree, a slow command was slow on the CPU, not waiting for it.
        notes[m] = (f"median of {len(s)}; raw median {median(raw):.3f}, best {min(raw):.3f}"
                    + (f", cpu {median(o.cpu_s for o in s):.3f}" if m != "setup_s" else ""))
    pct, tail = tail_percentile(scaled[id(o)] for o in samples["similar_s"])
    notes["similar_s"] += f"; p{pct:g} {tail:.3f}"
    values["peak_rss_mb"] = max(rss) / 1024
    notes["peak_rss_mb"] = f"largest of {len(rss)} steve processes"
    return values, notes


def traced(ctx: Context) -> tuple[dict, dict]:
    """Untraced and traced in-process rounds; returns the per-layer metrics."""
    imports = []
    for _ in range(IMPORT_SAMPLES):
        outcome = ctx.child([sys.executable, "-c", "import steve.cli"])
        ctx.checker.record("import steve.cli", lambda: [] if outcome.code == 0 else [outcome.stderr[-500:]])
        imports.append(outcome.seconds)

    sys.path.insert(0, str(SRC))
    import inprocess  # noqa: E402  (needs src/ on the path)
    import steve

    if Path(steve.__file__).resolve().parent != SRC / "steve":
        raise Failed(f"imported steve from {steve.__file__}, not from {SRC}")

    def executor(tracer):
        def execute(argv):
            start = time.perf_counter()
            try:
                code, out, err = inprocess.run(tracer, argv)
            except Exception as e:  # a crash fails the command, as a non-zero exit would
                code, out, err = 1, "", repr(e)
            return Outcome(time.perf_counter() - start, code, out, err)
        return execute

    rounds, plain, timed, tracers = [], [], [], []

    def pair(i):
        tracer = Tracer()
        for tr, sink in ((NullTracer(), plain), (tracer, timed)):
            t = time.perf_counter()
            run_round(ctx, executor(tr), queries(ctx, i))
            sink.append(time.perf_counter() - t)
        rounds.append(inprocess.layer_metrics(tracer.spans))
        tracers.append(tracer)

    repeat_rounds(ctx, 1, pair)
    values = {m: median(r[m] for r in rounds) for m in rounds[0]}
    values["cli.import_s"] = median(imports)
    values["trace.overhead_ratio"] = median(timed) / median(plain) - 1
    spans_path = WORK / f"spans-{ctx.args.workload}-seed{ctx.args.seed}.json"
    spans_path.write_text(json.dumps(tracers[-1].spans))
    print(f"spans: {len(tracers[-1].spans)} from the last traced round in {spans_path.relative_to(ROOT)}")
    notes = {m: f"median of {len(rounds)} traced rounds" for m in values}
    notes["cli.import_s"] = f"median of {len(imports)} fresh interpreters"
    notes["trace.overhead_ratio"] = f"traced {median(timed):.3f} s / untraced {median(plain):.3f} s - 1"
    return values, notes


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "threads": " ".join(f"{v}={THREADS}" for v in THREAD_VARS),
    }


def declared_metrics() -> dict[str, dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(SPECS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=60, help="time to measure (default 60)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (SRC / "steve" / "cli.py").is_file():
        print(f"bench: error: no steve sources at {SRC / 'steve'}; run from a full checkout", file=sys.stderr)
        return 2
    print(f"bench: workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in environment().items()))

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    ctx = Context(args, SPECS[args.workload], work, child_env(), deadline)
    try:
        if args.trace:
            set_up(ctx)
            values, notes = traced(ctx)
        else:
            values, notes = untraced(ctx)
    except Failed as e:
        if ctx.checker is None or not ctx.checker.failed:
            print(f"bench: error: {e}", file=sys.stderr)
            return 1
        values, notes = {}, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checker = ctx.checker
    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    for name in units:
        if name in values:
            print(f"{name:<30} {values[name]:>14.6g} {units[name]:<6} {notes.get(name, '')}")
    print(f"{'ops_failed_ratio':<30} {checker.failed / checker.attempted:>14.6g} {'ratio':<6} "
          f"{checker.failed} failed / {checker.attempted} attempted")
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    ok = checker.failed == 0
    if ok and set(values) != set(units):
        raise AssertionError(f"metrics {sorted(set(units) ^ set(values))} missing or unknown")
    result = {
        "correct": ok,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units if name in values},
    }
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
