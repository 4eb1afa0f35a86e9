"""stancelab benchmark: run one workload the way a user does and report.

    python3 bench/run.py --workload matrix|train|score --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is taken from
``src/`` next to this directory and run as ``python -m stancelab`` child
processes. Work files go to ``.bench_work/`` in the checkout and are
removed at exit.

A run sets the workload up (with ``--trace 0`` several times, timing each),
then repeats the workload's timed commands as often as fits in
``--seconds``, checking the outputs of every repetition. With ``--trace 0``
it reports the end-to-end metrics as medians over repetitions. With
``--trace 1`` it then runs the set-up's synth steps and one more repetition
under ``traced.py`` and reports per-layer metrics from their spans and
counters.

Tests of the benchmark itself: ``python -m pytest bench``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON object holding the run's context (machine, versions, output
digests, samples and any problems the checks found).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Set-up is repeated at least SETUP_MIN times and until SETUP_TARGET_S have
# been spent, so that short set-ups still give a steady median.
SETUP_MIN, SETUP_MAX, SETUP_TARGET_S = 3, 9, 3.0
# A run must end within 180 s: no repetition is started that is expected to
# end after RUN_LIMIT_S, and a command still running at KILL_AFTER_S is killed.
RUN_LIMIT_S, KILL_AFTER_S = 150.0, 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
    "f_avg": "score",
}

# Per-layer metric -> unit. Time metrics are self times of the spans of
# the same name (see traced.LAYERS). trace.wall_s is the traced wall time of
# the timed commands and cli.self_s the part of it no layer span covers, so
# the layer times plus cli.self_s add up to trace.wall_s. synth.generate_s is
# the exception: it times the set-up's synth steps, traced on their own.
PER_LAYER_UNITS = {
    "corpus.load_s": "s",
    "corpus.tweets": "count",
    "corpus.profiles": "count",
    "features.extract_s": "s",
    "features.extract_calls": "count",
    "features.extract_per_tweet": "ratio",
    "features.space_s": "s",
    "features.vectorize_s": "s",
    "features.vectorize_calls": "count",
    "features.dim": "count",
    "features.nnz_per_row": "count",
    "linsvm.solve_s": "s",
    "linsvm.fits": "count",
    "linsvm.epochs": "count",
    "linsvm.coord_steps": "count",
    "linsvm.nonconverged_fits": "count",
    "linsvm.at_bound_ratio": "ratio",
    "linsvm.dup_row_ratio": "ratio",
    "linsvm.predict_s": "s",
    "linsvm.predict_calls": "count",
    "linsvm.save_bundle_s": "s",
    "linsvm.load_bundle_s": "s",
    "linsvm.bundle_mb": "MB",
    "pipeline.self_s": "s",
    "scoring.score_s": "s",
    "scoring.read_s": "s",
    "scoring.write_s": "s",
    "analysis.curves_s": "s",
    "analysis.curves": "count",
    "analysis.top_features_s": "s",
    "analysis.overlap_s": "s",
    "analysis.consistency_s": "s",
    "analysis.write_s": "s",
    "cli.self_s": "s",
    "cli.cells": "count",
    "synth.generate_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

SPAN_METRICS = [m for m in PER_LAYER_UNITS
                if m.endswith("_s") and not m.startswith(("cli.", "trace."))]
SETUP_SPAN = "synth.generate_s"


class SetupError(RuntimeError):
    pass


@dataclass
class Command:
    wall_s: float
    rss_mb: float
    exit_code: int
    trace: dict | None = None


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Runs stancelab commands as child processes, logging their output."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.log = work / "commands.log"
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def run(self, argv: list[str], trace_json: Path | None = None) -> Command:
        if trace_json is None:
            cmd = [sys.executable, "-m", "stancelab", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced.py"), str(trace_json), *argv]
        with self.log.open("ab") as log:
            log.write(f"$ {' '.join(cmd)}\n".encode())
            log.flush()
            start = time.monotonic()
            # A session of its own lets a kill reach any workers the command starts.
            proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=self.env, cwd=ROOT,
                                    start_new_session=True)
            killer = threading.Timer(max(self.deadline - start, 1.0), kill_group, (proc.pid,))
            killer.start()
            try:
                # wait4 gives the child's peak RSS, its reaped workers included.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        trace = None
        if trace_json is not None and trace_json.is_file():
            trace = json.loads(trace_json.read_text(encoding="utf-8"))
            wall = trace["end"] - start
        return Command(wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode, trace)

    def log_tail(self, lines: int = 20) -> str:
        text = self.log.read_text(encoding="utf-8", errors="replace")
        return "\n".join(text.splitlines()[-lines:])


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def setup_once(runner: Runner, workload, ws: Path, seed: int) -> float:
    start = time.monotonic()
    for argv in workload.setup(ws, seed):
        if runner.run(argv).exit_code != 0:
            raise SetupError(f"setup step {argv[0]} failed:\n{runner.log_tail()}")
    return time.monotonic() - start


def self_times(spans: list) -> dict[str, float]:
    """Span name -> summed self time (duration minus direct children)."""
    child_time: dict[int, float] = {}
    for _, parent, _, start, end in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals: dict[str, float] = {}
    for span_id, _, name, start, end in spans:
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time.get(span_id, 0.0)
    return totals


def layer_metrics(setup: list[Command], timed: list[Command],
                  untraced_median: float) -> dict[str, float]:
    """Per-layer metrics from the traced set-up and timed commands of a run."""
    times = dict.fromkeys(SPAN_METRICS, 0.0)
    counts: dict[str, int] = {}
    dims: list[int] = []
    for command in setup + timed:
        for name, value in self_times(command.trace["spans"]).items():
            times[name] += value
        counters = command.trace["counters"]
        for key, value in counters.items():
            if key == "calls":
                for fn, n in value.items():
                    counts[fn] = counts.get(fn, 0) + n
            elif key == "space_dims":
                dims += value
            else:
                counts[key] = counts.get(key, 0) + value
    wall = sum(c.wall_s for c in timed)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def calls(function: str) -> int:
        return counts.get(f"stancelab.{function}", 0)

    metrics = dict(times)
    metrics.update({
        "corpus.tweets": counts["tweets"],
        "corpus.profiles": counts["profiles"],
        "features.extract_calls": calls("features.extract_features"),
        "features.extract_per_tweet": ratio(calls("features.extract_features"),
                                            counts["extracted_tweets"]),
        "features.vectorize_calls": calls("features.vectorize"),
        "features.dim": statistics.fmean(dims) if dims else 0.0,
        "features.nnz_per_row": ratio(counts["nnz"], calls("features.vectorize")),
        "linsvm.fits": counts["fits"],
        "linsvm.epochs": counts["epochs"],
        "linsvm.coord_steps": counts["coord_steps"],
        "linsvm.nonconverged_fits": counts["nonconverged_fits"],
        "linsvm.at_bound_ratio": ratio(counts["at_bound"], counts["fit_rows"]),
        "linsvm.dup_row_ratio": ratio(counts["duplicate_rows"], counts["fit_rows"]),
        "linsvm.predict_calls": calls("linsvm.predict"),
        "linsvm.bundle_mb": counts["bundle_bytes"] / 1e6,
        "analysis.curves": calls("analysis.topn_overlap_curve"),
        "cli.cells": calls("pipeline.run_cell"),
        "cli.self_s": wall - sum(v for k, v in times.items() if k != SETUP_SPAN),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced_median,
    })
    return metrics


def context(args: argparse.Namespace) -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def run(args: argparse.Namespace, work: Path) -> tuple[dict, dict]:
    began = time.monotonic()
    workload = WORKLOADS[args.workload](args.users_per_topic, args.prior)
    runner = Runner(work, deadline=began + KILL_AFTER_S)
    traced = bool(args.trace)

    setup_s = [setup_once(runner, workload, work / "setup0", args.seed)]
    while not traced and len(setup_s) < SETUP_MAX and (
            len(setup_s) < SETUP_MIN or sum(setup_s) < SETUP_TARGET_S):
        setup_s.append(setup_once(runner, workload, work / "setup_again", args.seed))
        shutil.rmtree(work / "setup_again")
    ws = work / "setup0"

    attempted = failed = 0
    problems: list[str] = []
    walls, rss, outputs, scores = [], [], [], []
    digests: dict[str, str] = {}

    def check(out: Path, commands: list[Command]) -> None:
        nonlocal attempted, failed
        outcome = workload.check(ws, out, [c.exit_code for c in commands])
        attempted += outcome.attempted
        failed += outcome.failed
        if any(c.exit_code for c in commands):
            outcome.problems.append("command output:\n" + runner.log_tail())
        problems.extend(p for p in outcome.problems if p not in problems)
        digests.update(outcome.digests)
        scores.append(outcome.f_avg)

    start = time.monotonic()
    # Start a repetition only if one more is expected to end within the window.
    while not walls or (time.monotonic() - start + walls[-1] <= args.seconds
                        and time.monotonic() - began + walls[-1] <= RUN_LIMIT_S):
        out = work / f"iter{len(walls)}"
        out.mkdir()
        commands = [runner.run(argv) for argv in workload.timed(ws, out, traced)]
        walls.append(sum(c.wall_s for c in commands))
        rss.append(max(c.rss_mb for c in commands))
        outputs.append(tree_bytes(out) / 1e6)
        check(out, commands)
        shutil.rmtree(out, ignore_errors=True)

    info = context(args)
    if not traced:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median(rss),
            "output_mb": statistics.median(outputs),
            "f_avg": statistics.median(scores),
        }
        units = END_TO_END_UNITS
    else:
        synths = [a for a in workload.setup(work / "traced_setup", args.seed) if a[0] == "synth"]
        setup = [runner.run(argv, work / f"trace_setup{i}.json")
                 for i, argv in enumerate(synths)]
        out = work / "traced"
        out.mkdir()
        timed = [runner.run(argv, work / f"trace_timed{i}.json")
                 for i, argv in enumerate(workload.timed(ws, out, traced))]
        check(out, timed)
        if any(c.trace is None for c in setup + timed):
            raise SetupError(f"a traced command left no trace:\n{runner.log_tail()}")
        metrics = layer_metrics(setup, timed, statistics.median(walls))
        info["trace_overhead_s"] = metrics["trace.overhead_s"]
        units = PER_LAYER_UNITS
    info.update(iterations=len(walls), wall_s_samples=walls, setup_s_samples=setup_s,
                digests=digests, problems=problems)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return info, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--users-per-topic", type=int,
                        help="override every corpus size (for smoke tests)")
    parser.add_argument("--prior", help="synth --prior for every corpus (for tests)")
    args = parser.parse_args(argv)

    if not (SRC / "stancelab" / "__init__.py").is_file():
        print(f"bench: no stancelab sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    sys.path.insert(0, str(SRC))
    try:
        info, result = run(args, work)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"context": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
