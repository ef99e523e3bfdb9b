#!/usr/bin/env python3
"""Benchmark of the ``xvadg`` command line.

Runs one workload's commands through ``xvadg.cli.main(argv)`` in this
process, one command at a time (a closed loop with one client), each
writing into a fresh directory under ``bench/out/``.  After every command
its output is checked, outside the timed span.  Whole cycles of the
workload's commands repeat until the timed commands add up to ``--seconds``
and number at least ``MIN_COMMANDS``.

    python3 bench/run.py --workload price_fine --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1`` (a separate run with every module
call wrapped in a span; see ``tracing.py``).  Without ``--workload`` every
workload runs, each in a fresh process, and a summary table is printed.
The package is imported from ``src/`` of the checkout this file sits in;
nothing needs to be installed.
"""

import time

_STARTED = time.perf_counter()   # set-up is timed from here

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# end-to-end metrics: name -> unit
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# a run times at least this many commands, so that on mc_table (one command
# per cycle) the median is never that of the first, slower table3 alone
MIN_COMMANDS = 3


def import_cli():
    """Import ``xvadg.cli`` from this checkout's ``src/``, and only there."""
    src = ROOT / "src"
    if not (src / "xvadg" / "cli.py").is_file():
        raise SystemExit(f"bench: no xvadg sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import xvadg.cli
    if Path(xvadg.cli.__file__).resolve().parent != src / "xvadg":
        raise SystemExit(f"bench: imported xvadg from {xvadg.cli.__file__}, "
                         f"not from {src}")
    return xvadg.cli


def run_command(cli, argv, out: Path) -> tuple[int, str, str, float]:
    """One command, timed: (exit code, stdout, stderr, seconds)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main([*argv, "--out", str(out)])
        except SystemExit as exc:   # argparse rejects its arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, stdout.getvalue(), stderr.getvalue(), time.perf_counter() - started


def set_up(workload: Workload) -> tuple[object, Path, float]:
    """Import the package, make the scratch directory and run the
    workload's warm-up command; returns the CLI module, the directory and
    the set-up time."""
    cli = import_cli()
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    rc, _, err, _ = run_command(cli, workload.warmup, scratch / "warmup")
    if rc != 0:
        raise SystemExit(f"bench: warm-up command failed ({rc}): {err.strip()}")
    return cli, scratch, time.perf_counter() - _STARTED


def run_cycles(cli, commands, seconds: float, scratch: Path, tracer=None):
    """Repeat whole cycles until the timed commands add up to ``seconds``
    and number at least ``MIN_COMMANDS``.
    Returns every command's time, whether each failed, the cycles run and
    the check figures."""
    durations: list[float] = []
    failures: list[bool] = []
    cycles = 0
    notes: dict[str, float] = {}
    while len(durations) < MIN_COMMANDS or sum(durations) < seconds:
        for cmd in commands:
            out = scratch / "cmd"
            shutil.rmtree(out, ignore_errors=True)
            gc.collect()
            if tracer is None:
                rc, stdout, stderr, dt = run_command(cli, cmd.argv, out)
            else:
                tracer.command = len(durations)
                with tracer.span("cli.main"):
                    rc, stdout, stderr, dt = run_command(cli, cmd.argv, out)
            durations.append(dt)
            if rc != 0:
                problems = [f"exit code {rc}: {stderr.strip()}"]
            else:
                problems, found = cmd.check(out, stdout)
                for k, v in found.items():
                    notes[k] = max(notes.get(k, v), v)
            failures.append(bool(problems))
            if problems:
                print(f"bench: FAILED {cmd.label}: {'; '.join(problems)}",
                      file=sys.stderr)
        cycles += 1
    return durations, failures, cycles, notes


def outcome(durations: list[float], failures: list[bool]) -> dict:
    """Counts and command timings of a run.  Only commands that succeeded
    count as completed, and only their times give the median."""
    completed = [dt for dt, bad in zip(durations, failures) if not bad]
    if not completed:
        raise SystemExit(f"bench: all {len(durations)} commands failed")
    return {"correct": not any(failures), "attempted": len(durations),
            "failed": sum(failures),
            "ops_per_s": len(completed) / sum(durations),
            "op_p50_s": statistics.median(completed)}


def run_workload(args) -> dict:
    workload = WORKLOADS[args.workload]
    cli, scratch, setup_s = set_up(workload)
    commands = workload.cycle(args.seed, args.size)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    cpu_started = time.process_time()
    try:
        durations, failures, cycles, notes = run_cycles(
            cli, commands, args.seconds, scratch, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    cpu_s = time.process_time() - cpu_started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(scratch, ignore_errors=True)
    done = outcome(durations, failures)

    if tracer is None:
        values = {
            "ops_per_s": done["ops_per_s"],
            "op_p50_s": done["op_p50_s"],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        tracer.write(OUT_DIR / "trace" / f"{workload.name}-seed{args.seed}.json")
        layers = tracer.layer_metrics(cycles)
        layers["process.cpu_s"] = (cpu_s / cycles, "s")
        layers["trace.op_p50_s"] = (done["op_p50_s"], "s")
        layers["trace.spans"] = (len(tracer.spans) / cycles, "count")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    for k, v in sorted(notes.items()):
        print(f"bench: {workload.name} {k} {v:.4g}", file=sys.stderr)
    return {"correct": done["correct"], "attempted": done["attempted"],
            "failed": done["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own fresh process, then one summary table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            stdout=subprocess.PIPE, text=True, timeout=900, cwd=ROOT)
        if proc.returncode != 0:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="workload to run (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1,
                        help="orders the commands within a cycle (default 1)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed command seconds to reach (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the same commands at a test size")
    args = parser.parse_args(argv)

    if args.workload is None:
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
