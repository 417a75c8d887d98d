#!/usr/bin/env python3
"""Wire-path benchmark: one command, every metric by name and unit.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S]
                         [--trace 0|1] [--smoke]

Spawns the real server as a subprocess, drives it over TCP, verifies
every read, and prints each metric with its unit; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` runs the untraced pass and reports the six end-to-end
metrics; ``--trace 1`` runs a shorter untraced pass plus a traced pass and
reports the per-layer metrics; without ``--trace`` both are run.  Without
``--workload`` all four workloads run and — unless ``--smoke`` — the
results are appended to ``bench/history.jsonl``.  Exit status is 0 only
when no op failed and every read verified.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

HISTORY = BENCH_DIR / "history.jsonl"


def run_workload(workload: Any, seed: int, seconds: float,
                 trace: Optional[int], smoke: bool) -> Dict[str, Any]:
    """Run one workload's pass(es); returns tally and metrics."""
    import loadgen
    import measure

    tally = loadgen.Tally()
    metrics: loadgen.Metrics = {}
    aborted = None

    def one_pass(divisor: int = 1, **kwargs: Any) -> loadgen.PassResult:
        plan = loadgen.scaled(workload, seconds, divisor, smoke)
        return asyncio.run(loadgen.Driver(plan, seed, tally).run_pass(**kwargs))

    try:
        if trace != 1:
            result = one_pass(setups=1 if smoke else loadgen.SETUPS)
            metrics.update(loadgen.end_to_end(result))
            print(f"  [{workload.name}] raw write/read MB/s: pooled "
                  f"{result.write.pooled_mb_s:.2f} / {result.read.pooled_mb_s:.2f}, "
                  f"best window {max(result.write.window_mb_s):.2f} / "
                  f"{max(result.read.window_mb_s):.2f}; host factor "
                  f"{result.write.host_factor:.3f} / {result.read.host_factor:.3f}, "
                  f"calibrated window spread "
                  f"{measure.spread(result.write.calibrated_mb_s):.3f} / "
                  f"{measure.spread(result.read.calibrated_mb_s):.3f}",
                  file=sys.stderr)
        if trace != 0:
            # Same window sizes, fewer windows: half untraced (the client
            # diagnostics and the overhead reference), a quarter traced.
            untraced = one_pass(divisor=2)
            traced = one_pass(divisor=4, traced=True)
            layers = loadgen.per_layer(untraced, traced, tally)
            metrics.update(layers)
            closure = layers["trace.closure_ratio"][0]
            if not 0.9 <= closure <= 1.1:
                print(f"  [{workload.name}] time ledger does not close: "
                      f"closure {closure:.3f}, unattributed "
                      f"{layers['trace.unattributed_us_per_chunk'][0]:.1f} "
                      "us/chunk (see bench/README.md)", file=sys.stderr)
    except loadgen.RunAborted as error:
        aborted = str(error)
        print(f"  [{workload.name}] aborted: {error}", file=sys.stderr)
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": aborted is None and tally.failed == 0
        and tally.reads == tally.reads_verified and tally.reads > 0,
        "reads": tally.reads,
        "reads_verified": tally.reads_verified,
        "metrics": metrics,
    }


def print_metrics(workload: str, outcome: Dict[str, Any], smoke: bool) -> None:
    label = " (smoke: not comparable)" if smoke else ""
    print(f"{workload}{label}: {outcome['attempted']} ops attempted, "
          f"{outcome['failed']} failed, {outcome['reads_verified']}/"
          f"{outcome['reads']} reads verified")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"  {name:<46} {value:>16.4f} {unit}")


def git_sha() -> Dict[str, Any]:
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=str(BENCH_DIR), capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError):
        return {"sha": "unknown", "dirty": False}


def append_history(args: argparse.Namespace,
                   outcomes: Dict[str, Dict[str, Any]]) -> None:
    calib = [outcome["metrics"]["host.calib_ms"][0]
             for outcome in outcomes.values()]
    row = {
        **git_sha(), "seed": args.seed, "seconds": args.seconds,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "host.calib_ms": sorted(calib)[len(calib) // 2],
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {
            name: {metric: value for metric, (value, _) in outcome["metrics"].items()}
            for name, outcome in outcomes.items()
        },
    }
    with HISTORY.open("a") as history:
        history.write(json.dumps(row, separators=(",", ":")) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run at today's speeds "
                        "(scales window counts; default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer "
                        "metrics only; default: both")
    parser.add_argument("--smoke", action="store_true",
                        help="one window per phase; numbers not comparable")
    args = parser.parse_args(argv)

    try:
        import loadgen
        from lifecycle import ServerStartError
    except ImportError as error:
        print(f"bench: cannot import the system under test: {error}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(loadgen.REFERENCE_SECONDS)
    by_name = {workload.name: workload for workload in loadgen.WORKLOADS}
    if args.workload is not None and args.workload not in by_name:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(by_name)}")
    chosen = [by_name[args.workload]] if args.workload else list(loadgen.WORKLOADS)

    # Die through the ``finally`` blocks that stop the server, not past them.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    outcomes: Dict[str, Dict[str, Any]] = {}
    try:
        for workload in chosen:
            outcomes[workload.name] = run_workload(
                workload, args.seed, args.seconds, args.trace, args.smoke)
            print_metrics(workload.name, outcomes[workload.name], args.smoke)
    except (ServerStartError, OSError) as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2

    correct = all(outcome["correct"] for outcome in outcomes.values())
    if len(chosen) == len(by_name) and args.trace is None and not args.smoke and correct:
        append_history(args, outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o["attempted"] for o in outcomes.values()),
        "failed": sum(o["failed"] for o in outcomes.values()),
        "metrics": {
            (name if args.workload else f"{workload}/{name}"):
                {"value": value, "unit": unit}
            for workload, outcome in outcomes.items()
            for name, (value, unit) in outcome["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
