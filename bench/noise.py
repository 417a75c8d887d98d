#!/usr/bin/env python3
"""Run-to-run noise of the benchmark, and the bounds it supports.

    python3 bench/noise.py [--runs 5] [--seed-base 1] [--workload W ...]

Runs ``run.py --trace 0`` ``--runs`` times per workload in each of two
sets, interleaved A B A B ... so both sets see the same drift of the
host, every run with another seed.  For each (workload, end-to-end
metric) it prints each set's median, quartiles
(``statistics.quantiles(values, n=4)``), their distance as a share of the
median (the *spread*), max - min, and how much worse set B's median is
than set A's (the *gap*), then writes everything to ``bench/NOISE.json``.

A bound in ``BENCHMARK.json`` must be at least either set's spread and at
least twice the gap; the table marks pairings that break this, and
pairings whose spread is above a third of the bound (the margin the
acceptance check asks for).  ``derived_bounds`` in the JSON is the
smallest bound per metric, on a 0.5 % grid, that satisfies the rule on
every workload, starting from the issue's table and capped at 15 %
(25 % for ``setup_s``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

#: The issue's starting bounds; noise only ever widens them, up to CAP.
START = {
    "setup_s": 0.20, "write_mb_s": 0.10, "read_mb_s": 0.10,
    "server_cpu_ms_per_mb": 0.10, "server_peak_rss_mb": 0.03,
    "stored_bytes_per_user_byte": 0.005,
}
CAP = {"setup_s": 0.25}
DEFAULT_CAP = 0.15


def run_once(workload: str, seed: int) -> Dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", "0"],
        capture_output=True, text=True, timeout=180,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median,
        "range": (max(values) - min(values)) / median,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="restrict to these workloads (repeatable)")
    parser.add_argument("--out", default=str(BENCH_DIR / "NOISE.json"))
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("quartiles need at least 2 runs per set")

    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    samples: Dict[str, Dict[str, Dict[str, List[float]]]] = {
        w: {s: {m: [] for m in metrics} for s in "AB"} for w in workloads
    }
    started = time.time()
    for index in range(args.runs):
        for offset, label in enumerate("AB"):
            seed = args.seed_base + offset * args.runs + index
            for workload in workloads:
                values = run_once(workload, seed)
                for name in metrics:
                    samples[workload][label][name].append(values[name])
                print(f"set {label} run {index + 1}/{args.runs} {workload} "
                      f"seed {seed} ({time.time() - started:.0f} s)",
                      file=sys.stderr)

    table: Dict[str, Dict[str, Any]] = {}
    needed = dict(START)
    print(f"{'workload':<18} {'metric':<27} {'median A':>10} {'spread A':>9} "
          f"{'spread B':>9} {'range':>7} {'gap B/A':>8} {'bound':>6}")
    for workload in workloads:
        table[workload] = {}
        for name, spec in metrics.items():
            a = summarize(samples[workload]["A"][name])
            b = summarize(samples[workload]["B"][name])
            worse = 1.0 if spec["better"] == "lower" else -1.0
            gap = worse * (b["median"] - a["median"]) / a["median"]
            need = max(a["spread"], b["spread"], 2 * abs(gap))
            needed[name] = max(needed[name], need)
            bound = spec["bound"]
            flag = ("  FAILS" if need > bound else
                    "  >1/3" if max(a["spread"], b["spread"]) > bound / 3 else "")
            table[workload][name] = {
                "A": a, "B": b, "gap": gap, "needs": need,
                "values": {label: samples[workload][label][name]
                           for label in "AB"},
            }
            print(f"{workload:<18} {name:<27} {a['median']:>10.4f} "
                  f"{a['spread']:>9.4f} {b['spread']:>9.4f} "
                  f"{max(a['range'], b['range']):>7.4f} {gap:>+8.4f} "
                  f"{bound:>6.3f}{flag}")

    derived, over_cap = {}, []
    for name, need in needed.items():
        cap = CAP.get(name, DEFAULT_CAP)
        derived[name] = min(cap, math.ceil(need * 200 - 1e-9) / 200)
        if need > cap:
            over_cap.append(name)
    print("derived bounds:", json.dumps(derived))
    if over_cap:
        print("needs more than its cap (move to per_layer, do not widen):",
              ", ".join(over_cap))
    Path(args.out).write_text(json.dumps({
        "runs_per_set": args.runs, "seed_base": args.seed_base,
        "run_seconds": SPEC["run_seconds"], "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "bounds": {name: spec["bound"] for name, spec in metrics.items()},
        "derived_bounds": derived, "over_cap": over_cap, "table": table,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
