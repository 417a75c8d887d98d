#!/usr/bin/env python3
"""Scenario: sizing the Cache HW-Engine's speculation window (§5.5.1).

The crash/replay optimization lets several tree updates run
concurrently.  How wide should the window be, and when does it stop
paying?  This study sweeps the window across cache-miss regimes with
the engine's timing model (throughput), then runs its queueing
simulation, whose crash/replay rate emerges from leaf collisions among
in-flight updates, over several tree sizes — reproducing Figure 13's
regimes and showing where each constraint binds.

Run:  python examples/tree_concurrency_study.py
"""

from repro.analysis import format_table
from repro.cache import CacheEngineModel


def main() -> None:
    # 1. Throughput vs window across miss regimes (timing model).
    model = CacheEngineModel()
    rows = []
    for label, miss in (("hot cache (10% miss)", 0.10),
                        ("warm cache (19% miss)", 0.19),
                        ("cold cache (47% miss)", 0.47)):
        row = [label]
        for window in (1, 2, 4, 8):
            solved = model.analytic_throughput(miss, window=window)
            row.append(f"{solved.throughput / 1e9:.0f}")
        solved = model.analytic_throughput(miss, window=4)
        row.append(solved.bottleneck)
        rows.append(row)
    print(format_table(
        headers=["regime", "w=1 (GB/s)", "w=2", "w=4", "w=8", "binding @w=4"],
        rows=rows,
        title="engine throughput vs speculation window",
    ))
    print("\nwindow 4 is where the commit port takes over — wider windows"
          "\nbuy nothing, which is why the paper stops there.\n")

    # 2. Crash/replay rates from the queueing simulation: a crash needs
    # two in-flight updates on the same or an adjacent leaf, so the rate
    # falls inversely with tree size.  Cold cache: the most updates.
    rows = []
    for leaves in (1_000, 10_000, 100_000, 1_500_000):
        row = [f"{leaves:,} leaves"]
        for window in (1, 2, 4):
            simulated = model.simulate(
                30_000, 0.47, window=window, num_leaves=leaves, seed=leaves
            )
            row.append(f"{simulated.crash_rate:.3%}")
        rows.append(row)
    print(format_table(
        headers=["tree size", "crash rate w=1", "w=2", "w=4"],
        rows=rows,
        title="simulated crash/replay rates (cold cache, 30,000 requests)",
    ))
    print("\nthe rate shrinks with tree size; the prototype's 100-GB cache"
          "\nindex has ~1.5M leaves, which is where the paper's <0.1% lives.")


if __name__ == "__main__":
    main()
