#!/usr/bin/env python3
"""Scenario: pricing a PB-scale storage tier (§7.8's cost model).

Given a target effective capacity and per-socket throughput, compare
three ways to build it — raw flash, the baseline reducer (which must
fall back to partial reduction past its ceiling), and FIDR — and show
how the trade-off moves across the design space.

Run:  python examples/capacity_planning.py
"""

from repro.analysis import StorageCostModel, format_table, pct

GB = 1e9
TB = 1e12


def main() -> None:
    model = StorageCostModel()

    # A concrete build: 500 TB effective capacity at 75 GB/s per socket.
    capacity, throughput = 500 * TB, 75 * GB
    reference = model.no_reduction_cost(capacity)
    baseline = model.baseline_cost(throughput, capacity, per_socket_cap=25 * GB)
    fidr = model.fidr_cost(throughput, capacity)

    rows = []
    for label, breakdown in (("raw flash", reference),
                             ("baseline (partial reduction)", baseline),
                             ("FIDR", fidr)):
        rows.append([
            label,
            f"${breakdown.total / 1000:,.0f}k",
            pct(breakdown.savings_vs(reference)) if breakdown is not reference else "-",
        ])
    print(format_table(
        headers=["build", "cost", "saving vs raw flash"],
        rows=rows,
        title=f"pricing {capacity / TB:.0f} TB effective at {throughput / GB:.0f} GB/s",
    ))

    # The design space: how the FIDR saving moves with scale.
    print()
    sweep_rows = []
    for cap in (100 * TB, 250 * TB, 500 * TB, 1000 * TB):
        row = [f"{cap / TB:.0f} TB"]
        for tput in (25 * GB, 50 * GB, 75 * GB):
            saving = model.fidr_cost(tput, cap).savings_vs(
                model.no_reduction_cost(cap)
            )
            row.append(pct(saving))
        sweep_rows.append(row)
    print(format_table(
        headers=["capacity", "saving @25 GB/s", "@50 GB/s", "@75 GB/s"],
        rows=sweep_rows,
        title="FIDR cost saving across the design space",
    ))

    print("\nreading the table: reduction hardware scales with throughput,"
          "\nsaved flash scales with capacity — big, fast tiers still win.")


if __name__ == "__main__":
    main()
