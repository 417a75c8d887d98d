"""Figure 14: overall per-socket throughput by technique (§7.5).

Projects each configuration onto the high-end 22-core / 170 GB/s /
1-Tbps socket (the paper's simulation target) and solves for the
binding resource ceiling:

1. baseline (CIDR + software caching),
2. + NIC hashing and peer-to-peer transfers (software caching),
3. + Cache HW-Engine with the single-update tree,
4. + the multi-update (crash/replay) optimization.

Paper shape: stage 2 alone gives up to 1.6x; stage 3 *hurts* the
lower-hit-rate workloads (single-update tree is slower than the
software cache at scale); stage 4 recovers it, reaching up to 3.3x on
writes and 1.7x on Read-Mixed — where the optimization does not help
because the data-SSD software stack keeps the CPU the bottleneck.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.report import Comparison, format_table
from ..analysis.throughput import solve_throughput
from .common import DEFAULT_SCALE, ExperimentResult, Scale, get_report
from .tab03_workloads import WORKLOAD_KEYS

__all__ = ["run", "PAPER_MAX_WRITE_SPEEDUP", "PAPER_MIXED_SPEEDUP"]

PAPER_MAX_WRITE_SPEEDUP = 3.3
PAPER_NIC_P2P_SPEEDUP = 1.6
PAPER_MIXED_SPEEDUP = 1.7

_CONFIGS = (
    ("baseline", "baseline", dict()),
    ("fidr-sw-cache", "+NIC hash & P2P", dict()),
    ("fidr", "+HW cache (single-update)", dict(use_cache_engine=True, tree_window=1)),
    ("fidr", "+multi-update tree", dict(use_cache_engine=True, tree_window=4)),
)


def run(scale: Scale = DEFAULT_SCALE) -> ExperimentResult:
    """Regenerate Figure 14."""
    rows: List[List] = []
    speedups: Dict[str, Dict[str, float]] = {}
    bottlenecks: Dict[str, str] = {}
    for key in WORKLOAD_KEYS:
        ceilings = {}
        for flavour, label, solver_kwargs in _CONFIGS:
            report = get_report(flavour, key, scale, server="target")
            ceilings[label] = solve_throughput(report, **solver_kwargs)
        base = ceilings["baseline"].throughput
        speedups[key] = {
            label: solved.throughput / base for label, solved in ceilings.items()
        }
        final = ceilings["+multi-update tree"]
        bottlenecks[key] = final.bottleneck
        rows.append(
            [key]
            + [f"{ceilings[label].throughput / 1e9:.1f}" for _, label, _ in _CONFIGS]
            + [f"{speedups[key]['+multi-update tree']:.2f}x", final.bottleneck]
        )

    table = format_table(
        headers=["workload", "baseline (GB/s)", "+NIC/P2P", "+HW cache (w=1)",
                 "+multi-update", "speedup", "final bottleneck"],
        rows=rows,
        title="Figure 14: per-socket throughput by technique (target socket)",
    )
    max_write = max(
        speedups[k]["+multi-update tree"] for k in ("write-h", "write-m", "write-l")
    )
    max_nic = max(
        speedups[k]["+NIC hash & P2P"] for k in ("write-h", "write-m", "write-l")
    )
    single_update_dips = [
        k for k in WORKLOAD_KEYS
        if speedups[k]["+HW cache (single-update)"]
        < speedups[k]["+NIC hash & P2P"]
    ]
    comparisons = [
        Comparison("max write speedup", PAPER_MAX_WRITE_SPEEDUP, max_write, "x"),
        Comparison("NIC+P2P alone (max write)", PAPER_NIC_P2P_SPEEDUP, max_nic, "x"),
        Comparison(
            "Read-Mixed speedup",
            PAPER_MIXED_SPEEDUP,
            speedups["read-mixed"]["+multi-update tree"],
            "x",
        ),
    ]
    return ExperimentResult(
        name="Figure 14",
        headline=(
            f"FIDR reaches {max_write:.1f}x on writes and "
            f"{speedups['read-mixed']['+multi-update tree']:.1f}x on "
            f"Read-Mixed (paper: 3.3x / 1.7x); single-update tree dips on "
            f"{', '.join(single_update_dips) or 'none'}"
        ),
        comparisons=comparisons,
        tables=[table],
        data={"speedups": speedups, "bottlenecks": bottlenecks},
    )
