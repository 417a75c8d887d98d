"""Shared experiment harness.

Experiments reproduce paper tables/figures from *measured* system runs.
Because several figures project from the same workload replays, reports
are memoized per (system flavour, workload, scale) within a process —
a replay of 16k chunks through the functional stack costs ~1 s.

Scale note: the paper's workloads are 176M IOs; experiments default to
16k chunks (every metric used downstream is a per-byte ratio, stable at
this scale — the scale-stability test in the suite checks that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..analysis.report import Comparison, format_comparisons
from ..datared.compression import ModeledCompressor
from ..hw.specs import PROTOTYPE_SERVER, TARGET_SERVER, ServerSpec
from ..systems.accounting import SystemReport
from ..systems.baseline import BaselineSystem
from ..systems.fidr import FidrSystem
from ..workloads.generator import WORKLOADS, build_workload
from ..workloads.runner import replay

__all__ = [
    "Scale",
    "DEFAULT_SCALE",
    "SMOKE_SCALE",
    "ExperimentResult",
    "get_report",
    "clear_report_cache",
]


@dataclass(frozen=True)
class Scale:
    """Experiment sizing knobs."""

    num_chunks: int = 16_000
    replicas: int = 2
    seed: int = 1
    num_buckets: int = 1 << 15
    cache_lines: int = 1024


DEFAULT_SCALE = Scale()
#: Tiny scale for fast test runs.
SMOKE_SCALE = Scale(num_chunks=3_000, num_buckets=1 << 13, cache_lines=256)


@dataclass
class ExperimentResult:
    """What one experiment produced."""

    name: str
    headline: str
    comparisons: List[Comparison] = field(default_factory=list)
    tables: List[str] = field(default_factory=list)
    data: Dict = field(default_factory=dict)

    def render(self) -> str:
        parts = [f"== {self.name}: {self.headline}"]
        if self.comparisons:
            parts.append(format_comparisons(self.comparisons))
        parts.extend(self.tables)
        return "\n\n".join(parts)


_REPORT_CACHE: Dict[Tuple, SystemReport] = {}


def clear_report_cache() -> None:
    _REPORT_CACHE.clear()


def get_report(
    flavour: str,
    workload: str,
    scale: Scale = DEFAULT_SCALE,
    server: str = "prototype",
) -> SystemReport:
    """Replay ``workload`` through a system ``flavour`` and report.

    Flavours: ``baseline``, ``fidr`` (full; the HW tree's update window
    is a projection knob, not a replay one), ``fidr-sw-cache`` (NIC+P2P
    with software table caching).
    Servers: ``prototype`` (E5-2650 v4 socket) or ``target`` (22-core,
    170 GB/s, 1-Tbps socket used for Figure 14's projection).
    """
    key = (flavour, workload, scale, server)
    cached = _REPORT_CACHE.get(key)
    if cached is not None:
        return cached

    server_spec: ServerSpec = (
        TARGET_SERVER if server == "target" else PROTOTYPE_SERVER
    )
    kwargs = dict(
        server=server_spec,
        num_buckets=scale.num_buckets,
        cache_lines=scale.cache_lines,
        compressor=ModeledCompressor(WORKLOADS[workload].comp_ratio),
    )
    if flavour == "baseline":
        system = BaselineSystem(**kwargs)
    elif flavour == "fidr":
        system = FidrSystem(**kwargs)
    elif flavour == "fidr-sw-cache":
        system = FidrSystem(hw_cache_engine=False, **kwargs)
    else:
        raise ValueError(f"unknown system flavour {flavour!r}")

    trace = build_workload(
        WORKLOADS[workload],
        num_chunks=scale.num_chunks,
        replicas=scale.replicas,
        seed=scale.seed,
    )
    report = replay(system, trace).report
    _REPORT_CACHE[key] = report
    return report
