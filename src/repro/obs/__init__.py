"""Zero-dependency observability: metrics registry + trace spans.

The runtime publication layer for everything the repo's ledgers account
for.  ``repro.obs.metrics`` holds the typed instrument registry;
``repro.obs.trace`` holds the span machinery with its zero-overhead
disabled path; :func:`snapshot` assembles the single wire-level stats
schema (``repro.stats/v1``) served by the protocol's ``STATS`` op and
consumed by ``python -m repro.obs dump|top``, ``loadgen``, benchmarks,
and examples.  DESIGN.md §5.5 documents the discipline (metric vs.
trace, naming, overhead budget).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Union

from . import trace
from .metrics import (
    DEFAULT_LATENCY_BOUNDS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
    get_registry,
    set_registry,
)
from .trace import (
    SpanRecord,
    TracedStages,
    is_enabled,
    set_enabled,
    span,
)

__all__ = [
    "STATS_SCHEMA",
    "merge_stats_snapshots",
    "snapshot",
    "trace",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BOUNDS_NS",
    "bucket_quantile",
    "get_registry",
    "set_registry",
    # trace
    "SpanRecord",
    "TracedStages",
    "span",
    "is_enabled",
    "set_enabled",
]

#: Version tag carried in every stats snapshot so consumers can reject
#: shapes they do not understand instead of key-erroring.
STATS_SCHEMA = "repro.stats/v1"


def snapshot(
    registry: Optional[MetricsRegistry] = None,
    *,
    max_spans: int = 256,
) -> Dict[str, Any]:
    """The one stats shape every consumer sees (``repro.stats/v1``).

    Runs the registry's collectors, exports every instrument, and
    appends the tail of the span ring.  JSON-serializable with
    ``allow_nan=False`` — producers must clamp non-finite gauges before
    publishing (the engine collector does).
    """
    reg = registry if registry is not None else get_registry()
    payload = reg.snapshot()
    payload["schema"] = STATS_SCHEMA
    payload["tracing"] = trace.is_enabled()
    payload["spans"] = [record.as_dict() for record in trace.tail(max_spans)]
    return payload


#: Derived-ratio gauges that must be recomputed from their summed bases
#: when snapshots merge — a sum (or average) of per-shard ratios is not
#: the cluster ratio.
_RATIO_GAUGES = (
    "engine.dedup_ratio",
    "engine.compression_ratio",
    "engine.reduction_factor",
    "system.table_cache.hit_rate",
)


def merge_stats_snapshots(
    snapshots: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Aggregate per-shard ``repro.stats/v1`` snapshots into one.

    The scatter-gather router answers STATS with this merge so a
    cluster looks like one server to every existing consumer
    (``repro.obs dump``, loadgen, benches): counters and gauges are
    summed, histograms with identical bucket bounds merge bucket-wise
    (element-wise counts, summed ``count``/``sum``, min-of-mins /
    max-of-maxes), and the derived-ratio gauges (``engine.*``, the table
    cache's hit rate) are recomputed from the summed bases.  Histograms
    whose bounds differ cannot merge bucket-wise; the first one seen
    wins (in practice all latency histograms share
    ``DEFAULT_LATENCY_BOUNDS_NS``).  Span tails concatenate in input
    order.  The result keeps the ``repro.stats/v1`` schema.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, Union[int, float]] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    tracing = False
    spans: List[Any] = []
    ratios_seen: Set[str] = set()
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            if name in _RATIO_GAUGES:
                ratios_seen.add(name)
                continue
            gauges[name] = gauges.get(name, 0) + value
        for name, hist in snap.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = {
                    "bounds": list(hist["bounds"]),
                    "counts": list(hist["counts"]),
                    "count": hist["count"],
                    "sum": hist["sum"],
                    "min": hist["min"],
                    "max": hist["max"],
                }
            elif merged["bounds"] == list(hist["bounds"]):
                merged["counts"] = [
                    a + b for a, b in zip(merged["counts"], hist["counts"])
                ]
                merged["count"] += hist["count"]
                merged["sum"] += hist["sum"]
                for key, pick in (("min", min), ("max", max)):
                    ours, theirs = merged[key], hist[key]
                    if ours is None:
                        merged[key] = theirs
                    elif theirs is not None:
                        merged[key] = pick(ours, theirs)
        tracing = tracing or bool(snap.get("tracing"))
        spans.extend(snap.get("spans", []))
    if any(name.startswith("engine.") for name in ratios_seen):
        duplicates = int(gauges.get("engine.duplicate_chunks", 0))
        uniques = int(gauges.get("engine.unique_chunks", 0))
        logical = int(gauges.get("engine.logical_bytes", 0))
        unique_logical = int(gauges.get("engine.unique_logical_bytes", 0))
        stored = int(gauges.get("engine.stored_bytes", 0))
        total_chunks = duplicates + uniques
        gauges["engine.dedup_ratio"] = (
            duplicates / total_chunks if total_chunks else 0.0
        )
        gauges["engine.compression_ratio"] = (
            stored / unique_logical if unique_logical else 1.0
        )
        # Clamped finite exactly like the engine collector: inf (no
        # stored byte yet) publishes as 0.0 for strict-JSON snapshots.
        gauges["engine.reduction_factor"] = (
            logical / stored if stored else 0.0
        )
    if "system.table_cache.hit_rate" in ratios_seen:
        hits = gauges.get("system.table_cache.hits", 0)
        hits += gauges.get("system.table_cache.warm_hits", 0)
        accesses = hits + gauges.get("system.table_cache.misses", 0)
        gauges["system.table_cache.hit_rate"] = hits / accesses if accesses else 0.0
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "schema": STATS_SCHEMA,
        "tracing": tracing,
        "spans": spans,
    }
