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

from typing import Any, Dict, Optional

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
    is_enabled,
    set_enabled,
    span,
)

__all__ = [
    "STATS_SCHEMA",
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

