"""Lightweight trace spans for the write/read/serving pipelines.

A span is one timed region — ``with span("engine.stage.compress"):`` —
recorded into (a) a bounded in-process ring buffer for ``python -m
repro.obs dump``-style inspection, and (b) a latency histogram named
``<span>.ns`` in the default :class:`~repro.obs.metrics.MetricsRegistry`
so percentiles survive long after the ring has wrapped.

**The zero-overhead contract.**  Tracing is off by default and the
disabled path is one module-level dict lookup plus a shared no-op
context manager — no allocation, no clock read, no lock
(``benchmarks/test_microbench.py`` gates the engine's write path
through the disabled :func:`stage`/:func:`flush_stages` at ≥ 0.97× the
same path through stubbed no-ops).  Code therefore calls :func:`span`
and :func:`stage` unconditionally; it never needs its own ``if`` around
instrumentation.

A span finishes on the thread that opened it: the storage stack runs
every stage on its one owner thread (DESIGN.md §5.3), so no span ever
crosses a thread boundary.  The ring keeps its lock because several
servers, each on its own loop thread, may share one process.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import (
    Any,
    ContextManager,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Union,
)

from . import metrics as _metrics

__all__ = [
    "SpanRecord",
    "span",
    "stage",
    "flush_stages",
    "observe",
    "observe_group",
    "now_ns",
    "is_enabled",
    "set_enabled",
    "enabled",
    "tail",
    "clear",
    "RING_CAPACITY",
]

#: Spans kept in process memory for ``repro.obs dump``; the histograms
#: keep the long-run distribution after the ring wraps.
RING_CAPACITY = 4096

#: Single-key dict so the disabled check compiles to one dict lookup
#: (reading a bare module global through a rebinding API would be just
#: as cheap, but mutating a dict value is safe under import caching).
_STATE: Dict[str, bool] = {"enabled": False}

_ring: "deque[SpanRecord]" = deque(maxlen=RING_CAPACITY)
_ring_lock = threading.Lock()
_ids = itertools.count(1)

#: Trace id of the current task/thread context (None = not in a trace).
_TRACE_ID: ContextVar[Optional[int]] = ContextVar("repro-obs-trace", default=None)

now_ns = time.perf_counter_ns


class SpanRecord(NamedTuple):
    """One finished span (plain primitives, so the exporters serialize
    it as is)."""

    name: str
    trace_id: int
    start_ns: int
    dur_ns: int
    thread: str
    tags: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "start_ns": self.start_ns,
            "dur_ns": self.dur_ns,
            "thread": self.thread,
            "tags": self.tags,
        }


# -- enable/disable ---------------------------------------------------------
def is_enabled() -> bool:
    return _STATE["enabled"]


def set_enabled(on: bool) -> None:
    _STATE["enabled"] = bool(on)


@contextmanager
def enabled(on: bool = True) -> Iterator[None]:
    """Scoped enable/disable (tests and short diagnostics)."""
    was = _STATE["enabled"]
    _STATE["enabled"] = bool(on)
    try:
        yield
    finally:
        _STATE["enabled"] = was


# -- the span itself --------------------------------------------------------
class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("_name", "_tags", "_trace_id", "_token", "_start")

    def __init__(self, name: str, tags: Dict[str, Any]) -> None:
        self._name = name
        self._tags = tags
        self._trace_id = 0
        self._token: Optional[Any] = None
        self._start = 0

    def __enter__(self) -> "_Span":
        trace_id = _TRACE_ID.get()
        if trace_id is None:
            trace_id = next(_ids)
            self._token = _TRACE_ID.set(trace_id)
        self._trace_id = trace_id
        self._start = now_ns()
        return self

    def tag(self, **tags: Any) -> None:
        """Add tags only known once the region has run."""
        self._tags.update(tags)

    def __exit__(self, *exc: object) -> bool:
        duration = now_ns() - self._start
        _record(SpanRecord(
            name=self._name,
            trace_id=self._trace_id,
            start_ns=self._start,
            dur_ns=duration,
            thread=threading.current_thread().name,
            tags=self._tags,
        ))
        if self._token is not None:
            _TRACE_ID.reset(self._token)
        return False


def span(name: str, **tags: Any) -> ContextManager[Any]:
    """A timed region; a shared no-op while tracing is disabled."""
    if not _STATE["enabled"]:
        return _NOOP
    return _Span(name, tags)


def observe(name: str, dur_ns: int, **tags: Any) -> None:
    """Record a span whose endpoints were measured by the caller.

    For durations that cross task boundaries (queue wait: enqueue in
    one coroutine, dequeue in another) where a context manager cannot
    bracket the region.  No-op while tracing is disabled.
    """
    if not _STATE["enabled"]:
        return
    end = now_ns()
    trace_id = _TRACE_ID.get()
    _record(SpanRecord(
        name=name,
        trace_id=trace_id if trace_id is not None else 0,
        start_ns=end - dur_ns,
        dur_ns=dur_ns,
        thread=threading.current_thread().name,
        tags=tags,
    ))


def observe_group(name: str, durations: Sequence[int], **tags: Any) -> None:
    """:func:`observe` for a group handled as one: one ring record (the
    longest of ``durations``, tagged ``ops=<n>``) but still one histogram
    sample per member, so count and sum stay per op."""
    if _STATE["enabled"] and durations:
        observe(name, max(durations), ops=len(durations), **tags)
        histogram = _metrics.get_registry().histogram(name + ".ns")
        for dur_ns in sorted(durations)[:-1]:
            histogram.observe(dur_ns)


def _record(*records: SpanRecord) -> None:
    """Finished spans go to the ring and their latency histograms (one
    lock round for all of them)."""
    with _ring_lock:
        _ring.extend(records)
    histogram = _metrics.get_registry().histogram
    for record in records:
        histogram(record.name + ".ns").observe(record.dur_ns)


# -- exporters --------------------------------------------------------------
def tail(limit: int = RING_CAPACITY) -> List[SpanRecord]:
    """The most recent ``limit`` committed spans, oldest first."""
    with _ring_lock:
        records = list(_ring)
    return records[-limit:] if limit >= 0 else records


def clear() -> None:
    """Empty the ring (test isolation)."""
    with _ring_lock:
        _ring.clear()


# -- the engine's per-batch stages ------------------------------------------
class _StageTotal:
    """One stage's busy time and covered-chunk count on one thread since
    the last flush (re-enterable, non-reentrant)."""

    __slots__ = ("name", "busy_ns", "covered", "entering", "_t0")

    def __init__(self, name: str) -> None:
        self.name = name
        self.busy_ns = self.covered = self.entering = self._t0 = 0

    def __enter__(self) -> None:
        self._t0 = now_ns()

    def __exit__(self, *exc: object) -> None:
        self.busy_ns += now_ns() - self._t0
        self.covered += self.entering


#: Each thread's stage accumulators, by stage name.
_stages = threading.local()


def stage(name: str, chunks: int = 1) -> ContextManager[Any]:
    """One engine stage of the current batch: the calling thread's
    ``engine.stage.<name>`` accumulator, or the shared no-op while
    tracing is disabled.

    The engine enters each stage once per batch — a write's walk with
    the batch's chunk count, its vectorised chunk/hash/compress with 1,
    a read's fetch/decompress with the request's chunk count — and
    :func:`flush_stages` publishes what accumulated.
    """
    if not _STATE["enabled"]:
        return _NOOP
    totals = _stages.__dict__
    total = totals.get(name)
    if total is None:
        total = totals[name] = _StageTotal(f"engine.stage.{name}")
    total.entering = chunks
    return total


def flush_stages() -> None:
    """End of a write/write_many/read pass: record one span per stage
    this thread entered since the last flush — its summed busy time,
    tagged with the ``chunks`` its entries covered — in one ring round
    (the fields they share read once: a 1-chunk read flushes two).
    Totals are per thread, so threads never mix their stages."""
    if not _STATE["enabled"]:
        return
    end = now_ns()
    trace_id = _TRACE_ID.get() or 0
    thread = threading.current_thread().name
    records = []
    for total in _stages.__dict__.values():
        if total.covered:
            records.append(SpanRecord(
                total.name, trace_id, end - total.busy_ns, total.busy_ns,
                thread, {"chunks": total.covered},
            ))
            total.busy_ns = total.covered = 0
    _record(*records)


Span = Union[_NoopSpan, _Span]
