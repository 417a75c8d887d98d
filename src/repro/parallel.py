"""Shared executor fan-out for the GIL-releasing pipeline stages.

The paper makes fingerprinting and compression fast by moving them off
the host CPU onto dedicated engines — SHA-256 on the NIC (§5.4) and
DEFLATE on the compression FPGA (§5.2) — while the Hash-PBN resolution
stays a serial, order-dependent stage.  The software analogue of those
engines is a worker pool: CPython's ``hashlib.sha256`` and ``zlib``
both release the GIL on 4-KB buffers, so hashing and compressing many
chunks across threads genuinely overlaps on multi-core hosts.

:class:`StagePool` is that pool, shared by every parallel stage of one
storage stack (the engine's hash fan-out, its compress fan-out, and the
read path's decompress fan-out).  It is deliberately small:

* ``parallelism <= 1`` builds a *no-op* pool — every ``map`` runs
  inline, no workers are ever created, and the serial data path is
  byte-for-byte the pre-existing one.
* :meth:`map` preserves input order and fans work out in **contiguous
  slices** rather than one task per item, because dispatching a 4-KB
  chunk to an executor costs a meaningful fraction of hashing it;
  slicing amortizes the dispatch over dozens of chunks.
* Workers are threads and nothing else: a process pool pickles every
  buffer across an IPC boundary, and that lost to threads *and* to the
  serial path on every batch the server can make (DESIGN.md §5.4).

The pool carries no storage state, so it is safe to share across
engines; all metadata mutation stays on the caller's thread (see the
"Concurrency model" section of DESIGN.md).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from .obs import metrics as _metrics
from .obs import trace as _trace

__all__ = ["StagePool"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def _run_slice(fn: Callable[[_T], _R], items: Sequence[_T]) -> List[_R]:
    return [fn(item) for item in items]


def _run_slice_traced(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    context: _trace.ExecutorContext,
) -> Tuple[List[_R], List[_trace.SpanRecord]]:
    """Traced twin of :func:`_run_slice`: adopts the submitting task's
    trace context, times the slice, and ships the captured spans back
    alongside the results."""
    with _trace.adopt(context) as captured:
        with _trace.span("pool.slice", items=len(items)):
            results = [fn(item) for item in items]
    return results, list(captured)


class StagePool:
    """A bounded worker pool for order-preserving stage fan-out.

    Parameters
    ----------
    parallelism:
        Worker count.  ``1`` (the default) disables the executor
        entirely — the pool becomes a transparent serial executor.
    slices_per_worker:
        How many slices each worker should receive per :meth:`map`
        call; more slices balance uneven work at the cost of dispatch
        overhead.
    min_slice_items:
        Floor on items per dispatched slice.  Small batches pushed
        through a wide pool would otherwise shatter into slices so thin
        that submit/wakeup overhead exceeds the work itself (hashing or
        zlib on a 4-KB chunk is only tens of microseconds).
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` the pool counts
        dispatch activity into (default: the process registry).  The
        four ``pool.*`` counters are cached at construction, so each
        :meth:`map` pays two uncontended increments, not a lookup.
    """

    def __init__(
        self,
        parallelism: int = 1,
        *,
        slices_per_worker: int = 4,
        min_slice_items: int = 8,
        registry: Optional[_metrics.MetricsRegistry] = None,
    ) -> None:
        if slices_per_worker < 1:
            raise ValueError("slices_per_worker must be at least 1")
        if min_slice_items < 1:
            raise ValueError("min_slice_items must be at least 1")
        self.parallelism = max(1, int(parallelism))
        self.slices_per_worker = slices_per_worker
        self.min_slice_items = min_slice_items
        reg = registry if registry is not None else _metrics.get_registry()
        self._maps_total = reg.counter("pool.maps_total")
        self._maps_inline = reg.counter("pool.maps_inline")
        self._slices_dispatched = reg.counter("pool.slices_dispatched")
        self._items_total = reg.counter("pool.items_total")
        self._executor: Optional[ThreadPoolExecutor] = None
        if self.parallelism > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=self.parallelism,
                thread_name_prefix="repro-stage",
            )

    @property
    def is_parallel(self) -> bool:
        """Whether this pool actually owns workers."""
        return self._executor is not None

    def map(
        self,
        fn: Callable[[_T], _R],
        items: Iterable[_T],
        *,
        min_batch: int = 0,
    ) -> List[_R]:
        """Apply ``fn`` to every item, returning results in input order.

        ``fn`` must be pure with respect to shared storage state — the
        pool gives no ordering between items, only between stages.
        That purity contract is also why callers may wait on the pool
        while holding a storage lock: a stage function can never try to
        take one, so the ``future.result()`` waits below cannot deadlock.

        ``min_batch`` is an inline threshold: batches smaller than it
        run on the calling thread even when the pool is parallel.
        Stages whose per-item work is cheap (decompression) use it so
        small batches never pay dispatch overhead for sub-microsecond
        wins — the cause of the PR-2 parallel *read* regression.
        """
        materialized = items if isinstance(items, list) else list(items)
        self._maps_total.inc()
        self._items_total.inc(len(materialized))
        if (
            self._executor is None
            or len(materialized) <= 1
            or len(materialized) < min_batch
        ):
            self._maps_inline.inc()
            return [fn(item) for item in materialized]
        num_slices = min(
            len(materialized),
            self.parallelism * self.slices_per_worker,
            max(1, len(materialized) // self.min_slice_items),
        )
        if num_slices <= 1:
            self._maps_inline.inc()
            return [fn(item) for item in materialized]
        bounds = [
            (len(materialized) * i) // num_slices for i in range(num_slices + 1)
        ]
        spans = zip(bounds, bounds[1:])
        results: List[_R] = []
        # When the submitting task is tracing, dispatch the traced slice
        # runner: workers adopt the parent's trace context and return
        # their spans for the parent to merge, so the ring stays
        # parent-ordered.
        context = _trace.current_context()
        if context is None:
            futures = [
                self._executor.submit(_run_slice, fn, materialized[lo:hi])
                for lo, hi in spans
                if hi > lo
            ]
            self._slices_dispatched.inc(len(futures))
            for future in futures:
                results.extend(future.result())
            return results
        traced_futures = [
            self._executor.submit(
                _run_slice_traced, fn, materialized[lo:hi], context
            )
            for lo, hi in spans
            if hi > lo
        ]
        self._slices_dispatched.inc(len(traced_futures))
        for traced in traced_futures:
            slice_results, slice_spans = traced.result()
            results.extend(slice_results)
            _trace.merge(slice_spans)
        return results

    def shutdown(self) -> None:
        """Stop the workers (idempotent; the pool is unusable
        afterwards)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "StagePool":
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[object],
    ) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return f"StagePool(parallelism={self.parallelism})"
