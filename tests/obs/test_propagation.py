"""Span propagation across the StagePool's executor boundary, plus the
differential guarantee: arming observability must not change a single
output byte or ledger entry."""

from __future__ import annotations

import pytest

from repro.datared.compression import ZlibCompressor
from repro.datared.dedup import DedupEngine
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import TracedStages
from repro.parallel import StagePool


@pytest.fixture(autouse=True)
def _isolated_obs():
    previous = set_registry(MetricsRegistry())
    trace.set_enabled(False)
    trace.clear()
    try:
        yield
    finally:
        trace.set_enabled(False)
        trace.clear()
        set_registry(previous)


def _probe(item: int) -> int:
    with trace.span("probe.item"):
        return item * 2


#: One row, so each test keeps the id the suite has always printed.
on_threads = pytest.mark.parametrize("workers", [pytest.param(4, id="thread")])


@on_threads
def test_pool_spans_share_the_parent_trace_id(workers):
    with trace.enabled():
        with StagePool(workers, min_slice_items=1) as pool:
            with trace.span("parent"):
                results = pool.map(_probe, list(range(32)))
    assert results == [index * 2 for index in range(32)]
    records = trace.tail()
    parents = [record for record in records if record.name == "parent"]
    slices = [record for record in records if record.name == "pool.slice"]
    items = [record for record in records if record.name == "probe.item"]
    assert len(parents) == 1
    assert len(items) == 32
    assert slices, "fan-out should have dispatched traced slices"
    trace_ids = {record.trace_id for record in records}
    assert trace_ids == {parents[0].trace_id}


@on_threads
def test_untraced_pool_dispatches_the_plain_runner(workers):
    with StagePool(workers, min_slice_items=1) as pool:
        results = pool.map(_probe, list(range(32)))
    assert results == [index * 2 for index in range(32)]
    assert trace.tail() == []


def test_worker_spans_land_in_the_parent_registry():
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        with trace.enabled():
            with StagePool(4, min_slice_items=1) as pool:
                pool.map(_probe, list(range(32)))
    finally:
        set_registry(previous)
    histograms = registry.snapshot()["histograms"]
    # Capture-and-merge: the submitter commits each worker span, once.
    assert histograms["probe.item.ns"]["count"] == 32
    assert histograms["pool.slice.ns"]["count"] >= 1


def _write_fleet(pool, clock) -> tuple:
    engine = DedupEngine(
        num_buckets=1 << 12, compressor=ZlibCompressor(), pool=pool
    )
    engine.stage_clock = clock
    lba = 0
    payloads = []
    for index in range(48):
        if index % 3 == 0:
            data = bytes([index % 7]) * 4096
        else:
            data = index.to_bytes(2, "big") * 2048
        payloads.append((lba, data))
        lba += engine.chunker.blocks_per_chunk
    engine.write_many(payloads)
    engine.flush()
    reads = [engine.read(lba, 1).data for lba, _ in payloads]
    return reads, engine.stats_snapshot()


@on_threads
def test_tracing_does_not_change_bytes_or_ledgers(workers):
    with StagePool(1) as serial_pool:
        baseline_reads, baseline_stats = _write_fleet(serial_pool, None)
    with trace.enabled():
        with StagePool(workers, min_slice_items=1) as pool:
            traced_reads, traced_stats = _write_fleet(pool, TracedStages())
    assert traced_reads == baseline_reads
    assert traced_stats == baseline_stats
    assert any(
        record.name.startswith("engine.stage.") for record in trace.tail()
    )
