"""Trace-span unit tests: the zero-overhead disabled path, recording
semantics, trace-id scoping, the TracedStages adapter the engine
installs, and the differential guarantee that arming tracing changes
no output byte or ledger entry."""

from __future__ import annotations

import pytest

from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, set_registry


@pytest.fixture(autouse=True)
def _isolated_obs():
    """Fresh registry + empty ring + tracing off around every test."""
    previous = set_registry(MetricsRegistry())
    trace.set_enabled(False)
    trace.clear()
    trace._TRACE_ID.set(None)
    try:
        yield
    finally:
        trace.set_enabled(False)
        trace.clear()
        trace._TRACE_ID.set(None)
        set_registry(previous)


class TestDisabledPath:
    def test_span_is_the_shared_noop_singleton(self):
        assert trace.span("a") is trace.span("b", tag=1)

    def test_noop_span_records_nothing(self):
        with trace.span("engine.stage.hash"):
            pass
        trace.observe("server.queue.wait", 123)
        assert trace.tail() == []


class TestEnabledPath:
    def test_span_records_name_duration_and_tags(self):
        with trace.enabled():
            with trace.span("engine.stage.compress", chunks=3):
                pass
        records = trace.tail()
        assert len(records) == 1
        record = records[0]
        assert record.name == "engine.stage.compress"
        assert record.tags == {"chunks": 3}
        assert record.dur_ns >= 0
        assert record.trace_id > 0

    def test_nested_spans_share_one_trace_id(self):
        with trace.enabled():
            with trace.span("outer"):
                with trace.span("inner"):
                    pass
        inner, outer = trace.tail()
        assert inner.name == "inner"
        assert inner.trace_id == outer.trace_id

    def test_sequential_roots_get_distinct_trace_ids(self):
        with trace.enabled():
            with trace.span("first"):
                pass
            with trace.span("second"):
                pass
        first, second = trace.tail()
        assert first.trace_id != second.trace_id

    def test_observe_records_a_caller_timed_span(self):
        with trace.enabled():
            trace.observe("server.queue.wait", 5_000, depth=2)
        (record,) = trace.tail()
        assert record.dur_ns == 5_000
        assert record.tags == {"depth": 2}

    def test_spans_feed_a_ns_histogram(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            with trace.enabled():
                with trace.span("engine.stage.pack"):
                    pass
        finally:
            set_registry(previous)
        snap = registry.snapshot()
        assert snap["histograms"]["engine.stage.pack.ns"]["count"] == 1

    def test_enabled_context_restores_prior_state(self):
        with trace.enabled():
            assert trace.is_enabled()
        assert not trace.is_enabled()

    def test_tail_limit_returns_newest_oldest_first(self):
        with trace.enabled():
            for index in range(5):
                with trace.span(f"s{index}"):
                    pass
        names = [record.name for record in trace.tail(2)]
        assert names == ["s3", "s4"]


class TestTracedStages:
    def test_active_mirrors_the_module_flag(self):
        clock = trace.TracedStages()
        assert not clock.active
        with trace.enabled():
            assert clock.active

    def test_stage_names_are_prefixed(self):
        clock = trace.TracedStages()
        with trace.enabled():
            with clock.stage("lookup"):
                pass
            assert trace.tail() == []  # accumulated, not yet a span
            clock.flush()
        (record,) = trace.tail()
        assert record.name == "engine.stage.lookup"
        assert record.tags == {"chunks": 1}

    def test_stage_is_noop_while_disabled(self):
        clock = trace.TracedStages()
        assert clock.stage("lookup") is trace.span("anything")
        assert trace.tail() == []

    def test_satisfies_the_stage_timer_contract(self):
        """``StageTimer`` has one implementation; the engine's two
        helpers call its members without duck-typing."""
        from repro.datared.dedup import active_clock, flush_stages

        clock = trace.TracedStages()
        assert isinstance(type(clock).active, property)
        assert callable(clock.stage) and callable(clock.flush)
        assert active_clock(None) is None
        assert active_clock(clock) is None  # installed, tracing off
        with trace.enabled():
            assert active_clock(clock) is clock
            flush_stages(clock)  # nothing accumulated: publishes nothing
        flush_stages(None)  # what the hot paths pass while inactive
        assert trace.tail() == []

    def test_disabled_clock_leaves_a_write_untimed(self):
        from repro.datared.compression import ZlibCompressor
        from repro.datared.dedup import DedupEngine, active_clock
        from repro.obs.metrics import get_registry

        engine = DedupEngine(num_buckets=256, compressor=ZlibCompressor())
        engine.stage_clock = trace.TracedStages()
        assert active_clock(engine.stage_clock) is None
        engine.write_many([(lba, bytes([lba]) * 4096) for lba in range(8)])
        assert engine.stats.unique_chunks == 8
        assert trace.tail() == []
        assert not [
            name for name in get_registry().snapshot()["histograms"]
            if name.startswith("engine.stage.")
        ]


class TestPerBatchStageSpans:
    """The engine's write stages are one span per stage per batch."""

    @staticmethod
    def _stage_spans(uniques: int, duplicates: int):
        from repro.datared.compression import ZlibCompressor
        from repro.datared.dedup import DedupEngine
        from repro.datared.hash_pbn import HashPbnTable

        from ..datared.reference import InterposingStore

        # Over an interposing store, as over the FIDR table cache.
        engine = DedupEngine(
            table=HashPbnTable(1 << 10, store=InterposingStore()),
            compressor=ZlibCompressor(),
        )
        engine.stage_clock = trace.TracedStages()
        unique = [index.to_bytes(2, "big") * 2048 for index in range(uniques)]
        batch = unique + [unique[0]] * duplicates
        with trace.enabled():
            engine.write_many(
                [(lba, data) for lba, data in enumerate(batch)]
            )
        records = [
            record for record in trace.tail()
            if record.name.startswith("engine.stage.")
        ]
        trace.clear()
        return records

    def test_one_span_per_stage_tagged_with_its_chunk_count(self):
        uniques, duplicates = 5, 11
        records = self._stage_spans(uniques, duplicates)
        by_name = {record.name: record for record in records}
        assert len(by_name) == len(records)  # exactly one span per stage
        assert by_name["engine.stage.walk"].tags == {
            "chunks": uniques + duplicates
        }
        for name in ("chunk", "hash", "compress"):  # one vectorised call
            assert by_name[f"engine.stage.{name}"].tags == {"chunks": 1}
        assert len({record.trace_id for record in records}) == 1
        assert all(record.dur_ns > 0 for record in records)

    def test_span_count_does_not_grow_with_the_batch(self):
        small = self._stage_spans(uniques=2, duplicates=2)
        large = self._stage_spans(uniques=64, duplicates=128)
        four = sorted(
            f"engine.stage.{name}"
            for name in ("chunk", "hash", "compress", "walk")
        )
        assert sorted(r.name for r in small) == four
        assert sorted(r.name for r in large) == four

    def test_totals_are_per_thread(self):
        """A flush publishes only the calling thread's stages."""
        import threading

        clock = trace.TracedStages()
        with trace.enabled():
            with clock.stage("lookup"):
                pass

            def other() -> None:
                with clock.stage("pack"):
                    pass
                clock.flush()

            worker = threading.Thread(target=other)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert [r.name for r in trace.tail()] == ["engine.stage.pack"]
            clock.flush()
        assert [r.name for r in trace.tail()] == [
            "engine.stage.pack", "engine.stage.lookup",
        ]


class TestReadStageSpans:
    """A read has stages like a write has: one ``fetch`` and one
    ``decompress`` span per request, tagged with the chunks it covered."""

    @staticmethod
    def _read_64_chunks(traced: bool):
        from repro.datared.compression import ZlibCompressor
        from repro.systems.fidr import FidrSystem

        with FidrSystem(
            num_buckets=1024, cache_lines=64, compressor=ZlibCompressor()
        ) as system:
            system.write(0, b"".join(
                index.to_bytes(2, "big") * 2048 for index in range(64)
            ))
            system.flush()
            trace.clear()
            with trace.enabled(traced):
                system.read(0, 64)
        records = [
            record for record in trace.tail()
            if record.name.startswith("engine.stage.")
        ]
        trace.clear()
        return records

    def test_one_span_per_read_stage_tagged_with_its_chunks(self):
        records = self._read_64_chunks(traced=True)
        assert sorted(record.name for record in records) == [
            "engine.stage.decompress", "engine.stage.fetch",
        ]
        assert all(record.tags == {"chunks": 64} for record in records)
        assert len({record.trace_id for record in records}) == 1
        assert all(record.dur_ns > 0 for record in records)

    def test_tracing_off_records_none(self):
        assert self._read_64_chunks(traced=False) == []


# -- differential: tracing on / off -----------------------------------------


def _write_fleet(clock) -> tuple:
    from repro.datared.compression import ZlibCompressor
    from repro.datared.dedup import DedupEngine

    engine = DedupEngine(num_buckets=1 << 12, compressor=ZlibCompressor())
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


def test_tracing_does_not_change_bytes_or_ledgers():
    baseline_reads, baseline_stats = _write_fleet(None)
    with trace.enabled():
        traced_reads, traced_stats = _write_fleet(trace.TracedStages())
    assert traced_reads == baseline_reads
    assert traced_stats == baseline_stats
    assert any(
        record.name.startswith("engine.stage.") for record in trace.tail()
    )
