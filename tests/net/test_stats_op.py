"""The protocol's STATS op end to end: clients scrape the live
``repro.stats/v1`` snapshot, and the decoder/client protocol-event
counters feed the same registry the snapshot exports."""

import asyncio
import json

import pytest

from repro.datared.compression import ModeledCompressor
from repro.errors import ProtocolError
from repro.net.aserver import AsyncProtocolClient, AsyncProtocolServer
from repro.net.protocol import FrameDecoder, Op, ProtocolServer, encode_frame
from repro.obs import STATS_SCHEMA, trace
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.systems.server import StorageServer, SystemKind

from .wire import roundtrip

CHUNK = 4096


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Isolate every test's metrics in its own default registry."""
    previous = set_registry(MetricsRegistry())
    trace.set_enabled(False)
    trace.clear()
    try:
        yield
    finally:
        trace.set_enabled(False)
        trace.clear()
        set_registry(previous)


def make_stack(kind=SystemKind.FIDR):
    storage = StorageServer.build(
        kind, num_buckets=1024, cache_lines=64,
        compressor=ModeledCompressor(0.5),
    )
    return storage, ProtocolServer(storage)


def scrape(endpoint):
    reply = roundtrip(endpoint, Op.STATS, 0)
    assert reply.op == Op.STATS_ACK
    return json.loads(reply.payload.decode("utf-8"))


class TestSyncStats:
    def test_v2_client_scrapes_schema_and_engine_gauges(self):
        storage, endpoint = make_stack()
        roundtrip(endpoint, Op.WRITE, 0, b"a" * CHUNK)
        roundtrip(endpoint, Op.WRITE, 4_096 // 512, b"a" * CHUNK)  # duplicate
        storage.flush()  # drain the staged batch into the ledgers
        snapshot = scrape(endpoint)
        assert snapshot["schema"] == STATS_SCHEMA
        assert snapshot["tracing"] is False
        gauges = snapshot["gauges"]
        assert gauges["engine.logical_bytes"] == 2 * CHUNK
        assert gauges["engine.duplicate_chunks"] == 1
        assert 0.0 <= gauges["engine.dedup_ratio"] <= 1.0
        assert "proto.frames_total" in snapshot["counters"]

    @pytest.mark.parametrize("kind", list(SystemKind))
    def test_table_cache_ledger_is_exported(self, kind):
        storage, endpoint = make_stack(kind)
        for lba in range(0, 200 * 8, 8):  # 200 distinct chunks, 64 lines
            roundtrip(endpoint, Op.WRITE, lba, lba.to_bytes(8, "big") * (CHUNK // 8))
        storage.flush()
        gauges = scrape(endpoint)["gauges"]
        cache = storage.system.table_cache
        for name in ("hits", "warm_hits", "misses", "evictions", "flushes"):
            assert gauges[f"system.table_cache.{name}"] == getattr(cache.stats, name)
        assert gauges["system.table_cache.hit_rate"] == cache.stats.hit_rate
        assert gauges["system.table_cache.index.searches"] == cache.index.searches
        assert gauges["system.table_cache.index.updates"] == cache.index.updates
        assert cache.stats.evictions > 0 and 0.0 < cache.stats.hit_rate < 1.0

    def test_payload_is_strict_json(self):
        _, endpoint = make_stack()
        reply = roundtrip(endpoint, Op.STATS, 0)
        assert reply.op == Op.STATS_ACK

        def refuse(constant):
            raise AssertionError(f"non-JSON constant {constant}")

        decoded = json.loads(
            reply.payload.decode("utf-8"), parse_constant=refuse
        )
        assert decoded["schema"] == STATS_SCHEMA

    def test_spans_ride_the_snapshot_when_tracing(self):
        storage, endpoint = make_stack()
        with trace.enabled():
            roundtrip(endpoint, Op.WRITE, 0, b"c" * CHUNK)
            storage.flush()  # push the batch through the six stages
            snapshot = scrape(endpoint)
        assert snapshot["tracing"] is True
        names = {record["name"] for record in snapshot["spans"]}
        assert any(name.startswith("engine.stage.") for name in names)


class TestProtocolEventCounters:
    def test_corrupt_frame_increments_resync_total(self):
        registry = MetricsRegistry()
        decoder = FrameDecoder(registry)
        clean = encode_frame(Op.WRITE, 0, b"x" * 64)
        events = decoder.events(b"\x00\x99" + clean)
        assert isinstance(events[0], ProtocolError)
        assert events[-1].op == Op.WRITE  # recovered after the resync
        assert registry.counter("proto.resync_total").value >= 1

    def test_decoded_frames_are_counted(self):
        registry = MetricsRegistry()
        decoder = FrameDecoder(registry)
        decoder.feed(encode_frame(Op.READ, 0, count=1))
        decoder.feed(encode_frame(Op.READ, 8, count=1))
        assert registry.counter("proto.frames_total").value == 2


class TestAsyncStats:
    def test_async_client_scrapes_a_live_server(self):
        storage = StorageServer.build(
            SystemKind.FIDR, num_buckets=1024, cache_lines=64,
            compressor=ModeledCompressor(0.5),
        )

        async def body():
            async with AsyncProtocolServer(storage) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    # A full 64-chunk batch processes inline (no flush
                    # op on the wire; batch_chunks drains it).
                    await client.write(0, b"e" * (64 * CHUNK))
                    return await client.stats()

        snapshot = asyncio.run(body())
        assert snapshot["schema"] == STATS_SCHEMA
        assert snapshot["gauges"]["engine.logical_bytes"] == 64 * CHUNK
        assert snapshot["gauges"]["server.responses_sent"] >= 1

    def test_reader_death_is_counted(self):
        storage = StorageServer.build(
            SystemKind.FIDR, num_buckets=1024, cache_lines=64,
            compressor=ModeledCompressor(0.5),
        )
        registry = MetricsRegistry()

        async def body():
            server = AsyncProtocolServer(storage)
            await server.start()
            client = await AsyncProtocolClient.connect(
                server.host, server.port, registry=registry
            )
            try:
                await client.write(0, b"f" * CHUNK)
                await server.stop()  # yanks the transport under the reader
                deadline = asyncio.get_running_loop().time() + 2.0
                deaths = registry.counter(
                    "proto.client.reader_deaths_total"
                )
                while deaths.value == 0:
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError("reader death never counted")
                    await asyncio.sleep(0.005)
            finally:
                await client.close()

        asyncio.run(body())
        assert (
            registry.counter("proto.client.reader_deaths_total").value >= 1
        )

    def test_clean_close_is_not_a_death(self):
        storage = StorageServer.build(
            SystemKind.FIDR, num_buckets=1024, cache_lines=64,
            compressor=ModeledCompressor(0.5),
        )
        registry = MetricsRegistry()

        async def body():
            async with AsyncProtocolServer(storage) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port, registry=registry
                ) as client:
                    await client.write(0, b"g" * CHUNK)

        asyncio.run(body())
        assert (
            registry.counter("proto.client.reader_deaths_total").value == 0
        )
