"""Regression tests for write splitting in the asyncio server.

The contract under test: storage work runs on the server's event loop,
and large writes are split into bounded sub-writes between which the
loop serves queued requests, so a slow multi-megabyte write cannot park
every queued small request behind it.  Small-read latency during a
concurrent slow large write must stay near a sub-write's cost — not the
whole write's.
"""

import asyncio
import contextlib
import functools
import os
import threading
import time

import pytest

from repro.datared.compression import Compressor, ModeledCompressor
from repro.datared.dedup import DedupEngine
from repro.net.aserver import AsyncProtocolClient, AsyncProtocolServer
from repro.obs import STATS_SCHEMA
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.systems.server import StorageServer, SystemKind

CHUNK = 4096


class SlowCompressor(Compressor):
    """ModeledCompressor plus a fixed per-chunk stall — a deterministic
    stand-in for an expensive compression stage."""

    def __init__(self, delay_s: float):
        self.delay_s = delay_s
        self.inner = ModeledCompressor(0.5)

    def compress(self, data: bytes):
        time.sleep(self.delay_s)
        return self.inner.compress(data)


def build_storage(delay_s: float) -> StorageServer:
    from repro.systems.config import SystemConfig

    # batch_chunks matches the server's write_split_chunks below, so one
    # sub-write triggers exactly one backend batch — the preemption
    # granularity the latency bound is about.
    return StorageServer.build(
        SystemKind.FIDR, num_buckets=1024, cache_lines=64,
        compressor=SlowCompressor(delay_s),
        config=SystemConfig(batch_chunks=8),
    )


def run(coro):
    return asyncio.run(coro)


@contextlib.contextmanager
def served_on_own_loop(build, **options):
    """An :class:`AsyncProtocolServer` on an event loop of its own thread,
    as ``python -m repro.net serve`` is a process of its own: storage work
    it runs inline never blocks the caller's loop, where the clients are.
    ``build()`` makes the storage on that thread, which then owns it."""
    started, box = threading.Event(), {}

    async def serve():
        with build() as storage:
            async with AsyncProtocolServer(storage, **options) as server:
                box["loop"], box["stop"] = asyncio.get_running_loop(), asyncio.Event()
                box["server"] = server
                started.set()
                await box["stop"].wait()

    thread = threading.Thread(target=asyncio.run, args=(serve(),))
    thread.start()
    try:
        assert started.wait(10), "server did not start"
        yield box["server"]
    finally:
        if "stop" in box:
            box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(10)
        assert not thread.is_alive(), "server did not stop"


def check_small_read_p99_bounded_during_large_write(workers):
    """One client streams a 128-chunk write whose compression stalls
    2 ms/chunk (~256 ms total); another client issues small reads the
    whole time, from a loop the server's storage work does not run on.
    With write splitting, every read slots in between sub-writes, so
    read p99 stays an order of magnitude below the large write's
    duration."""

    async def body(server):
        async with await AsyncProtocolClient.connect(
            server.host, server.port
        ) as writer, await AsyncProtocolClient.connect(
            server.host, server.port
        ) as reader:
            # Seed the region the small reads will hit (fast lane:
            # LBAs far from the large write's range).
            seed = bytes(range(256)) * (CHUNK // 256)
            await writer.write(0, seed)

            # Distinct chunk contents — duplicates would dedup away
            # and never reach the slow compressor.
            big = os.urandom(128 * CHUNK)
            write_started = time.perf_counter()
            write_task = asyncio.create_task(writer.write(1 << 20, big))

            latencies = []
            while not write_task.done():
                start = time.perf_counter()
                data = await reader.read(0, 1)
                latencies.append(time.perf_counter() - start)
                assert data == seed
            write_elapsed = time.perf_counter() - write_started
            await write_task
            return latencies, write_elapsed

    slow = functools.partial(build_storage, delay_s=0.002)
    with served_on_own_loop(slow, workers=workers, write_split_chunks=8) as server:
        latencies, write_elapsed = run(body(server))
    metrics = server.metrics

    assert metrics.writes_split >= 1
    assert metrics.storage_ops > 0
    # The reads really did overlap the slow write...
    assert len(latencies) >= 5
    # ...and none of them waited anywhere near the full write duration.
    ordered = sorted(latencies)
    p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
    assert write_elapsed > 0.2
    assert p99 < write_elapsed / 4, (
        f"small-read p99 {p99 * 1e3:.1f} ms not bounded against "
        f"{write_elapsed * 1e3:.1f} ms large write"
    )


def test_small_read_p99_bounded_during_large_write():
    check_small_read_p99_bounded_during_large_write(workers=2)


def test_a_lone_worker_serves_small_reads_between_pieces():
    """With one worker there is no other task to take the reads: the
    split writer serves a queued group between two of its pieces."""
    check_small_read_p99_bounded_during_large_write(workers=1)


def test_stats_on_a_server_thread_reads_engines_other_threads_own():
    """The process registry collects every live engine, so a STATS
    answered on the server's loop thread also reads the stacks this
    thread built and owns: the collectors take no owner check, and the
    owner's stacks are untouched by the scrape."""
    previous = set_registry(MetricsRegistry())
    try:
        with StorageServer.build(
            SystemKind.BASELINE, num_buckets=256, cache_lines=16,
            compressor=ModeledCompressor(0.5),
        ) as local, DedupEngine(num_buckets=64) as engine:
            local.write(0, b"m" * CHUNK)
            local.flush()
            engine.write(0, b"n" * CHUNK)

            async def scrape(server):
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    await client.write(0, b"s" * (64 * CHUNK))
                    return await client.stats()

            served = functools.partial(build_storage, delay_s=0.0)
            with served_on_own_loop(served) as server:
                snapshot = run(scrape(server))
            assert snapshot["schema"] == STATS_SCHEMA
            assert snapshot["gauges"]["server.storage_ops"] == 1
            assert "system.table_cache.hits" in snapshot["gauges"]
            assert "system.predictor.accuracy" in snapshot["gauges"]  # local's
            assert local.read(0, 1) == b"m" * CHUNK
            assert engine.read(0).data == b"n" * CHUNK
    finally:
        set_registry(previous)


def test_split_write_surfaces_same_typed_error_as_unsplit():
    """A misaligned LBA, or an extent whose last chunk lies past the
    64-bit LBA space, fails identically whether or not the write is
    large enough to take the split path — and without applying any
    sub-write first."""
    from repro.systems.config import SystemConfig

    # 2-block chunks make odd LBAs misaligned (with 1-block chunks every
    # LBA is trivially aligned and the error path is unreachable).
    storage = StorageServer.build(
        SystemKind.FIDR, num_buckets=256, cache_lines=32,
        compressor=ModeledCompressor(0.5),
        config=SystemConfig(chunk_size=2 * CHUNK),
    )
    big = b"x" * (8 * storage.chunk_size)

    async def body():
        async with AsyncProtocolServer(
            storage, write_split_chunks=2
        ) as server:
            async with await AsyncProtocolClient.connect(
                server.host, server.port
            ) as client:
                with pytest.raises(Exception) as unsplit_error:
                    await client.write(1, b"x" * storage.chunk_size)
                with pytest.raises(Exception) as split_error:
                    await client.write(1, big)
                assert type(split_error.value) is type(unsplit_error.value)
                assert server.metrics.writes_split >= 1
                # Nothing was applied by the failed split write...
                assert await client.read(0, 1) == bytes(storage.chunk_size)
                # ...nor by one whose first four of eight chunks fit.
                edge = (1 << 64) - 8
                with pytest.raises(Exception) as past_end:
                    await client.write(edge, big)
                assert type(past_end.value) is type(unsplit_error.value)
                assert await client.read(edge, 1) == bytes(storage.chunk_size)
                # ...and the server still serves.
                await client.write(0, big)
                assert await client.read(0, 8) == big

    run(body())
