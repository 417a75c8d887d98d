"""Wire tests for the scatter-gather shard router.

A :class:`~repro.net.router.ShardRouter` in front of N single-shard
:class:`~repro.net.aserver.AsyncProtocolServer`\\ s must present as one
block device: bytes round-trip across shard boundaries, overwrites
retire the stale shard's mapping, global dedup still collapses
identical content (it always routes to the same shard), STATS
aggregates every backend's snapshot into one ``repro.stats/v1``
document, SNAP gets a typed ``UNSUPPORTED_OP``, and a dead
backend surfaces as a typed :class:`~repro.errors.ShardError` naming
the shard while the healthy shards' ledgers stay conserved.

No pytest-asyncio in the environment: each test wraps an async body in
``asyncio.run``.  Backends bind the *global* metrics registry at engine
construction, so the cluster helper installs a private registry around
each build (the same dance ``repro.net route --spawn`` does in-process).
"""

import asyncio
import contextlib
import json
from types import SimpleNamespace

import pytest

from repro.datared.compression import ModeledCompressor
from repro.datared.hashing import fingerprint
from repro.errors import (
    ErrorCode,
    ShardError,
    decode_error_payload,
    error_code_for,
)
from repro.net.aserver import AsyncProtocolClient, AsyncProtocolServer
from repro.net.protocol import MAX_PAYLOAD, Op
from repro.net.router import ShardRouter, shard_for_digest
from repro.obs import STATS_SCHEMA
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.systems.server import StorageServer, SystemKind

CHUNK = 4096


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Isolate every test's metrics in its own default registry."""
    previous = set_registry(MetricsRegistry())
    try:
        yield
    finally:
        set_registry(previous)


def run(coro):
    return asyncio.run(coro)


@contextlib.asynccontextmanager
async def cluster(num_shards):
    """``num_shards`` single-shard backends behind one router.

    Each backend gets a private registry installed *during* its build
    (engines bind the global registry at construction), restored after.
    """
    servers = []
    storages = []
    registries = []
    router = None
    previous = set_registry(MetricsRegistry())
    set_registry(previous)
    try:
        for _ in range(num_shards):
            registry = MetricsRegistry()
            set_registry(registry)
            try:
                storage = StorageServer.build(
                    SystemKind.FIDR, num_buckets=1024, cache_lines=64,
                    compressor=ModeledCompressor(0.5),
                )
            finally:
                set_registry(previous)
            server = AsyncProtocolServer(storage, registry=registry)
            await server.start()
            servers.append(server)
            storages.append(storage)
            registries.append(registry)
        router = ShardRouter(
            [(server.host, server.port) for server in servers],
            registry=MetricsRegistry(),
        )
        await router.start()
        yield SimpleNamespace(
            router=router,
            servers=servers,
            storages=storages,
            registries=registries,
        )
    finally:
        if router is not None:
            await router.stop()
        for server in servers:
            await server.stop()


def payload_for_shard(rng, router, target):
    """Random chunk whose digest routes to shard ``target``."""
    while True:
        data = rng.randbytes(CHUNK)
        digest = fingerprint(data)
        if shard_for_digest(digest, router.num_shards) == target:
            return data


class TestShardForDigest:
    def test_single_shard_is_always_zero(self, rng):
        for _ in range(64):
            assert shard_for_digest(rng.randbytes(32), 1) == 0

    def test_in_range_and_deterministic(self, rng):
        for num_shards in (2, 3, 4, 7):
            for _ in range(128):
                digest = rng.randbytes(32)
                first = shard_for_digest(digest, num_shards)
                assert 0 <= first < num_shards
                assert shard_for_digest(digest, num_shards) == first

    def test_all_shards_reachable(self, rng):
        hit = {shard_for_digest(rng.randbytes(32), 4) for _ in range(512)}
        assert hit == {0, 1, 2, 3}

    def test_prefix_ranges_are_contiguous(self):
        # The range partition: digests sorted by 8-byte prefix map to
        # monotonically non-decreasing shard indexes.
        digests = sorted(
            (bytes([a, b]) + bytes(30))
            for a in range(0, 256, 17)
            for b in range(0, 256, 29)
        )
        owners = [shard_for_digest(digest, 5) for digest in digests]
        assert owners == sorted(owners)


class TestRouterOfOne:
    """One backend: the router is pure indirection."""

    def test_write_read_trim_roundtrip(self, rng):
        async def body():
            async with cluster(1) as nodes:
                router = nodes.router
                async with await AsyncProtocolClient.connect(
                    router.host, router.port
                ) as client:
                    data = rng.randbytes(3 * CHUNK)
                    await client.write(0, data)
                    assert await client.read(0, 3) == data
                    # Never-written LBAs zero-fill locally.
                    assert await client.read(64, 2) == bytes(2 * CHUNK)
                    await client.trim(0, num_chunks=1)
                    got = await client.read(0, 3)
                    assert got == bytes(CHUNK) + data[CHUNK:]

        run(body())

    def test_unaligned_requests_rejected_with_typed_errors(self, rng):
        from repro.errors import AlignmentError, ProtocolError

        async def body():
            async with cluster(1) as nodes:
                router = nodes.router
                async with await AsyncProtocolClient.connect(
                    router.host, router.port
                ) as client:
                    with pytest.raises(ProtocolError):
                        await client.write(0, b"")
                    with pytest.raises(AlignmentError):
                        await client.write(0, b"x" * (CHUNK + 1))

        run(body())

    def test_oversized_read_is_refused_before_any_backend_hop(self, rng):
        async def body():
            async with cluster(1) as nodes:
                router = nodes.router
                async with await AsyncProtocolClient.connect(
                    router.host, router.port
                ) as client:
                    data = rng.randbytes(CHUNK)
                    await client.write(0, data)
                    served = nodes.servers[0].endpoint.requests_served
                    for count in (MAX_PAYLOAD // CHUNK + 1, 2**32 - 1):
                        reply = await client._request(Op.READ, 0, count=count)
                        assert reply.op == Op.ERROR
                        code, _ = decode_error_payload(reply.payload)
                        assert code == ErrorCode.BAD_REQUEST
                    assert nodes.servers[0].endpoint.requests_served == served
                    assert await client.read(0, 1) == data

        run(body())


    def test_snap_is_a_typed_unsupported_op(self, rng):
        from repro.errors import ProtocolError

        async def body():
            async with cluster(1) as nodes:
                router = nodes.router
                async with await AsyncProtocolClient.connect(
                    router.host, router.port
                ) as client:
                    data = rng.randbytes(CHUNK)
                    await client.write(0, data)
                    with pytest.raises(ProtocolError, match="not routed"):
                        await client.create_snapshot("cluster-wide")
                    reply = await client._request(Op.SNAP, 0, b"{}")
                    assert reply.op == Op.ERROR
                    code, _ = decode_error_payload(reply.payload)
                    assert code == ErrorCode.UNSUPPORTED_OP
                    # No backend saw it, and the session is still good.
                    assert nodes.storages[0].snapshots() == []
                    assert await client.read(0, 1) == data

        run(body())


class TestCrossShard:
    def test_read_reassembles_hole_runs_and_two_owners_in_order(self, rng):
        async def body():
            async with cluster(2) as nodes:
                router = nodes.router
                async with await AsyncProtocolClient.connect(
                    router.host, router.port
                ) as client:
                    # LBAs: 0-1 shard 0 | 2-3 hole | 4 shard 1 | 5 shard 0
                    # | 6 hole: five runs, three backend reads.
                    first = [payload_for_shard(rng, router, 0) for _ in "ab"]
                    second = [
                        payload_for_shard(rng, router, shard)
                        for shard in (1, 0)
                    ]
                    await client.write(0, b"".join(first))
                    await client.write(4, b"".join(second))
                    assert await client.read(0, 7) == b"".join(
                        first + [bytes(2 * CHUNK)] + second + [bytes(CHUNK)]
                    )
                    assert await client.read(2, 2) == bytes(2 * CHUNK)
                    assert await client.read(4, 1) == second[0]

        run(body())

    def test_multi_chunk_payload_spans_backends(self, rng):
        async def body():
            async with cluster(4) as nodes:
                router = nodes.router
                async with await AsyncProtocolClient.connect(
                    router.host, router.port
                ) as client:
                    # One chunk aimed at each shard: the single WRITE
                    # frame must scatter to all four backends.
                    chunks = [
                        payload_for_shard(rng, router, shard)
                        for shard in range(4)
                    ]
                    await client.write(0, b"".join(chunks))
                    assert await client.read(0, 4) == b"".join(chunks)
                for storage in nodes.storages:
                    storage.flush()
                per_shard = [
                    storage.reduction_stats.unique_chunks
                    for storage in nodes.storages
                ]
                assert per_shard == [1, 1, 1, 1]

        run(body())

    def test_global_dedup_collapses_across_the_cluster(self, rng):
        async def body():
            async with cluster(4) as nodes:
                router = nodes.router
                data = rng.randbytes(CHUNK)
                async with await AsyncProtocolClient.connect(
                    router.host, router.port
                ) as client:
                    for index in range(8):
                        await client.write(
                            index * router.blocks_per_chunk, data
                        )
                for storage in nodes.storages:
                    storage.flush()
                uniques = sum(
                    storage.reduction_stats.unique_chunks
                    for storage in nodes.storages
                )
                duplicates = sum(
                    storage.reduction_stats.duplicate_chunks
                    for storage in nodes.storages
                )
                # Identical content always routes to the same shard, so
                # cluster-wide dedup degrades to single-node dedup.
                assert uniques == 1
                assert duplicates == 7
                owners = [
                    storage
                    for storage in nodes.storages
                    if storage.reduction_stats.unique_chunks
                ]
                assert len(owners) == 1

        run(body())

    def test_overwrite_moves_mapping_and_trims_stale_shard(self, rng):
        async def body():
            async with cluster(2) as nodes:
                router = nodes.router
                first = payload_for_shard(rng, router, 0)
                second = payload_for_shard(rng, router, 1)
                async with await AsyncProtocolClient.connect(
                    router.host, router.port
                ) as client:
                    await client.write(0, first)
                    assert router._directory[0] == 0
                    await client.write(0, second)
                    assert router._directory[0] == 1
                    assert await client.read(0, 1) == second
                for storage in nodes.storages:
                    storage.flush()
                # The stale mapping on shard 0 was TRIMmed away: no LBA
                # still points at the old content.
                assert len(nodes.storages[0].system.engine.lba_map) == 0
                assert len(nodes.storages[1].system.engine.lba_map) == 1

        run(body())

    def test_trim_fans_out_and_clears_directory(self, rng):
        async def body():
            async with cluster(4) as nodes:
                router = nodes.router
                chunks = [
                    payload_for_shard(rng, router, shard)
                    for shard in range(4)
                ]
                async with await AsyncProtocolClient.connect(
                    router.host, router.port
                ) as client:
                    await client.write(0, b"".join(chunks))
                    await client.trim(0, num_chunks=4)
                    assert router._directory == {}
                    assert await client.read(0, 4) == bytes(4 * CHUNK)

        run(body())


class TestClusterStats:
    def test_stats_aggregates_backends_and_stamps_cluster(self, rng):
        async def body():
            async with cluster(2) as nodes:
                router = nodes.router
                chunks = [
                    payload_for_shard(rng, router, shard)
                    for shard in range(2)
                ]
                async with await AsyncProtocolClient.connect(
                    router.host, router.port
                ) as client:
                    await client.write(0, b"".join(chunks))
                    for storage in nodes.storages:
                        storage.flush()
                    snapshot = await client.stats()
                assert snapshot["schema"] == STATS_SCHEMA
                assert snapshot["cluster"]["shards"] == 2
                assert snapshot["cluster"]["backends"] == [
                    [server.host, server.port] for server in nodes.servers
                ]
                gauges = snapshot["gauges"]
                # Summed bases from both backends...
                assert gauges["engine.logical_bytes"] == 2 * CHUNK
                assert gauges["engine.unique_chunks"] == 2
                # ...and ratios recomputed from the sums, not summed.
                assert 0.0 <= gauges["engine.dedup_ratio"] <= 1.0
                assert gauges["router.shards"] == 2
                # Counters sum across every constituent snapshot.
                expected_frames = sum(
                    registry.counter("proto.frames_total").value
                    for registry in nodes.registries
                ) + router.registry.counter("proto.frames_total").value
                counters = snapshot["counters"]
                assert counters["proto.frames_total"] == expected_frames

        run(body())

    def test_histograms_merge_bucketwise(self, rng):
        async def body():
            async with cluster(2) as nodes:
                router = nodes.router
                # Seed the same histogram in both backend registries
                # with disjoint observations; the scrape must merge them
                # bucket-wise (counts element-wise, min/max across all).
                nodes.registries[0].histogram("stage.lookup_ns").observe(
                    5_000
                )
                nodes.registries[1].histogram("stage.lookup_ns").observe(
                    700_000
                )
                nodes.registries[1].histogram("stage.lookup_ns").observe(
                    900_000
                )
                async with await AsyncProtocolClient.connect(
                    router.host, router.port
                ) as client:
                    snapshot = await client.stats()
                merged = snapshot["histograms"]["stage.lookup_ns"]
                assert merged["count"] == 3
                assert merged["sum"] == 5_000 + 700_000 + 900_000
                assert merged["min"] == 5_000
                assert merged["max"] == 900_000
                assert sum(merged["counts"]) == 3

        run(body())

class TestShardFaults:
    def test_dead_backend_surfaces_typed_shard_error(self, rng):
        async def body():
            async with cluster(2) as nodes:
                router = nodes.router
                doomed = payload_for_shard(rng, router, 1)
                healthy = payload_for_shard(rng, router, 0)
                async with await AsyncProtocolClient.connect(
                    router.host, router.port
                ) as client:
                    await client.write(0, healthy)
                    # Kill shard 1's server, then aim a write at it.
                    await nodes.servers[1].stop()
                    with pytest.raises(ShardError) as excinfo:
                        await client.write(
                            router.blocks_per_chunk, doomed
                        )
                    assert "shard 1" in str(excinfo.value)
                    assert (
                        error_code_for(excinfo.value)
                        == ErrorCode.SHARD_FAILED
                    )
                    # Shard 0 is untouched and keeps serving.
                    assert await client.read(0, 1) == healthy
                nodes.storages[0].flush()
                assert (
                    nodes.storages[0].reduction_stats.logical_bytes == CHUNK
                )

        run(body())

    def test_partial_failure_keeps_healthy_runs_applied(self, rng):
        async def body():
            async with cluster(2) as nodes:
                router = nodes.router
                good = payload_for_shard(rng, router, 0)
                bad = payload_for_shard(rng, router, 1)
                async with await AsyncProtocolClient.connect(
                    router.host, router.port
                ) as client:
                    await nodes.servers[1].stop()
                    # One frame spanning both shards: run atomicity
                    # means shard 0's chunk lands and stays readable
                    # even though the frame as a whole errors.
                    with pytest.raises(ShardError):
                        await client.write(0, good + bad)
                    assert router._directory.get(0) == 0
                    assert (
                        router._directory.get(router.blocks_per_chunk)
                        is None
                    )
                    assert await client.read(0, 1) == good

        run(body())
