"""Tests for the concurrent asyncio serving layer.

No pytest-asyncio in the environment: each test builds its own event
loop with ``asyncio.run`` around an async body.
"""

import asyncio
import copy

import pytest

from repro.datared.compression import ModeledCompressor
from repro.errors import (
    AlignmentError,
    ErrorCode,
    ProtocolError,
    decode_error_payload,
)
from repro.net.aserver import AsyncProtocolClient, AsyncProtocolServer
from repro.net.protocol import MAX_PAYLOAD, Op, encode_frame_v2
from repro.systems.server import StorageServer, SystemKind

from ..systems.test_parallel_differential import ledger_view

CHUNK = 4096


def build_storage(kind=SystemKind.FIDR):
    return StorageServer.build(
        kind, num_buckets=1024, cache_lines=64,
        compressor=ModeledCompressor(0.5),
    )


def run(coro):
    return asyncio.run(coro)


async def wait_until(predicate, timeout=2.0):
    """Poll until ``predicate()`` holds (handler teardown is async)."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(0.005)


class TestLifecycle:
    def test_start_assigns_port_and_stop_flushes(self):
        storage = build_storage()

        async def body():
            async with AsyncProtocolServer(storage) as server:
                assert server.port != 0
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    await client.write(0, b"x" * CHUNK)
            # __aexit__ flushed the staged batch through the engine.
            assert storage.reduction_stats.logical_bytes == CHUNK

        run(body())

    def test_stop_closes_live_connections(self):
        storage = build_storage()

        async def body():
            server = AsyncProtocolServer(storage)
            await server.start()
            client = await AsyncProtocolClient.connect(
                server.host, server.port
            )
            try:
                await client.write(0, b"y" * CHUNK)
                await server.stop()
                await wait_until(
                    lambda: server.metrics.connections_open == 0
                )
            finally:
                await client.close()

        run(body())

    def test_constructor_validation(self):
        storage = build_storage()
        with pytest.raises(ValueError):
            AsyncProtocolServer(storage, queue_depth=0)
        with pytest.raises(ValueError):
            AsyncProtocolServer(storage, workers=0)


class TestSingleClient:
    def test_write_read_roundtrip(self, rng):
        storage = build_storage()

        async def body():
            async with AsyncProtocolServer(storage) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    data = rng.randbytes(2 * CHUNK)
                    await client.write(0, data)
                    assert await client.read(0, 2) == data

        run(body())

    def test_typed_errors_cross_the_socket(self):
        from repro.systems.config import SystemConfig
        storage = StorageServer.build(
            SystemKind.FIDR, num_buckets=1024, cache_lines=64,
            compressor=ModeledCompressor(0.5),
            config=SystemConfig(chunk_size=2 * CHUNK),
        )

        async def body():
            async with AsyncProtocolServer(storage) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    with pytest.raises(AlignmentError):
                        await client.read(3, 1)
                    with pytest.raises(ProtocolError):
                        await client.write(0, b"")

        run(body())

    def test_full_index_is_a_capacity_error_on_the_wire(self, rng):
        """A unique chunk the Hash-PBN table has no room for answers
        ``CAPACITY`` (client raises ``CapacityError``, not the
        ``INTERNAL`` → bare ``ReproError`` a full table used to be), and
        the server keeps serving."""
        from repro.datared.hash_pbn import BUCKET_CAPACITY
        from repro.errors import CapacityError
        from repro.systems.config import SystemConfig

        storage = StorageServer.build(
            SystemKind.FIDR, num_buckets=1, cache_lines=16,
            compressor=ModeledCompressor(0.5),
            # One-chunk batches: each write reaches the engine before
            # its reply, so the refusal lands on the write that caused it.
            config=SystemConfig(batch_chunks=1),
        )

        async def body():
            async with AsyncProtocolServer(storage) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    written = [
                        rng.randbytes(CHUNK) for _ in range(BUCKET_CAPACITY)
                    ]
                    for lba, data in enumerate(written):
                        await client.write(lba, data)
                    with pytest.raises(CapacityError, match="full"):
                        await client.write(500, rng.randbytes(CHUNK))
                    for lba, data in enumerate(written):
                        assert await client.read(lba, 1) == data
                    await client.write(600, written[5])  # a duplicate fits
                    assert await client.read(600, 1) == written[5]

        run(body())

    def test_pipelined_out_of_order_completion(self, rng):
        """Many requests in flight on one connection, matched by id."""
        storage = build_storage()

        async def body():
            async with AsyncProtocolServer(storage, workers=4) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    payloads = {i * 8: rng.randbytes(CHUNK) for i in range(24)}
                    await asyncio.gather(*(
                        client.write(lba, data)
                        for lba, data in payloads.items()
                    ))
                    reads = await asyncio.gather(*(
                        client.read(lba, 1) for lba in payloads
                    ))
                    assert all(
                        data == payloads[lba]
                        for lba, data in zip(payloads, reads)
                    )

        run(body())

    def test_v1_client_against_async_server(self, rng):
        """A legacy peer (v1 frames, FIFO matching) is still served."""
        storage = build_storage()

        async def body():
            async with AsyncProtocolServer(storage) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port, version=1
                ) as client:
                    data = rng.randbytes(CHUNK)
                    await client.write(0, data)
                    assert await client.read(0, 1) == data

        run(body())

    def test_corrupt_bytes_answered_not_fatal(self, rng):
        """Garbage on the socket draws an error frame; the connection
        and the server survive and keep serving."""
        storage = build_storage()

        async def body():
            async with AsyncProtocolServer(storage) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(b"\x00\x01\x02\x03")
                await writer.drain()
                from repro.net.protocol import FrameDecoder
                decoder = FrameDecoder()
                frames = []
                while not frames:
                    frames = decoder.feed(await reader.read(65536))
                assert frames[0].op == Op.ERROR
                # Same connection still works after the garbage:
                writer.write(encode_frame_v2(
                    Op.WRITE, 0, rng.randbytes(CHUNK), request_id=1
                ))
                await writer.drain()
                frames = []
                while not frames:
                    frames = decoder.feed(await reader.read(65536))
                assert frames[0].op == Op.WRITE_ACK
                writer.close()
                await writer.wait_closed()

        run(body())


class TestCountBound:
    """A chunk count whose reply no frame could carry is refused with a
    typed error before the storage stack is touched."""

    def test_oversized_read_snap_read_and_trim_are_refused(self, rng):
        storage = build_storage()
        limit = MAX_PAYLOAD // CHUNK
        snap_read = b'{"action":"read","name":"pinned"}'

        def moved():
            system = storage.system
            return copy.deepcopy((
                ledger_view(storage), system.logical_read_bytes,
                system.nic.traffic, system.nic.read_buffer_misses,
            ))

        async def body():
            async with AsyncProtocolServer(storage) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    data = rng.randbytes(CHUNK)
                    await client.write(0, data)
                    await client.create_snapshot("pinned")
                    before = moved()
                    for op, payload, count in (
                        (Op.READ, b"", limit + 1),
                        (Op.READ, b"", 2**32 - 1),
                        (Op.SNAP, snap_read, limit + 1),
                        (Op.TRIM, b"", limit + 1),
                    ):
                        reply = await client._request(op, 0, payload, count)
                        assert reply.op == Op.ERROR, (op, count)
                        code, message = decode_error_payload(reply.payload)
                        assert code == ErrorCode.BAD_REQUEST
                        assert "count" in message
                    assert moved() == before
                    # Same connection, still serving; nothing was trimmed.
                    assert await client.read(0, 1) == data

        run(body())

    def test_the_largest_read_one_frame_carries_still_succeeds(self):
        storage = build_storage()

        async def body():
            async with AsyncProtocolServer(storage) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    holes = await client.read(1 << 30, MAX_PAYLOAD // CHUNK)
                    assert holes == bytes(MAX_PAYLOAD)

        run(body())


class TestConcurrentClients:
    def test_interleaved_writes_then_reads_verify(self, rng):
        """Acceptance shape: many clients, disjoint regions, byte-exact
        read-back through one shared backend."""
        storage = build_storage()
        num_clients = 10

        async def one_client(server, index):
            base = index * 64
            async with await AsyncProtocolClient.connect(
                server.host, server.port
            ) as client:
                payloads = {}
                for j in range(6):
                    lba = base + j * 8
                    payloads[lba] = rng.randbytes(CHUNK)
                    await client.write(lba, payloads[lba])
                    await asyncio.sleep(0)  # force interleaving
                for lba, data in payloads.items():
                    assert await client.read(lba, 1) == data

        async def body():
            async with AsyncProtocolServer(storage, workers=3) as server:
                await asyncio.gather(*(
                    one_client(server, i) for i in range(num_clients)
                ))
                assert server.metrics.connections_total == num_clients
                await wait_until(
                    lambda: server.metrics.connections_open == 0
                )
                assert server.endpoint.requests_served == num_clients * 12

        run(body())

    def test_backpressure_queue_never_exceeds_bound(self, rng):
        """Burst far more frames than the queue holds: the reader must
        pause (await on put) instead of overfilling the queue."""
        storage = build_storage()
        depth = 3
        burst = 40

        async def body():
            async with AsyncProtocolServer(
                storage, queue_depth=depth, workers=1
            ) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    await asyncio.gather(*(
                        client.write(i * 8, rng.randbytes(CHUNK))
                        for i in range(burst)
                    ))
                assert server.metrics.requests_enqueued == burst
                assert server.metrics.max_queue_depth <= depth
                # And the bound was actually stressed, not idled past:
                assert server.metrics.max_queue_depth == depth

        run(body())

    def test_metrics_accounting(self, rng):
        storage = build_storage()

        async def body():
            async with AsyncProtocolServer(storage) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    await client.write(0, rng.randbytes(CHUNK))
                    await client.read(0, 1)
                metrics = server.metrics
                assert metrics.responses_sent == 2
                assert metrics.bytes_in > 0 and metrics.bytes_out > 0

        run(body())


class TestClientEdgeCases:
    def test_pending_requests_fail_when_server_vanishes(self, rng):
        storage = build_storage()

        async def body():
            server = AsyncProtocolServer(storage)
            await server.start()
            client = await AsyncProtocolClient.connect(
                server.host, server.port
            )
            try:
                await client.write(0, rng.randbytes(CHUNK))
                await server.stop()
                with pytest.raises(ProtocolError):
                    await client.write(8, rng.randbytes(CHUNK))
            finally:
                await client.close()

        run(body())

    def test_closed_client_refuses_requests(self):
        storage = build_storage()

        async def body():
            async with AsyncProtocolServer(storage) as server:
                client = await AsyncProtocolClient.connect(
                    server.host, server.port
                )
                await client.close()
                with pytest.raises(ProtocolError):
                    await client.read(0, 1)

        run(body())
