"""Tests for the concurrent asyncio serving layer.

No pytest-asyncio in the environment: each test builds its own event
loop with ``asyncio.run`` around an async body.
"""

import asyncio
import copy
import socket
import struct
import threading

import pytest

from repro.datared.compression import ModeledCompressor
from repro.errors import (
    AlignmentError,
    ErrorCode,
    ProtocolError,
    ReproError,
    decode_error_payload,
)
from repro.net.aserver import AsyncProtocolClient, AsyncProtocolServer
from repro.net.protocol import MAX_PAYLOAD, FrameDecoder, Op, encode_frame
from repro.systems.server import StorageServer, SystemKind

from ..ledgers import ledger_view
from .wire import held_backend

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

    def test_storage_is_served_on_the_loop_thread(self, rng):
        """Every storage call made while serving — grouped writes, a run
        of reads, the pieces of a split write — runs on the event loop's
        own thread; no ``aserver-backend`` thread exists, and start() /
        stop() leave the process's thread count where it was."""
        storage = build_storage()
        callers = set()
        for name in ("write", "read", "read_extents"):
            def traced(*args, _real=getattr(storage, name)):
                callers.add(threading.get_ident())
                return _real(*args)

            setattr(storage, name, traced)
        chunks = [rng.randbytes(CHUNK) for _ in range(16)]

        async def body():
            before = threading.active_count()
            async with AsyncProtocolServer(storage) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    await asyncio.gather(*(
                        client.write(lba, chunks[lba]) for lba in range(16)
                    ))
                    assert await asyncio.gather(*(
                        client.read(lba, 1) for lba in range(16)
                    )) == chunks
                    await client.write(100, b"".join(chunks) * 5)  # 80 chunks
                    assert server.metrics.writes_split == 1
                    serving = threading.active_count()
                    assert not [
                        thread for thread in threading.enumerate()
                        if thread.name.startswith("aserver-backend")
                    ]
            assert before == serving == threading.active_count()
            return threading.get_ident()

        assert callers == {run(body())}

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
                decoder = FrameDecoder()
                frames = []
                while not frames:
                    frames = decoder.feed(await reader.read(65536))
                assert frames[0].op == Op.ERROR
                # Same connection still works after the garbage:
                writer.write(encode_frame(
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


class TestGroups:
    """The worker serves what is queued as one group: one backend turn,
    one reply write per connection, everything else still per op."""

    def test_gathered_reads_share_a_backend_turn(self, rng):
        storage = build_storage()

        async def body():
            async with AsyncProtocolServer(storage) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    chunks = [rng.randbytes(CHUNK) for _ in range(16)]
                    await client.write(0, b"".join(chunks))
                    metrics = server.metrics
                    turns, sent = metrics.storage_turns, metrics.responses_sent
                    ops = metrics.storage_ops
                    reads = await asyncio.gather(*(
                        client.read(lba, 1) for lba in range(16)
                    ))
                    assert reads == chunks
                    assert metrics.storage_turns - turns <= 2
                    assert metrics.storage_ops - ops == 16
                    assert metrics.responses_sent - sent == 16
                    assert metrics.requests_enqueued == 17

        run(body())

    def test_gathered_reads_share_one_engine_pass(self, rng, engine_passes):
        """16 one-chunk READs queued together are one ``read_extents``:
        one engine pass, sixteen ``handle_frame`` calls, sixteen replies."""
        storage = build_storage()

        async def body():
            async with AsyncProtocolServer(storage, workers=1) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    chunks = [rng.randbytes(CHUNK) for _ in range(16)]
                    await client.write(0, b"".join(chunks))
                    storage.flush()  # out of the NIC buffer, into the engine
                    engine_passes.clear()
                    served = server.endpoint.requests_served
                    order = rng.sample(range(16), 16)
                    async with held_backend(server):
                        burst = asyncio.gather(*(
                            client.read(lba, 1) for lba in order
                        ))
                        await wait_until(
                            lambda: server.metrics.requests_enqueued == 17
                        )
                    assert await burst == [chunks[lba] for lba in order]
                    assert engine_passes == [16]
                    assert server.endpoint.requests_served - served == 16

        run(body())

    def test_reads_around_writes_of_one_lba_see_old_then_new(self, rng):
        """``W R W R`` on one LBA in one group: a write ends the run of
        READs before it, so each read returns the write just ahead of it."""
        storage = build_storage()

        async def body():
            async with AsyncProtocolServer(storage, workers=1) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    old, new = rng.randbytes(CHUNK), rng.randbytes(CHUNK)
                    turns = server.metrics.storage_turns
                    async with held_backend(server):
                        burst = asyncio.gather(
                            client.write(5, old), client.read(5, 1),
                            client.write(5, new), client.read(5, 1),
                        )
                        await wait_until(
                            lambda: server.metrics.requests_enqueued == 4
                        )
                    assert await burst == [None, old, None, new]
                    assert server.metrics.storage_turns - turns == 1

        run(body())

    def test_a_decode_error_between_reads_splits_the_run(self, rng, engine_passes):
        """READ 7 of 16 arrives with an unknown op byte: its caller gets
        ``CORRUPT_FRAME`` in wire position and the READs either side of
        it are two runs, not one."""
        storage = build_storage()

        async def body():
            async with AsyncProtocolServer(storage, workers=1) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    chunks = [rng.randbytes(CHUNK) for _ in range(16)]
                    await client.write(0, b"".join(chunks))
                    storage.flush()
                    engine_passes.clear()
                    real_write = client._transport.write

                    def write(data):  # one send: sixteen 28-byte READs
                        data = bytearray(data)
                        data[7 * 28 + 1] ^= 0xFF
                        real_write(bytes(data))

                    client._transport.write = write
                    async with held_backend(server):
                        burst = asyncio.gather(*(
                            client.read(lba, 1) for lba in range(16)
                        ), return_exceptions=True)
                        await wait_until(
                            lambda: server.metrics.requests_enqueued == 17
                        )
                    results = await burst
                    assert type(results[7]) is ProtocolError
                    assert "unknown op" in str(results[7])
                    assert results[:7] + results[8:] == chunks[:7] + chunks[8:]
                    assert engine_passes == [7, 8]
                    assert server.metrics.frames_rejected == 1

        run(body())

    def test_a_rotted_chunk_mid_run_is_that_ops_internal_error(self, rng):
        """One stored chunk no longer inflates; of 16 queued READs the
        one that needs it draws ``INTERNAL`` — the storage rotted, the
        request was fine — and its neighbours are served."""
        storage = build_storage()

        async def body():
            async with AsyncProtocolServer(storage, workers=1) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    chunks = [rng.randbytes(CHUNK) for _ in range(16)]
                    await client.write(0, b"".join(chunks))
                    storage.flush()
                    engine = storage.system.engine
                    record = engine.pbn_map.get(engine.lba_map.get(9))
                    container = engine.containers._get(record.container_id)
                    container._payloads[record.offset] = b"\x01not deflate"
                    async with held_backend(server):
                        burst = asyncio.gather(*(
                            client.read(lba, 1) for lba in range(16)
                        ), return_exceptions=True)
                        await wait_until(
                            lambda: server.metrics.requests_enqueued == 17
                        )
                    results = await burst
                    # INTERNAL's class; BAD_REQUEST/UNKNOWN raise ProtocolError.
                    assert type(results[9]) is ReproError
                    assert "0x01 body does not decode" in str(results[9])
                    assert results[:9] + results[10:] == chunks[:9] + chunks[10:]

        run(body())

    def test_an_oversized_read_mid_run_fails_alone(self, rng, engine_passes):
        """A count no reply frame could carry is that op's typed error
        before the pass; the run's other READs still share one pass.
        (Driven at the endpoint: the worker's chunk budget would put
        such a read in a group of its own.)"""
        from repro.net.protocol import Frame, ProtocolServer

        with build_storage() as storage:
            chunks = [rng.randbytes(CHUNK) for _ in range(8)]
            storage.write(0, b"".join(chunks))
            storage.flush()
            engine_passes.clear()
            counts = [1] * 8
            counts[3] = MAX_PAYLOAD // CHUNK + 1
            endpoint = ProtocolServer(storage)
            replies = FrameDecoder().feed(b"".join(endpoint.handle_group([
                Frame(op=Op.READ, lba=lba, count=counts[lba], request_id=lba + 1)
                for lba in range(8)
            ])))
            assert [reply.request_id for reply in replies] == list(range(1, 9))
            assert replies[3].op == Op.ERROR
            code, message = decode_error_payload(replies[3].payload)
            assert code == ErrorCode.BAD_REQUEST and "exceeds" in message
            assert [reply.payload for reply in replies if reply.op == Op.READ_ACK] == (
                chunks[:3] + chunks[4:]
            )
            assert engine_passes == [7]
            assert endpoint.requests_served == 8

    def test_a_full_queue_parks_the_reader_and_resumes(self, rng):
        """40 READs arrive in one socket read at a queue of 4: the reader
        parks at the bound, resumes as groups leave, and no reply is lost."""
        storage = build_storage()
        depth = 4

        async def body():
            async with AsyncProtocolServer(
                storage, queue_depth=depth, workers=1
            ) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    chunks = [rng.randbytes(CHUNK) for _ in range(40)]
                    await client.write(0, b"".join(chunks))
                    async with held_backend(server):
                        burst = asyncio.gather(*(
                            client.read(lba, 1) for lba in range(40)
                        ))
                        # One group is behind the gate, the queue is full
                        # again, and the other 32 wait in the reader.
                        await wait_until(
                            lambda: server.metrics.requests_enqueued == 9
                        )
                        await asyncio.sleep(0.05)
                        assert server.metrics.requests_enqueued == 9
                    assert await asyncio.wait_for(burst, 5) == chunks
                    assert server.metrics.requests_enqueued == 41
                    assert server.metrics.responses_sent == 41
                    assert server.metrics.max_queue_depth == depth

        run(body())

    def test_a_failing_op_fails_alone(self, rng):
        """Op 7 is refused by the stack with a typed error, op 9 blows
        up inside it with an untyped one; both are mid-group, and every
        other op of the burst is applied and acked."""
        from repro.errors import ReproError
        from repro.systems.config import SystemConfig

        # 2-block chunks make odd LBAs misaligned.
        storage = StorageServer.build(
            SystemKind.FIDR, num_buckets=1024, cache_lines=64,
            compressor=ModeledCompressor(0.5),
            config=SystemConfig(chunk_size=2 * CHUNK),
        )
        lbas = [index * 2 for index in range(16)]
        lbas[7] += 1
        real_write = storage.write

        def write(lba, payload):
            if lba == lbas[9]:
                raise RuntimeError("disk on fire")
            real_write(lba, payload)

        storage.write = write
        payloads = [rng.randbytes(2 * CHUNK) for _ in lbas]

        async def body():
            async with AsyncProtocolServer(storage, workers=1) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    turns = server.metrics.storage_turns
                    async with held_backend(server):
                        burst = asyncio.gather(*(
                            client.write(lba, data)
                            for lba, data in zip(lbas, payloads)
                        ), return_exceptions=True)
                        await wait_until(
                            lambda: server.metrics.requests_enqueued == 16
                        )
                    results = await burst
                    # One worker: the group it took before the gate
                    # closed behind it, then everything else.
                    assert server.metrics.storage_turns - turns <= 2
                    assert type(results[7]) is ProtocolError  # BAD_REQUEST
                    assert "not aligned" in str(results[7])
                    assert type(results[9]) is ReproError  # wire INTERNAL
                    assert "disk on fire" in str(results[9])
                    for index, lba in enumerate(lbas):
                        if index not in (7, 9):
                            assert results[index] is None
                            assert await client.read(lba, 1) == payloads[index]
                    assert await client.read(lbas[9], 1) == bytes(2 * CHUNK)

        run(body())

    def test_a_connection_sees_its_own_requests_in_order(self, rng):
        """write(lba) then read(lba) in one burst returns the new bytes,
        whether the old mapping is still staged or already reduced."""
        from repro.systems.config import SystemConfig

        storage = StorageServer.build(
            SystemKind.FIDR, num_buckets=1024, cache_lines=64,
            compressor=ModeledCompressor(0.5),
            config=SystemConfig(batch_chunks=8),
        )

        async def body():
            async with AsyncProtocolServer(storage) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    # LBAs 0-7 went through the engine as one batch;
                    # LBA 100 is still in the staging buffer.
                    await client.write(0, rng.randbytes(8 * CHUNK))
                    await client.write(100, rng.randbytes(CHUNK))
                    assert storage.reduction_stats.logical_bytes == 8 * CHUNK
                    new = [rng.randbytes(CHUNK) for _ in range(3)]
                    _, reduced, _, staged, _, fresh = await asyncio.gather(
                        client.write(3, new[0]), client.read(3, 1),
                        client.write(100, new[1]), client.read(100, 1),
                        client.write(200, new[2]), client.read(200, 1),
                    )
                    assert [reduced, staged, fresh] == new

        run(body())

    def test_a_vanished_connection_loses_only_its_own_replies(self, rng):
        storage = build_storage()

        async def body():
            server = AsyncProtocolServer(storage)
            await server.start()
            gone = await AsyncProtocolClient.connect(server.host, server.port)
            kept = await AsyncProtocolClient.connect(server.host, server.port)
            try:
                chunks = [rng.randbytes(CHUNK) for _ in range(16)]
                async with held_backend(server):
                    lost = asyncio.gather(*(
                        gone.write(1000 + lba, chunks[lba]) for lba in range(16)
                    ), return_exceptions=True)
                    burst = asyncio.gather(*(
                        kept.write(lba, chunks[lba]) for lba in range(16)
                    ))
                    await wait_until(
                        lambda: server.metrics.requests_enqueued == 32
                    )
                    # Linger 0 turns the close into an RST: the server
                    # sees a dead peer, not a polite EOF it would answer.
                    gone._transport.get_extra_info("socket").setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                    gone._transport.abort()
                    await wait_until(
                        lambda: server.metrics.connections_open == 1
                    )
                await asyncio.wait_for(burst, 5)
                assert all(
                    isinstance(error, ProtocolError) for error in await lost
                )
                assert server.metrics.responses_sent == 16
                # The vanished client's writes were served all the same.
                assert await kept.read(1000, 16) == b"".join(chunks)
            finally:
                await gone.close()
                await kept.close()
                await asyncio.wait_for(server.stop(), 5)
            assert server.metrics.connections_open == 0

        run(body())


class TestReplyFlowControl:
    def test_a_reader_that_stops_parks_the_worker_not_the_buffer(self, rng):
        """64 bulk reads, and the client stops reading: the server's
        transport pauses writing, its one worker parks at that connection
        with work still queued, and the write buffer stays within the
        high-water mark plus one group's replies; once the client reads
        again every reply arrives, in request order, and stop() returns."""
        storage = build_storage()
        data = rng.randbytes(64 * CHUNK)

        async def body():
            server = AsyncProtocolServer(storage, workers=1)
            await server.start()
            client = await AsyncProtocolClient.connect(server.host, server.port)
            try:
                await client.write(0, data)
                (connection,) = server._connections
                buffered = []
                real_write = connection.transport.write

                def write(reply):
                    real_write(reply)
                    buffered.append(connection.transport.get_write_buffer_size())

                connection.transport.write = write
                completed = []
                real_complete = client._complete
                client._complete = lambda frame: (
                    completed.append(frame.request_id), real_complete(frame)
                )
                client._transport.pause_reading()
                burst = asyncio.gather(*(client.read(0, 64) for _ in range(64)))
                await wait_until(lambda: not connection.writable.is_set(), 10)
                await asyncio.sleep(0.05)
                served = server.metrics.storage_turns, server.metrics.responses_sent
                await asyncio.sleep(0.1)
                assert (server.metrics.storage_turns,
                        server.metrics.responses_sent) == served
                assert server._queue and not connection.writable.is_set()
                high = connection.transport.get_write_buffer_limits()[1]
                assert max(buffered) <= high + 28 + len(data)
                client._transport.resume_reading()
                assert await asyncio.wait_for(burst, 10) == [data] * 64
                assert completed == sorted(completed)
            finally:
                await asyncio.wait_for(server.stop(), 5)
                await client.close()

        run(body())


class TestHalfClose:
    @pytest.mark.parametrize("op", [Op.WRITE, Op.READ])
    def test_queued_requests_are_answered_before_eof(self, op, rng):
        """16 pipelined requests, then ``write_eof()`` while all of them
        wait behind the backend: all 16 replies arrive, in order, then EOF."""
        storage = build_storage()
        chunks = [rng.randbytes(CHUNK) for _ in range(16)]
        storage.write(0, b"".join(chunks))

        async def body():
            async with AsyncProtocolServer(storage) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                async with held_backend(server):
                    writer.write(b"".join(
                        encode_frame(Op.WRITE, lba, chunks[lba], request_id=lba + 1)
                        if op == Op.WRITE else
                        encode_frame(Op.READ, lba, request_id=lba + 1, count=1)
                        for lba in range(16)
                    ))
                    writer.write_eof()
                    (connection,) = server._connections
                    await wait_until(lambda: connection.eof)
                    assert connection.pending == 16
                replies = FrameDecoder().feed(
                    await asyncio.wait_for(reader.read(), 5)
                )
                assert reader.at_eof()
                writer.close()
            assert [reply.request_id for reply in replies] == list(range(1, 17))
            if op == Op.WRITE:
                assert {reply.op for reply in replies} == {Op.WRITE_ACK}
            else:
                assert [reply.payload for reply in replies] == chunks

        run(body())


class TestClientCork:
    """Requests issued in one event-loop tick leave in one send."""

    def test_a_gathered_burst_is_one_transport_write(self, rng):
        storage = build_storage()

        async def body():
            async with AsyncProtocolServer(storage) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    sends = []
                    real_write = client._transport.write

                    def write(data):
                        sends.append(len(data))
                        real_write(data)

                    client._transport.write = write
                    chunks = [rng.randbytes(CHUNK) for _ in range(16)]
                    await asyncio.gather(*(
                        client.write(lba, chunks[lba]) for lba in range(16)
                    ))
                    assert sends == [16 * (28 + CHUNK)]
                    assert await client.read(0, 16) == b"".join(chunks)
                    assert sends[1:] == [28]

        run(body())

    def test_a_failed_send_fails_exactly_the_requests_it_carried(self, rng):
        storage = build_storage()

        async def body():
            async with AsyncProtocolServer(storage) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    data = rng.randbytes(CHUNK)
                    await client.write(0, data)
                    real_write = client._transport.write

                    def broken(_data):
                        raise BrokenPipeError("no route to the wire")

                    async with held_backend(server):
                        # Sent a tick earlier, answered after the failure.
                        earlier = asyncio.create_task(client.read(0, 1))
                        await wait_until(
                            lambda: server.metrics.requests_enqueued == 2
                        )
                        client._transport.write = broken
                        results = await asyncio.gather(*(
                            client.write(8 + lba, data) for lba in range(16)
                        ), return_exceptions=True)
                        client._transport.write = real_write
                        assert len(client._by_id) == 1  # only ``earlier``
                    assert all(
                        isinstance(error, ProtocolError)
                        and "send failed" in str(error) for error in results
                    )
                    assert await earlier == data
                    assert client._by_id == {}
                    # Nothing of the failed burst reached the server, and
                    # the connection itself is still good.
                    assert server.metrics.requests_enqueued == 2
                    assert await client.read(8, 1) == bytes(CHUNK)

        run(body())
