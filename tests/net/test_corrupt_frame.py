"""A corrupt request is answered *to its caller*.

A CRC mismatch (or unknown op) leaves the frame's header intact, so the
``CORRUPT_FRAME`` reply carries the request's id; a pipelined client
then fails that one call instead of waiting forever.  A lost magic byte
— no header to trust, and the retired ``0xF1`` header is one — draws
the same reply with id 0, which no caller owns.
"""

import asyncio

import pytest

from repro.errors import (
    ErrorCode,
    ProtocolError,
    decode_error_payload,
    encode_error_payload,
)
from repro.net.aserver import AsyncProtocolClient, AsyncProtocolServer
from repro.net.protocol import (
    FrameDecoder,
    Op,
    encode_corrupt_reply,
    encode_frame,
)

from repro.obs.metrics import MetricsRegistry, set_registry

from .test_aserver import CHUNK, build_storage, run
from .wire import RETIRED_READ

FRAME = 28 + CHUNK  # one 1-chunk WRITE on the wire


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Isolate every test's metrics in its own default registry."""
    previous = set_registry(MetricsRegistry())
    try:
        yield
    finally:
        set_registry(previous)


def corrupt_sent_byte(client, offset):
    """Flip the byte at stream ``offset`` of what ``client`` sends,
    however its sends are cut."""
    real_write = client._transport.write
    sent = 0

    def write(data):
        nonlocal sent
        if sent <= offset < sent + len(data):
            data = bytearray(data)
            data[offset - sent] ^= 0xFF
        sent += len(data)
        real_write(bytes(data))

    client._transport.write = write


async def burst_with_one_corrupt_frame(client, rng):
    """16 pipelined writes, the payload of op 7 damaged in flight."""
    chunks = [rng.randbytes(CHUNK) for _ in range(16)]
    corrupt_sent_byte(client, 8 * FRAME - 1)
    results = await asyncio.wait_for(asyncio.gather(*(
        client.write(lba, chunks[lba]) for lba in range(16)
    ), return_exceptions=True), 5)
    assert isinstance(results[7], ProtocolError)
    assert "CRC" in str(results[7])
    assert [r for i, r in enumerate(results) if i != 7] == [None] * 15
    # The connection keeps serving, and op 7 alone was not applied.
    chunks[7] = bytes(CHUNK)
    assert await client.read(0, 16) == b"".join(chunks)
    assert client._by_id == {}


def test_corrupt_frame_mid_burst_fails_its_call_only(rng):
    storage = build_storage()

    async def body():
        async with AsyncProtocolServer(storage) as server:
            async with await AsyncProtocolClient.connect(
                server.host, server.port
            ) as client:
                await burst_with_one_corrupt_frame(client, rng)
            assert server.metrics.frames_rejected == 1
            assert server.metrics.responses_sent == 17

    run(body())


@pytest.mark.parametrize("damage", ["crc", "op"])
def test_reply_names_the_request_when_the_header_survived(damage, rng):
    wire = bytearray(encode_frame(
        Op.WRITE, 8, rng.randbytes(CHUNK), request_id=0xBEEF
    ))
    if damage == "crc":
        wire[-1] ^= 0xFF
    else:
        wire[1] = 0x7F
    (error,) = FrameDecoder().events(bytes(wire))
    assert isinstance(error, ProtocolError)
    assert error.request_id == 0xBEEF
    (reply,) = FrameDecoder().feed(encode_corrupt_reply(error))
    assert (reply.op, reply.request_id) == (Op.ERROR, 0xBEEF)
    code, message = decode_error_payload(reply.payload)
    assert code == ErrorCode.CORRUPT_FRAME
    assert message == str(error)


def test_lost_magic_draws_a_reply_no_caller_owns():
    """No trustworthy header: ``CORRUPT_FRAME`` with request id 0."""
    (error,) = FrameDecoder().events(b"\x00")
    assert encode_corrupt_reply(error) == encode_frame(
        Op.ERROR, 0, encode_error_payload(
            ErrorCode.CORRUPT_FRAME, "bad magic: stream out of sync"
        ),
    )


async def replies(reader, decoder, count):
    frames = []
    while len(frames) < count:
        frames += decoder.feed(await asyncio.wait_for(reader.read(65536), 5))
    return frames


def test_retired_magic_mid_pipeline_is_one_corrupt_frame(rng):
    """A frame in the retired ``0xF1`` header between two requests, all
    in one segment: exactly one ``CORRUPT_FRAME`` in its wire position,
    and the request behind it is served on the same connection."""
    data = rng.randbytes(CHUNK)

    async def probe(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                encode_frame(Op.WRITE, 0, data, request_id=1)
                + RETIRED_READ
                + encode_frame(Op.READ, 0, request_id=2, count=1)
            )
            await writer.drain()
            ack, error, read = await replies(reader, FrameDecoder(), 3)
        finally:
            writer.close()
        assert (ack.op, ack.request_id) == (Op.WRITE_ACK, 1)
        assert (error.op, error.request_id) == (Op.ERROR, 0)
        code, message = decode_error_payload(error.payload)
        assert code == ErrorCode.CORRUPT_FRAME and "bad magic" in message
        assert (read.op, read.request_id, read.payload) == (Op.READ_ACK, 2, data)

    async def body():
        async with AsyncProtocolServer(build_storage()) as server:
            await probe(server.host, server.port)
            assert server.metrics.frames_rejected == 1
            assert server.metrics.responses_sent == 3

    run(body())


def test_a_reply_with_an_unknown_request_id_completes_no_caller(rng):
    """The id-0 ``CORRUPT_FRAME`` a stray retired-magic frame draws
    reaches a pipelined client mid-burst: it is dropped, and every real
    caller still gets its own reply."""
    storage = build_storage()

    async def body():
        async with AsyncProtocolServer(storage) as server:
            async with await AsyncProtocolClient.connect(
                server.host, server.port
            ) as client:
                chunks = [rng.randbytes(CHUNK) for _ in range(16)]
                await client.write(0, b"".join(chunks))
                real_write = client._transport.write
                # The burst leaves as one 16 x 28-byte write; splice the
                # stray frame in behind the 8th request.
                client._transport.write = lambda wire: real_write(
                    wire[: 8 * 28] + RETIRED_READ + wire[8 * 28 :]
                )
                completed = []
                real_complete = client._complete
                client._complete = lambda frame: (
                    completed.append(frame.request_id), real_complete(frame)
                )
                reads = await asyncio.wait_for(asyncio.gather(*(
                    client.read(lba, 1) for lba in range(16)
                )), 5)
                assert reads == chunks
                assert sorted(completed) == [0] + list(range(2, 18))
                assert client._by_id == {}
            assert server.metrics.frames_rejected == 1

    run(body())
