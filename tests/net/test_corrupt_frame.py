"""A corrupt request is answered *to its caller*.

A CRC mismatch (or unknown op) leaves the frame's header intact, so the
``CORRUPT_FRAME`` reply carries the request's wire version and id; a
pipelined v2 client then fails that one call instead of dropping an
id-less v1 frame and waiting forever.  Only a lost magic byte — no
header to trust — still draws the anonymous v1 frame.
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
    ProtocolServer,
    encode_corrupt_reply,
    encode_frame,
    encode_frame_v2,
)

from .test_aserver import CHUNK, build_storage, run
from .test_router import _fresh_registry, cluster  # noqa: F401 (fixture)

FRAME = 28 + CHUNK  # one v2 1-chunk WRITE on the wire


def corrupt_sent_byte(client, offset):
    """Flip the byte at stream ``offset`` of what ``client`` sends,
    however its sends are cut."""
    real_write = client._writer.write
    sent = 0

    def write(data):
        nonlocal sent
        if sent <= offset < sent + len(data):
            data = bytearray(data)
            data[offset - sent] ^= 0xFF
        sent += len(data)
        real_write(bytes(data))

    client._writer.write = write


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


def test_corrupt_frame_mid_burst_through_the_router(rng):
    async def body():
        async with cluster(2) as nodes:
            async with await AsyncProtocolClient.connect(
                nodes.router.host, nodes.router.port
            ) as client:
                await burst_with_one_corrupt_frame(client, rng)

    run(body())


@pytest.mark.parametrize("damage", ["crc", "op"])
def test_reply_names_the_request_when_the_header_survived(damage, rng):
    wire = bytearray(encode_frame_v2(
        Op.WRITE, 8, rng.randbytes(CHUNK), request_id=0xBEEF
    ))
    if damage == "crc":
        wire[-1] ^= 0xFF
    else:
        wire[1] = 0x7F
    (error,) = FrameDecoder().events(bytes(wire))
    assert isinstance(error, ProtocolError)
    assert (error.version, error.request_id) == (2, 0xBEEF)
    (reply,) = FrameDecoder().feed(encode_corrupt_reply(error))
    assert (reply.op, reply.version, reply.request_id) == (Op.ERROR, 2, 0xBEEF)
    code, message = decode_error_payload(reply.payload)
    assert code == ErrorCode.CORRUPT_FRAME
    assert message == str(error)


def test_lost_magic_and_v1_damage_still_draw_the_v1_frame(rng):
    """No trustworthy header, or a v1 one: today's anonymous frame."""
    endpoint = ProtocolServer(build_storage())
    assert endpoint.handle_bytes(b"\x00") == encode_frame(
        Op.ERROR, 0, encode_error_payload(
            ErrorCode.CORRUPT_FRAME, "bad magic: stream out of sync"
        ),
    )
    wire = bytearray(encode_frame(Op.WRITE, 0, rng.randbytes(CHUNK)))
    wire[-1] ^= 0xFF
    assert endpoint.handle_bytes(bytes(wire)) == encode_frame(
        Op.ERROR, 0, encode_error_payload(
            ErrorCode.CORRUPT_FRAME, "payload CRC mismatch"
        ),
    )
    assert endpoint.frames_rejected == 2
