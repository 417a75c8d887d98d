"""Wire helpers: one request through the transport-free dispatch, as
wire bytes, and a gate that holds a served group before it runs."""

import asyncio
import contextlib
import struct

from repro.net.protocol import Frame, FrameDecoder, encode_frame

#: A READ in the retired 16-byte ``0xF1`` header: garbage to the decoder.
RETIRED_READ = struct.pack(">BBBBQII", 0xF1, 2, 1, 0, 8, 0, 0)


def roundtrip(endpoint, op, lba, payload=b"", **fields) -> Frame:
    """Encode a request, decode it, ``handle_frame`` it, decode the reply."""
    (request,) = FrameDecoder().feed(encode_frame(op, lba, payload, **fields))
    (reply,) = FrameDecoder().feed(endpoint.handle_frame(request))
    return reply


@contextlib.asynccontextmanager
async def held_backend(server):
    """Hold every group at ``server._dispatch`` so everything sent inside
    the block is queued (or taken, and waiting at the gate) before any of
    it runs — grouping then depends on the test, not on how TCP cut the
    burst."""
    gate = asyncio.Event()
    dispatch = server._dispatch

    async def gated(events):
        await gate.wait()
        return await dispatch(events)

    server._dispatch = gated
    try:
        yield
    finally:
        gate.set()
        del server._dispatch
