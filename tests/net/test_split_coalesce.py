"""The transport callbacks see a byte stream, not frames: however TCP
cuts or merges it, the server connection and the client protocol must
act exactly as if it had arrived in one piece.

A fake transport stands in for the socket, so every cut is the test's
choice — 1-byte pieces, arbitrary cuts, the whole stream at once — and
it honours what a real one does: no delivery while reading is paused,
none after ``close()``, and ``connection_lost`` a loop tick after it.
"""

import asyncio
import itertools

from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.net.aserver import AsyncProtocolClient, AsyncProtocolServer, _Connection
from repro.net.protocol import FrameDecoder, Op, ProtocolServer, encode_frame
from repro.obs.metrics import MetricsRegistry

from .test_aserver import CHUNK, build_storage


class FakeTransport:
    """What a protocol sees of a socket: writes collected, reads paused
    or not, closed or not."""

    def __init__(self, protocol):
        self.protocol = protocol
        self.sent = bytearray()
        self.reading = asyncio.Event()
        self.reading.set()
        self.closed = asyncio.Event()
        protocol.connection_made(self)

    def write(self, data):
        self.sent += data

    def pause_reading(self):
        self.reading.clear()

    def resume_reading(self):
        self.reading.set()

    def is_closing(self):
        return self.closed.is_set()

    def close(self):
        if not self.closed.is_set():
            self.closed.set()
            asyncio.get_running_loop().call_soon(self.protocol.connection_lost, None)


async def deliver(transport, pieces, eof=False):
    """Hand ``pieces`` to the protocol as socket reads would, then EOF
    if asked."""
    for piece in pieces:
        await transport.reading.wait()
        if transport.is_closing():
            return
        transport.protocol.data_received(piece)
    if eof:
        await transport.reading.wait()
        if not transport.protocol.eof_received():
            transport.close()


@st.composite
def cut(draw, stream):
    """``stream`` whole, in 1-byte pieces, or cut at arbitrary points."""
    how = draw(st.sampled_from(["whole", "bytes", "points"]))
    if how == "whole":
        return [stream]
    if how == "bytes":
        return [stream[i : i + 1] for i in range(len(stream))]
    points = sorted(set(draw(st.lists(st.integers(1, len(stream) - 1), max_size=40))))
    return [stream[a:b] for a, b in zip([0, *points], [*points, len(stream)])]


def corrupt(frame):
    """``frame`` with the last byte of its payload flipped: a CRC mismatch."""
    damaged = bytearray(frame)
    damaged[-1] ^= 0xFF
    return bytes(damaged)


@st.composite
def request_streams(draw):
    """Mixed WRITE / READ / TRIM frames, one CRC-corrupt WRITE and one
    stray non-magic byte among them, each at a drawn position."""
    ops = draw(st.lists(st.tuples(
        st.sampled_from([Op.WRITE, Op.READ, Op.TRIM]),
        st.integers(0, 7), st.integers(1, 2),
    ), min_size=1, max_size=10))
    frames = [
        encode_frame(op, lba, bytes([lba + 1]) * CHUNK, request_id=rid)
        if op == Op.WRITE else
        encode_frame(op, lba, request_id=rid, count=count)
        for rid, (op, lba, count) in enumerate(ops, start=1)
    ]
    frames.insert(draw(st.integers(0, len(frames))),
                  corrupt(encode_frame(Op.WRITE, 8, bytes(CHUNK), request_id=99)))
    frames.insert(draw(st.integers(0, len(frames))), b"\x00")
    return b"".join(frames)


def key(event):
    """Frames compare by value; decode errors by what they say."""
    if isinstance(event, ProtocolError):
        return ("error", str(event), event.request_id)
    return event


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_server_connection_queues_and_answers_any_cut_as_one_shot(data):
    """At a queue of 3 a long stream parks and resumes the connection
    too; what the backend serves and what goes back match one-shot
    decoding and dispatch, in wire order."""
    stream = data.draw(request_streams())
    pieces = data.draw(cut(stream))
    expected = FrameDecoder().events(stream)
    with build_storage() as reference:
        want = b"".join(ProtocolServer(reference).handle_group(expected))

    async def body(storage):
        server = AsyncProtocolServer(storage, queue_depth=3, workers=1)
        await server.start()
        served = []
        handle_group = server.endpoint.handle_group
        server.endpoint.handle_group = lambda events: (
            served.extend(events), handle_group(events)
        )[1]
        try:
            transport = FakeTransport(_Connection(server))
            await asyncio.wait_for(deliver(transport, pieces, eof=True), 10)
            await asyncio.wait_for(transport.closed.wait(), 5)
        finally:
            await server.stop()
        assert [key(event) for event in served] == [key(event) for event in expected]
        assert bytes(transport.sent) == want
        assert server.metrics.requests_enqueued == len(expected)
        assert server.metrics.max_queue_depth <= 3
        assert server.metrics.frames_rejected == 2

    with build_storage() as storage:
        asyncio.run(body(storage))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_client_protocol_completes_any_cut_as_one_shot(data):
    """Replies in any order, an unowned id among them, and perhaps one
    corrupt reply: the futures the replies before it name complete with
    exactly those frames, the rest fail, and the death counts once."""
    calls = data.draw(st.integers(1, 12))
    replies = [
        encode_frame(Op.READ_ACK, rid, bytes([rid]) * size, request_id=rid)
        for rid, size in zip(
            data.draw(st.permutations(range(1, calls + 1))),
            data.draw(st.lists(st.sampled_from([0, 7, CHUNK]),
                               min_size=calls, max_size=calls)),
        )
    ]
    replies.insert(data.draw(st.integers(0, calls)), encode_frame(Op.ERROR, 0))
    damage = data.draw(st.sampled_from([None, "crc", "stray"]))
    if damage:
        bad = corrupt(encode_frame(Op.READ_ACK, 0, b"rot", request_id=1))
        replies.insert(data.draw(st.integers(0, len(replies))),
                       bad if damage == "crc" else b"\x00")
    stream = b"".join(replies)
    pieces = data.draw(cut(stream))
    events = FrameDecoder().events(stream)
    good = {
        frame.request_id: frame for frame in itertools.takewhile(
            lambda event: not isinstance(event, ProtocolError), events
        )
    }

    async def body():
        registry = MetricsRegistry()
        client = AsyncProtocolClient(registry=registry)
        transport = FakeTransport(client)
        futures = [
            asyncio.ensure_future(client._request(Op.READ, rid, count=1))
            for rid in range(1, calls + 1)
        ]
        while len(client._by_id) < calls:
            await asyncio.sleep(0)
        await asyncio.wait_for(deliver(transport, pieces), 10)
        await client.close()
        results = await asyncio.gather(*futures, return_exceptions=True)
        for rid, result in enumerate(results, start=1):
            if rid in good:
                assert result == good[rid]
            else:
                assert isinstance(result, ProtocolError)
        deaths = registry.counter("proto.client.reader_deaths_total").value
        assert deaths == (1 if damage else 0)

    asyncio.run(body())
