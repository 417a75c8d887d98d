"""Tests for the §6.2 storage protocol: framing, and the transport-free
request dispatch (``ProtocolServer.handle_frame``)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ErrorCode, decode_error_payload
from repro.net.protocol import (
    Frame,
    FrameDecoder,
    Op,
    ProtocolError,
    ProtocolServer,
    encode_frame,
)
from repro.systems.server import SystemKind

from .test_aserver import CHUNK, build_storage
from .wire import roundtrip


def make_stack(kind=SystemKind.FIDR):
    storage = build_storage(kind)
    return storage, ProtocolServer(storage)


class TestFraming:
    def test_roundtrip(self):
        raw = encode_frame(Op.WRITE, 42, b"payload", flags=3)
        frames = FrameDecoder().feed(raw)
        assert frames == [Frame(op=Op.WRITE, lba=42, payload=b"payload", flags=3)]

    def test_split_delivery(self):
        raw = encode_frame(Op.READ, 7)
        decoder = FrameDecoder()
        assert decoder.feed(raw[:5]) == []
        assert decoder.feed(raw[5:10]) == []
        frames = decoder.feed(raw[10:])
        assert frames[0].op == Op.READ

    def test_coalesced_delivery(self):
        raw = encode_frame(Op.READ, 1) + encode_frame(Op.READ, 2)
        frames = FrameDecoder().feed(raw)
        assert [frame.lba for frame in frames] == [1, 2]

    def test_crc_detects_corruption(self):
        raw = bytearray(encode_frame(Op.WRITE, 0, b"data"))
        raw[-1] ^= 0xFF
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(bytes(raw))

    def test_bad_magic_rejected(self):
        raw = b"\x00" + encode_frame(Op.READ, 0)[1:]
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(raw)

    def test_encode_validation(self):
        with pytest.raises(ProtocolError):
            encode_frame(99, 0)
        with pytest.raises(ProtocolError):
            encode_frame(Op.READ, -1)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 1000), st.binary(max_size=200)),
            min_size=1, max_size=10,
        ),
        st.integers(1, 17),
    )
    def test_arbitrary_stream_chunking(self, messages, step):
        """Frames survive any transport-level re-segmentation."""
        stream = b"".join(
            encode_frame(Op.WRITE, lba, payload or b"x")
            for lba, payload in messages
        )
        decoder = FrameDecoder()
        decoded = []
        for start in range(0, len(stream), step):
            decoded.extend(decoder.feed(stream[start : start + step]))
        assert len(decoded) == len(messages)
        assert [frame.lba for frame in decoded] == [m[0] for m in messages]


class TestEndToEnd:
    @pytest.mark.parametrize("kind", [SystemKind.BASELINE, SystemKind.FIDR])
    def test_write_read_through_protocol(self, kind, rng):
        _, endpoint = make_stack(kind)
        data = rng.randbytes(CHUNK)
        assert roundtrip(endpoint, Op.WRITE, 0, data).op == Op.WRITE_ACK
        reply = roundtrip(endpoint, Op.READ, 0, count=1)
        assert (reply.op, reply.payload) == (Op.READ_ACK, data)

    def test_multi_chunk_read(self, rng):
        _, endpoint = make_stack()
        payload = rng.randbytes(4 * CHUNK)
        roundtrip(endpoint, Op.WRITE, 0, payload)
        assert roundtrip(endpoint, Op.READ, 0, count=4).payload == payload

    def test_write_ack_is_immediate(self, rng):
        storage, endpoint = make_stack()
        reply = roundtrip(endpoint, Op.WRITE, 0, rng.randbytes(CHUNK))
        assert reply.op == Op.WRITE_ACK
        # The backend has not flushed (batching), yet the ack arrived.
        assert storage.system.engine.containers.sealed_count == 0

    def test_empty_write_errors(self):
        _, endpoint = make_stack()
        reply = roundtrip(endpoint, Op.WRITE, 0, b"", request_id=4)
        assert (reply.op, reply.request_id) == (Op.ERROR, 4)
        code, message = decode_error_payload(reply.payload)
        assert code is ErrorCode.BAD_REQUEST
        assert "empty write" in message

    def test_requests_counted(self, rng):
        _, endpoint = make_stack()
        roundtrip(endpoint, Op.WRITE, 0, rng.randbytes(CHUNK))
        roundtrip(endpoint, Op.READ, 0, count=1)
        assert endpoint.requests_served == 2

    def test_many_clients_one_server(self, rng):
        """Interleaved request streams share one endpoint; each reply
        names the request it answers."""
        _, endpoint = make_stack()
        data = [rng.randbytes(CHUNK) for _ in range(3)]
        for index in range(3):
            reply = roundtrip(
                endpoint, Op.WRITE, index * 8, data[index], request_id=index + 1
            )
            assert (reply.op, reply.request_id) == (Op.WRITE_ACK, index + 1)
        for index in range(3):
            reply = roundtrip(
                endpoint, Op.READ, index * 8, count=1, request_id=10 + index
            )
            assert (reply.request_id, reply.payload) == (10 + index, data[index])
