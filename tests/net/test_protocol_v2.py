"""Tests for the frame header's request id and count, decoder resync,
and the typed error model riding the protocol."""

import pytest

from repro.datared.compression import ModeledCompressor
from repro.errors import (
    AlignmentError,
    ErrorCode,
    ProtocolError,
    decode_error_payload,
    raise_for_error_payload,
)
from repro.net.protocol import (
    Frame,
    FrameDecoder,
    Op,
    ProtocolServer,
    encode_corrupt_reply,
    encode_frame,
    encode_reply,
)
from repro.systems.server import StorageServer, SystemKind

from .wire import RETIRED_READ, roundtrip

CHUNK = 4096


def make_endpoint(**kwargs):
    return ProtocolServer(StorageServer.build(
        SystemKind.FIDR, num_buckets=1024, cache_lines=64,
        compressor=ModeledCompressor(0.5), **kwargs,
    ))


def make_wide_chunk_endpoint():
    """A 2-block chunk system, so odd LBAs violate alignment."""
    from repro.systems.config import SystemConfig
    return make_endpoint(config=SystemConfig(chunk_size=8192))


class TestV2Framing:
    def test_roundtrip_carries_request_id_and_count(self):
        raw = encode_frame(Op.READ, 16, request_id=7_000_000, count=1000)
        (frame,) = FrameDecoder().feed(raw)
        assert frame.request_id == 7_000_000
        assert frame.count == 1000
        assert frame.read_count == 1000

    def test_count_beyond_v1_flags_range(self):
        """The 32-bit count field carries what no 1-byte field could."""
        raw = encode_frame(Op.READ, 0, count=1 << 20)
        (frame,) = FrameDecoder().feed(raw)
        assert frame.read_count == 1 << 20

    def test_an_unset_count_reads_one_chunk(self):
        (frame,) = FrameDecoder().feed(encode_frame(Op.READ, 0, flags=9))
        assert (frame.count, frame.flags, frame.read_count) == (0, 9, 1)

    def test_field_validation(self):
        with pytest.raises(ProtocolError):
            encode_frame(Op.READ, 0, request_id=1 << 32)
        with pytest.raises(ProtocolError):
            encode_frame(Op.READ, 0, count=-1)
        with pytest.raises(ProtocolError):
            encode_frame(99, 0)

    def test_mixed_version_stream(self):
        """A frame in the retired 16-byte ``0xF1`` header among today's
        is just a bad magic: one error for the whole header, then the
        stream is clean."""
        events = FrameDecoder().events(
            encode_frame(Op.READ, 0, request_id=1)
            + RETIRED_READ
            + encode_frame(Op.READ, 16, request_id=2)
        )
        assert [type(event) for event in events] == [
            Frame, ProtocolError, Frame
        ]
        assert "bad magic" in str(events[1])
        assert events[1].request_id == 0
        assert [events[0].request_id, events[2].request_id] == [1, 2]

    def test_v2_split_delivery(self):
        raw = encode_frame(Op.WRITE, 8, b"payload", request_id=5)
        decoder = FrameDecoder()
        collected = []
        for index in range(0, len(raw), 3):
            collected.extend(decoder.feed(raw[index : index + 3]))
        assert len(collected) == 1
        assert collected[0].payload == b"payload"

    def test_encode_reply_mirrors_request_id(self):
        request = Frame(op=Op.READ, lba=0, request_id=42, count=3)
        (reply,) = FrameDecoder().feed(
            encode_reply(request, Op.READ_ACK, 0, b"x")
        )
        assert reply == Frame(op=Op.READ_ACK, lba=0, payload=b"x", request_id=42)


class TestDecoderResync:
    def test_bad_magic_then_clean_frame_recovers(self):
        """One corrupt prefix must not wedge the decoder forever."""
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(b"\x00\x01\x02garbage")
        frames = decoder.feed(encode_frame(Op.READ, 8, request_id=1))
        assert len(frames) == 1 and frames[0].lba == 8

    def test_crc_corruption_consumes_the_frame(self):
        decoder = FrameDecoder()
        bad = bytearray(encode_frame(Op.WRITE, 0, b"data"))
        bad[-1] ^= 0xFF
        with pytest.raises(ProtocolError):
            decoder.feed(bytes(bad))
        assert decoder.pending_bytes == 0
        (frame,) = decoder.feed(encode_frame(Op.WRITE, 16, b"ok"))
        assert frame.payload == b"ok"

    def test_repeated_feed_does_not_rereraise(self):
        """The pre-v2 bug: bad magic left the buffer intact, so every
        later feed() re-raised without making progress."""
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(b"\x00" * 40)
        assert decoder.feed(b"") == []  # buffer was reclaimed

    def test_resync_scans_to_embedded_magic(self):
        """Junk bytes before a clean frame: the resync scan finds the
        frame's magic and the frame decodes in the same call."""
        good = encode_frame(Op.READ, 3)
        events = FrameDecoder().events(b"\x07\x08" + good)
        assert isinstance(events[0], ProtocolError)
        assert isinstance(events[1], Frame) and events[1].lba == 3

    def test_events_reports_errors_inline(self):
        good = encode_frame(Op.READ, 8, request_id=2)
        events = FrameDecoder().events(b"\xab" + good)
        assert isinstance(events[0], ProtocolError)
        assert isinstance(events[1], Frame) and events[1].lba == 8

    def test_implausible_length_is_corruption_not_a_stall(self):
        import struct
        header = struct.pack(
            ">BBBBIIQII", 0xF2, Op.WRITE, 0, 0, 0, 0, 0, 1 << 31, 0
        )
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(header)
        (frame,) = decoder.feed(encode_frame(Op.READ, 0))
        assert frame.op == Op.READ


class TestServerErrorHandling:
    def test_corrupt_frame_answered_with_error_frame(self):
        (error,) = FrameDecoder().events(b"\x00\x01\x02")
        (frame,) = FrameDecoder().feed(encode_corrupt_reply(error))
        assert (frame.op, frame.request_id) == (Op.ERROR, 0)
        code, _ = decode_error_payload(frame.payload)
        assert code is ErrorCode.CORRUPT_FRAME

    def test_corruption_then_valid_request_same_buffer(self):
        """A corrupt frame and a clean one in the same TCP segment: the
        decoder hands the server both, in order (error + request)."""
        endpoint = make_endpoint()
        error, request = FrameDecoder().events(b"\xab\xcd" + encode_frame(
            Op.WRITE, 0, b"x" * CHUNK, request_id=1
        ))
        assert isinstance(error, ProtocolError)
        (reply,) = FrameDecoder().feed(endpoint.handle_frame(request))
        assert (reply.op, reply.request_id) == (Op.WRITE_ACK, 1)

    def test_unaligned_read_returns_alignment_code(self):
        endpoint = make_wide_chunk_endpoint()
        frame = roundtrip(endpoint, Op.READ, 3, request_id=9, count=1)
        assert frame.op == Op.ERROR
        assert frame.request_id == 9  # error mirrors the request id
        code, message = decode_error_payload(frame.payload)
        assert code is ErrorCode.ALIGNMENT
        assert "chunk-aligned" in message

    def test_client_raises_typed_alignment_error(self):
        reply = roundtrip(make_wide_chunk_endpoint(), Op.READ, 3, count=1)
        with pytest.raises(AlignmentError):
            raise_for_error_payload(reply.payload, "read failed")

    def test_client_raises_protocol_error_on_empty_write(self):
        reply = roundtrip(make_endpoint(), Op.WRITE, 0)
        with pytest.raises(ProtocolError, match="empty write"):
            raise_for_error_payload(reply.payload, "write failed")

    def test_ack_op_as_request_is_rejected_not_fatal(self):
        frame = roundtrip(make_endpoint(), Op.WRITE_ACK, 0)
        assert frame.op == Op.ERROR
        code, _ = decode_error_payload(frame.payload)
        assert code is ErrorCode.BAD_REQUEST


class TestGroupNeverRaises:
    """A frame built through the API, not decoded, may carry an LBA or id
    no reply header holds; its failure is still its own reply, naming
    LBA 0 or id 0 in place of what does not fit."""

    def test_unencodable_fields_become_error_replies(self, rng):
        endpoint = make_endpoint()
        storage = endpoint.server
        data = rng.randbytes(CHUNK)
        replies = endpoint.handle_group([
            Frame(op=Op.WRITE, lba=-64, payload=b"x" * CHUNK, request_id=1),
            Frame(op=Op.READ, lba=1 << 64, request_id=2),
            Frame(op=Op.READ, lba=8, request_id=1 << 32),
            Frame(op=Op.WRITE, lba=0, payload=data, request_id=3),
            # Past the 64-bit LBA space — the whole extent or only its
            # last chunk: refused before anything is staged.
            Frame(op=Op.WRITE, lba=1 << 64, payload=b"y" * CHUNK, request_id=4),
            Frame(op=Op.WRITE, lba=(1 << 64) - 1, payload=b"z" * (2 * CHUNK), request_id=5),
            Frame(op=Op.READ, lba=(1 << 64) - 1, count=2, request_id=6),
        ])
        decoded = [FrameDecoder().feed(reply)[0] for reply in replies]
        assert [(f.op, f.lba, f.request_id) for f in decoded] == [
            (Op.ERROR, 0, 1), (Op.ERROR, 0, 2), (Op.ERROR, 8, 0),
            (Op.WRITE_ACK, 0, 3), (Op.ERROR, 0, 4),
            (Op.ERROR, (1 << 64) - 1, 5), (Op.ERROR, (1 << 64) - 1, 6),
        ]
        for reply in (decoded[0], decoded[1], *decoded[4:]):
            assert decode_error_payload(reply.payload)[0] is ErrorCode.BAD_REQUEST
        assert storage.system.logical_write_bytes == CHUNK  # lba 0's alone
        storage.flush()
        assert storage.system.engine.stats.logical_bytes == CHUNK
        assert storage.read(0, 1) == data


class TestInterop:
    def test_server_answers_v2_request_in_v2(self, rng):
        frame = roundtrip(
            make_endpoint(), Op.WRITE, 0, rng.randbytes(CHUNK), request_id=77
        )
        assert (frame.op, frame.request_id) == (Op.WRITE_ACK, 77)

    def test_v2_client_large_read(self, rng):
        """A count past 255 — more than a 1-byte field could ask for."""
        endpoint = make_endpoint()
        data = rng.randbytes(300 * CHUNK)
        roundtrip(endpoint, Op.WRITE, 0, data)
        assert roundtrip(endpoint, Op.READ, 0, count=300).payload == data
