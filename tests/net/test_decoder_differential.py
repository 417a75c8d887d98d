"""The one-pass frame decoder against the per-frame reference
(``tests/net/reference.py``): the same random streams, cut at arbitrary
byte boundaries, must give the same events, counters and pending bytes
after every feed."""

import struct
import zlib

from hypothesis import given, settings, strategies as st

from repro.net.protocol import MAX_PAYLOAD, FrameDecoder, ProtocolError
from repro.obs.metrics import MetricsRegistry

from .reference import ReferenceDecoder, fields

_HEADER = struct.Struct(">BBBBIIQII")


def _header(op, lba, payload, *, request_id=0, count=0, flags=0, length=None, crc=None):
    return _HEADER.pack(
        0xF2, op, flags, 0, request_id, count, lba,
        len(payload) if length is None else length,
        zlib.crc32(payload) if crc is None else crc,
    )


_header_values = dict(
    op=st.integers(1, 11),
    lba=st.integers(0, (1 << 64) - 1),
    payload=st.binary(max_size=96),
    request_id=st.integers(0, (1 << 32) - 1),
    count=st.integers(0, (1 << 32) - 1),
    flags=st.integers(0, 255),
)


@st.composite
def _piece(draw):
    """One stretch of stream: a good frame, or one kind of damage."""
    kind = draw(st.sampled_from(
        ["frame", "frame", "frame", "garbage", "crc", "op", "length", "truncated"]
    ))
    values = {name: draw(strategy) for name, strategy in _header_values.items()}
    payload = values.pop("payload")
    op = values.pop("op")
    if kind == "garbage":
        return draw(st.binary(min_size=1, max_size=40))
    if kind == "crc":
        return _header(op, payload=payload, crc=zlib.crc32(payload) ^ 1, **values) + payload
    if kind == "op":
        op = draw(st.sampled_from([0, 12, 99, 255]))
    if kind == "length":
        length = draw(st.integers(MAX_PAYLOAD + 1, (1 << 32) - 1))
        return _header(op, payload=payload, length=length, **values) + payload
    if kind == "truncated":  # the header promises more than follows it
        return _header(op, payload=payload + b"\x00", **values) + payload
    return _header(op, payload=payload, **values) + payload


def _events(decoded):
    return [
        ("error", type(event), str(event), event.request_id)
        if isinstance(event, ProtocolError) else ("frame", fields(event))
        for event in decoded
    ]


def _counts(registry):
    return (
        registry.counter("proto.resync_total").value,
        registry.counter("proto.frames_total").value,
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(_piece(), max_size=12), st.lists(st.integers(0, 2000), max_size=8))
def test_one_pass_decoder_matches_the_per_frame_reference(pieces, cuts):
    stream = b"".join(pieces)
    bounds = sorted({min(cut, len(stream)) for cut in cuts} | {len(stream)})
    new_registry = MetricsRegistry(stripes=1)
    reference_registry = MetricsRegistry(stripes=1)
    decoder = FrameDecoder(new_registry)
    reference = ReferenceDecoder(reference_registry)
    start = 0
    for end in bounds:
        data = stream[start:end]
        start = end
        assert _events(decoder.events(data)) == _events(reference.events(data))
        assert _counts(new_registry) == _counts(reference_registry)
        assert decoder.pending_bytes == reference.pending_bytes
