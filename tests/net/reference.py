"""Reference decoder the frame-decoder differential compares against.

:class:`ReferenceDecoder` is the per-frame decoder the serving layer
used before :meth:`repro.net.protocol.FrameDecoder.events` became one
pass per socket read: each frame is one ``_try_decode`` call that checks
the magic, unpacks the header, copies the payload out and deletes the
frame's bytes from the front of the buffer, and each decoded frame bumps
``proto.frames_total`` on its own.  It is written out here on its own,
so the decoder in ``src/`` is compared with a second statement of the
same wire rules, not with itself.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, Union

from repro.net.protocol import MAX_PAYLOAD, ProtocolError
from repro.obs.metrics import MetricsRegistry

_HEADER = struct.Struct(">BBBBIIQII")
_MAGIC = 0xF2
_KNOWN_OPS = frozenset(range(1, 12))


@dataclass(frozen=True)
class Frame:
    """One decoded protocol frame."""

    op: int
    lba: int
    payload: bytes = b""
    flags: int = 0
    request_id: int = 0
    count: int = 0


def fields(frame: Any) -> Tuple[int, int, bytes, int, int, int]:
    """A frame's fields in wire order, whichever record carries them."""
    return (
        frame.op, frame.lba, frame.payload, frame.flags,
        frame.request_id, frame.count,
    )


class ReferenceDecoder:
    """One frame per call; errors raised and collected by :meth:`events`."""

    def __init__(self, registry: MetricsRegistry):
        self._buffer = bytearray()
        self._resync_total = registry.counter("proto.resync_total")
        self._frames = registry.counter("proto.frames_total")

    def events(self, data: bytes) -> List[Union[Frame, ProtocolError]]:
        self._buffer += data
        out: List[Union[Frame, ProtocolError]] = []
        while True:
            try:
                frame = self._try_decode()
            except ProtocolError as error:
                out.append(error)
                continue
            if frame is None:
                return out
            out.append(frame)

    def _resync(self) -> None:
        """Drop the first byte, then everything up to the next magic."""
        self._resync_total.inc()
        index = self._buffer.find(_MAGIC, 1)
        if index < 0:
            self._buffer.clear()
        else:
            del self._buffer[:index]

    def _try_decode(self) -> Optional[Frame]:
        if not self._buffer:
            return None
        if self._buffer[0] != _MAGIC:
            self._resync()
            raise ProtocolError("bad magic: stream out of sync")
        if len(self._buffer) < _HEADER.size:
            return None
        (_, op, flags, _, request_id, count, lba, length, crc
         ) = _HEADER.unpack_from(self._buffer)
        if length > MAX_PAYLOAD:
            self._resync()
            raise ProtocolError(f"implausible payload length {length}")
        end = _HEADER.size + length
        if len(self._buffer) < end:
            return None
        payload = bytes(self._buffer[_HEADER.size : end])
        del self._buffer[:end]
        try:
            if zlib.crc32(payload) != crc:
                raise ProtocolError("payload CRC mismatch")
            if op not in _KNOWN_OPS:
                raise ProtocolError(f"unknown op {op}")
        except ProtocolError as error:
            # The header was intact, so the reply can name its request.
            error.request_id = request_id
            raise
        self._frames.inc()
        return Frame(
            op=op, lba=lba, payload=payload, flags=flags,
            request_id=request_id, count=count,
        )

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)
