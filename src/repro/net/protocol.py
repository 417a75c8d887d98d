"""The simplified storage access protocol (paper §6.2).

The prototype speaks "a simplified protocol (instead of a complete
protocol like iSCSI)": requests carry an operation type, an LBA, and
data; the flow is write→ack and read→ack-with-data.  This module
implements that wire format and its transport-free server half:

* frame encoding/decoding with length prefixes and a CRC (corrupt or
  truncated frames are detected, never mis-parsed, and the decoder
  resynchronizes on the next magic byte so one bad frame cannot wedge
  a connection),
* :class:`ProtocolServer` — dispatches one decoded request frame to a
  :class:`~repro.systems.server.StorageServer` and encodes the ack.

Sockets, queues and the client live in :mod:`repro.net.aserver`.

One frame layout: a 28-byte header (magic ``0xF2``, op, flags, a 32-bit
``request_id`` so a pipelined client can match out-of-order responses,
a 32-bit chunk ``count``, LBA, payload length, payload CRC-32) followed
by the payload.  A reply carries its request's ``request_id``.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Union

from .. import obs as _obs
from ..obs.metrics import MetricsRegistry
from ..errors import (
    ErrorCode,
    ProtocolError,
    ReproError,
    encode_error_payload,
    error_code_for,
)
from ..systems.server import StorageServer

__all__ = [
    "Op",
    "Frame",
    "encode_frame",
    "encode_reply",
    "encode_error_reply",
    "encode_corrupt_reply",
    "FrameDecoder",
    "ProtocolError",
    "ProtocolServer",
    "MAX_PAYLOAD",
    "bounded_count",
]

#: header: magic, op, flags, reserved, request_id, count, lba, length, crc
_HEADER = struct.Struct(">BBBBIIQII")
_HEADER_SIZE = _HEADER.size
_MAGIC = 0xF2

#: Upper bound on a frame payload; a "length" beyond this is treated as
#: stream corruption rather than waited for (it would stall the decoder
#: on gigabytes that are never coming).
MAX_PAYLOAD = 64 * 1024 * 1024


class Op:
    WRITE = 1
    READ = 2
    WRITE_ACK = 3
    READ_ACK = 4
    ERROR = 5
    #: Scrape the server's live metrics snapshot (``repro.stats/v1``
    #: JSON).
    STATS = 6
    STATS_ACK = 7
    #: Drop ``count`` chunk mappings starting at ``lba`` (TRIM/discard);
    #: trimmed LBAs read back as zeros.
    TRIM = 8
    TRIM_ACK = 9
    #: Snapshot management.  The request payload is JSON —
    #: ``{"action": "create" | "delete" | "list" | "read", "name": ...}``
    #: — with ``read`` additionally using the header's ``lba``/``count``
    #: fields.  The ack payload is JSON for the management actions
    #: (pinned/reclaimed chunk count, name list) and raw chunk bytes for
    #: ``read``.
    SNAP = 10
    SNAP_ACK = 11


_KNOWN_OPS = frozenset((
    Op.WRITE, Op.READ, Op.WRITE_ACK, Op.READ_ACK, Op.ERROR,
    Op.STATS, Op.STATS_ACK, Op.TRIM, Op.TRIM_ACK, Op.SNAP, Op.SNAP_ACK,
))


class Frame(NamedTuple):
    """One decoded protocol frame (a tuple: one is built per op,
    DESIGN.md §5.4)."""

    op: int
    lba: int
    payload: bytes = b""
    flags: int = 0
    request_id: int = 0
    count: int = 0

    @property
    def read_count(self) -> int:
        """The chunk count of a READ/TRIM (an unset count means one)."""
        return max(1, self.count)


#: ``Frame`` from its full field tuple, skipping the argument parsing
#: of the generated ``__new__`` (~0.2 us of a decoded frame's ~0.5).
_new_frame = tuple.__new__


def bounded_count(frame: Frame, chunk_size: int) -> int:
    """``frame.read_count``, refused before the storage stack is touched
    when that many chunks could not travel back in one frame (READ,
    SNAP read) — the same bound caps how long a TRIM holds the lock."""
    count = frame.read_count
    if count * chunk_size > MAX_PAYLOAD:
        raise ProtocolError(
            f"count {count} exceeds the {MAX_PAYLOAD // chunk_size} "
            f"{chunk_size}-byte chunks one frame carries"
        )
    return count


def encode_frame(
    op: int,
    lba: int,
    payload: bytes = b"",
    *,
    request_id: int = 0,
    count: int = 0,
    flags: int = 0,
) -> bytes:
    """Serialize one frame."""
    if op not in _KNOWN_OPS:
        raise ProtocolError(f"unknown op {op}")
    try:
        header = _HEADER.pack(
            _MAGIC, op, flags, 0, request_id, count,
            lba, len(payload), zlib.crc32(payload),
        )
    except struct.error:
        # Name the field the header could not hold.
        if lba < 0:
            raise ProtocolError("negative LBA") from None
        if not 0 <= request_id < 1 << 32:
            raise ProtocolError(f"request_id {request_id} outside 32 bits") from None
        if not 0 <= count < 1 << 32:
            raise ProtocolError(f"count {count} outside 32 bits") from None
        raise
    return header + payload


def encode_reply(request: Frame, op: int, lba: int, payload: bytes = b"") -> bytes:
    """Encode a response carrying its request's id.  ``op`` is a reply
    op and the id and LBA come from a decoded header, so the header is
    packed as is; a field no header holds raises :class:`struct.error`."""
    return _HEADER.pack(
        _MAGIC, op, 0, 0, request.request_id, 0,
        lba, len(payload), zlib.crc32(payload),
    ) + payload


def encode_error_reply(request: Frame, error: Exception) -> bytes:
    """The typed ``ERROR`` a failed request draws (``INTERNAL`` for what
    the storage stack did not type itself).  A request built through the
    API rather than decoded may carry an LBA or id no header holds; its
    reply names LBA 0 or id 0 instead, as :func:`encode_corrupt_reply`
    does, so the failure is still the reply and never escapes."""
    typed = isinstance(error, (ReproError, ValueError))
    code = error_code_for(error) if typed else ErrorCode.INTERNAL
    payload = encode_error_payload(code, str(error))
    lba = request.lba if 0 <= request.lba < 1 << 64 else 0
    request_id = request.request_id if 0 <= request.request_id < 1 << 32 else 0
    return encode_frame(Op.ERROR, lba, payload, request_id=request_id)


def encode_corrupt_reply(error: ProtocolError) -> bytes:
    """The ``CORRUPT_FRAME`` answer to a decode error, carrying the
    request's id when its header survived (so a pipelined caller is
    failed, not left waiting) and id 0 when the magic itself was lost."""
    payload = encode_error_payload(ErrorCode.CORRUPT_FRAME, str(error))
    return encode_frame(Op.ERROR, 0, payload, request_id=error.request_id)


class FrameDecoder:
    """Incremental decoder over a byte stream (frames may arrive split
    or coalesced, as on a real TCP stream).

    Corruption never wedges the stream: a bad magic byte makes the
    decoder scan forward to the next plausible header, and a CRC
    mismatch or unknown op discards exactly the offending frame, so the
    next :meth:`feed` resumes decoding from clean bytes.

    Protocol-level events that used to vanish into the resync logic are
    counted into ``registry`` (default: the process registry):
    ``proto.resync_total`` for corruption recoveries and
    ``proto.frames_total`` for decoded frames.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self._buffer = bytearray()
        reg = registry if registry is not None else _obs.get_registry()
        self._resync_total = reg.counter("proto.resync_total")
        self._frames = reg.counter("proto.frames_total")

    def feed(self, data: bytes) -> List[Frame]:
        """Append stream bytes; returns every complete frame.

        Raises :class:`ProtocolError` on the first corrupt frame (after
        resynchronizing the buffer past it); frames decoded later in the
        same call are lost to the caller, so servers should prefer
        :meth:`events`, which reports errors in-line instead of raising.
        """
        frames: List[Frame] = []
        for event in self.events(data):
            if isinstance(event, ProtocolError):
                raise event
            frames.append(event)
        return frames

    def events(self, data: bytes) -> List[Union[Frame, ProtocolError]]:  # repro-lint: hot-path
        """Append stream bytes; returns frames and decode errors in wire
        order, resynchronizing after each error.

        One pass per call: the walk moves an offset over the buffer,
        unpacks each header in place and copies each payload out once,
        then deletes the consumed prefix once.  A bad magic or an
        implausible length drops that byte and scans to the next magic;
        a CRC mismatch or unknown op drops exactly that frame, and its
        error carries the frame's ``request_id``.
        """
        buffer = self._buffer
        buffer += data
        size = len(buffer)
        out: List[Union[Frame, ProtocolError]] = []
        append, unpack, crc32, known = out.append, _HEADER.unpack_from, zlib.crc32, _KNOWN_OPS
        at = frames = 0
        view = memoryview(buffer)
        try:
            while at < size:
                if buffer[at] != _MAGIC:
                    at = self._resync(at)
                    append(ProtocolError("bad magic: stream out of sync"))
                    continue
                if size - at < _HEADER_SIZE:
                    break
                (_, op, flags, _, request_id, count, lba, length, crc
                 ) = unpack(buffer, at)
                if length > MAX_PAYLOAD:
                    at = self._resync(at)
                    append(ProtocolError(f"implausible payload length {length}"))
                    continue
                start = at + _HEADER_SIZE
                end = start + length
                if end > size:
                    break
                # Immutable bytes: the engine stages views of a WRITE
                # payload until its batch runs (DESIGN.md §5.4).
                payload = view[start:end].tobytes()  # repro-lint: copy-ok each payload leaves the stream buffer once, as bytes
                at = end
                if crc32(payload) != crc:
                    error = ProtocolError("payload CRC mismatch")
                elif op not in known:
                    error = ProtocolError(f"unknown op {op}")
                else:
                    frames += 1
                    append(_new_frame(Frame, (op, lba, payload, flags, request_id, count)))
                    continue
                # The header was intact, so the reply can name its request.
                error.request_id = request_id
                append(error)
        finally:
            view.release()
        del buffer[:at]
        if frames:
            self._frames.inc(frames)
        return out

    def _resync(self, at: int) -> int:
        """Where decoding resumes after the bad header at ``at``: past
        its first byte, at the next magic (the buffer's end if none)."""
        self._resync_total.inc()
        index = self._buffer.find(_MAGIC, at + 1)
        return len(self._buffer) if index < 0 else index

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


class ProtocolServer:
    """Server endpoint: one request frame in, one ack frame out.

    :meth:`handle_group` is the transport-free dispatch the asyncio
    serving layer (:class:`~repro.net.aserver.AsyncProtocolServer`) calls
    on its event loop's thread, one :meth:`handle_frame` per request; every
    storage-stack exception becomes a structured ``Op.ERROR`` frame.
    """

    def __init__(
        self,
        server: StorageServer,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.server = server
        self.registry = registry if registry is not None else _obs.get_registry()
        self.requests_served = 0
        #: A run of READs whose shared pass the next READ handled performs,
        #: and ``id(frame)`` -> its result from that pass, until handled.
        self._run: Sequence[Frame] = ()
        self._slices: Dict[int, Union[bytes, Exception]] = {}

    def handle_group(self, events: Sequence[Union[Frame, ProtocolError]]) -> List[bytes]:
        """One reply per queued event, in order: a frame's ack, a decode
        error's ``CORRUPT_FRAME``; a failure is that op's reply and
        nothing else's.  A run — two or more consecutive READs; anything
        else between two READs ends it, so a read still sees the write
        queued before it — is one ``read_extents`` pass."""
        replies = []
        run_end = 0
        for index, event in enumerate(events):
            if isinstance(event, ProtocolError):
                replies.append(encode_corrupt_reply(event))
                continue
            if index >= run_end and event.op == Op.READ:
                run_end = index + 1
                while run_end < len(events) and getattr(events[run_end], "op", 0) == Op.READ:
                    run_end += 1
                self._run = events[index:run_end] if run_end - index > 1 else ()
            try:
                replies.append(self.handle_frame(event))
            except Exception as error:  # never kill the caller's worker
                replies.append(encode_error_reply(event, error))
        return replies

    def _read(self, frame: Frame) -> bytes:
        """One READ's bytes: its slice of its run's shared pass — which
        the run's first READ performs — or a pass of its own: outside a
        run, or to draw the error of a count no reply frame can carry."""
        chunk_size = self.server.chunk_size
        if self._run:
            run, self._run = self._run, ()
            extents = {}
            for member in run:
                try:
                    extents[id(member)] = (member.lba, bounded_count(member, chunk_size))
                except ProtocolError:
                    continue  # its own pass below draws the error
            self._slices = dict(zip(extents, self.server.read_extents(list(extents.values()))))
        if id(frame) not in self._slices:
            return self.server.read(frame.lba, bounded_count(frame, chunk_size))
        data = self._slices.pop(id(frame))
        if isinstance(data, Exception):
            raise data
        return data

    def handle_frame(self, frame: Frame) -> bytes:
        """Dispatch one request frame; returns the encoded response."""
        self.requests_served += 1
        try:
            if frame.op == Op.WRITE:
                if not frame.payload:
                    raise ProtocolError("empty write")
                self.server.write(frame.lba, frame.payload)
                # §7.6.1: the ack is immediate — data is durable in the
                # (battery-backed) NIC buffer, not yet reduced.
                return encode_reply(frame, Op.WRITE_ACK, frame.lba)
            if frame.op == Op.READ:
                return encode_reply(frame, Op.READ_ACK, frame.lba, self._read(frame))
            if frame.op == Op.STATS:
                payload = json.dumps(
                    _obs.snapshot(self.registry),
                    separators=(",", ":"),
                    allow_nan=False,
                ).encode("utf-8")
                return encode_reply(frame, Op.STATS_ACK, 0, payload)
            if frame.op == Op.TRIM:
                self.server.trim(frame.lba, bounded_count(frame, self.server.chunk_size))
                return encode_reply(frame, Op.TRIM_ACK, frame.lba)
            if frame.op == Op.SNAP:
                return self._handle_snap(frame)
            raise ProtocolError(f"unexpected op {frame.op}")
        except (ReproError, ValueError) as error:
            return encode_error_reply(frame, error)

    def _handle_snap(self, frame: Frame) -> bytes:
        """Dispatch one SNAP management request."""
        try:
            request = json.loads(frame.payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(f"malformed SNAP payload: {error}") from None
        if not isinstance(request, dict):
            raise ProtocolError("SNAP payload must be a JSON object")
        action = request.get("action")
        name = request.get("name")

        def reply_json(body: Dict[str, Any]) -> bytes:
            payload = json.dumps(
                body, separators=(",", ":"), allow_nan=False
            ).encode("utf-8")
            return encode_reply(frame, Op.SNAP_ACK, frame.lba, payload)

        if action == "list":
            return reply_json({"snapshots": self.server.snapshots()})
        if not isinstance(name, str) or not name:
            raise ProtocolError("SNAP action needs a non-empty string name")
        if action == "create":
            return reply_json({"pinned": self.server.create_snapshot(name)})
        if action == "delete":
            return reply_json({"reclaimed": self.server.delete_snapshot(name)})
        if action == "read":
            data = self.server.read_snapshot(
                name, frame.lba, bounded_count(frame, self.server.chunk_size)
            )
            return encode_reply(frame, Op.SNAP_ACK, frame.lba, data)
        raise ProtocolError(f"unknown SNAP action {action!r}")
