"""The simplified storage access protocol (paper §6.2), versions 1 and 2.

The prototype speaks "a simplified protocol (instead of a complete
protocol like iSCSI)": requests carry an operation type, an LBA, and
data; the flow is write→ack and read→ack-with-data.  This module
implements that wire format and both endpoints:

* frame encoding/decoding with length prefixes and a CRC (corrupt or
  truncated frames are detected, never mis-parsed, and the decoder
  resynchronizes on the next magic byte so one bad frame cannot wedge
  a connection),
* :class:`ProtocolServer` — decodes request frames, drives a
  :class:`~repro.systems.server.StorageServer`, encodes acks,
* :class:`ProtocolClient` — the mirror side, with a blocking-style API
  over any byte transport.

Two header versions coexist on the wire, distinguished by magic byte:

* **v1** (16 bytes, magic ``0xF1``): op, flags, LBA, length, CRC.  Reads
  smuggle their chunk count through the 1-byte ``flags`` field, so they
  cap at 255 chunks and responses carry no correlation id.
* **v2** (28 bytes, magic ``0xF2``): adds a 32-bit ``request_id`` (so a
  pipelined client can match out-of-order responses) and a dedicated
  32-bit ``count`` field, freeing ``flags`` to be actual flags.

Endpoints answer in the version the request arrived in, so a v2 server
is bidirectionally compatible with v1 peers.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from .. import obs as _obs
from ..obs.metrics import MetricsRegistry
from ..errors import (
    ErrorCode,
    ProtocolError,
    ReproError,
    encode_error_payload,
    error_code_for,
    raise_for_error_payload,
)
from ..systems.server import StorageServer

__all__ = [
    "Op",
    "Frame",
    "encode_frame",
    "encode_frame_v2",
    "encode_reply",
    "encode_error_reply",
    "encode_corrupt_reply",
    "FrameDecoder",
    "ProtocolError",
    "ProtocolServer",
    "ProtocolClient",
    "MAX_PAYLOAD",
    "bounded_count",
]

#: v1 header: magic, op, flags, reserved, lba, payload length, crc32(payload)
_HEADER_V1 = struct.Struct(">BBBBQII")
#: v2 header: magic, op, flags, reserved, request_id, count, lba, length, crc
_HEADER_V2 = struct.Struct(">BBBBIIQII")
_MAGIC_V1 = 0xF1
_MAGIC_V2 = 0xF2
_MAGICS = (_MAGIC_V1, _MAGIC_V2)

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
    #: v2-only: scrape the server's live metrics snapshot
    #: (``repro.stats/v1`` JSON).  A v1 STATS request is answered with a
    #: structured ``UNSUPPORTED_OP`` error, never a wedge.
    STATS = 6
    STATS_ACK = 7
    #: v2-only: drop ``count`` chunk mappings starting at ``lba``
    #: (TRIM/discard).  The scatter-gather router uses it to evict an
    #: LBA's stale mapping from a backend the LBA moved away from; a v1
    #: TRIM gets the same structured ``UNSUPPORTED_OP`` as STATS.
    TRIM = 8
    TRIM_ACK = 9
    #: v2-only: snapshot management.  The request payload is JSON —
    #: ``{"action": "create" | "delete" | "list" | "read", "name": ...}``
    #: — with ``read`` additionally using the header's ``lba``/``count``
    #: fields.  The ack payload is JSON for the management actions
    #: (pinned/reclaimed chunk count, name list) and raw chunk bytes for
    #: ``read``.  A v1 SNAP gets the same structured ``UNSUPPORTED_OP``
    #: as STATS/TRIM.
    SNAP = 10
    SNAP_ACK = 11


_KNOWN_OPS = (
    Op.WRITE, Op.READ, Op.WRITE_ACK, Op.READ_ACK, Op.ERROR,
    Op.STATS, Op.STATS_ACK, Op.TRIM, Op.TRIM_ACK, Op.SNAP, Op.SNAP_ACK,
)


@dataclass(frozen=True)
class Frame:
    """One decoded protocol frame.

    ``count`` is the v2 explicit chunk count; it stays ``None`` on v1
    frames, where reads encode the count in ``flags`` — use
    :attr:`read_count` for the version-independent value.
    """

    op: int
    lba: int
    payload: bytes = b""
    flags: int = 0
    version: int = 1
    request_id: int = 0
    count: Optional[int] = None

    @property
    def read_count(self) -> int:
        """The chunk count of a READ, whichever header carried it."""
        if self.count is not None:
            return max(1, self.count)
        return max(1, self.flags)


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


def _check_frame_fields(op: int, lba: int) -> None:
    if op not in _KNOWN_OPS:
        raise ProtocolError(f"unknown op {op}")
    if lba < 0:
        raise ProtocolError("negative LBA")


def encode_frame(op: int, lba: int, payload: bytes = b"", flags: int = 0) -> bytes:
    """Serialize one v1 frame (the pre-v2 wire format, unchanged)."""
    _check_frame_fields(op, lba)
    header = _HEADER_V1.pack(
        _MAGIC_V1, op, flags, 0, lba, len(payload), zlib.crc32(payload)
    )
    return header + payload


def encode_frame_v2(
    op: int,
    lba: int,
    payload: bytes = b"",
    *,
    request_id: int = 0,
    count: int = 0,
    flags: int = 0,
) -> bytes:
    """Serialize one v2 frame (request id + dedicated count field)."""
    _check_frame_fields(op, lba)
    if not 0 <= request_id < 1 << 32:
        raise ProtocolError(f"request_id {request_id} outside 32 bits")
    if not 0 <= count < 1 << 32:
        raise ProtocolError(f"count {count} outside 32 bits")
    header = _HEADER_V2.pack(
        _MAGIC_V2, op, flags, 0, request_id, count,
        lba, len(payload), zlib.crc32(payload),
    )
    return header + payload


def encode_reply(request: Frame, op: int, lba: int, payload: bytes = b"") -> bytes:
    """Encode a response in the same version the request arrived in."""
    if request.version == 2:
        return encode_frame_v2(op, lba, payload, request_id=request.request_id)
    return encode_frame(op, lba, payload)


def encode_error_reply(request: Frame, error: Exception) -> bytes:
    """The typed ``ERROR`` a failed request draws (``INTERNAL`` for what
    the storage stack did not type itself)."""
    typed = isinstance(error, (ReproError, ValueError))
    code = error_code_for(error) if typed else ErrorCode.INTERNAL
    payload = encode_error_payload(code, str(error))
    return encode_reply(request, Op.ERROR, request.lba, payload)


def encode_corrupt_reply(error: ProtocolError) -> bytes:
    """The ``CORRUPT_FRAME`` answer to a decode error, in kind: v2 with
    the request's id when its header survived (so a pipelined caller is
    failed, not left waiting), a v1 frame when only the magic was lost."""
    payload = encode_error_payload(ErrorCode.CORRUPT_FRAME, str(error))
    if error.version == 2:
        return encode_frame_v2(Op.ERROR, 0, payload, request_id=error.request_id)
    return encode_frame(Op.ERROR, 0, payload)


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
    ``proto.frames_v1_total`` / ``proto.frames_v2_total`` for decoded
    frames by wire version.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self._buffer = bytearray()
        reg = registry if registry is not None else _obs.get_registry()
        self._resync_total = reg.counter("proto.resync_total")
        self._frames_v1 = reg.counter("proto.frames_v1_total")
        self._frames_v2 = reg.counter("proto.frames_v2_total")

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

    def events(self, data: bytes) -> List[Union[Frame, ProtocolError]]:
        """Append stream bytes; returns frames and decode errors in wire
        order, resynchronizing after each error."""
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

    def _resync(self, skip: int) -> None:
        """Drop ``skip`` bytes, then everything up to the next magic."""
        self._resync_total.inc()
        del self._buffer[:skip]
        for index, byte in enumerate(self._buffer):
            if byte in _MAGICS:
                del self._buffer[:index]
                return
        self._buffer.clear()

    def _try_decode(self) -> Optional[Frame]:
        if not self._buffer:
            return None
        magic = self._buffer[0]
        if magic == _MAGIC_V1:
            header = _HEADER_V1
        elif magic == _MAGIC_V2:
            header = _HEADER_V2
        else:
            self._resync(1)
            raise ProtocolError("bad magic: stream out of sync")
        if len(self._buffer) < header.size:
            return None
        if magic == _MAGIC_V1:
            _, op, flags, _, lba, length, crc = header.unpack_from(self._buffer)
            request_id, count, version = 0, None, 1
        else:
            (_, op, flags, _, request_id, count, lba, length, crc
             ) = header.unpack_from(self._buffer)
            version = 2
        if length > MAX_PAYLOAD:
            self._resync(1)
            raise ProtocolError(f"implausible payload length {length}")
        end = header.size + length
        if len(self._buffer) < end:
            return None
        payload = bytes(self._buffer[header.size : end])
        del self._buffer[:end]
        try:
            if zlib.crc32(payload) != crc:
                raise ProtocolError("payload CRC mismatch")
            if op not in _KNOWN_OPS:
                raise ProtocolError(f"unknown op {op}")
        except ProtocolError as error:
            # The header was intact, so the reply can name its request.
            error.version, error.request_id = version, request_id
            raise
        if version == 1:
            self._frames_v1.inc()
        else:
            self._frames_v2.inc()
        return Frame(
            op=op, lba=lba, payload=payload, flags=flags,
            version=version, request_id=request_id, count=count,
        )

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


class ProtocolServer:
    """Server endpoint: request frames in, ack frames out.

    :meth:`handle_frame` is the transport-independent dispatch used by
    both this synchronous endpoint and the asyncio serving layer
    (:class:`~repro.net.aserver.AsyncProtocolServer`); it answers in the
    request's own protocol version and converts every storage-stack
    exception into a structured ``Op.ERROR`` frame.
    """

    def __init__(
        self,
        server: StorageServer,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.server = server
        self.registry = registry if registry is not None else _obs.get_registry()
        self._decoder = FrameDecoder(self.registry)
        self._v1_downgrades = self.registry.counter("proto.v1_downgrades_total")
        self.requests_served = 0
        self.frames_rejected = 0

    def handle_bytes(self, data: bytes) -> bytes:
        """Feed stream bytes; returns the concatenated response frames.

        Corrupt frames are answered with an ``Op.ERROR`` frame (code
        ``CORRUPT_FRAME``) rather than raised, so one bad client cannot
        crash the serving loop.
        """
        responses = []
        for event in self._decoder.events(data):
            if isinstance(event, ProtocolError):
                self.frames_rejected += 1
                responses.append(encode_corrupt_reply(event))
            else:
                responses.append(self.handle_frame(event))
        return b"".join(responses)

    def handle_frame(self, frame: Frame) -> bytes:
        """Dispatch one request frame; returns the encoded response."""
        self.requests_served += 1
        if frame.version == 1:
            # A v1 peer on a v2 server: the session works, but count the
            # downgrade so operators can see legacy clients linger.
            self._v1_downgrades.inc()
        try:
            if frame.op == Op.WRITE:
                if not frame.payload:
                    raise ProtocolError("empty write")
                self.server.write(frame.lba, frame.payload)
                # §7.6.1: the ack is immediate — data is durable in the
                # (battery-backed) NIC buffer, not yet reduced.
                return encode_reply(frame, Op.WRITE_ACK, frame.lba)
            if frame.op == Op.READ:
                data = self.server.read(frame.lba, bounded_count(frame, self.server.chunk_size))
                return encode_reply(frame, Op.READ_ACK, frame.lba, data)
            if frame.op == Op.STATS:
                if frame.version < 2:
                    # Old clients must get a well-formed typed error, not
                    # a dropped connection (v1<->v2 interop guarantee).
                    return encode_reply(
                        frame, Op.ERROR, frame.lba,
                        encode_error_payload(
                            ErrorCode.UNSUPPORTED_OP,
                            "STATS requires protocol v2",
                        ),
                    )
                payload = json.dumps(
                    _obs.snapshot(self.registry),
                    separators=(",", ":"),
                    allow_nan=False,
                ).encode("utf-8")
                return encode_reply(frame, Op.STATS_ACK, 0, payload)
            if frame.op == Op.TRIM:
                if frame.version < 2:
                    return encode_reply(
                        frame, Op.ERROR, frame.lba,
                        encode_error_payload(
                            ErrorCode.UNSUPPORTED_OP,
                            "TRIM requires protocol v2",
                        ),
                    )
                self.server.trim(frame.lba, bounded_count(frame, self.server.chunk_size))
                return encode_reply(frame, Op.TRIM_ACK, frame.lba)
            if frame.op == Op.SNAP:
                if frame.version < 2:
                    return encode_reply(
                        frame, Op.ERROR, frame.lba,
                        encode_error_payload(
                            ErrorCode.UNSUPPORTED_OP,
                            "SNAP requires protocol v2",
                        ),
                    )
                return self._handle_snap(frame)
            raise ProtocolError(f"unexpected op {frame.op}")
        except (ReproError, ValueError) as error:
            return encode_error_reply(frame, error)

    def _handle_snap(self, frame: Frame) -> bytes:
        """Dispatch one SNAP management request (v2 was checked)."""
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


class ProtocolClient:
    """Client endpoint with a call-style API over a request function.

    ``transport`` is any callable ``bytes -> bytes`` (e.g. a
    :meth:`ProtocolServer.handle_bytes` bound method, or a socket shim).
    ``version`` selects the emitted wire format; both are decoded.
    Error responses raise the typed exception their structured payload
    names (:mod:`repro.errors`).
    """

    def __init__(self, transport, version: int = 2):
        if version not in (1, 2):
            raise ProtocolError(f"unknown protocol version {version}")
        self._transport = transport
        self._decoder = FrameDecoder()
        self.version = version
        self._next_request_id = 0

    def _encode_request(self, op: int, lba: int, payload: bytes = b"",
                        count: int = 0) -> bytes:
        if self.version == 1:
            if count > 255:
                raise ProtocolError(
                    f"v1 reads cap at 255 chunks (asked for {count}); "
                    "use protocol version 2"
                )
            return encode_frame(op, lba, payload, flags=count)
        self._next_request_id = (self._next_request_id + 1) % (1 << 32)
        return encode_frame_v2(
            op, lba, payload, request_id=self._next_request_id, count=count
        )

    def _roundtrip(self, request: bytes) -> Frame:
        frames = self._decoder.feed(self._transport(request))
        if not frames:
            raise ProtocolError("no response frame")
        return frames[0]

    def write(self, lba: int, payload: bytes) -> None:
        response = self._roundtrip(self._encode_request(Op.WRITE, lba, payload))
        if response.op != Op.WRITE_ACK:
            raise_for_error_payload(response.payload, "write failed")

    def read(self, lba: int, num_chunks: int = 1) -> bytes:
        response = self._roundtrip(
            self._encode_request(Op.READ, lba, count=num_chunks)
        )
        if response.op != Op.READ_ACK:
            raise_for_error_payload(response.payload, "read failed")
        return response.payload

    def trim(self, lba: int, num_chunks: int = 1) -> None:
        """Drop ``num_chunks`` chunk mappings at ``lba`` (v2-only)."""
        if self.version < 2:
            raise ProtocolError("TRIM requires protocol version 2")
        response = self._roundtrip(
            self._encode_request(Op.TRIM, lba, count=num_chunks)
        )
        if response.op != Op.TRIM_ACK:
            raise_for_error_payload(response.payload, "trim failed")

    def _snap_roundtrip(
        self, body: Dict[str, Any], lba: int = 0, count: int = 0
    ) -> Frame:
        if self.version < 2:
            raise ProtocolError("SNAP requires protocol version 2")
        payload = json.dumps(
            body, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
        response = self._roundtrip(
            self._encode_request(Op.SNAP, lba, payload, count=count)
        )
        if response.op != Op.SNAP_ACK:
            raise_for_error_payload(response.payload, "snap failed")
        return response

    def create_snapshot(self, name: str) -> int:
        """Pin the server's current acked state under ``name`` (v2-only).

        Returns the number of pinned chunk mappings."""
        response = self._snap_roundtrip({"action": "create", "name": name})
        return int(json.loads(response.payload.decode("utf-8"))["pinned"])

    def delete_snapshot(self, name: str) -> int:
        """Drop snapshot ``name``; returns chunks reclaimed (v2-only)."""
        response = self._snap_roundtrip({"action": "delete", "name": name})
        return int(json.loads(response.payload.decode("utf-8"))["reclaimed"])

    def snapshots(self) -> List[str]:
        """List the server's snapshot names (v2-only)."""
        response = self._snap_roundtrip({"action": "list"})
        names = json.loads(response.payload.decode("utf-8"))["snapshots"]
        return [str(name) for name in names]

    def read_snapshot(self, name: str, lba: int, num_chunks: int = 1) -> bytes:
        """Read chunks at ``lba`` as of snapshot ``name`` (v2-only)."""
        response = self._snap_roundtrip(
            {"action": "read", "name": name}, lba=lba, count=num_chunks
        )
        return response.payload

    def stats(self) -> Dict[str, Any]:
        """Scrape the server's live ``repro.stats/v1`` snapshot.

        v2-only: a v1 client fails locally with :class:`ProtocolError`
        (and a v1 STATS frame sent anyway is answered by the server with
        a structured ``UNSUPPORTED_OP`` error).
        """
        if self.version < 2:
            raise ProtocolError("STATS requires protocol version 2")
        response = self._roundtrip(self._encode_request(Op.STATS, 0))
        if response.op != Op.STATS_ACK:
            raise_for_error_payload(response.payload, "stats failed")
        payload: Dict[str, Any] = json.loads(response.payload.decode("utf-8"))
        return payload
