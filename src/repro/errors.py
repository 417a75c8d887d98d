"""The library-wide error model.

Every failure the storage stack reports to a caller is a
:class:`ReproError` subclass, and every failure the *protocol* reports
over the wire is a structured ``(code, message)`` pair carried in an
:data:`~repro.net.protocol.Op.ERROR` payload.  The two sides meet here:
each exception class maps to an :class:`ErrorCode`, and a received code
maps back to the exception the client should raise — so a typed error
survives a trip through the wire format.

The concrete classes double-inherit :class:`ValueError` because the
pre-v2 codebase raised bare ``ValueError`` everywhere; existing callers
catching ``ValueError`` keep working.
"""

from __future__ import annotations

import enum
import struct
from typing import Tuple, Type

__all__ = [
    "ReproError",
    "ProtocolError",
    "AlignmentError",
    "BucketFullError",
    "CapacityError",
    "ChunkDecodeError",
    "JournalCorruptError",
    "SnapshotError",
    "ThreadOwnershipError",
    "ErrorCode",
    "error_code_for",
    "exception_for_code",
    "encode_error_payload",
    "decode_error_payload",
]


class ReproError(Exception):
    """Base class for every error the storage stack raises."""


class ProtocolError(ReproError, ValueError):
    """A malformed, corrupt, or semantically invalid protocol frame."""

    #: Set by the frame decoder when the offending frame's header was
    #: intact (CRC mismatch, unknown op): the id its ``CORRUPT_FRAME``
    #: reply must carry to reach the waiting caller.
    request_id: int = 0


class AlignmentError(ReproError, ValueError):
    """A request's LBA or length violates chunk alignment."""


class CapacityError(ReproError, ValueError):
    """A resource (cache, container, queue) cannot hold the request."""


class BucketFullError(CapacityError):
    """An insert hit a Hash-PBN bucket that already holds
    :data:`~repro.datared.hash_pbn.BUCKET_CAPACITY` entries.

    The table's overflow-probing insert never surfaces this (it probes
    on to the next bucket); reaching a caller means a bucket was driven
    directly — a bug or a deliberately bucket-level tool.  Subclasses
    :class:`CapacityError`, so it maps to ``ErrorCode.CAPACITY`` on the
    wire and stays catchable as ``ValueError`` like the pre-v2 bare
    ``ValueError`` it replaces.
    """


class ChunkDecodeError(ReproError, ValueError):
    """A stored chunk payload cannot be turned back into its bytes.

    Raised by the one decode site (:func:`repro.datared.codecs.decode_chunk`)
    for a tag byte no decoder is registered under (or a retired one), a
    body its decoder cannot parse, and a body that decodes to the wrong
    length.  The request that hit it was well-formed — the *stored data*
    rotted — so it maps to ``ErrorCode.INTERNAL`` on the wire, not
    ``BAD_REQUEST``.
    """


class JournalCorruptError(ReproError, ValueError):
    """A journal image is semantically inconsistent and cannot be replayed.

    A torn *tail* is not corruption — recovery silently discards it and
    restores the acknowledged prefix.  This error is reserved for images
    whose *committed* prefix tells an impossible story: a duplicate
    NEW_CHUNK for a live PBN, a MAP to a PBN the journal never placed, a
    checkpoint whose encoded sections fail to decode.  Recovery never
    guesses past such a record — a typed failure always beats a silently
    wrong metadata image.
    """


class SnapshotError(ReproError, ValueError):
    """A snapshot operation named an unknown or conflicting snapshot."""


class ThreadOwnershipError(ReproError, RuntimeError):
    """A storage stack was called from a thread other than its owner.

    A :class:`~repro.datared.dedup.DedupEngine` and the system wrapping
    it belong to the thread that built them (DESIGN.md §5.3), as an
    sqlite3 connection does under ``check_same_thread``.  Raised before
    the call touches any state, so the owner finds the stack as it left
    it.  A bug in the caller, not in the request: ``ErrorCode.INTERNAL``
    on the wire.
    """


class ErrorCode(enum.IntEnum):
    """Structured codes carried in ``Op.ERROR`` payloads."""

    UNKNOWN = 0
    BAD_REQUEST = 1
    UNSUPPORTED_OP = 2
    ALIGNMENT = 3
    CAPACITY = 4
    CORRUPT_FRAME = 5
    INTERNAL = 6
    # 7 is retired (a deleted router's failure code) and is not reused:
    # an old peer's 7 decodes as UNKNOWN.


_CODE_FOR_EXCEPTION = (
    (AlignmentError, ErrorCode.ALIGNMENT),
    (CapacityError, ErrorCode.CAPACITY),
    (SnapshotError, ErrorCode.BAD_REQUEST),
    (ProtocolError, ErrorCode.BAD_REQUEST),
    (ReproError, ErrorCode.INTERNAL),
)

_EXCEPTION_FOR_CODE = {
    ErrorCode.UNKNOWN: ProtocolError,
    ErrorCode.BAD_REQUEST: ProtocolError,
    ErrorCode.UNSUPPORTED_OP: ProtocolError,
    ErrorCode.ALIGNMENT: AlignmentError,
    ErrorCode.CAPACITY: CapacityError,
    ErrorCode.CORRUPT_FRAME: ProtocolError,
    ErrorCode.INTERNAL: ReproError,
}


def error_code_for(exc: BaseException) -> ErrorCode:
    """The wire code a server reports for ``exc``."""
    for klass, code in _CODE_FOR_EXCEPTION:
        if isinstance(exc, klass):
            return code
    if isinstance(exc, ValueError):
        return ErrorCode.BAD_REQUEST
    return ErrorCode.UNKNOWN


def exception_for_code(code: int) -> Type[ReproError]:
    """The exception class a client raises for a received ``code``."""
    try:
        return _EXCEPTION_FOR_CODE[ErrorCode(code)]
    except ValueError:
        return ProtocolError


_ERROR_HEADER = struct.Struct(">H")


def encode_error_payload(code: ErrorCode, message: str) -> bytes:
    """Pack a structured error payload: 16-bit code + UTF-8 message."""
    return _ERROR_HEADER.pack(int(code)) + message.encode("utf-8")


def decode_error_payload(payload: bytes) -> Tuple[ErrorCode, str]:
    """Unpack an error payload: 16-bit code, then a UTF-8 message.

    Never raises — the caller is already on an error path.  A code this
    build does not know, or a payload shorter than the code field, reads
    as ``ErrorCode.UNKNOWN`` (the latter with an empty message).
    """
    if len(payload) < _ERROR_HEADER.size:
        return ErrorCode.UNKNOWN, ""
    (raw_code,) = _ERROR_HEADER.unpack_from(payload)
    try:
        code = ErrorCode(raw_code)
    except ValueError:
        code = ErrorCode.UNKNOWN
    message = payload[_ERROR_HEADER.size:].decode("utf-8", errors="replace")
    return code, message


def raise_for_error_payload(payload: bytes, context: str) -> None:
    """Raise the typed exception a structured error payload describes."""
    code, message = decode_error_payload(payload)
    raise exception_for_code(code)(f"{context}: {message}" if message else context)
