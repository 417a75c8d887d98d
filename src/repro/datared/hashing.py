"""Chunk fingerprinting (paper §2.1.2).

Deduplication identifies chunks by a strong cryptographic fingerprint so
that signature equality implies content equality with no practical
collision risk at PB scale.  The paper's prototype uses an open-source
SHA-256 RTL core; we use :mod:`hashlib`'s SHA-256, which is semantically
identical.

The module also provides the fixed-width encodings the Hash-PBN table
needs: 32-byte fingerprints and 6-byte physical block numbers (§2.1.3).

There is one algorithm, so it is a constant: :data:`SHA256`, the
:class:`Fingerprinter` every engine and NIC model defaults to.
The class is the seam a test injects a counting or colliding stand-in
through; whatever is injected must emit :data:`FINGERPRINT_SIZE` (32)
bytes — the Hash-PBN table's entry layout, the bucket index function,
and the wire protocol all assume that width.  Unlike codecs,
fingerprints leave **no on-disk tag**: the digest *is* the dedup
identity.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Union

#: Anything the fingerprint functions accept: ``hashlib`` consumes the
#: buffer protocol directly, so chunk views need no materialization.
Buffer = Union[bytes, bytearray, memoryview]

__all__ = [
    "FINGERPRINT_SIZE",
    "PBN_SIZE",
    "MAX_PBN",
    "Fingerprinter",
    "Sha256Fingerprinter",
    "SHA256",
    "fingerprint",
    "fingerprint_many",
    "bucket_index",
    "encode_pbn",
    "decode_pbn",
]

#: SHA-256 digest width in bytes (the "32 bytes for hash" of §2.1.3).
FINGERPRINT_SIZE = 32

#: Physical block number width in bytes ("6 bytes for PBN", §2.1.3).
PBN_SIZE = 6

#: Largest PBN representable in 6 bytes (2^48 - 1); with 4-KB chunks this
#: addresses 2^48 * 4 KB = 1 ZB, comfortably beyond PB scale.
MAX_PBN = (1 << (8 * PBN_SIZE)) - 1


_sha256 = hashlib.sha256


def fingerprint(data: Buffer) -> bytes:
    """SHA-256 fingerprint of a chunk's content (views hash in place)."""
    return _sha256(data).digest()


def fingerprint_many(chunks: Iterable[Buffer]) -> List[bytes]:  # repro-lint: hot-path
    """Fingerprint a batch of chunks (the NIC hashes per batch, §5.4),
    in input order, on the calling thread."""
    sha256 = _sha256
    return [sha256(data).digest() for data in chunks]


class Fingerprinter:
    """Fingerprint contract: 32 bytes of content identity.

    ``digest_size`` must equal :data:`FINGERPRINT_SIZE` — the engine
    refuses anything else, because the Hash-PBN entry layout (§2.1.3)
    and the wire protocol both hard-code 32-byte digests.
    """

    name = "custom"
    digest_size = FINGERPRINT_SIZE

    def digest(self, data: Buffer) -> bytes:
        raise NotImplementedError

    def digest_many(self, chunks: Iterable[Buffer]) -> List[bytes]:  # repro-lint: hot-path
        """Fingerprint a batch, in input order."""
        digest = self.digest
        return [digest(data) for data in chunks]


class Sha256Fingerprinter(Fingerprinter):
    """The default: SHA-256, as in the paper's NIC RTL core (§5.4)."""

    name = "sha256"

    def digest(self, data: Buffer) -> bytes:  # repro-lint: hot-path
        return _sha256(data).digest()

    def digest_many(self, chunks: Iterable[Buffer]) -> List[bytes]:  # repro-lint: hot-path
        return fingerprint_many(chunks)


#: The algorithm: module-level :func:`fingerprint` /
#: :func:`fingerprint_many` remain the zero-indirection fast path, and
#: this object is the same SHA-256 behind the :class:`Fingerprinter`
#: interface.
SHA256 = Sha256Fingerprinter()


def bucket_index(digest: bytes, num_buckets: int) -> int:
    """Map a fingerprint to its Hash-PBN bucket (the paper's "simple
    modular function", §2.1.3).

    The digest's low 8 bytes are interpreted as an unsigned integer and
    reduced modulo the bucket count.  SHA-256 output is uniform, so this
    spreads load evenly regardless of ``num_buckets``.
    """
    if num_buckets <= 0:
        raise ValueError(f"num_buckets must be positive, got {num_buckets}")
    if len(digest) < 8:
        raise ValueError("digest too short to derive a bucket index")
    return int.from_bytes(digest[-8:], "big") % num_buckets


def encode_pbn(pbn: int) -> bytes:
    """Pack a physical block number into its 6-byte on-disk form."""
    if not 0 <= pbn <= MAX_PBN:
        raise ValueError(f"PBN {pbn} out of 6-byte range")
    return pbn.to_bytes(PBN_SIZE, "big")


def decode_pbn(raw: bytes) -> int:
    """Unpack a 6-byte physical block number."""
    if len(raw) != PBN_SIZE:
        raise ValueError(f"PBN encoding must be {PBN_SIZE} bytes, got {len(raw)}")
    return int.from_bytes(raw, "big")
