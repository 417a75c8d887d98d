"""Chunk fingerprinting (paper §2.1.2).

Deduplication identifies chunks by a strong cryptographic fingerprint so
that signature equality implies content equality with no practical
collision risk at PB scale.  The paper's prototype uses an open-source
SHA-256 RTL core; we use :mod:`hashlib`'s SHA-256, which is semantically
identical.

The module also provides the fixed-width encodings the Hash-PBN table
needs: 32-byte fingerprints and 6-byte physical block numbers (§2.1.3).

Fingerprinting mirrors the codec plugin shape
(:mod:`repro.datared.codecs`): a :class:`Fingerprinter` registry with
``sha256`` as the always-available default and ``blake3`` as an
optional plugin (install the ``codecs`` extras group).  Every algorithm
must emit :data:`FINGERPRINT_SIZE` (32) bytes — the Hash-PBN table's
entry layout, the bucket index function, and the wire protocol all
assume that width.  Unlike codecs, fingerprints leave **no on-disk
tag**: the digest *is* the dedup identity, so switching algorithms
mid-stream simply stops deduplicating against old chunks (a
cross-algorithm digest never matches).  Pick one per deployment.
"""

from __future__ import annotations

import hashlib
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Union,
)

from ..errors import MissingDependencyError

if TYPE_CHECKING:  # pragma: no cover
    from ..parallel import StagePool

try:  # optional: the `codecs` extras group
    import blake3
except ImportError:  # pragma: no cover - environment-dependent
    blake3 = None

#: Anything the fingerprint functions accept: ``hashlib`` consumes the
#: buffer protocol directly, so chunk views need no materialization.
Buffer = Union[bytes, bytearray, memoryview]

__all__ = [
    "FINGERPRINT_SIZE",
    "PBN_SIZE",
    "MAX_PBN",
    "Fingerprinter",
    "Sha256Fingerprinter",
    "Blake3Fingerprinter",
    "SHA256",
    "register_fingerprinter",
    "create_fingerprinter",
    "fingerprinter_names",
    "fingerprinter_available",
    "available_fingerprinters",
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


def fingerprint_many(
    chunks: Iterable[Buffer], pool: Optional["StagePool"] = None, min_batch: int = 0
) -> List[bytes]:  # repro-lint: hot-path
    """Fingerprint a batch of chunks (the NIC hashes per batch, §5.4).

    ``pool`` is an optional :class:`~repro.parallel.StagePool`; when it
    is parallel the batch fans out across its worker threads
    (``hashlib`` releases the GIL on 4-KB buffers), otherwise the batch
    is hashed inline.  A *process*-backed pool is deliberately not used
    here: SHA-256 over 4 KB costs a few microseconds, far below the
    pickling cost of shipping the buffer to another process, and chunk
    views cannot cross the IPC boundary without materializing.  Batches
    under ``min_batch`` chunks hash inline on any pool.  Results are in
    input order either way.
    """
    if pool is not None and not pool.requires_pickling:
        return pool.map(fingerprint, chunks, min_batch=min_batch)
    sha256 = _sha256
    return [sha256(data).digest() for data in chunks]


class Fingerprinter:
    """Fingerprint plugin contract: 32 bytes of content identity.

    The hashing twin of the :data:`repro.datared.codecs.Codec` contract.
    ``digest_size`` must equal :data:`FINGERPRINT_SIZE` — the registry
    enforces it, because the Hash-PBN entry layout (§2.1.3) and the wire
    protocol both hard-code 32-byte digests.
    """

    name = "custom"
    digest_size = FINGERPRINT_SIZE

    def digest(self, data: Buffer) -> bytes:
        raise NotImplementedError

    def digest_many(
        self, chunks: Iterable[Buffer], pool: Optional["StagePool"] = None, min_batch: int = 0
    ) -> List[bytes]:  # repro-lint: hot-path
        """Fingerprint a batch, in input order.

        Mirrors :func:`fingerprint_many`'s pool policy: fan out on a
        thread-backed pool (both ``hashlib`` and ``blake3`` release the
        GIL on 4-KB buffers), hash inline on a serial or process-backed
        one — a 4-KB digest costs microseconds, far below IPC pickling.
        """
        if pool is not None and not pool.requires_pickling:
            return pool.map(self.digest, chunks, min_batch=min_batch)
        digest = self.digest
        return [digest(data) for data in chunks]


class Sha256Fingerprinter(Fingerprinter):
    """The default: SHA-256, as in the paper's NIC RTL core (§5.4)."""

    name = "sha256"

    def digest(self, data: Buffer) -> bytes:  # repro-lint: hot-path
        return _sha256(data).digest()

    def digest_many(
        self, chunks: Iterable[Buffer], pool: Optional["StagePool"] = None, min_batch: int = 0
    ) -> List[bytes]:  # repro-lint: hot-path
        return fingerprint_many(chunks, pool, min_batch)


class Blake3Fingerprinter(Fingerprinter):
    """BLAKE3 fingerprints: same 32-byte width, markedly faster hashing.

    Requires the optional ``blake3`` module (``repro[codecs]``).  The
    default BLAKE3 output length is exactly
    :data:`FINGERPRINT_SIZE`, so every fixed-width consumer (table
    entries, wire digests) is untouched by the swap.
    """

    name = "blake3"

    def __init__(self) -> None:
        if blake3 is None:
            raise MissingDependencyError(
                "the 'blake3' fingerprinter requires the 'blake3' module "
                "(install the repro[codecs] extras)"
            )
        self._hasher = blake3.blake3

    def digest(self, data: Buffer) -> bytes:  # repro-lint: hot-path
        return self._hasher(data).digest()


#: Shared default instance: module-level :func:`fingerprint` /
#: :func:`fingerprint_many` remain the zero-indirection fast path, and
#: this object is the same algorithm behind the plugin interface.
SHA256 = Sha256Fingerprinter()


class _FingerprinterEntry(NamedTuple):
    factory: Callable[..., Fingerprinter]
    available: Callable[[], bool]


_FINGERPRINTERS: Dict[str, _FingerprinterEntry] = {}


def register_fingerprinter(
    name: str,
    factory: Callable[..., Fingerprinter],
    *,
    available: Optional[Callable[[], bool]] = None,
    replace: bool = False,
) -> None:
    """Register a fingerprint algorithm under ``name``."""
    if not name:
        raise ValueError("fingerprinter name must be non-empty")
    if not replace and name in _FINGERPRINTERS:
        raise ValueError(f"fingerprinter {name!r} is already registered")
    _FINGERPRINTERS[name] = _FingerprinterEntry(
        factory, available if available is not None else _always
    )


def _always() -> bool:
    return True


def _blake3_importable() -> bool:
    return blake3 is not None


def fingerprinter_names() -> List[str]:
    """Every registered fingerprinter name, available or not."""
    return sorted(_FINGERPRINTERS)


def fingerprinter_available(name: str) -> bool:
    """Whether ``name`` is registered and its backing library imports."""
    entry = _FINGERPRINTERS.get(name)
    return entry is not None and entry.available()


def available_fingerprinters() -> List[str]:
    """The fingerprinter names that can be constructed here."""
    return [
        name
        for name in fingerprinter_names()
        if _FINGERPRINTERS[name].available()
    ]


def create_fingerprinter(name: str, **params: object) -> Fingerprinter:
    """Build the fingerprinter registered as ``name``.

    Raises ``ValueError`` for an unknown name or a wrong digest width,
    :class:`~repro.errors.MissingDependencyError` when the backing
    library is absent.
    """
    entry = _FINGERPRINTERS.get(name)
    if entry is None:
        raise ValueError(
            f"unknown fingerprinter {name!r}; registered: "
            f"{', '.join(fingerprinter_names())}"
        )
    if not entry.available():
        raise MissingDependencyError(
            f"fingerprinter {name!r} is registered but its backing library "
            "is not installed (install the repro[codecs] extras)"
        )
    algo = entry.factory(**params)
    if algo.digest_size != FINGERPRINT_SIZE:
        raise ValueError(
            f"fingerprinter {name!r} emits {algo.digest_size}-byte digests; "
            f"the Hash-PBN table requires {FINGERPRINT_SIZE}"
        )
    return algo


register_fingerprinter("sha256", Sha256Fingerprinter)
register_fingerprinter(
    "blake3", Blake3Fingerprinter, available=_blake3_importable
)


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
