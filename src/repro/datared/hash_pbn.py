"""The Hash-PBN table (paper §2.1.3).

A bucket-based key-value store mapping 32-byte chunk fingerprints to
6-byte physical block numbers.  Each bucket is one 4-KB page — the same
granularity as a table-cache line and a table-SSD block — holding up to
107 entries of 38 bytes.

The table reads and writes buckets through a :class:`BucketStore`, which
lets the cache subsystem (:mod:`repro.cache.table_cache`) interpose a
host-memory cache over table SSDs exactly as the paper's architecture
does.  Bucket overflow uses bucket-granular linear probing with a sticky
per-bucket overflow bit, so lookups and deletes stay correct after any
insertion history.

Memory discipline (DESIGN.md §5.8): the hot path operates on **packed**
pages in place.  :class:`PackedBucket` is a cursor over a compact page —
no per-entry tuples, no decode allocation, no bytes past its last entry
— and the only page representation the table knows; the decoded
entry-list bucket it replaced lives on in ``tests/datared/reference.py``
as the model the differential suites compare every page against.  Every
lookup, insert, remove and update probes its home chain through
whatever store is below, so a store that accounts page traffic (the
table cache under the calibrated device models) sees every bucket
access the walk makes.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import BucketFullError, CapacityError
from .hashing import FINGERPRINT_SIZE, MAX_PBN, PBN_SIZE

__all__ = [
    "ENTRY_SIZE",
    "BUCKET_SIZE",
    "BUCKET_CAPACITY",
    "EMPTY_PAGE",
    "PackedBucket",
    "BucketStore",
    "InMemoryBucketStore",
    "HashPbnTable",
    "table_bytes_for_capacity",
    "buckets_for_capacity",
]

#: One table entry: 32-byte fingerprint + 6-byte PBN (§2.1.3).
ENTRY_SIZE = FINGERPRINT_SIZE + PBN_SIZE

#: Buckets are 4-KB pages, matching table-cache lines and SSD blocks.
BUCKET_SIZE = 4096

_HEADER = struct.Struct(">HB")  # entry count, flags
_FLAG_OVERFLOWED = 0x01

#: Entries that fit in one bucket after the 3-byte header (107).
BUCKET_CAPACITY = (BUCKET_SIZE - _HEADER.size) // ENTRY_SIZE

#: An empty bucket — zero entries, no flags — is the all-zero page; what
#: every store reads back for a bucket that was never written.
EMPTY_PAGE = bytes(BUCKET_SIZE)


class PackedBucket:
    """A cursor over one packed bucket page, operated on in place.

    Holds a reference into a backing ``bytearray`` and performs every
    operation directly on the page bytes: lookups run a C-speed aligned
    ``find`` over the entry region, inserts write the 38-byte entry
    into the next slot, removes close the vacated slot.  The page is
    **compact**: it ends at its last entry (3 + 38 bytes per entry),
    grows by one entry per insert and shrinks by one per remove, and
    :meth:`to_bytes` pads it with the zeros a full page would hold, so
    the exported page stays **byte identical** to what the decoded
    reference bucket (``tests/datared/reference.py``) would serialize
    after the same operation history — the property the differential
    suite pins.
    """

    __slots__ = ("buf",)

    def __init__(self, buf: bytearray) -> None:
        self.buf = buf

    @classmethod
    def empty(cls) -> "PackedBucket":
        """A compact page holding no entries: its 3-byte header."""
        return cls(bytearray(_HEADER.size))

    @classmethod
    def from_page(
        cls, raw: Union[bytes, bytearray, memoryview]
    ) -> "PackedBucket":
        """A compact copy of the 4-KB page ``raw`` (header and entries;
        the rest of a bucket page is zero); validates size and entry
        count."""
        if len(raw) != BUCKET_SIZE:
            raise ValueError(
                f"bucket pages are {BUCKET_SIZE} bytes, got {len(raw)}"
            )
        count = (raw[0] << 8) | raw[1]
        if count > BUCKET_CAPACITY:
            raise ValueError(f"corrupt bucket: {count} entries")
        return cls(bytearray(raw[: _HEADER.size + count * ENTRY_SIZE]))  # repro-lint: copy-ok private mutable page

    # -- header ------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        return (self.buf[0] << 8) | self.buf[1]

    def _set_count(self, count: int) -> None:
        self.buf[0] = (count >> 8) & 0xFF
        self.buf[1] = count & 0xFF

    @property
    def overflowed(self) -> bool:
        return bool(self.buf[2] & _FLAG_OVERFLOWED)

    @overflowed.setter
    def overflowed(self, value: bool) -> None:
        if value:
            self.buf[2] |= _FLAG_OVERFLOWED
        else:
            self.buf[2] &= ~_FLAG_OVERFLOWED & 0xFF

    @property
    def is_full(self) -> bool:
        return self.entry_count >= BUCKET_CAPACITY

    # -- entry operations --------------------------------------------------
    def _find(self, digest: bytes) -> int:
        """Byte offset of ``digest``'s entry in ``buf``, or -1.

        ``bytearray.find`` scans at memcpy speed; a hit is only real
        when it lands on an entry boundary, so misaligned matches (the
        needle straddling two entries) skip forward.
        """
        if len(digest) != FINGERPRINT_SIZE:
            raise ValueError("fingerprints are 32 bytes")
        pos = self.buf.find(digest, _HEADER.size)
        while pos >= 0:
            if (pos - _HEADER.size) % ENTRY_SIZE == 0:
                return pos
            pos = self.buf.find(digest, pos + 1)
        return -1

    def lookup(self, digest: bytes) -> Optional[int]:
        pos = self._find(digest)
        if pos < 0:
            return None
        return int.from_bytes(
            self.buf[pos + FINGERPRINT_SIZE : pos + ENTRY_SIZE], "big"
        )

    def insert(self, digest: bytes, pbn: int) -> None:
        if len(digest) != FINGERPRINT_SIZE:
            raise ValueError("fingerprints are 32 bytes")
        count = self.entry_count
        if count >= BUCKET_CAPACITY:
            raise BucketFullError(
                f"bucket already holds {BUCKET_CAPACITY} entries"
            )
        self.buf += digest
        self.buf += pbn.to_bytes(PBN_SIZE, "big")
        self._set_count(count + 1)

    def remove(self, digest: bytes) -> bool:
        pos = self._find(digest)
        if pos < 0:
            return False
        del self.buf[pos : pos + ENTRY_SIZE]
        self._set_count(self.entry_count - 1)
        return True

    def update(self, digest: bytes, pbn: int) -> bool:
        """Repoint an existing entry at a new PBN; False if absent."""
        pos = self._find(digest)
        if pos < 0:
            return False
        self.buf[pos + FINGERPRINT_SIZE : pos + ENTRY_SIZE] = pbn.to_bytes(
            PBN_SIZE, "big"
        )
        return True

    # -- interop -----------------------------------------------------------
    @property
    def entries(self) -> List[Tuple[bytes, int]]:
        """Decoded entry list (tests and tooling; not the hot path)."""
        out: List[Tuple[bytes, int]] = []
        offset = _HEADER.size
        for _ in range(self.entry_count):
            digest = bytes(self.buf[offset : offset + FINGERPRINT_SIZE])
            pbn = int.from_bytes(
                self.buf[offset + FINGERPRINT_SIZE : offset + ENTRY_SIZE],
                "big",
            )
            out.append((digest, pbn))
            offset += ENTRY_SIZE
        return out

    def to_bytes(self) -> bytes:
        """Export the 4-KB page: one copy, a compact page padded with
        zeros (the packed page itself stays private to its store)."""
        return bytes(self.buf).ljust(BUCKET_SIZE, b"\0")  # repro-lint: copy-ok page export at the byte-store boundary


class BucketStore:
    """Backing store interface for table buckets (4-KB pages), in two
    forms that count a page access alike (DESIGN.md §5.8).  The table
    uses the *packed* methods; stores that hold :class:`PackedBucket`
    pages override them, so the table mutates the resident page in
    place.  The byte-page methods serve pages that are not
    bucket-encoded; the packed defaults wrap them at one page copy per access.
    """

    def read_bucket(self, index: int) -> bytes:
        raise NotImplementedError

    def write_bucket(self, index: int, page: bytes) -> None:
        raise NotImplementedError

    def load_packed(self, index: int) -> PackedBucket:
        """Packed read; default wraps the byte page (one page copy,
        no per-entry decode)."""
        return PackedBucket.from_page(self.read_bucket(index))

    def store_packed(self, index: int, bucket: PackedBucket) -> None:
        """Packed write; default exports to a byte page."""
        self.write_bucket(index, bucket.to_bytes())

    def replay(self) -> None:
        """Settle whatever the store defers to the end of a batch; the
        engine calls it at every group-commit barrier.  A plain store
        defers nothing (the table cache replays its access trace)."""


class InMemoryBucketStore(BucketStore):
    """Dict-backed store; unwritten buckets read back empty.

    One dict serves both page forms (:class:`BucketStore`): a page
    converts lazily on the first access in the other form, so mixed
    access per index stays coherent, and ``reads``/``writes`` count
    page accesses identically in both.

    A page that holds nothing — a packed page with zero entries and no
    overflow flag, or the all-zero byte page — has no home (DESIGN.md
    §5.8): storing one drops the bucket from the dict, and it reads
    back empty as a never-written bucket does.  A page whose only
    content is the overflow flag stays, since probe chains run through
    it.
    """

    def __init__(self) -> None:
        self._pages: Dict[int, Union[bytes, PackedBucket]] = {}
        self.reads = 0
        self.writes = 0

    def read_bucket(self, index: int) -> bytes:
        self.reads += 1
        page = self._pages.get(index)
        if page is None:
            return EMPTY_PAGE
        if isinstance(page, PackedBucket):
            return page.to_bytes()
        return page

    def write_bucket(self, index: int, page: bytes) -> None:
        if len(page) != BUCKET_SIZE:
            raise ValueError("bucket pages must be 4 KB")
        self.writes += 1
        if page != EMPTY_PAGE:
            self._pages[index] = page
        else:
            self._pages.pop(index, None)

    def load_packed(self, index: int) -> PackedBucket:  # repro-lint: hot-path
        self.reads += 1
        page = self._pages.get(index)
        if page is None:
            return PackedBucket.empty()
        if not isinstance(page, PackedBucket):
            page = PackedBucket.from_page(page)
            self._pages[index] = page
        return page

    def store_packed(self, index: int, bucket: PackedBucket) -> None:  # repro-lint: hot-path
        self.writes += 1
        if len(bucket.buf) > _HEADER.size or bucket.buf[2]:
            self._pages[index] = bucket
        else:
            self._pages.pop(index, None)

    def empty_pages(self) -> List[int]:
        """Stored buckets whose page holds nothing (none, when every
        write went through this store's methods)."""
        return sorted(
            index
            for index, page in self._pages.items()
            if (
                not (page.entry_count or page.buf[2])
                if isinstance(page, PackedBucket)
                else page == EMPTY_PAGE
            )
        )


class HashPbnTable:
    """Fingerprint → PBN store over a bucket-granular backing store.

    All bucket IO flows through the injected :class:`BucketStore`; the
    table itself holds no pages, so a cached store sees every access.
    Pages are operated on in place through :class:`PackedBucket`.
    """

    def __init__(
        self,
        num_buckets: int,
        store: Optional[BucketStore] = None,
    ) -> None:
        if num_buckets < 1:
            raise ValueError("need at least one bucket")
        self.num_buckets = num_buckets
        self.store = store if store is not None else InMemoryBucketStore()
        self.entry_count = 0
        self.probe_count = 0  # buckets touched, for locality analysis

    # -- helpers -------------------------------------------------------------
    def _home(self, digest: bytes) -> int:  # repro-lint: hot-path
        # Inlined bucket_index() without its argument validation — the
        # table mints every digest it sees through fingerprint(), so the
        # 32-byte invariant holds structurally.
        return int.from_bytes(digest[-8:], "big") % self.num_buckets  # repro-lint: copy-ok 8-byte index slice

    def _load(self, index: int) -> PackedBucket:  # repro-lint: hot-path
        self.probe_count += 1
        return self.store.load_packed(index)

    # -- operations ------------------------------------------------------------
    def lookup(self, digest: bytes) -> Optional[int]:
        """Return the PBN stored for ``digest``, or ``None`` if unique."""
        index = self._home(digest)
        for _ in range(self.num_buckets):
            bucket = self._load(index)
            pbn = bucket.lookup(digest)
            if pbn is not None:
                return pbn
            if not bucket.overflowed:
                return None
            index = (index + 1) % self.num_buckets
        return None

    def lookup_many(
        self, digests: Sequence[bytes]
    ) -> List[Optional[int]]:
        """:meth:`lookup` of each digest, in order."""
        return [self.lookup(digest) for digest in digests]

    def insert(self, digest: bytes, pbn: int) -> None:
        """Insert a new fingerprint.  The caller must have checked
        uniqueness via :meth:`lookup` (the dedup flow always does).
        A table with every bucket full refuses with
        :class:`~repro.errors.CapacityError`; the engine checks
        :attr:`is_full` before it stores the chunk, so it never gets
        that far with state to unwind."""
        if not 0 <= pbn <= MAX_PBN:
            raise ValueError(f"PBN {pbn} out of range")
        if len(digest) != FINGERPRINT_SIZE:
            raise ValueError("fingerprints are 32 bytes")
        index = self._home(digest)
        for _ in range(self.num_buckets):
            bucket = self._load(index)
            if not bucket.is_full:
                bucket.insert(digest, pbn)
                self.store.store_packed(index, bucket)
                self.entry_count += 1
                return
            if not bucket.overflowed:
                bucket.overflowed = True
                self.store.store_packed(index, bucket)
            index = (index + 1) % self.num_buckets
        raise CapacityError("Hash-PBN table is full")

    def remove(self, digest: bytes) -> bool:
        """Remove a fingerprint (garbage collection of freed chunks)."""
        index = self._home(digest)
        for _ in range(self.num_buckets):
            bucket = self._load(index)
            if bucket.remove(digest):
                self.store.store_packed(index, bucket)
                self.entry_count -= 1
                return True
            if not bucket.overflowed:
                return False
            index = (index + 1) % self.num_buckets
        return False

    def update(self, digest: bytes, pbn: int) -> bool:
        """Repoint an existing fingerprint at a new PBN (defragmentation)."""
        index = self._home(digest)
        for _ in range(self.num_buckets):
            bucket = self._load(index)
            if bucket.update(digest, pbn):
                self.store.store_packed(index, bucket)
                return True
            if not bucket.overflowed:
                return False
            index = (index + 1) % self.num_buckets
        return False

    def __len__(self) -> int:
        return self.entry_count

    @property
    def is_full(self) -> bool:
        return self.entry_count >= self.num_buckets * BUCKET_CAPACITY

    @property
    def load_factor(self) -> float:
        return self.entry_count / (self.num_buckets * BUCKET_CAPACITY)


def table_bytes_for_capacity(unique_bytes: int, chunk_size: int = 4096) -> int:
    """Raw Hash-PBN metadata size for a given unique-data capacity.

    Reproduces §2.1.3's sizing: 1 PB of unique 4-KB chunks needs
    ``1e15 / 4096 * 38 ≈ 9.3 TB`` of table (the paper rounds to 9.5 TB).
    """
    if unique_bytes < 0 or chunk_size <= 0:
        raise ValueError("sizes must be non-negative / positive")
    return (unique_bytes // chunk_size) * ENTRY_SIZE


def buckets_for_capacity(unique_bytes: int, chunk_size: int = 4096,
                         load_factor: float = 0.7) -> int:
    """Bucket count sized so the table runs at ``load_factor`` occupancy."""
    if not 0 < load_factor <= 1:
        raise ValueError("load_factor must be in (0, 1]")
    chunks = max(1, unique_bytes // chunk_size)
    return max(1, int(chunks / (BUCKET_CAPACITY * load_factor)) + 1)
