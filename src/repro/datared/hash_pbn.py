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
pages in place.  :class:`PackedBucket` is a cursor over the raw page
bytes — no per-entry tuples, no decode allocation, and outside an
:class:`ArenaBucketStore` no bytes past its last entry — and the only
page representation the table knows; the decoded entry-list bucket it
replaced lives on in ``tests/datared/reference.py`` as the model the
differential suites compare every page against.
:class:`NegativeFilter` keeps a compact per-home-bucket multiset
of 16-bit digest prefixes so lookups of absent fingerprints (the
unique-heavy common case) skip bucket probing entirely, and
:meth:`HashPbnTable.lookup_many` batches resolution: repeated digests
within a batch resolve once and unique digests probe in home-bucket
order so bucket loads (and table-cache lines) are touched once per
batch.  Stores that *account* page traffic (the table cache under the
calibrated device models) keep the exact per-lookup access pattern: the
filter and batched resolve are on exactly over the private in-memory
stores (:attr:`HashPbnTable.private_store`).
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
    "PREFIX_SIZE",
    "PackedBucket",
    "NegativeFilter",
    "BucketStore",
    "InMemoryBucketStore",
    "ArenaBucketStore",
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

#: Digest-prefix width the negative filter keys on (first two bytes).
PREFIX_SIZE = 2


class PackedBucket:
    """A cursor over one packed bucket page, operated on in place.

    Holds a reference into a backing ``bytearray`` and performs every
    operation directly on the page bytes: lookups run a C-speed aligned
    ``find`` over the entry region, inserts write the 38-byte entry
    into the next slot, removes close the vacated slot.  The page is
    either a 4-KB slot of an :class:`ArenaBucketStore` arena at
    ``base`` or a private **compact** page that ends at its last entry
    (3 + 38 bytes per entry): a compact page grows by one entry per
    insert and shrinks by one per remove, and :meth:`to_bytes` pads it
    with the zeros a full page would hold.  Either way the exported
    page stays **byte identical** to what the decoded reference bucket
    (``tests/datared/reference.py``) would serialize after the same
    operation history — the property the differential suite pins.
    """

    __slots__ = ("buf", "base")

    def __init__(self, buf: bytearray, base: int = 0) -> None:
        self.buf = buf
        self.base = base

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
        base = self.base
        return (self.buf[base] << 8) | self.buf[base + 1]

    def _set_count(self, count: int) -> None:
        base = self.base
        self.buf[base] = (count >> 8) & 0xFF
        self.buf[base + 1] = count & 0xFF

    @property
    def overflowed(self) -> bool:
        return bool(self.buf[self.base + 2] & _FLAG_OVERFLOWED)

    @overflowed.setter
    def overflowed(self, value: bool) -> None:
        if value:
            self.buf[self.base + 2] |= _FLAG_OVERFLOWED
        else:
            self.buf[self.base + 2] &= ~_FLAG_OVERFLOWED & 0xFF

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
        lo = self.base + _HEADER.size
        hi = lo + self.entry_count * ENTRY_SIZE
        pos = self.buf.find(digest, lo, hi)
        while pos >= 0:
            if (pos - lo) % ENTRY_SIZE == 0:
                return pos
            pos = self.buf.find(digest, pos + 1, hi)
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
        # On a compact page ``offset`` is its end, so both slice
        # assignments append.
        offset = self.base + _HEADER.size + count * ENTRY_SIZE
        self.buf[offset : offset + FINGERPRINT_SIZE] = digest
        self.buf[offset + FINGERPRINT_SIZE : offset + ENTRY_SIZE] = (
            pbn.to_bytes(PBN_SIZE, "big")
        )
        self._set_count(count + 1)

    def remove(self, digest: bytes) -> bool:
        pos = self._find(digest)
        if pos < 0:
            return False
        count = self.entry_count
        end = self.base + _HEADER.size + count * ENTRY_SIZE
        if end == len(self.buf):
            # A compact page ends at its last entry: drop the slot.
            del self.buf[pos : pos + ENTRY_SIZE]
        else:
            # A 4-KB page: shift the tail left over the vacated slot
            # (slice assignment copies the source first, so overlap is
            # safe), then zero the freed last slot, so the page reads
            # back exactly as the reference bucket would serialize it.
            self.buf[pos : end - ENTRY_SIZE] = self.buf[pos + ENTRY_SIZE : end]
            self.buf[end - ENTRY_SIZE : end] = bytes(ENTRY_SIZE)
        self._set_count(count - 1)
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
        offset = self.base + _HEADER.size
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
        page = bytes(self.buf[self.base : self.base + BUCKET_SIZE])  # repro-lint: copy-ok page export at the byte-store boundary
        return page.ljust(BUCKET_SIZE, b"\0")


class NegativeFilter:
    """Compact per-home-bucket multiset of 16-bit digest prefixes.

    Answers "might this digest be in the table?" without touching any
    bucket page.  Every resident fingerprint contributes the 16-bit
    prefix of its digest under its **home** bucket (where its probe
    sequence starts — overflowed entries stay filed under their home),
    so a lookup whose prefix is absent from the home's multiset can
    return "unique" with zero bucket probes.  With ~100 entries per
    bucket the false-maybe rate is ~100/65536 ≈ 0.2%, so unique-heavy
    workloads skip essentially all probing.  False negatives are
    structurally impossible: membership is checked before any add is
    ever dropped (dense mode saturates a bucket *sticky* — it then
    answers "maybe" forever).

    Two storage modes share the API:

    * sparse (default) — a lazy dict of per-home prefix blobs; pays
      only for touched buckets, suits the default engine's mostly-empty
      2^16-bucket table.
    * ``dense=True`` — one flat preallocated slot array
      (:data:`BUCKET_CAPACITY` prefixes + a 16-bit count per bucket,
      ~2 bytes/entry); suits :class:`ArenaBucketStore` tables sized to
      run full, where per-object overheads would dominate.
    """

    #: Dense-mode count sentinel: the home exceeded its slot capacity;
    #: membership answers "maybe" forever (sticky, like overflow bits).
    _SATURATED = 0xFFFF

    def __init__(self, num_buckets: int, dense: bool = False) -> None:
        if num_buckets < 1:
            raise ValueError("need at least one bucket")
        self.num_buckets = num_buckets
        self.dense = dense
        self._blobs: Dict[int, bytearray] = {}
        #: Dense mode only (empty otherwise): flat slot arena plus a
        #: 16-bit per-home occupancy count.
        self._slots: bytearray = (
            bytearray(num_buckets * BUCKET_CAPACITY * PREFIX_SIZE)
            if dense else bytearray()
        )
        self._counts: bytearray = (
            bytearray(num_buckets * 2) if dense else bytearray()
        )

    # -- dense helpers -----------------------------------------------------
    def _dense_count(self, home: int) -> int:
        counts = self._counts
        return (counts[home * 2] << 8) | counts[home * 2 + 1]

    def _set_dense_count(self, home: int, count: int) -> None:
        counts = self._counts
        counts[home * 2] = (count >> 8) & 0xFF
        counts[home * 2 + 1] = count & 0xFF

    @staticmethod
    def _aligned_find(blob: Union[bytes, bytearray], prefix: bytes,
                      lo: int, hi: int) -> int:
        pos = blob.find(prefix, lo, hi)
        while pos >= 0:
            if (pos - lo) % PREFIX_SIZE == 0:
                return pos
            pos = blob.find(prefix, pos + 1, hi)
        return -1

    # -- operations --------------------------------------------------------
    def might_contain(self, home: int, digest: bytes) -> bool:
        prefix = digest[:PREFIX_SIZE]  # repro-lint: copy-ok 2-byte filter needle
        if self.dense:
            count = self._dense_count(home)
            if count == self._SATURATED:
                return True
            lo = home * BUCKET_CAPACITY * PREFIX_SIZE
            return self._aligned_find(
                self._slots, prefix, lo, lo + count * PREFIX_SIZE
            ) >= 0
        blob = self._blobs.get(home)
        if blob is None:
            return False
        return self._aligned_find(blob, prefix, 0, len(blob)) >= 0

    def add(self, home: int, digest: bytes) -> None:
        prefix = digest[:PREFIX_SIZE]  # repro-lint: copy-ok 2-byte filter needle
        if self.dense:
            count = self._dense_count(home)
            if count == self._SATURATED:
                return
            if count >= BUCKET_CAPACITY:
                # More same-home entries than slots (deep overflow
                # chains): give up on this home, sticky.
                self._set_dense_count(home, self._SATURATED)
                return
            slots = self._slots
            offset = (home * BUCKET_CAPACITY + count) * PREFIX_SIZE
            slots[offset : offset + PREFIX_SIZE] = prefix
            self._set_dense_count(home, count + 1)
            return
        blob = self._blobs.get(home)
        if blob is None:
            blob = self._blobs[home] = bytearray()
        blob.extend(prefix)

    def discard(self, home: int, digest: bytes) -> None:
        """Drop one occurrence of the digest's prefix under ``home``.

        The filter is a multiset, so removing one of several equal
        prefixes keeps the rest visible; order within a home does not
        matter, so removal swaps the last prefix into the hole.
        """
        prefix = digest[:PREFIX_SIZE]  # repro-lint: copy-ok 2-byte filter needle
        if self.dense:
            count = self._dense_count(home)
            if count == self._SATURATED or count == 0:
                return
            lo = home * BUCKET_CAPACITY * PREFIX_SIZE
            hi = lo + count * PREFIX_SIZE
            pos = self._aligned_find(self._slots, prefix, lo, hi)
            if pos < 0:
                return
            slots = self._slots
            slots[pos : pos + PREFIX_SIZE] = slots[hi - PREFIX_SIZE : hi]
            slots[hi - PREFIX_SIZE : hi] = bytes(PREFIX_SIZE)
            self._set_dense_count(home, count - 1)
            return
        blob = self._blobs.get(home)
        if blob is None:
            return
        pos = self._aligned_find(blob, prefix, 0, len(blob))
        if pos < 0:
            return
        blob[pos : pos + PREFIX_SIZE] = blob[-PREFIX_SIZE:]
        del blob[-PREFIX_SIZE:]
        if not blob:
            del self._blobs[home]


class BucketStore:
    """Backing store interface for table buckets (4-KB pages), in two
    forms that count a page access alike (DESIGN.md §5.8).  The table
    uses the *packed* methods; stores that hold :class:`PackedBucket`
    pages override them, so the table mutates the resident page in
    place.  The byte-page methods serve pages that are not
    bucket-encoded (:class:`~repro.datared.lba_store.PagedLbaStore`);
    the packed defaults wrap them at one page copy per access.
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


class InMemoryBucketStore(BucketStore):
    """Dict-backed store; unwritten buckets read back empty.

    One dict serves both page forms (:class:`BucketStore`): a page
    converts lazily on the first access in the other form, so mixed
    access per index stays coherent, and ``reads``/``writes`` count
    page accesses identically in both.
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
        self._pages[index] = page

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
        self._pages[index] = bucket


class ArenaBucketStore(BucketStore):
    """All buckets in one preallocated flat arena (DESIGN.md §5.8).

    The memory-dense configuration for tables sized to run near
    capacity: pages live at fixed offsets of a single ``bytearray``, so
    the resident cost is exactly :data:`BUCKET_SIZE` per bucket — no
    dict entry, no per-page object header — and :meth:`load_packed`
    hands out a zero-copy :class:`PackedBucket` cursor into the arena.
    Allocation is eager (``num_buckets × 4 KB`` up front), which is why
    this is not the default store for sparsely-filled tables.
    """

    def __init__(self, num_buckets: int) -> None:
        if num_buckets < 1:
            raise ValueError("need at least one bucket")
        self.num_buckets = num_buckets
        self._arena = bytearray(num_buckets * BUCKET_SIZE)
        self.reads = 0
        self.writes = 0

    def _check(self, index: int) -> None:
        if not 0 <= index < self.num_buckets:
            raise IndexError(
                f"bucket {index} outside arena of {self.num_buckets}"
            )

    def read_bucket(self, index: int) -> bytes:
        self._check(index)
        self.reads += 1
        base = index * BUCKET_SIZE
        return bytes(self._arena[base : base + BUCKET_SIZE])  # repro-lint: copy-ok page export at the byte-store boundary

    def write_bucket(self, index: int, page: bytes) -> None:
        self._check(index)
        if len(page) != BUCKET_SIZE:
            raise ValueError("bucket pages must be 4 KB")
        self.writes += 1
        base = index * BUCKET_SIZE
        self._arena[base : base + BUCKET_SIZE] = page

    def load_packed(self, index: int) -> PackedBucket:  # repro-lint: hot-path
        self._check(index)
        self.reads += 1
        return PackedBucket(self._arena, index * BUCKET_SIZE)

    def store_packed(self, index: int, bucket: PackedBucket) -> None:  # repro-lint: hot-path
        self._check(index)
        self.writes += 1
        if bucket.buf is not self._arena or bucket.base != index * BUCKET_SIZE:
            # A foreign page (built elsewhere): copy it into place.
            base = index * BUCKET_SIZE
            self._arena[base : base + BUCKET_SIZE] = bucket.to_bytes()
        # Arena-resident cursors mutated in place; nothing to move.


class HashPbnTable:
    """Fingerprint → PBN store over a bucket-granular backing store.

    All bucket IO flows through the injected :class:`BucketStore`; the
    table itself holds no pages, so a cached store sees every access.

    Pages are operated on in place through :class:`PackedBucket`.  The
    :class:`NegativeFilter` probe-skip is armed exactly when
    :attr:`private_store` holds: an interposing store such as the table
    cache feeds the calibrated device models from its page accounting
    and must keep the exact per-lookup access pattern.
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
        #: True when no accounting store interposes on page traffic —
        #: the condition under which probe-skipping/batching fast paths
        #: cannot perturb a calibrated device model.
        self.private_store = isinstance(
            self.store, (InMemoryBucketStore, ArenaBucketStore)
        )
        self.filter: Optional[NegativeFilter] = (
            NegativeFilter(
                num_buckets, dense=isinstance(self.store, ArenaBucketStore)
            )
            if self.private_store
            else None
        )
        self.entry_count = 0
        self.probe_count = 0  # buckets touched, for locality analysis
        #: Lookups the negative filter resolved with zero bucket probes.
        self.filter_hits = 0
        #: Lookups the filter passed through to the probe loop.
        self.filter_misses = 0
        #: Table probes :meth:`lookup_many` skipped because the digest
        #: repeated within the batch (the intra-batch dedupe).
        self.saved_batch_lookups = 0

    # -- helpers -------------------------------------------------------------
    def _home(self, digest: bytes) -> int:  # repro-lint: hot-path
        # Inlined bucket_index() without its argument validation — the
        # table mints every digest it sees through fingerprint(), so the
        # 32-byte invariant holds structurally.
        return int.from_bytes(digest[-8:], "big") % self.num_buckets  # repro-lint: copy-ok 8-byte index slice

    def _load(self, index: int) -> PackedBucket:  # repro-lint: hot-path
        self.probe_count += 1
        return self.store.load_packed(index)

    def _filter_says_absent(self, home: int, digest: bytes) -> bool:  # repro-lint: hot-path
        """Consult the negative filter; True means skip all probes."""
        if self.filter is None:
            return False
        if self.filter.might_contain(home, digest):
            self.filter_misses += 1
            return False
        self.filter_hits += 1
        return True

    # -- operations ------------------------------------------------------------
    def lookup(self, digest: bytes) -> Optional[int]:
        """Return the PBN stored for ``digest``, or ``None`` if unique."""
        index = self._home(digest)
        if self._filter_says_absent(index, digest):
            return None
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
        """Resolve a batch of digests against the current table state.

        Three batch effects the per-call :meth:`lookup` cannot get
        (DESIGN.md §5.8): repeated digests resolve once (counted in
        :attr:`saved_batch_lookups`), unique digests probe in home-
        bucket order, and every bucket loaded during the call is reused
        for the rest of it — so a batch touches each bucket once no
        matter how many digests land in it.  Results are positionally
        aligned with ``digests`` and identical to calling ``lookup``
        per digest.  Read-only: callers interleaving mutations must
        re-resolve affected digests themselves (the engine's batched
        write path keeps an override map for exactly that).
        """
        unique_of: Dict[bytes, int] = {}
        unique: List[bytes] = []
        for digest in digests:
            if digest not in unique_of:
                unique_of[digest] = len(unique)
                unique.append(digest)
        self.saved_batch_lookups += len(digests) - len(unique)

        homes = [self._home(digest) for digest in unique]
        order = sorted(range(len(unique)), key=homes.__getitem__)
        results: List[Optional[int]] = [None] * len(unique)
        loaded: Dict[int, PackedBucket] = {}
        for position in order:
            digest = unique[position]
            home = homes[position]
            if self._filter_says_absent(home, digest):
                continue
            index = home
            for _ in range(self.num_buckets):
                bucket = loaded.get(index)
                if bucket is None:
                    bucket = self._load(index)
                    loaded[index] = bucket
                else:
                    self.probe_count += 1
                pbn = bucket.lookup(digest)
                if pbn is not None:
                    results[position] = pbn
                    break
                if not bucket.overflowed:
                    break
                index = (index + 1) % self.num_buckets
        return [results[unique_of[digest]] for digest in digests]

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
        home = self._home(digest)
        index = home
        for _ in range(self.num_buckets):
            bucket = self._load(index)
            if not bucket.is_full:
                bucket.insert(digest, pbn)
                self.store.store_packed(index, bucket)
                self.entry_count += 1
                if self.filter is not None:
                    self.filter.add(home, digest)
                return
            if not bucket.overflowed:
                bucket.overflowed = True
                self.store.store_packed(index, bucket)
            index = (index + 1) % self.num_buckets
        raise CapacityError("Hash-PBN table is full")

    def remove(self, digest: bytes) -> bool:
        """Remove a fingerprint (garbage collection of freed chunks)."""
        home = self._home(digest)
        if self._filter_says_absent(home, digest):
            return False
        index = home
        for _ in range(self.num_buckets):
            bucket = self._load(index)
            if bucket.remove(digest):
                self.store.store_packed(index, bucket)
                self.entry_count -= 1
                if self.filter is not None:
                    self.filter.discard(home, digest)
                return True
            if not bucket.overflowed:
                return False
            index = (index + 1) % self.num_buckets
        return False

    def update(self, digest: bytes, pbn: int) -> bool:
        """Repoint an existing fingerprint at a new PBN (defragmentation)."""
        index = self._home(digest)
        if self._filter_says_absent(index, digest):
            return False
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
