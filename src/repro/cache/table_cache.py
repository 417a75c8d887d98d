"""The Hash-PBN table cache (paper §2.1.3, §4.3, §5.5).

Only a small slice of the multi-TB Hash-PBN table fits in host DRAM; the
rest lives on dedicated *table SSDs*.  :class:`TableCache` is the cached
bucket store both systems share functionally — it implements the
:class:`~repro.datared.hash_pbn.BucketStore` interface, so a
:class:`~repro.datared.hash_pbn.HashPbnTable` layered on top transparently
runs through the cache.

What differs between the baseline and FIDR is *where the cache machinery
runs*, not what it does:

* baseline — the CPU walks a software B+-tree index, manages the free
  list and LRU, and drives the table-SSD IO stack (Table 2's overheads);
* FIDR — tree indexing, free-list handling and table-SSD queues move to
  the Cache HW-Engine; the CPU only scans cached bucket *content* in
  host memory (§5.5).

Both variants use this class; the system layers charge the per-event
costs (CPU cycles, DRAM bytes, SSD transfers) to different devices using
the :class:`CacheStats` event counts it maintains.

Lines resolve through the cache's own ``_resident`` map, whatever the
index.  The :class:`CacheIndex` is the ledgers': the cache calls it
exactly where the modelled CPU or engine searches or updates its tree,
and the ledgers read what those calls counted.  :class:`BTreeIndex`
walks a real B+-tree because the host pays per node visited;
:class:`HwTreeIndex` only counts, because the Cache HW-Engine's tree
costs the host nothing (:mod:`repro.cache.hwtree` models its function,
:class:`~repro.cache.cache_engine.CacheEngineModel` its timing).

Packed lines (DESIGN.md §5.8): the table reaches the cache through
:meth:`load_packed`/:meth:`store_packed`, so its lines hold
:class:`~repro.datared.hash_pbn.PackedBucket` pages it mutates in place;
byte-page users (:class:`~repro.datared.lba_store.PagedLbaStore`) reach
lines through :meth:`read_bucket`/:meth:`write_bucket`.  A line converts
lazily to the form asked for, is handed down in the form it holds, and
counts identical :class:`CacheStats` either way.  The table's
*negative filter* and *batched resolve* are off over this store
(:attr:`~repro.datared.hash_pbn.HashPbnTable.private_store` is false
for it) precisely because they would elide bucket accesses the device
models are calibrated to observe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Set, Union

from ..datared.hash_pbn import BUCKET_SIZE, BucketStore, PackedBucket
from .btree import BPlusTree
from .freelist import CircularFreeList
from .lru import LruList

__all__ = ["CacheIndex", "BTreeIndex", "HwTreeIndex", "CacheStats", "TableCache"]

#: A cache line's content: a packed bucket or a raw 4-KB byte page.
_Line = Union[PackedBucket, bytes]


class CacheIndex(Protocol):
    """Bucket index → cache-line slot, as the ledgers see it: what each
    search and update cost.  The cache never reads an answer from it."""

    searches: int
    updates: int

    def search(self, bucket: int) -> object: ...

    def insert(self, bucket: int, slot: int) -> None: ...

    def delete(self, bucket: int) -> None: ...


class BTreeIndex:
    """Software B+-tree walked by the CPU (§7.1): the baseline's, and
    FIDR's without the Cache HW-Engine; every node visit is charged."""

    def __init__(self, order: int = 16):
        self.tree = BPlusTree(order=order)
        self.searches = 0
        self.updates = 0

    def search(self, bucket: int) -> Optional[int]:
        self.searches += 1
        return self.tree.search(bucket)

    def insert(self, bucket: int, slot: int) -> None:
        self.updates += 1
        self.tree.insert(bucket, slot)

    def delete(self, bucket: int) -> None:
        self.updates += 1
        self.tree.delete(bucket)

    @property
    def node_visits(self) -> int:
        """Tree nodes touched — the CPU cycle driver (Table 2)."""
        return self.tree.node_visits


class HwTreeIndex:
    """FIDR: the Cache HW-Engine's tree (§5.5.1), counted, not walked —
    the host pays nothing per visit, so searches and updates are all
    the ledgers read."""

    def __init__(self) -> None:
        self.searches = 0
        self.updates = 0

    def search(self, bucket: int) -> None:
        self.searches += 1

    def insert(self, bucket: int, slot: int) -> None:
        self.updates += 1

    def delete(self, bucket: int) -> None:
        self.updates += 1


@dataclass
class CacheStats:
    """Event counts for one table cache; units noted per field."""

    hits: int = 0
    misses: int = 0
    fetches: int = 0  #: bucket pages read from table SSD
    flushes: int = 0  #: dirty pages written back to table SSD
    evictions: int = 0
    content_scans: int = 0  #: cached bucket pages scanned by the host
    warm_hits: int = 0  #: re-accesses served from the CPU cache
    host_bytes_read: int = 0  #: DRAM reads for content scans / flushes
    host_bytes_written: int = 0  #: DRAM writes for fetches / dirty updates

    @property
    def accesses(self) -> int:
        """All table accesses, including CPU-cache-warm re-accesses
        (a lookup-then-insert pair is two table accesses, as the paper
        counts them — the second just costs no DRAM traffic)."""
        return self.hits + self.warm_hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return (self.hits + self.warm_hits) / self.accesses


class TableCache(BucketStore):
    """Write-back, LRU bucket cache over a table-SSD bucket store."""

    def __init__(
        self,
        backing: BucketStore,
        capacity_lines: int,
        index: Optional[CacheIndex] = None,
        eviction_batch: int = 8,
        lru: Optional[LruList] = None,
    ):
        """``lru`` injects a replacement policy; anything API-compatible
        with :class:`~repro.cache.lru.LruList` works — e.g. the
        tenant-aware :class:`~repro.cache.policy.PartitionedLru` (§8)."""
        if capacity_lines < 1:
            raise ValueError("cache needs at least one line")
        if not 1 <= eviction_batch <= capacity_lines:
            raise ValueError("eviction batch must be in [1, capacity]")
        self.backing = backing
        self.capacity_lines = capacity_lines
        self.index = index if index is not None else BTreeIndex()
        self.eviction_batch = eviction_batch
        self.stats = CacheStats()
        self._lines: List[Optional[_Line]] = [None] * capacity_lines
        self._free = CircularFreeList.full(capacity_lines)
        self._lru = lru if lru is not None else LruList()
        self._dirty: Set[int] = set()  # bucket indexes with unflushed writes
        # What resolves a bucket to its line.  ``self.index`` is called
        # beside it only so the ledgers see the modelled searches/updates.
        self._resident: Dict[int, int] = {}
        # The bucket touched by the immediately preceding access: a
        # lookup-then-insert pair hits the same page while it is still in
        # the CPU's caches, so the second access costs neither a DRAM
        # scan nor a fresh index walk.
        self._warm_bucket: Optional[int] = None

    #: DRAM burst charged for an in-place entry update of a cached page
    #: (inserting one 38-byte entry dirties one cache line, not 4 KB).
    IN_PLACE_WRITE_BYTES = 64

    # -- BucketStore interface -------------------------------------------------------
    def read_bucket(self, bucket: int) -> bytes:
        line = self._lines[self._read(bucket, self.backing.read_bucket)]
        assert line is not None
        return line.to_bytes() if isinstance(line, PackedBucket) else line

    def load_packed(self, bucket: int) -> PackedBucket:  # repro-lint: hot-path
        slot = self._read(bucket, self.backing.load_packed)
        line = self._lines[slot]
        if not isinstance(line, PackedBucket):
            assert line is not None
            line = self._lines[slot] = PackedBucket.from_page(line)
        return line

    def write_bucket(self, bucket: int, page: bytes) -> None:
        if len(page) != BUCKET_SIZE:
            raise ValueError("bucket pages must be 4 KB")
        self._write(bucket, page)

    def store_packed(self, bucket: int, packed: PackedBucket) -> None:  # repro-lint: hot-path
        self._write(bucket, packed)

    # -- internals ---------------------------------------------------------------------
    def _read(self, bucket: int, fetch: Callable[[int], _Line]) -> int:  # repro-lint: hot-path
        """Account one table read of ``bucket``; returns its line's
        slot, ``fetch``-ing the bucket from the table SSD on a miss."""
        slot = self._resident.get(bucket)
        if slot is not None and bucket == self._warm_bucket:
            # Back-to-back access to the same page (lookup-then-insert):
            # served from the CPU cache, no DRAM or index traffic.
            self.stats.warm_hits += 1
            return slot
        self.index.search(bucket)
        if slot is not None:
            self.stats.hits += 1
            self._lru.touch(bucket)
        else:
            self.stats.misses += 1
            slot = self._install(bucket, fetch(bucket))
            self.stats.fetches += 1
        # The host scans the cached content for dedup detection (§5.3 #5).
        self.stats.content_scans += 1
        self.stats.host_bytes_read += BUCKET_SIZE
        self._warm_bucket = bucket
        return slot

    def _write(self, bucket: int, line: _Line) -> None:  # repro-lint: hot-path
        slot = self._resident.get(bucket)
        if slot is not None and bucket == self._warm_bucket:
            # In-place update of the page just examined: one dirty
            # cache line, no index walk.  Not counted as a table
            # access — it is the tail of the same logical operation
            # whose read was already counted.
            self._lines[slot] = line
            self.stats.host_bytes_written += self.IN_PLACE_WRITE_BYTES
            self._dirty.add(bucket)
            return
        self.index.search(bucket)
        if slot is None:
            self.stats.misses += 1
            slot = self._install(bucket, line)
        else:
            self.stats.hits += 1
            self._lines[slot] = line
            self._lru.touch(bucket)
            self.stats.host_bytes_written += self.IN_PLACE_WRITE_BYTES
        self._warm_bucket = bucket
        self._dirty.add(bucket)

    def _install(self, bucket: int, line: _Line) -> int:
        if self._free.is_empty:
            self._evict_batch()
        slot = self._free.pop()
        self._lines[slot] = line
        self._resident[bucket] = slot
        self.index.insert(bucket, slot)
        self._lru.touch(bucket)
        # The fetched page lands in host memory.
        self.stats.host_bytes_written += BUCKET_SIZE
        return slot

    def _write_back(self, bucket: int, slot: int) -> None:
        """Flush one dirty line to the table SSD, in the form it holds."""
        line = self._lines[slot]
        if isinstance(line, PackedBucket):
            self.backing.store_packed(bucket, line)
        else:
            assert line is not None
            self.backing.write_bucket(bucket, line)
        self.stats.flushes += 1
        self.stats.host_bytes_read += BUCKET_SIZE

    def _evict_batch(self) -> None:
        """Evict the coldest lines (batched, §5.5's LRU-batch protocol)."""
        victims = self._lru.evict_batch(self.eviction_batch)
        if not victims:
            raise RuntimeError("cache full of pinned lines; cannot evict")
        for bucket in victims:
            self.index.search(bucket)
            slot = self._resident.pop(bucket)
            if bucket in self._dirty:
                self._write_back(bucket, slot)
                self._dirty.discard(bucket)
            self.index.delete(bucket)
            self._lines[slot] = None
            if self._warm_bucket == bucket:
                self._warm_bucket = None
            self._free.push(slot)
            self.stats.evictions += 1

    # -- maintenance ------------------------------------------------------------------------
    def flush_all(self) -> int:
        """Write every dirty line back to the table SSD (shutdown)."""
        for bucket in sorted(self._dirty):
            self.index.search(bucket)
            self._write_back(bucket, self._resident[bucket])
        flushed = len(self._dirty)
        self._dirty.clear()
        return flushed

    @property
    def resident_lines(self) -> int:
        return self.capacity_lines - len(self._free)

    def check_invariants(self) -> None:
        """Structural consistency between the resident map, lines, LRU,
        free list and — if it is walked — the index's tree.  Counts no
        search or node visit."""
        slots = set(self._resident.values())
        assert len(slots) == len(self._resident), "two buckets share a line"
        occupied = {slot for slot, page in enumerate(self._lines) if page is not None}
        assert slots == occupied, "resident map and lines disagree"
        lru_keys = set(self._lru.keys_hot_to_cold())
        assert self._resident.keys() == lru_keys, "LRU tracks a different resident set"
        assert self._dirty <= lru_keys, "dirty bucket not resident"
        assert len(slots) + len(self._free) == self.capacity_lines
        if isinstance(self.index, BTreeIndex):
            assert dict(self.index.tree.items()) == self._resident, "index mismatch"
