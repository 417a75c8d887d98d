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

One home per page (DESIGN.md §5.8): every bucket page lives in the
``pages`` store under the cache — compact
:class:`~repro.datared.hash_pbn.PackedBucket`\\ s the table mutates in
place, or plain byte pages (``read_bucket``/``write_bucket``) — and
never moves.  The
cache is a *residency model*: it decides which buckets a 4-KB line
would hold, counts every access, fetch, flush and eviction as a cache
of moving pages would, and hands back the page from ``pages``.  The
optional ``ledger`` is the table-SSD array, a pure IO ledger like the
data SSDs: one 4-KB read per fetch of a bucket flushed before, one
4-KB write per flush, and one byte per block remembering which
buckets were ever flushed.  A page that holds nothing has no home in
``pages`` and reads back empty; the ledger still fetches its block if
it was flushed once, as a drive would.

The :class:`CacheIndex` is the ledgers': the cache calls it exactly
where the modelled CPU or engine searches or updates its tree, and the
ledgers read what those calls counted.  :class:`BTreeIndex` walks a
real B+-tree because the host pays per node visited;
:class:`HwTreeIndex` only counts, because the Cache HW-Engine's tree
costs the host nothing (:class:`~repro.cache.cache_engine.CacheEngineModel`
models its timing and its crash/replay rate, Fig. 13).  The
table probes every lookup's home chain through this store, so the
device models see each bucket access the write walk makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Set

from ..datared.hash_pbn import BUCKET_SIZE, BucketStore, PackedBucket
from ..hw.ssd import SsdArray
from .btree import BPlusTree
from .lru import LruList

__all__ = ["CacheIndex", "BTreeIndex", "HwTreeIndex", "CacheStats", "TableCache"]


class CacheIndex(Protocol):
    """The index over resident buckets, as the ledgers see it: what
    each search and update cost.  The cache never reads an answer
    from it."""

    searches: int
    updates: int

    def search(self, bucket: int) -> object: ...

    def insert(self, bucket: int) -> None: ...

    def delete(self, bucket: int) -> None: ...


class BTreeIndex:
    """Software B+-tree walked by the CPU (§7.1): the baseline's, and
    FIDR's without the Cache HW-Engine; every node visit is charged.
    It maps each resident bucket to its page's key in the page store,
    the bucket itself."""

    def __init__(self, order: int = 16):
        self.tree = BPlusTree(order=order)
        self.searches = 0
        self.updates = 0

    def search(self, bucket: int) -> Optional[int]:
        self.searches += 1
        return self.tree.search(bucket)

    def insert(self, bucket: int) -> None:
        self.updates += 1
        self.tree.insert(bucket, bucket)

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

    def insert(self, bucket: int) -> None:
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
    """Write-back, LRU residency model over the pages of a bucket store."""

    def __init__(
        self,
        pages: BucketStore,
        capacity_lines: int,
        index: Optional[CacheIndex] = None,
        eviction_batch: int = 8,
        lru: Optional[LruList] = None,
        ledger: Optional[SsdArray] = None,
    ):
        """``lru`` injects a replacement policy; anything API-compatible
        with :class:`~repro.cache.lru.LruList` works — e.g. the
        tenant-aware :class:`~repro.cache.policy.PartitionedLru` (§8).
        ``ledger`` is the table-SSD array the fetches and flushes are
        counted on; without one the cache counts only :class:`CacheStats`."""
        if capacity_lines < 1:
            raise ValueError("cache needs at least one line")
        if not 1 <= eviction_batch <= capacity_lines:
            raise ValueError("eviction batch must be in [1, capacity]")
        self.pages = pages
        self.ledger = ledger
        self.capacity_lines = capacity_lines
        self.index = index if index is not None else BTreeIndex()
        self.eviction_batch = eviction_batch
        self.stats = CacheStats()
        self._lru = lru if lru is not None else LruList()
        self._resident: Set[int] = set()  # buckets a line holds
        self._dirty: Set[int] = set()  # resident buckets with unflushed writes
        # The bucket touched by the immediately preceding access: a
        # lookup-then-insert pair hits the same page while it is still in
        # the CPU's caches, so the second access costs neither a DRAM
        # scan nor a fresh index walk.  Always resident (or None): only
        # an install evicts, and the access that installs a bucket then
        # makes it the warm one.
        self._warm_bucket: Optional[int] = None

    #: DRAM burst charged for an in-place entry update of a cached page
    #: (inserting one 38-byte entry dirties one cache line, not 4 KB).
    IN_PLACE_WRITE_BYTES = 64

    # -- BucketStore interface -------------------------------------------------------
    def read_bucket(self, bucket: int) -> bytes:
        self._read(bucket)
        return self.pages.read_bucket(bucket)

    def load_packed(self, bucket: int) -> PackedBucket:  # repro-lint: hot-path
        self._read(bucket)
        return self.pages.load_packed(bucket)

    def write_bucket(self, bucket: int, page: bytes) -> None:
        if len(page) != BUCKET_SIZE:
            raise ValueError("bucket pages must be 4 KB")
        self._write(bucket)
        self.pages.write_bucket(bucket, page)

    def store_packed(self, bucket: int, packed: PackedBucket) -> None:  # repro-lint: hot-path
        self._write(bucket)
        self.pages.store_packed(bucket, packed)

    # -- internals ---------------------------------------------------------------------
    def _read(self, bucket: int) -> None:  # repro-lint: hot-path
        """Account one table read of ``bucket``, fetching it from the
        table SSD on a miss."""
        if bucket == self._warm_bucket:
            # Back-to-back access to the same page (lookup-then-insert):
            # served from the CPU cache, no DRAM or index traffic.
            self.stats.warm_hits += 1
            return
        self.index.search(bucket)
        if bucket in self._resident:
            self.stats.hits += 1
            self._lru.touch(bucket)
        else:
            self.stats.misses += 1
            # A bucket never flushed reads back empty without an IO.
            if self.ledger is not None and bucket in self.ledger:
                self.ledger.read_block(bucket)
            self._install(bucket)
            self.stats.fetches += 1
        # The host scans the cached content for dedup detection (§5.3 #5).
        self.stats.content_scans += 1
        self.stats.host_bytes_read += BUCKET_SIZE
        self._warm_bucket = bucket

    def _write(self, bucket: int) -> None:  # repro-lint: hot-path
        """Account one table write of ``bucket``; a miss allocates its
        line without a fetch (the whole page is being written)."""
        if bucket == self._warm_bucket:
            # In-place update of the page just examined: one dirty
            # cache line, no index walk.  Not counted as a table
            # access — it is the tail of the same logical operation
            # whose read was already counted.
            self.stats.host_bytes_written += self.IN_PLACE_WRITE_BYTES
            self._dirty.add(bucket)
            return
        self.index.search(bucket)
        if bucket in self._resident:
            self.stats.hits += 1
            self._lru.touch(bucket)
            self.stats.host_bytes_written += self.IN_PLACE_WRITE_BYTES
        else:
            self.stats.misses += 1
            self._install(bucket)
        self._warm_bucket = bucket
        self._dirty.add(bucket)

    def _install(self, bucket: int) -> None:
        if len(self._resident) >= self.capacity_lines:
            self._evict_batch()
        self._resident.add(bucket)
        self.index.insert(bucket)
        self._lru.touch(bucket)
        # The fetched page lands in host memory.
        self.stats.host_bytes_written += BUCKET_SIZE

    def _write_back(self, bucket: int) -> None:
        """Flush one dirty line: one 4-KB write on the table SSD, whose
        block the page store's copy stands for."""
        if self.ledger is not None:
            self.ledger.write_block(bucket)
        self.stats.flushes += 1
        self.stats.host_bytes_read += BUCKET_SIZE

    def _evict_batch(self) -> None:
        """Evict the coldest lines (batched, §5.5's LRU-batch protocol)."""
        victims = self._lru.evict_batch(self.eviction_batch)
        if not victims:
            raise RuntimeError("cache full of pinned lines; cannot evict")
        for bucket in victims:
            self.index.search(bucket)
            self._resident.remove(bucket)
            if bucket in self._dirty:
                self._write_back(bucket)
                self._dirty.discard(bucket)
            self.index.delete(bucket)
            self.stats.evictions += 1

    # -- maintenance ------------------------------------------------------------------------
    def flush_all(self) -> int:
        """Write every dirty line back to the table SSD (shutdown)."""
        for bucket in sorted(self._dirty):
            self.index.search(bucket)
            self._write_back(bucket)
        flushed = len(self._dirty)
        self._dirty.clear()
        return flushed

    @property
    def resident_lines(self) -> int:
        return len(self._resident)

    def check_invariants(self, *, raise_on_violation: bool = True) -> List[str]:
        """Structural consistency of the residency model: the resident
        set is the LRU's keys, dirty buckets are resident, residency
        fits the capacity, the warm bucket is resident, and — if it is
        walked — the index's tree holds the resident set.  Counts no
        search or node visit.  Returns the violations; with
        ``raise_on_violation`` a non-empty list raises
        :class:`AssertionError`."""
        violations: List[str] = []
        if set(self._lru.keys_hot_to_cold()) != self._resident:
            violations.append("LRU tracks a different resident set")
        if not self._dirty <= self._resident:
            violations.append(f"dirty buckets not resident: {self._dirty - self._resident}")
        if len(self._resident) > self.capacity_lines:
            violations.append(
                f"{len(self._resident)} resident buckets exceed {self.capacity_lines} lines"
            )
        if self._warm_bucket is not None and self._warm_bucket not in self._resident:
            violations.append(f"warm bucket {self._warm_bucket} not resident")
        if isinstance(self.index, BTreeIndex):
            if {key for key, _ in self.index.tree.items()} != self._resident:
                violations.append("index tree holds a different resident set")
        if violations and raise_on_violation:
            raise AssertionError("; ".join(violations))
        return violations
