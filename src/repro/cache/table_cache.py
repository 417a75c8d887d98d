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

The model runs per batch, as FIDR's host hands the Cache HW-Engine its
bucket indexes and LRU victims in batches (Fig. 6, §5.5): an access
only appends its bucket to a trace (``b`` for a read, ``~b`` for a
write) and returns the page, and :meth:`TableCache.replay` runs the
residency model over the whole trace in one loop.  The engine replays
at its group-commit barrier, at the end of every public mutating op,
and every accounting read (``stats``, ``resident_lines``,
``check_invariants``, ``flush_all``) replays first, so the ledgers
read what accesses modelled one at a time would have left.  A caller
that reads ``ledger`` or ``index`` directly mid-batch replays first.

The :class:`CacheIndex` is the ledgers': the replay calls it exactly
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
from ..errors import CapacityError
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
    """Write-back, LRU residency model over the pages of a bucket store,
    replayed from its access trace once per batch."""

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
        self._stats = CacheStats()
        self._lru = lru if lru is not None else LruList()
        # A policy whose touches read state outside the trace (the
        # partitioned LRU's active tenant) replays it before that changes.
        self._lru.settle = self.replay
        #: Accesses not yet replayed, in order: ``b`` reads bucket ``b``,
        #: ``~b`` (negative) writes it.
        self._trace: List[int] = []
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
        self._trace.append(bucket)
        return self.pages.read_bucket(bucket)

    def load_packed(self, bucket: int) -> PackedBucket:  # repro-lint: hot-path
        self._trace.append(bucket)
        return self.pages.load_packed(bucket)

    def write_bucket(self, bucket: int, page: bytes) -> None:
        if len(page) != BUCKET_SIZE:
            raise ValueError("bucket pages must be 4 KB")
        self._trace.append(~bucket)
        self.pages.write_bucket(bucket, page)

    def store_packed(self, bucket: int, packed: PackedBucket) -> None:  # repro-lint: hot-path
        self._trace.append(~bucket)
        self.pages.store_packed(bucket, packed)

    # -- the residency model ----------------------------------------------------------
    def replay(self) -> None:  # repro-lint: hot-path
        """Run the residency model over every access traced since the
        last replay, in order, and settle the ledgers.

        A read of a bucket that is not the warm one searches the index
        and scans the page; a miss fetches it from the table SSD (no IO
        for a bucket never flushed) and installs it.  A write of the
        warm bucket updates it in place; any other write searches the
        index, and a miss allocates the line without a fetch (the whole
        page is being written).  An install into a full cache evicts the
        LRU's coldest batch (§5.5's LRU-batch protocol): each victim is
        searched, flushed if dirty and deleted from the index.  The
        counts, index calls and ledger IO are those of the same accesses
        modelled one at a time; only when they are made differs.
        """
        trace = self._trace
        if not trace:
            return
        index, lru, ledger = self.index, self._lru, self.ledger
        search, insert, delete = index.search, index.insert, index.delete
        touch, evict_batch = lru.touch, lru.evict_batch
        fetch = ledger.fetch_block if ledger is not None else None
        flush = ledger.write_block if ledger is not None else None
        resident, dirty = self._resident, self._dirty
        capacity, batch = self.capacity_lines, self.eviction_batch
        warm = self._warm_bucket
        hits = misses = fetches = warm_hits = scans = in_place = 0
        flushes = evictions = 0
        try:
            for event in trace:
                if event >= 0:
                    if event == warm:
                        # Back-to-back access to the same page
                        # (lookup-then-insert): served from the CPU
                        # cache, no DRAM or index traffic.
                        warm_hits += 1
                        continue
                    search(event)
                    # The host scans the cached content (§5.3 #5).
                    scans += 1
                    if event in resident:
                        hits += 1
                        touch(event)
                        warm = event
                        continue
                    misses += 1
                    fetches += 1
                    if fetch is not None:
                        fetch(event)
                    bucket = event
                else:
                    bucket = ~event
                    if bucket == warm:
                        # In-place update of the page just examined: one
                        # dirty cache line, no index walk, not a table
                        # access of its own.
                        in_place += 1
                        dirty.add(bucket)
                        continue
                    search(bucket)
                    if bucket in resident:
                        hits += 1
                        in_place += 1
                        touch(bucket)
                        warm = bucket
                        dirty.add(bucket)
                        continue
                    misses += 1
                # Install ``bucket``'s line, evicting a batch if full.
                if len(resident) >= capacity:
                    victims = evict_batch(batch)
                    if not victims:
                        raise CapacityError("cache full of pinned lines; cannot evict")
                    for victim in victims:
                        search(victim)
                        resident.remove(victim)
                        if victim in dirty:
                            # One 4-KB write on the table SSD, whose
                            # block the page store's copy stands for.
                            if flush is not None:
                                flush(victim)
                            flushes += 1
                            dirty.discard(victim)
                        delete(victim)
                        evictions += 1
                resident.add(bucket)
                insert(bucket)
                touch(bucket)
                warm = bucket
                if event < 0:
                    dirty.add(bucket)
        finally:
            trace.clear()
            self._warm_bucket = warm
            stats = self._stats
            stats.hits += hits
            stats.misses += misses
            stats.fetches += fetches
            stats.warm_hits += warm_hits
            stats.content_scans += scans
            stats.flushes += flushes
            stats.evictions += evictions
            # Scans and flushes read a page of DRAM; every miss installs
            # a fetched or allocated page, and an in-place update
            # dirties one cache line.
            stats.host_bytes_read += (scans + flushes) * BUCKET_SIZE
            stats.host_bytes_written += (
                misses * BUCKET_SIZE + in_place * self.IN_PLACE_WRITE_BYTES
            )

    @property
    def stats(self) -> CacheStats:
        """The event counts, with every traced access replayed."""
        self.replay()
        return self._stats

    # -- maintenance ------------------------------------------------------------------------
    def flush_all(self) -> int:
        """Write every dirty line back to the table SSD (shutdown)."""
        self.replay()
        for bucket in sorted(self._dirty):
            self.index.search(bucket)
            if self.ledger is not None:
                self.ledger.write_block(bucket)
        flushed = len(self._dirty)
        self._stats.flushes += flushed
        self._stats.host_bytes_read += flushed * BUCKET_SIZE
        self._dirty.clear()
        return flushed

    @property
    def resident_lines(self) -> int:
        self.replay()
        return len(self._resident)

    def check_invariants(self, *, raise_on_violation: bool = True) -> List[str]:
        """Structural consistency of the residency model, once the
        trace is replayed: the resident set is the LRU's keys, dirty
        buckets are resident, residency fits the capacity, the warm
        bucket is resident, and — if it is walked — the index's tree
        holds the resident set.  Counts no search or node visit beyond
        the replay's.  Returns the violations; with
        ``raise_on_violation`` a non-empty list raises
        :class:`AssertionError`."""
        self.replay()
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
