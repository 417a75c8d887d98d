"""Reference model the table-cache differential compares against.

:class:`MovingPageCache` is the write-back cache as it was before pages
got one home: a slot array of 4-KB lines, a FIFO free list of slots,
and pages that move — a miss copies the bucket's page in from the
table SSD, a dirty eviction copies it back out.
:class:`ReferenceTableSsd` is the table SSD under it, which keeps each
flushed page's header and entries (a byte page whole) and counts a
4-KB IO per fetch and flush.  Both are written out here on their own,
so the residency model in ``src/`` is compared with a second statement
of the same accounting, not with itself.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Union

from repro.cache.lru import LruList
from repro.cache.table_cache import CacheIndex, CacheStats
from repro.datared.hash_pbn import BUCKET_SIZE, ENTRY_SIZE, BucketStore, PackedBucket
from repro.hw.ssd import IoStats

_HEADER_SIZE = 3  # entry count (2 bytes), flags (1 byte)

#: A cache line's content: a packed bucket or a raw 4-KB byte page.
Line = Union[PackedBucket, bytes]


class ReferenceTableSsd:
    """Table SSDs striped by bucket, holding each page's used bytes."""

    def __init__(self, drives: int = 2) -> None:
        self.blocks: List[Dict[int, bytes]] = [{} for _ in range(drives)]
        self.stats = [IoStats() for _ in range(drives)]

    def fetch(self, bucket: int) -> Optional[bytes]:
        """The stored bytes, or None (no IO) for a never-flushed bucket."""
        drive = bucket % len(self.blocks)
        used = self.blocks[drive].get(bucket)
        if used is not None:
            self.stats[drive].read_ops += 1
            self.stats[drive].bytes_read += BUCKET_SIZE
        return used

    def flush(self, bucket: int, line: Line) -> None:
        if isinstance(line, PackedBucket):
            count = (line.buf[0] << 8) | line.buf[1]
            used = bytes(line.buf[: _HEADER_SIZE + count * ENTRY_SIZE])
        else:
            used = line
        drive = bucket % len(self.blocks)
        self.blocks[drive][bucket] = used
        self.stats[drive].write_ops += 1
        self.stats[drive].bytes_written += BUCKET_SIZE

    @property
    def bytes_stored(self) -> List[int]:
        return [BUCKET_SIZE * len(blocks) for blocks in self.blocks]


class MovingPageCache(BucketStore):
    """Write-back LRU cache whose 4-KB lines hold copies of the pages."""

    IN_PLACE_WRITE_BYTES = 64

    def __init__(self, ssd: ReferenceTableSsd, capacity_lines: int,
                 index: CacheIndex, eviction_batch: int) -> None:
        self.ssd = ssd
        self.index = index
        self.eviction_batch = eviction_batch
        self.stats = CacheStats()
        self._lines: List[Optional[Line]] = [None] * capacity_lines
        self._free: Deque[int] = deque(range(capacity_lines))
        self._lru = LruList()
        self._dirty: Set[int] = set()
        self._resident: Dict[int, int] = {}  # bucket -> slot
        self._warm_bucket: Optional[int] = None

    def read_bucket(self, bucket: int) -> bytes:
        line = self._lines[self._read(bucket)]
        if isinstance(line, PackedBucket):
            return line.to_bytes()
        assert line is not None
        return line

    def load_packed(self, bucket: int) -> PackedBucket:
        slot = self._read(bucket)
        line = self._lines[slot]
        if not isinstance(line, PackedBucket):
            assert line is not None
            line = self._lines[slot] = PackedBucket.from_page(line)
        return line

    def write_bucket(self, bucket: int, page: bytes) -> None:
        self._write(bucket, page)

    def store_packed(self, bucket: int, packed: PackedBucket) -> None:
        self._write(bucket, packed)

    def _read(self, bucket: int) -> int:
        slot = self._resident.get(bucket)
        if slot is not None and bucket == self._warm_bucket:
            self.stats.warm_hits += 1
            return slot
        self.index.search(bucket)
        if slot is not None:
            self.stats.hits += 1
            self._lru.touch(bucket)
        else:
            self.stats.misses += 1
            used = self.ssd.fetch(bucket) or b""
            slot = self._install(bucket, used.ljust(BUCKET_SIZE, b"\0"))
            self.stats.fetches += 1
        self.stats.content_scans += 1
        self.stats.host_bytes_read += BUCKET_SIZE
        self._warm_bucket = bucket
        return slot

    def _write(self, bucket: int, line: Line) -> None:
        slot = self._resident.get(bucket)
        if slot is not None and bucket == self._warm_bucket:
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

    def _install(self, bucket: int, line: Line) -> int:
        if not self._free:
            self._evict_batch()
        slot = self._free.popleft()
        self._lines[slot] = line
        self._resident[bucket] = slot
        self.index.insert(bucket)
        self._lru.touch(bucket)
        self.stats.host_bytes_written += BUCKET_SIZE
        return slot

    def _write_back(self, bucket: int, slot: int) -> None:
        line = self._lines[slot]
        assert line is not None
        self.ssd.flush(bucket, line)
        self.stats.flushes += 1
        self.stats.host_bytes_read += BUCKET_SIZE

    def _evict_batch(self) -> None:
        for bucket in self._lru.evict_batch(self.eviction_batch):
            self.index.search(bucket)
            slot = self._resident.pop(bucket)
            if bucket in self._dirty:
                self._write_back(bucket, slot)
                self._dirty.discard(bucket)
            self.index.delete(bucket)
            self._lines[slot] = None
            if self._warm_bucket == bucket:
                self._warm_bucket = None
            self._free.append(slot)
            self.stats.evictions += 1

    def flush_all(self) -> int:
        for bucket in sorted(self._dirty):
            self.index.search(bucket)
            self._write_back(bucket, self._resident[bucket])
        flushed = len(self._dirty)
        self._dirty.clear()
        return flushed
