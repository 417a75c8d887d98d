"""Reference models the differential suites compare against.

:class:`Bucket` is the decoded entry-list bucket the table operated on
before the packed index (PR 9); it left ``src/`` once
:class:`~repro.datared.hash_pbn.PackedBucket` became the only page
representation and stays here as the readable statement of the on-disk
format.  :class:`ReferenceTable` is the bucket-granular linear-probing
table over it, and :class:`InterposingStore` is the smallest store
that interposes on page traffic the way the table cache does: byte
pages only, every access counted.

:class:`ReferencePbnMap` and :class:`ReferenceLbaMap` are the
metadata maps as the dicts of records they were before the PBN columns
and the paged LBA slots: the readable statement of what
:class:`~repro.datared.lba_map.PbnMap` and
:class:`~repro.datared.lba_map.LbaMap` must answer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.datared.hash_pbn import (
    BUCKET_CAPACITY,
    BUCKET_SIZE,
    EMPTY_PAGE,
    BucketStore,
    InMemoryBucketStore,
)
from repro.datared.hashing import FINGERPRINT_SIZE, PBN_SIZE
from repro.errors import BucketFullError, CapacityError

# Stated independently of hash_pbn's private copies: the reference is a
# second reading of the page format, not an import of the first.
_HEADER = struct.Struct(">HB")  # entry count, flags
_FLAG_OVERFLOWED = 0x01


@dataclass
class Bucket:
    """A decoded in-memory view of one 4-KB table bucket."""

    entries: List[Tuple[bytes, int]] = field(default_factory=list)
    #: Sticky bit: an insert once probed past this bucket because it was
    #: full.  Lookups may stop probing at the first bucket without it.
    overflowed: bool = False

    def lookup(self, digest: bytes) -> Optional[int]:
        for key, pbn in self.entries:
            if key == digest:
                return pbn
        return None

    def insert(self, digest: bytes, pbn: int) -> None:
        if self.is_full:
            raise BucketFullError(
                f"bucket already holds {BUCKET_CAPACITY} entries"
            )
        self.entries.append((digest, pbn))

    def remove(self, digest: bytes) -> bool:
        for position, (key, _) in enumerate(self.entries):
            if key == digest:
                del self.entries[position]
                return True
        return False

    def update(self, digest: bytes, pbn: int) -> bool:
        """Repoint an existing entry at a new PBN; False if absent."""
        for position, (key, _) in enumerate(self.entries):
            if key == digest:
                self.entries[position] = (digest, pbn)
                return True
        return False

    @property
    def entry_count(self) -> int:
        return len(self.entries)

    @property
    def is_full(self) -> bool:
        return len(self.entries) >= BUCKET_CAPACITY

    def to_bytes(self) -> bytes:
        """Serialize to exactly one 4-KB page."""
        flags = _FLAG_OVERFLOWED if self.overflowed else 0
        parts = [_HEADER.pack(len(self.entries), flags)]
        for digest, pbn in self.entries:
            if len(digest) != FINGERPRINT_SIZE:
                raise ValueError("malformed fingerprint in bucket")
            parts.append(digest)
            parts.append(pbn.to_bytes(PBN_SIZE, "big"))
        body = b"".join(parts)
        return body + b"\x00" * (BUCKET_SIZE - len(body))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Bucket":
        if len(raw) != BUCKET_SIZE:
            raise ValueError(f"bucket pages are {BUCKET_SIZE} bytes, got {len(raw)}")
        count, flags = _HEADER.unpack_from(raw, 0)
        if count > BUCKET_CAPACITY:
            raise ValueError(f"corrupt bucket: {count} entries")
        entries: List[Tuple[bytes, int]] = []
        offset = _HEADER.size
        for _ in range(count):
            digest = raw[offset : offset + FINGERPRINT_SIZE]
            offset += FINGERPRINT_SIZE
            pbn = int.from_bytes(raw[offset : offset + PBN_SIZE], "big")
            offset += PBN_SIZE
            entries.append((digest, pbn))
        return cls(entries=entries, overflowed=bool(flags & _FLAG_OVERFLOWED))


class ReferenceTable:
    """Fingerprint → PBN table over decoded :class:`Bucket` pages.

    Every access decodes the 4-KB page from ``store`` (its own
    in-memory store unless one is given) and every mutation re-encodes
    it, so ``store`` holds exactly the bytes the packed table must also
    hold after the same operation history, and ``probe_count`` counts
    the buckets an unfiltered table touches.
    """

    def __init__(self, num_buckets: int, store: Optional[BucketStore] = None) -> None:
        self.num_buckets = num_buckets
        self.store = store if store is not None else InMemoryBucketStore()
        self.entry_count = 0
        self.probe_count = 0

    def _home(self, digest: bytes) -> int:
        return int.from_bytes(digest[-8:], "big") % self.num_buckets

    def _chain(self, digest: bytes) -> Iterator[Tuple[int, Bucket]]:
        """The probe sequence: home bucket, then onward while the bucket
        just visited carries the overflow bit (checked on resumption, so
        a caller that sets the bit keeps the chain going)."""
        index = self._home(digest)
        for _ in range(self.num_buckets):
            self.probe_count += 1
            bucket = Bucket.from_bytes(self.store.read_bucket(index))
            yield index, bucket
            if not bucket.overflowed:
                return
            index = (index + 1) % self.num_buckets

    def _save(self, index: int, bucket: Bucket) -> None:
        self.store.write_bucket(index, bucket.to_bytes())

    def lookup(self, digest: bytes) -> Optional[int]:
        for _, bucket in self._chain(digest):
            pbn = bucket.lookup(digest)
            if pbn is not None:
                return pbn
        return None

    def insert(self, digest: bytes, pbn: int) -> None:
        for index, bucket in self._chain(digest):
            if not bucket.is_full:
                bucket.insert(digest, pbn)
                self._save(index, bucket)
                self.entry_count += 1
                return
            if not bucket.overflowed:
                bucket.overflowed = True
                self._save(index, bucket)
        raise CapacityError("Hash-PBN table is full")

    def remove(self, digest: bytes) -> bool:
        for index, bucket in self._chain(digest):
            if bucket.remove(digest):
                self._save(index, bucket)
                self.entry_count -= 1
                return True
        return False

    def update(self, digest: bytes, pbn: int) -> bool:
        for index, bucket in self._chain(digest):
            if bucket.update(digest, pbn):
                self._save(index, bucket)
                return True
        return False

    def __len__(self) -> int:
        return self.entry_count


class InterposingStore(BucketStore):
    """A counting byte-page store.

    Implements only the canonical ``read_bucket``/``write_bucket`` pair,
    so every packed access goes through a page copy and is counted —
    the parity suites compare its counts with an engine's own store.
    """

    def __init__(self) -> None:
        self.pages: Dict[int, bytes] = {}
        self.reads = 0
        self.writes = 0

    def read_bucket(self, index: int) -> bytes:
        self.reads += 1
        return self.pages.get(index, EMPTY_PAGE)

    def write_bucket(self, index: int, page: bytes) -> None:
        self.writes += 1
        self.pages[index] = page


@dataclass
class ChunkRecord:
    """One live chunk of :class:`ReferencePbnMap`."""

    container_id: int
    offset: int
    stored_size: int
    fingerprint: bytes
    refcount: int


class ReferencePbnMap:
    """PBN → :class:`ChunkRecord`, a dict; every reverse answer is a scan."""

    def __init__(self) -> None:
        self.records: Dict[int, ChunkRecord] = {}

    def add(
        self, pbn: int, container_id: int, offset: int, stored_size: int,
        fingerprint: bytes, refcount: int = 1,
    ) -> None:
        assert pbn not in self.records
        self.records[pbn] = ChunkRecord(
            container_id, offset, stored_size, fingerprint, refcount
        )

    def ref(self, pbn: int) -> int:
        self.records[pbn].refcount += 1
        return self.records[pbn].refcount

    def unref(self, pbn: int) -> Optional[Tuple[int, int, int, bytes]]:
        record = self.records[pbn]
        record.refcount -= 1
        if record.refcount:
            return None
        del self.records[pbn]
        return (
            record.container_id, record.offset, record.stored_size,
            record.fingerprint,
        )

    def repoint(self, pbn: int, container_id: int, offset: int) -> None:
        self.records[pbn].container_id = container_id
        self.records[pbn].offset = offset

    def find_by_fingerprint(self, digest: bytes) -> Optional[int]:
        for pbn, record in self.records.items():
            if record.fingerprint == digest:
                return pbn
        return None

    def owners(self, container_id: int) -> Dict[int, int]:
        return {
            record.offset: pbn
            for pbn, record in self.records.items()
            if record.container_id == container_id
        }

    def __len__(self) -> int:
        return len(self.records)

    @property
    def live_stored_bytes(self) -> int:
        return sum(record.stored_size for record in self.records.values())


class ReferenceLbaMap:
    """LBA → PBN, a dict; ``items`` in ascending LBA order."""

    def __init__(self) -> None:
        self.map: Dict[int, int] = {}

    def get(self, lba: int) -> Optional[int]:
        return self.map.get(lba)

    def set(self, lba: int, pbn: int) -> Optional[int]:
        previous = self.map.get(lba)
        self.map[lba] = pbn
        return previous

    def unmap(self, lba: int) -> Optional[int]:
        return self.map.pop(lba, None)

    def __len__(self) -> int:
        return len(self.map)

    def items(self) -> List[Tuple[int, int]]:
        return sorted(self.map.items())
