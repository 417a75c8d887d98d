"""Two-level LBA → PBA mapping (paper §2.1.4).

Because chunks have variable size after compression, the paper maps a
client's logical block address to physical bytes in two steps:

* **LBA → PBN** (:class:`LbaMap`): which stored chunk a logical address
  currently points at.  Entry size: 6 bytes.
* **PBN → PBA** (:class:`PbnMap`): where that chunk lives — the container
  it was packed into, its offset, and its compressed size.  Entry size:
  10 bytes (6-byte PBN index + 2-byte offset + 2-byte size).

This module adds the reference counting a deduplicating system needs on
top: many LBAs may map to one PBN, and a chunk is only reclaimable when
its last reference drops (the paper leaves garbage collection implicit;
see DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "LBA_PBN_ENTRY_SIZE",
    "PBN_PBA_ENTRY_SIZE",
    "PbnRecord",
    "LbaMap",
    "PbnAllocator",
    "PbnMap",
    "mapping_bytes_for_capacity",
]

#: Size of one LBA→PBN entry ("6 bytes for PBN", §2.1.4).
LBA_PBN_ENTRY_SIZE = 6

#: Size of one PBN→PBA entry (6-byte PBN + 2-byte offset + 2-byte size).
PBN_PBA_ENTRY_SIZE = 10


class PbnRecord:
    """Physical placement and liveness of one stored chunk.

    ``offset`` is in container-local *slot* units chosen by the container
    layer so it fits the 2-byte field; ``stored_size`` is the compressed
    byte count.  ``fingerprint`` is retained so the Hash-PBN entry can be
    removed when the last reference drops.

    A mutable ``__slots__`` class (``refcount`` changes on every ref /
    unref, and GC repoints ``container_id``/``offset``): one is built
    per unique chunk on the write path, where dataclass construction
    costs ~3x a plain ``__init__`` (measured on the ``publish`` stage).
    """

    __slots__ = (
        "container_id", "offset", "stored_size", "fingerprint", "refcount"
    )

    def __init__(
        self,
        container_id: int,
        offset: int,
        stored_size: int,
        fingerprint: bytes,
        refcount: int = 1,
    ) -> None:
        if refcount < 0:
            raise ValueError("refcount cannot be negative")
        if stored_size <= 0:
            raise ValueError("stored_size must be positive")
        self.container_id = container_id
        self.offset = offset
        self.stored_size = stored_size
        self.fingerprint = fingerprint
        self.refcount = refcount

    def __repr__(self) -> str:
        return (
            f"PbnRecord(container_id={self.container_id}, "
            f"offset={self.offset}, stored_size={self.stored_size}, "
            f"refcount={self.refcount})"
        )


class LbaMap:
    """LBA → PBN map.

    A production system keeps this as a flat array on SSD with a small
    DRAM cache (§2.1.4 notes address locality makes that cheap); the
    functional model uses a dict keyed by chunk-aligned LBA.
    """

    def __init__(self) -> None:
        self._map: Dict[int, int] = {}

    def get(self, lba: int) -> Optional[int]:
        return self._map.get(lba)

    def set(self, lba: int, pbn: int) -> Optional[int]:
        """Map ``lba`` to ``pbn``; returns the previous PBN if remapped."""
        previous = self._map.get(lba)
        self._map[lba] = pbn
        return previous

    def unmap(self, lba: int) -> Optional[int]:
        """Drop the mapping (TRIM/discard); returns the old PBN if any."""
        return self._map.pop(lba, None)

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, lba: int) -> bool:
        return lba in self._map

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(self._map.items())

    @property
    def metadata_bytes(self) -> int:
        """On-disk footprint of the current map."""
        return len(self._map) * LBA_PBN_ENTRY_SIZE


class PbnAllocator:
    """Sequential PBN allocation with free-list reuse."""

    def __init__(self) -> None:
        self._next = 0
        self._free: List[int] = []

    def allocate(self) -> int:
        if self._free:
            return self._free.pop()
        pbn = self._next
        self._next += 1
        return pbn

    def free(self, pbn: int) -> None:
        if pbn < 0 or pbn >= self._next:
            raise ValueError(f"PBN {pbn} was never allocated")
        self._free.append(pbn)

    def ensure_allocated(self, pbn: int) -> None:
        """Mark ``pbn`` (and nothing else) as allocated — journal replay
        restores the allocator without re-running allocations."""
        if pbn < 0:
            raise ValueError(f"negative PBN {pbn}")
        while self._next <= pbn:
            # Intervening PBNs not (yet) seen in the journal stay free.
            self._free.append(self._next)
            self._next += 1
        if pbn in self._free:
            self._free.remove(pbn)

    def reserve_through(self, next_pbn: int) -> None:
        """Advance the high-water mark to ``next_pbn``, freeing the gap.

        Checkpoint restore calls this first (with the checkpointed
        allocator cursor), then :meth:`ensure_allocated` per live PBN —
        reproducing the pre-crash free list exactly, including PBNs that
        were allocated and later freed.
        """
        if next_pbn < self._next:
            raise ValueError(
                f"cannot move the allocator cursor backwards "
                f"({self._next} -> {next_pbn})"
            )
        while self._next < next_pbn:
            self._free.append(self._next)
            self._next += 1

    @property
    def next_pbn(self) -> int:
        """The never-allocated cursor (checkpointed for exact restore)."""
        return self._next

    @property
    def allocated(self) -> int:
        return self._next - len(self._free)


class PbnMap:
    """PBN → placement records with reference counting.

    Two reverse indexes are maintained incrementally alongside the
    records (every mutation goes through :meth:`add`, :meth:`unref` and
    :meth:`repoint`, so they can never drift):

    * fingerprint → PBN (:meth:`find_by_fingerprint`) — a read-only
      mirror of the live Hash-PBN table content, used by the batched
      write planner to classify chunks without touching the table
      cache.  It costs ~0.2 µs per digest where a probe of the table's
      page store costs 2–3 µs, and the planner it feeds is what lets a
      batch compress as one call (DESIGN.md §5.2);
      :func:`~repro.analysis.invariants.check_engine` checks it against
      the table.
    * ``(container_id, offset)`` → PBN (:meth:`pbn_at`) — used by
      garbage collection to repoint moved chunks without rescanning
      every record.
    """

    def __init__(self) -> None:
        self._records: Dict[int, PbnRecord] = {}
        self._by_fingerprint: Dict[bytes, int] = {}
        self._by_placement: Dict[Tuple[int, int], int] = {}

    def add(self, pbn: int, record: PbnRecord) -> None:
        if pbn in self._records:
            raise ValueError(f"PBN {pbn} already present")
        self._records[pbn] = record
        self._by_fingerprint[record.fingerprint] = pbn
        self._by_placement[(record.container_id, record.offset)] = pbn

    def get(self, pbn: int) -> PbnRecord:
        try:
            return self._records[pbn]
        except KeyError:
            raise KeyError(f"PBN {pbn} has no record") from None

    def ref(self, pbn: int) -> int:
        """Add one reference; returns the new count."""
        record = self.get(pbn)
        record.refcount += 1
        return record.refcount

    def unref(self, pbn: int) -> Optional[PbnRecord]:
        """Drop one reference.

        Returns the record if this was the last reference (the caller
        reclaims the chunk), else ``None``.
        """
        record = self.get(pbn)
        if record.refcount <= 0:
            raise ValueError(f"PBN {pbn} already dead")
        record.refcount -= 1
        if record.refcount == 0:
            del self._records[pbn]
            if self._by_fingerprint.get(record.fingerprint) == pbn:
                del self._by_fingerprint[record.fingerprint]
            placement = (record.container_id, record.offset)
            if self._by_placement.get(placement) == pbn:
                del self._by_placement[placement]
            return record
        return None

    def repoint(self, pbn: int, container_id: int, offset: int) -> None:
        """Move a record's placement (garbage-collection compaction)."""
        record = self.get(pbn)
        old = (record.container_id, record.offset)
        if self._by_placement.get(old) == pbn:
            del self._by_placement[old]
        record.container_id = container_id
        record.offset = offset
        self._by_placement[(container_id, offset)] = pbn

    def find_by_fingerprint(self, digest: bytes) -> Optional[int]:
        """The live PBN storing ``digest``, if any.

        Mirrors the Hash-PBN table's content (both are mutated in
        lock-step by the engine), but resolves from a host-memory dict,
        so probing it never perturbs table-cache state or accounting.
        """
        return self._by_fingerprint.get(digest)

    def pbn_at(self, container_id: int, offset: int) -> Optional[int]:
        """The PBN stored at a container placement, if any."""
        return self._by_placement.get((container_id, offset))

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, pbn: int) -> bool:
        return pbn in self._records

    def records(self) -> Iterator[Tuple[int, PbnRecord]]:
        """Iterate over ``(pbn, record)`` pairs (garbage collection)."""
        return iter(self._records.items())

    @property
    def live_stored_bytes(self) -> int:
        return sum(record.stored_size for record in self._records.values())

    @property
    def metadata_bytes(self) -> int:
        return len(self._records) * PBN_PBA_ENTRY_SIZE


def mapping_bytes_for_capacity(logical_bytes: int, chunk_size: int = 4096) -> int:
    """Total LBA-PBA metadata for a fully-mapped logical capacity.

    Multi-TB at PB scale, which is why the paper keeps it on SSD with a
    small DRAM cache (§2.1.4).
    """
    if logical_bytes < 0 or chunk_size <= 0:
        raise ValueError("sizes must be non-negative / positive")
    chunks = logical_bytes // chunk_size
    return chunks * (LBA_PBN_ENTRY_SIZE + PBN_PBA_ENTRY_SIZE)
