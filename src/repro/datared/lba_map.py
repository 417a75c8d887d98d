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

Both maps keep their entries in flat ``array`` columns rather than one
Python object per chunk (DESIGN.md §5.8): per-chunk metadata then costs
bytes, not object headers, and a checkpoint copies columns instead of
packing records one at a time.
"""

from __future__ import annotations

import sys
from array import array
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from .hashing import FINGERPRINT_SIZE

if TYPE_CHECKING:  # pragma: no cover
    Column = array[int]

__all__ = [
    "LBA_PBN_ENTRY_SIZE",
    "PBN_PBA_ENTRY_SIZE",
    "LBA_PAGE_SLOTS",
    "LBA_PAGE_BYTES",
    "PBN_COLUMN_WIDTHS",
    "DeadChunk",
    "PbnRecord",
    "PbnColumns",
    "LbaMap",
    "PbnAllocator",
    "PbnMap",
    "mapping_bytes_for_capacity",
]

#: Size of one LBA→PBN entry ("6 bytes for PBN", §2.1.4).
LBA_PBN_ENTRY_SIZE = 6

#: Size of one PBN→PBA entry (6-byte PBN + 2-byte offset + 2-byte size).
PBN_PBA_ENTRY_SIZE = 10

#: LBA slots per :class:`LbaMap` page: one 4-KiB page of 8-byte slots.
LBA_PAGE_SLOTS = 512
_PAGE_SHIFT = 9
_SLOT_MASK = LBA_PAGE_SLOTS - 1
_ZERO_PAGE = array("Q", bytes(8 * LBA_PAGE_SLOTS))
#: Bytes of one LBA page image (:meth:`LbaMap.page_images`).
LBA_PAGE_BYTES = _ZERO_PAGE.itemsize * LBA_PAGE_SLOTS

#: ``array`` typecode of each :class:`PbnMap` column, in
#: :class:`PbnColumns` field order: container id, granule offset,
#: stored size, refcount.
_PBN_TYPECODES = ("I", "H", "I", "I")
#: Bytes per PBN of each :class:`PbnColumns` image, in field order (the
#: last is the 32-byte digest).
PBN_COLUMN_WIDTHS = tuple(
    array(code).itemsize for code in _PBN_TYPECODES
) + (FINGERPRINT_SIZE,)


def _image(column: "Column") -> bytes:
    """A column's little-endian byte image (the checkpoint format)."""
    if sys.byteorder == "big":  # pragma: no cover - little-endian hosts
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


def _column(typecode: str, image: bytes) -> "Column":
    """Inverse of :func:`_image`; ``ValueError`` on a ragged image."""
    column = array(typecode)
    column.frombytes(image)
    if sys.byteorder == "big":  # pragma: no cover - little-endian hosts
        column.byteswap()
    return column


class PbnRecord:
    """Physical placement and liveness of one stored chunk.

    ``offset`` is in container-local *slot* units chosen by the container
    layer so it fits the 2-byte field; ``stored_size`` is the compressed
    byte count.  ``fingerprint`` is retained so the Hash-PBN entry can be
    removed when the last reference drops.

    :meth:`PbnMap.get` builds one as a detached view of the map's
    columns for the cold paths (garbage collection, journal replay,
    invariants, tests); changing it does not change the map.
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


#: What :meth:`PbnMap.unref` returns when the last reference drops:
#: ``(container_id, offset, stored_size, fingerprint)`` — a plain tuple,
#: built once per reclaimed chunk.
DeadChunk = Tuple[int, int, int, bytes]


class LbaMap:
    """LBA → PBN map as 4-KiB pages of 512 eight-byte slots.

    A production system keeps this as a flat array on SSD with a small
    DRAM cache (§2.1.4 notes address locality makes that cheap).  The
    functional model keeps the array itself, paged so a sparse address
    space costs only the pages it touches: a dict of ``array('Q')``
    pages keyed by ``lba // 512``.  A slot holds ``pbn + 1``; 0 means
    unmapped.  Slots are 8 bytes in memory, where the paper's entry is
    6: decoding a 6-byte slot costs ~4x an array index per ``set``, so
    the ledger (:attr:`metadata_bytes`) charges the paper's size and the
    host pays two bytes more.
    """

    def __init__(self) -> None:
        self._pages: Dict[int, "Column"] = {}
        self._count = 0

    def get(self, lba: int) -> Optional[int]:
        page = self._pages.get(lba >> _PAGE_SHIFT)
        if page is None:
            return None
        value = page[lba & _SLOT_MASK]
        return value - 1 if value else None

    def get_many(self, lbas: Iterable[int]) -> List[Optional[int]]:  # repro-lint: hot-path
        """:meth:`get` per LBA, in one call (a read pass)."""
        pages = self._pages
        found: List[Optional[int]] = []
        for lba in lbas:
            page = pages.get(lba >> _PAGE_SHIFT)
            value = 0 if page is None else page[lba & _SLOT_MASK]
            found.append(value - 1 if value else None)
        return found

    def set(self, lba: int, pbn: int) -> Optional[int]:
        """Map ``lba`` to ``pbn``; returns the previous PBN if remapped."""
        if lba < 0 or pbn < 0:
            raise ValueError(f"cannot map LBA {lba} to PBN {pbn}")
        page = self._pages.get(lba >> _PAGE_SHIFT)
        if page is None:
            page = self._pages[lba >> _PAGE_SHIFT] = _ZERO_PAGE[:]
        slot = lba & _SLOT_MASK
        previous = page[slot]
        page[slot] = pbn + 1
        if previous:
            return previous - 1
        self._count += 1
        return None

    def unmap(self, lba: int) -> Optional[int]:
        """Drop the mapping (TRIM/discard); returns the old PBN if any."""
        page = self._pages.get(lba >> _PAGE_SHIFT)
        if page is None:
            return None
        slot = lba & _SLOT_MASK
        previous = page[slot]
        if not previous:
            return None
        page[slot] = 0
        self._count -= 1
        return previous - 1

    def __len__(self) -> int:
        return self._count

    def __contains__(self, lba: int) -> bool:
        return self.get(lba) is not None

    def items(self) -> Iterator[Tuple[int, int]]:
        """Every ``(lba, pbn)`` mapping, in ascending LBA order."""
        for key in sorted(self._pages):
            base = key << _PAGE_SHIFT
            for slot, value in enumerate(self._pages[key]):
                if value:
                    yield base + slot, value - 1

    def page_images(self) -> List[Tuple[int, bytes]]:
        """``(page index, page image)`` per page holding a mapping, in
        page order — what a checkpoint copies."""
        return [
            (key, _image(page))
            for key, page in sorted(self._pages.items())
            if page.count(0) != LBA_PAGE_SLOTS
        ]

    @classmethod
    def from_page_images(cls, images: List[Tuple[int, bytes]]) -> "LbaMap":
        """Rebuild a map from :meth:`page_images`; ``ValueError`` on a
        page of the wrong size or a repeated page index."""
        lba_map = cls()
        for key, image in images:
            page = _column("Q", image)
            if len(page) != LBA_PAGE_SLOTS or key in lba_map._pages:
                raise ValueError(f"malformed LBA page {key}")
            lba_map._pages[key] = page
            lba_map._count += LBA_PAGE_SLOTS - page.count(0)
        return lba_map

    @property
    def metadata_bytes(self) -> int:
        """On-disk footprint of the current map (the paper's 6-B entry)."""
        return self._count * LBA_PBN_ENTRY_SIZE


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

    def restore(self, next_pbn: int, live: "PbnMap") -> None:
        """Checkpoint restore: the cursor at ``next_pbn``, and every PBN
        below it that ``live`` holds no chunk for on the free list, in
        ascending order."""
        if self._next or self._free:
            raise ValueError("restore needs a fresh allocator")
        free = [pbn for pbn in range(next_pbn) if pbn not in live]
        if next_pbn - len(free) != len(live):
            raise ValueError(f"live PBNs past the allocator cursor {next_pbn}")
        self._free = free
        self._next = next_pbn

    @property
    def next_pbn(self) -> int:
        """The never-allocated cursor (checkpointed for exact restore)."""
        return self._next

    @property
    def allocated(self) -> int:
        return self._next - len(self._free)


class PbnColumns(NamedTuple):
    """Byte images of a :class:`PbnMap`'s columns, one entry per PBN
    below the columns' length, little-endian (widths in
    :data:`PBN_COLUMN_WIDTHS`)."""

    containers: bytes  #: container id per PBN, ``array('I')``
    offsets: bytes  #: granule offset per PBN, ``array('H')``
    sizes: bytes  #: stored size per PBN, ``array('I')``; 0 = no chunk
    refcounts: bytes  #: references per PBN, ``array('I')``
    digests: bytes  #: 32-byte fingerprint per PBN


class PbnMap:
    """PBN → placement records with reference counting, as columns.

    PBNs are dense (:class:`PbnAllocator` reuses a freed PBN before it
    advances its cursor), so the map is a set of PBN-indexed ``array``
    columns — container id, granule offset, stored size, refcount — plus
    one 32-byte-stride ``bytearray`` of fingerprints.  A PBN holds a
    chunk iff its stored size is non-zero (stored sizes are always
    positive).  The hot paths read the columns through narrow accessors
    — :meth:`placements` for a read pass, :meth:`refcount` for the
    write planner, and :meth:`unref`'s :data:`DeadChunk` tuple for a
    release — and :meth:`get` builds a :class:`PbnRecord` view for
    everything else.

    Two reverse indexes are maintained incrementally alongside the
    columns (every mutation goes through :meth:`add`, :meth:`unref` and
    :meth:`repoint`, so they can never drift):

    * fingerprint → PBN (:meth:`find_by_fingerprint`) — a read-only
      mirror of the live Hash-PBN table content, used by the batched
      write planner to classify chunks without touching the table
      cache.  It costs ~0.2 µs per digest where a probe of the table's
      page store costs 2–3 µs, and the planner it feeds is what lets a
      batch compress as one call (DESIGN.md §5.2);
      :func:`~repro.analysis.invariants.check_engine` checks it against
      the table.
    * container → the PBNs placed in it, in placement order
      (:meth:`owners`) — used by garbage collection and recovery to
      resolve a container's offsets without rescanning every PBN.  A
      list only grows while its container holds a live chunk: an entry
      whose chunk died or moved away stays, and reads check every
      entry against the columns.  The engine forgets the list when the
      container's last live chunk dies or compaction empties it.
    """

    def __init__(self) -> None:
        self._containers: "Column" = array(_PBN_TYPECODES[0])
        self._offsets: "Column" = array(_PBN_TYPECODES[1])
        self._sizes: "Column" = array(_PBN_TYPECODES[2])
        self._refcounts: "Column" = array(_PBN_TYPECODES[3])
        self._digests = bytearray()
        self._by_fingerprint: Dict[bytes, int] = {}
        self._by_container: Dict[int, "Column"] = {}
        self._live = 0

    def _check_live(self, pbn: int) -> None:
        if not 0 <= pbn < len(self._sizes) or not self._sizes[pbn]:
            raise KeyError(f"PBN {pbn} has no record")

    def add(
        self,
        pbn: int,
        container_id: int,
        offset: int,
        stored_size: int,
        fingerprint: bytes,
        refcount: int = 1,
    ) -> None:  # repro-lint: hot-path
        """Place a chunk at ``pbn`` with ``refcount`` references."""
        if stored_size <= 0:
            raise ValueError("stored_size must be positive")
        if refcount < 0:
            raise ValueError("refcount cannot be negative")
        if len(fingerprint) != FINGERPRINT_SIZE:
            raise ValueError(f"fingerprint must be {FINGERPRINT_SIZE} bytes")
        sizes = self._sizes
        if pbn == len(sizes):  # the allocator's fresh cursor
            self._containers.append(container_id)
            self._offsets.append(offset)
            sizes.append(stored_size)
            self._refcounts.append(refcount)
            self._digests += fingerprint
        else:
            if pbn < 0:
                raise ValueError(f"negative PBN {pbn}")
            if pbn > len(sizes):
                self._grow(pbn + 1)
            elif sizes[pbn]:
                raise ValueError(f"PBN {pbn} already present")
            self._containers[pbn] = container_id
            self._offsets[pbn] = offset
            sizes[pbn] = stored_size
            self._refcounts[pbn] = refcount
            start = pbn * FINGERPRINT_SIZE
            self._digests[start : start + FINGERPRINT_SIZE] = fingerprint
        self._by_fingerprint[fingerprint] = pbn
        # :meth:`_place`, inlined: one add per unique chunk.
        pbns = self._by_container.get(container_id)
        if pbns is None:
            pbns = self._by_container[container_id] = array("Q")
        pbns.append(pbn)
        self._live += 1

    def _grow(self, length: int) -> None:
        """Extend every column to ``length`` PBNs with free entries."""
        extra = length - len(self._sizes)
        for column in (
            self._containers, self._offsets, self._sizes, self._refcounts
        ):
            column.frombytes(bytes(column.itemsize * extra))
        self._digests += bytes(extra * FINGERPRINT_SIZE)

    def _place(self, pbn: int, container_id: int) -> None:
        pbns = self._by_container.get(container_id)
        if pbns is None:
            pbns = self._by_container[container_id] = array("Q")
        pbns.append(pbn)

    def get(self, pbn: int) -> PbnRecord:
        """A detached :class:`PbnRecord` view of ``pbn`` (cold paths)."""
        self._check_live(pbn)
        return PbnRecord(
            container_id=self._containers[pbn],
            offset=self._offsets[pbn],
            stored_size=self._sizes[pbn],
            fingerprint=self.fingerprint(pbn),
            refcount=self._refcounts[pbn],
        )

    def placements(
        self, pbns: Iterable[Optional[int]]
    ) -> List[Optional[Tuple[int, int, int]]]:  # repro-lint: hot-path
        """``(container_id, offset, stored_size)`` per live PBN, in one
        call (a read pass); ``None`` stays ``None`` (an unmapped
        position), and a PBN with no chunk raises ``KeyError``."""
        containers, offsets, sizes = self._containers, self._offsets, self._sizes
        found: List[Optional[Tuple[int, int, int]]] = []
        for pbn in pbns:
            if pbn is None:
                found.append(None)
                continue
            try:
                stored_size = sizes[pbn]
            except IndexError:
                stored_size = 0
            if not stored_size or pbn < 0:
                raise KeyError(f"PBN {pbn} has no record")
            found.append((containers[pbn], offsets[pbn], stored_size))
        return found

    def refcount(self, pbn: int) -> int:  # repro-lint: hot-path
        """References a live PBN holds."""
        if not 0 <= pbn < len(self._sizes) or not self._sizes[pbn]:
            raise KeyError(f"PBN {pbn} has no record")
        return self._refcounts[pbn]

    def fingerprint(self, pbn: int) -> bytes:
        """The fingerprint in ``pbn``'s digest column entry."""
        start = pbn * FINGERPRINT_SIZE
        return bytes(self._digests[start : start + FINGERPRINT_SIZE])

    def ref(self, pbn: int) -> int:  # repro-lint: hot-path
        """Add one reference; returns the new count."""
        if not 0 <= pbn < len(self._sizes) or not self._sizes[pbn]:
            raise KeyError(f"PBN {pbn} has no record")
        count = self._refcounts[pbn] + 1
        self._refcounts[pbn] = count
        return count

    def unref(self, pbn: int) -> Optional[DeadChunk]:  # repro-lint: hot-path
        """Drop one reference.

        Returns the chunk's :data:`DeadChunk` if this was the last
        reference (the caller reclaims the chunk), else ``None``.
        """
        sizes = self._sizes
        if not 0 <= pbn < len(sizes) or not sizes[pbn]:
            raise KeyError(f"PBN {pbn} has no record")
        refcounts = self._refcounts
        count = refcounts[pbn]
        if count <= 0:
            raise ValueError(f"PBN {pbn} already dead")
        refcounts[pbn] = count - 1
        if count > 1:
            return None
        stored_size = sizes[pbn]
        sizes[pbn] = 0
        self._live -= 1
        digest = self.fingerprint(pbn)
        if self._by_fingerprint.get(digest) == pbn:
            del self._by_fingerprint[digest]
        return self._containers[pbn], self._offsets[pbn], stored_size, digest

    def repoint(self, pbn: int, container_id: int, offset: int) -> None:
        """Move a chunk's placement (garbage-collection compaction)."""
        self._check_live(pbn)
        self._containers[pbn] = container_id
        self._offsets[pbn] = offset
        self._place(pbn, container_id)

    def find_by_fingerprint(self, digest: bytes) -> Optional[int]:
        """The live PBN storing ``digest``, if any.

        Mirrors the Hash-PBN table's content (both are mutated in
        lock-step by the engine), but resolves from a host-memory dict,
        so probing it never perturbs table-cache state or accounting.
        """
        return self._by_fingerprint.get(digest)

    def owners(self, container_id: int) -> Dict[int, int]:
        """``{offset: pbn}`` of the live chunks placed in a container.

        Built from the container's PBN list; a stale entry (a chunk
        that died or moved, a PBN since reused elsewhere) fails the
        check against the columns and is skipped.
        """
        found: Dict[int, int] = {}
        containers, offsets, sizes = self._containers, self._offsets, self._sizes
        for pbn in self._by_container.get(container_id, ()):
            if sizes[pbn] and containers[pbn] == container_id:
                found[offsets[pbn]] = pbn
        return found

    def listed_containers(self) -> List[int]:
        """Every container id that has a PBN list."""
        return list(self._by_container)

    def forget_container(self, container_id: int) -> None:
        """Drop a container's PBN list (it holds no live chunk)."""
        self._by_container.pop(container_id, None)

    def __len__(self) -> int:
        return self._live

    def __contains__(self, pbn: int) -> bool:
        return 0 <= pbn < len(self._sizes) and self._sizes[pbn] != 0

    def pbns(self) -> Iterator[int]:
        """Every live PBN, ascending."""
        return (pbn for pbn, size in enumerate(self._sizes) if size)

    def records(self) -> Iterator[Tuple[int, PbnRecord]]:
        """``(pbn, record view)`` per live PBN, ascending (cold paths)."""
        return ((pbn, self.get(pbn)) for pbn in self.pbns())

    @property
    def mirrored(self) -> int:
        """Entries in the fingerprint mirror."""
        return len(self._by_fingerprint)

    def columns(self) -> PbnColumns:
        """Byte images of every column — what a checkpoint copies."""
        return PbnColumns(
            _image(self._containers),
            _image(self._offsets),
            _image(self._sizes),
            _image(self._refcounts),
            bytes(self._digests),
        )

    @classmethod
    def from_columns(cls, columns: PbnColumns) -> "PbnMap":
        """Rebuild a map (and its reverse indexes) from :meth:`columns`.

        Raises ``ValueError`` when the images disagree in length or two
        live PBNs share a fingerprint.
        """
        pbn_map = cls()
        (
            pbn_map._containers,
            pbn_map._offsets,
            pbn_map._sizes,
            pbn_map._refcounts,
        ) = (
            _column(code, image)
            for code, image in zip(_PBN_TYPECODES, columns)
        )
        sizes = pbn_map._sizes
        pbn_map._digests = bytearray(columns.digests)
        length = len(sizes)
        if (
            len(pbn_map._containers) != length
            or len(pbn_map._offsets) != length
            or len(pbn_map._refcounts) != length
            or len(pbn_map._digests) != length * FINGERPRINT_SIZE
        ):
            raise ValueError("PBN column images differ in length")
        for pbn in pbn_map.pbns():
            digest = pbn_map.fingerprint(pbn)
            if digest in pbn_map._by_fingerprint:
                raise ValueError(f"PBNs {pbn_map._by_fingerprint[digest]} "
                                 f"and {pbn} share a fingerprint")
            pbn_map._by_fingerprint[digest] = pbn
            pbn_map._place(pbn, pbn_map._containers[pbn])
            pbn_map._live += 1
        return pbn_map

    @property
    def live_stored_bytes(self) -> int:
        return sum(self._sizes)

    @property
    def metadata_bytes(self) -> int:
        return self._live * PBN_PBA_ENTRY_SIZE


def mapping_bytes_for_capacity(logical_bytes: int, chunk_size: int = 4096) -> int:
    """Total LBA-PBA metadata for a fully-mapped logical capacity.

    Multi-TB at PB scale, which is why the paper keeps it on SSD with a
    small DRAM cache (§2.1.4).
    """
    if logical_bytes < 0 or chunk_size <= 0:
        raise ValueError("sizes must be non-negative / positive")
    chunks = logical_bytes // chunk_size
    return chunks * (LBA_PBN_ENTRY_SIZE + PBN_PBA_ENTRY_SIZE)
