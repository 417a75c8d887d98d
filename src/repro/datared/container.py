"""Compressed-chunk containers (paper §2.1.4, §5.3 step 8).

Because compressed chunks have variable size, the server packs them into
large *containers* (default 4 MB) and writes each sealed container to the
data SSDs as one sequential block.  A chunk's physical address is then
``(container id, offset within container)``.

The PBN→PBA entry stores the offset in 2 bytes, which with 4-MB
containers implies a 64-byte allocation granule (4 MiB / 2^16 = 64 B);
chunks are aligned up to the granule inside a container.

The container layer also tracks live vs. dead bytes per container so a
garbage collector can pick compaction victims — dedup systems must
reclaim space when overwrites drop the last reference to a chunk.
"""

from __future__ import annotations

import copy
import sys
from array import array
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

__all__ = [
    "CONTAINER_SIZE",
    "OFFSET_GRANULE",
    "Placement",
    "Container",
    "ContainerStore",
]

#: Default sealed-container size: the 4-MB threshold of §5.3.
CONTAINER_SIZE = 4 * 1024 * 1024

#: Allocation granule inside a container, sized so a 2-byte offset field
#: addresses the whole 4-MB container (4 MiB / 65536).
OFFSET_GRANULE = 64


#: ``sys.getsizeof`` of a dict that never held a key.
_EMPTY_DICT_BYTES = sys.getsizeof({})


def _granules(num_bytes: int) -> int:
    """Bytes rounded up to whole granules."""
    return -(-num_bytes // OFFSET_GRANULE)


class Placement(NamedTuple):
    """Where a stored chunk lives: container + granule offset + size.

    A :class:`~typing.NamedTuple` — one is built per unique chunk on the
    write path, where tuple construction beats frozen-dataclass field
    assignment ~2x (measured on the ``pack`` stage).
    """

    container_id: int
    offset: int  #: in OFFSET_GRANULE units (the 2-byte PBA field)
    stored_size: int  #: bytes charged against container space


class Container:
    """One (possibly still open) container of packed compressed chunks.

    Payloads are kept per-offset so that modelled compression (where the
    retained payload is larger than the charged ``stored_size``) still
    reads back exactly; space accounting always uses ``stored_size``.

    Each chunk's offset and stored size also go into two ``array``
    columns in append order (offsets only grow within a container), so
    a placement costs 6 bytes of bookkeeping rather than a dict entry;
    a chunk is live while its offset still has a payload.  The payloads
    stay a dict: a read resolves its offset there in one hash probe,
    where a bisect over the offset column costs ~17x that.

    A sealed container whose last live chunk dies drops its payload
    dict and both columns (a dict never shrinks on delete, so an
    emptied one would keep its whole table) and keeps only its
    counters: live, total and fill bytes, and ``sealed``.
    """

    def __init__(
        self, container_id: int, capacity: int = CONTAINER_SIZE
    ) -> None:
        if capacity <= 0 or capacity % OFFSET_GRANULE != 0:
            raise ValueError("capacity must be a positive multiple of the granule")
        if capacity // OFFSET_GRANULE > 0x10000:
            raise ValueError("capacity exceeds the 2-byte offset field")
        self.container_id = container_id
        self.capacity = capacity
        self.sealed = False
        self._fill_granules = 0
        self._payloads: Dict[int, bytes] = {}
        self._offsets = array("H")
        self._sizes = array("I")
        self.live_bytes = 0
        self.total_bytes = 0

    def has_room(self, stored_size: int) -> bool:
        needed = _granules(stored_size)
        return self._fill_granules + needed <= self.capacity // OFFSET_GRANULE

    def append(
        self, payload: Union[bytes, bytearray, memoryview], stored_size: int
    ) -> Placement:  # repro-lint: hot-path
        """Pack one chunk; returns its placement within this container.

        This is the materialization boundary of the zero-copy write path
        (DESIGN.md §5.4): a view payload is copied into an owned buffer
        here, so the stored bytes survive any later mutation of the
        caller's write buffer.
        """
        if self.sealed:
            raise ValueError("container is sealed")
        if stored_size <= 0:
            raise ValueError("stored_size must be positive")
        if not self.has_room(stored_size):
            raise ValueError("container has no room")
        if type(payload) is not bytes:
            payload = bytes(payload)  # repro-lint: copy-ok the container must own its payload bytes
        offset = self._fill_granules
        self._fill_granules += -(-stored_size // OFFSET_GRANULE)
        self._payloads[offset] = payload
        self._offsets.append(offset)
        self._sizes.append(stored_size)
        self.live_bytes += stored_size
        self.total_bytes += stored_size
        return Placement(self.container_id, offset, stored_size)

    def read(self, offset: int) -> bytes:
        try:
            return self._payloads[offset]
        except KeyError:
            raise KeyError(
                f"container {self.container_id} has no chunk at offset {offset}"
            ) from None

    def mark_dead(self, offset: int, stored_size: int) -> bool:
        """Account a chunk as garbage (last reference dropped); True
        when it was the container's last live chunk."""
        if offset not in self._payloads:
            raise KeyError(f"no chunk at offset {offset}")
        del self._payloads[offset]
        self.live_bytes -= stored_size
        if self.live_bytes < 0:
            raise ValueError("live bytes went negative; double free?")
        if self._payloads:
            return False
        if self.sealed:
            self._release()
        return True

    def seal(self) -> None:
        self.sealed = True
        if not self._payloads:
            self._release()

    def _release(self) -> None:
        """Drop the per-chunk tables of a container with no live chunk."""
        self._payloads = {}
        self._offsets = array("H")
        self._sizes = array("I")

    @property
    def holds_tables(self) -> bool:
        """Whether any per-chunk table still holds memory: an entry in
        a column, or a payload dict grown past an empty one."""
        return bool(self._offsets or self._sizes) or (
            sys.getsizeof(self._payloads) > _EMPTY_DICT_BYTES
        )

    @property
    def fill_bytes(self) -> int:
        """Bytes consumed including granule-alignment padding."""
        return self._fill_granules * OFFSET_GRANULE

    @property
    def garbage_fraction(self) -> float:
        if self.total_bytes == 0:
            return 0.0
        return 1.0 - self.live_bytes / self.total_bytes

    def chunks(self) -> List[Tuple[int, bytes]]:
        """Live (offset, payload) pairs, for compaction."""
        return sorted(self._payloads.items())

    def live_chunks(self) -> List[Tuple[int, int]]:
        """Live (offset, stored_size) pairs, for recovery reconciliation."""
        payloads = self._payloads
        return [
            (offset, stored_size)
            for offset, stored_size in zip(self._offsets, self._sizes)
            if offset in payloads
        ]


class ContainerStore:
    """Manages the open container and all sealed ones.

    ``on_seal`` fires with the sealed :class:`Container` — the system
    layer hooks it to charge the sequential data-SSD write (§6.1: "write
    requests to data SSDs for the compressed chunks are sequential").
    """

    def __init__(
        self,
        container_size: int = CONTAINER_SIZE,
        on_seal: Optional[Callable[[Container], None]] = None,
    ) -> None:
        self.container_size = container_size
        self.on_seal = on_seal
        self._containers: Dict[int, Container] = {}
        self._next_id = 0
        self._open: Optional[Container] = None
        self.sealed_count = 0

    def __deepcopy__(self, memo: Dict[int, object]) -> "ContainerStore":
        """Deep-copy the payloads but *not* the ``on_seal`` callback.

        A deep copy of a store is a crash/recovery image: the bytes
        survive, the callback into the dead process's system (device
        models, ledgers, locks) does not — and copying it would drag
        that whole object graph along.  ``build_engine`` re-wires the
        recovered store onto the new build's hook.
        """
        clone = self.__class__.__new__(self.__class__)
        memo[id(self)] = clone
        for key, value in self.__dict__.items():
            if key == "on_seal":
                clone.on_seal = None
            else:
                setattr(clone, key, copy.deepcopy(value, memo))
        return clone

    def _new_container(self) -> Container:
        container = Container(self._next_id, self.container_size)
        self._containers[self._next_id] = container
        self._next_id += 1
        return container

    def append(
        self, payload: Union[bytes, bytearray, memoryview], stored_size: int
    ) -> Placement:  # repro-lint: hot-path
        """Pack a chunk, opening/sealing containers as needed."""
        if self._open is None:
            self._open = self._new_container()
        if not self._open.has_room(stored_size):
            self.seal_open()
            self._open = self._new_container()
        return self._open.append(payload, stored_size)

    def seal_open(self) -> Optional[Container]:
        """Seal the open container (end of batch / shutdown flush)."""
        container, self._open = self._open, None
        if container is None:
            return None
        container.seal()
        self.sealed_count += 1
        if self.on_seal is not None:
            self.on_seal(container)
        return container

    def read(self, container_id: int, offset: int) -> bytes:
        return self._get(container_id).read(offset)

    def mark_dead(self, container_id: int, offset: int, stored_size: int) -> bool:
        """:meth:`Container.mark_dead` by id; True when the container
        has no live chunk left."""
        return self._get(container_id).mark_dead(offset, stored_size)

    def holds_live(self, container_id: int) -> bool:
        """Whether the container exists and holds a live chunk."""
        container = self._containers.get(container_id)
        return container is not None and container.live_bytes > 0

    def _get(self, container_id: int) -> Container:
        try:
            return self._containers[container_id]
        except KeyError:
            raise KeyError(f"unknown container {container_id}") from None

    def garbage_victims(self, threshold: float = 0.5) -> List[Container]:
        """Sealed containers whose garbage fraction exceeds ``threshold``."""
        return [
            container
            for container in self._containers.values()
            if container.sealed and container.garbage_fraction > threshold
        ]

    def drop(self, container_id: int) -> None:
        """Remove a fully-compacted container."""
        container = self._get(container_id)
        if container.live_bytes != 0:
            raise ValueError("container still holds live chunks")
        del self._containers[container_id]

    def live_placements(self) -> List[Tuple[int, int, int]]:
        """Every live placement as ``(container_id, offset, stored_size)``.

        A snapshot list (recovery reconciliation marks placements dead
        while walking it).
        """
        return [
            (container.container_id, offset, stored_size)
            for container in self._containers.values()
            for offset, stored_size in container.live_chunks()
        ]

    @property
    def live_bytes(self) -> int:
        return sum(c.live_bytes for c in self._containers.values())

    @property
    def total_bytes(self) -> int:
        return sum(c.total_bytes for c in self._containers.values())

    @property
    def container_count(self) -> int:
        return len(self._containers)
