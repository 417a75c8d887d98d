"""FIDR extensions the paper names but leaves unbuilt.

Two come from the paper's own text:

* **NVMe read-stack offload** (§7.5): Read-Mixed throughput stops
  scaling because the data-SSD software stack stays on the CPU — "We can
  also offload this NVMe software stack to FPGA, but we left it as
  future work."  :class:`ExtendedFidrSystem` with
  ``nvme_read_offload=True`` moves read submission/completion queues to
  the Decompression Engine, the same trick §6.1 already applies to table
  SSDs.
* **Hot-block read caching** (§8): for skewed read access "we can extend
  FIDR software and the LBA-PBA table to maintain frequently accessed
  blocks in main memory."  :class:`HotReadCache` is that extension — a
  host-DRAM cache of decompressed chunks with second-access admission,
  so one-touch scans don't flush it.

Both are opt-in and default off, so the plain :class:`FidrSystem`
remains exactly the paper's system.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional, Set

from ..datared.dedup import ReadReport
from ..errors import CapacityError
from ..hw.pcie import HOST
from .accounting import CpuTask, MemPath
from .fidr import FidrSystem, _NIC

__all__ = ["HotReadCache", "ExtendedFidrSystem"]


class HotReadCache:
    """Host-memory cache of decompressed chunks for skewed reads.

    Admission is frequency-gated: a chunk is cached only on its second
    read while it is tracked in the ghost list (first reads merely leave
    a marker), so sequential scans cannot evict the genuinely hot set.
    Any write to an LBA invalidates its cached copy.
    """

    def __init__(self, capacity_chunks: int, ghost_entries: Optional[int] = None):
        if capacity_chunks < 1:
            raise CapacityError("capacity must be at least one chunk")
        self.capacity = capacity_chunks
        self._data: "OrderedDict[int, bytes]" = OrderedDict()
        self._ghost: "OrderedDict[int, None]" = OrderedDict()
        self._ghost_capacity = (
            ghost_entries if ghost_entries is not None else capacity_chunks * 4
        )
        self.hits = 0
        self.misses = 0

    def get(self, lba: int) -> Optional[bytes]:
        data = self._data.get(lba)
        if data is not None:
            self._data.move_to_end(lba)
            self.hits += 1
            return data
        self.misses += 1
        return None

    def offer(self, lba: int, data: bytes) -> bool:
        """Consider caching a chunk just served; returns True if cached."""
        if lba in self._data:
            self._data[lba] = data
            self._data.move_to_end(lba)
            return True
        if lba not in self._ghost:
            # First sight: remember it, do not cache yet.
            self._ghost[lba] = None
            if len(self._ghost) > self._ghost_capacity:
                self._ghost.popitem(last=False)
            return False
        del self._ghost[lba]
        self._data[lba] = data
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)
        return True

    def __contains__(self, lba: int) -> bool:
        return lba in self._data

    def invalidate(self, lba: int) -> None:
        self._data.pop(lba, None)
        self._ghost.pop(lba, None)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._data)


class ExtendedFidrSystem(FidrSystem):
    """FIDR plus the paper's future-work/discussion features."""

    name = "FIDR (extended)"

    def __init__(
        self,
        *args,
        nvme_read_offload: bool = False,
        hot_read_cache_chunks: int = 0,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.nvme_read_offload = nvme_read_offload
        self.hot_read_cache = (
            HotReadCache(hot_read_cache_chunks) if hot_read_cache_chunks else None
        )
        if nvme_read_offload:
            self.name = "FIDR (+NVMe read offload)"
        if self.hot_read_cache is not None:
            self.name += " (+hot read cache)"

    # -- write path: invalidate cached copies -------------------------------------------
    def _enqueue(self, chunk) -> None:
        if self.hot_read_cache is not None:
            self.hot_read_cache.invalidate(chunk.lba)
        super()._enqueue(chunk)

    # -- read path (Figure 6b, extended) -----------------------------------------------------
    def _staged_lookup(self, close: Callable[[], None]) -> Callable[[int], Optional[bytes]]:
        """§8: what neither the NIC buffer nor the hot-read cache holds
        is the engine's; a cached chunk is served from host DRAM."""
        staged, hot = super()._staged_lookup(close), self.hot_read_cache
        if hot is None:
            return staged
        opened: Set[int] = set()  # LBAs the open engine pass will fetch

        def serves(lba: int) -> Optional[bytes]:
            data = staged(lba)
            if data is not None:
                return data
            # Close before probe: the open pass's admissions can evict
            # this entry — or, for an LBA it fetches too, admit it — and
            # they land before this probe when chunks are read one by one.
            if opened and (lba in hot or lba in opened):
                close()
                opened.clear()
            cached = hot.get(lba)
            if cached is None:
                opened.add(lba)
                return None
            self.memory.read(MemPath.HOT_READ, len(cached))
            self.pcie.transfer(HOST, _NIC, len(cached))
            self.nic.send_read_data(len(cached))
            self.cpu.charge(CpuTask.LBA_MAP, self.config.cpu.lba_map_lookup)
            return cached

        return serves

    def _charge_read(self, lbas: List[int], report: ReadReport, fetched: int) -> None:
        super()._charge_read(lbas, report, fetched)
        hot = self.hot_read_cache
        if hot is None or not fetched:
            return
        for lba, piece, stored in zip(lbas, report.pieces, report.stored_sizes):
            if stored and hot.offer(lba, piece):
                self.memory.write(MemPath.HOT_READ, len(piece))  # one DRAM write
