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
from typing import Optional

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
    def _read_run(self, lba: int, count: int) -> bytes:  # repro-lint: holds self.lock
        """§8: chunks the hot-read cache holds are served from host DRAM,
        the sub-runs between them by the engine."""
        hot = self.hot_read_cache
        if hot is None:
            return super()._read_run(lba, count)
        step = self.engine.chunker.blocks_per_chunk
        pieces, start, end = [], lba, lba + count * step
        for chunk_lba in range(lba, end, step):
            if start < chunk_lba and chunk_lba in hot:
                # The open sub-run's admissions can evict this entry: they
                # land before the probe, as they do one chunk at a time.
                pieces.append(super()._read_run(start, (chunk_lba - start) // step))
                start = chunk_lba
            cached = hot.get(chunk_lba)
            if cached is not None:
                self.memory.read(MemPath.HOT_READ, len(cached))
                self.pcie.transfer(HOST, _NIC, len(cached))
                self.nic.send_read_data(cached)
                self.cpu.charge(CpuTask.LBA_MAP, self.config.cpu.lba_map_lookup)
                pieces.append(cached)
                start = chunk_lba + step
        if start < end:
            pieces.append(super()._read_run(start, (end - start) // step))
        return pieces[0] if len(pieces) == 1 else b"".join(pieces)

    def _charge_read(self, lba: int, count: int, report: ReadReport, fetched: int) -> None:  # repro-lint: holds self.lock
        super()._charge_read(lba, count, report, fetched)
        if self.hot_read_cache is None or not fetched:
            return
        step = self.engine.chunker.blocks_per_chunk
        size = len(report.data) // count
        for position, stored in enumerate(report.stored_sizes):
            chunk = slice(position * size, (position + 1) * size)
            if stored and self.hot_read_cache.offer(lba + position * step, report.data[chunk]):
                self.memory.write(MemPath.HOT_READ, size)  # one DRAM write
