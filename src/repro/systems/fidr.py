"""The FIDR system (paper §5, Figure 6).

All three ideas are wired in:

a. **Hash offloading to the NIC** — chunks are fingerprinted in the NIC;
   only 32-byte digests reach the host, and the predictor disappears.
b. **In-NIC buffering + PCIe peer-to-peer** — client data never touches
   host DRAM on the write path: NIC → Compression Engine → data SSD runs
   under one PCIe switch.  The read path is data SSD → Decompression
   Engine → NIC, also peer-to-peer.
c. **Hybrid table caching** — tree indexing, free-list/eviction handling
   and table-SSD queues run on the Cache HW-Engine; host DRAM holds the
   cached bucket *content* and the CPU only scans it.

Write flow (Figure 6a, steps 1-10) and read flow (Figure 6b, steps 1-8)
follow the paper's numbering in the code comments.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..cache.table_cache import BTreeIndex, CacheIndex, HwTreeIndex
from ..datared.chunking import Chunk
from ..datared.compression import Compressor
from ..obs.metrics import MetricsRegistry
from ..datared.container import Container
from ..datared.dedup import ReadReport
from ..hw.nic import FidrNic
from ..hw.pcie import HOST, PcieTopology
from ..hw.specs import ServerSpec
from .accounting import CpuTask, MemPath
from .base import ReductionSystem
from .config import SystemConfig

__all__ = ["FidrSystem"]

_NIC = "fidr-nic"
_COMP = "compression-engine"
_DECOMP = "decompression-engine"
_DATA_SSD = "data-ssd"
_CACHE_ENGINE = "cache-hw-engine"
_TABLE_SSD = "table-ssd"


class FidrSystem(ReductionSystem):
    """FIDR: NIC hashing + P2P transfers + hybrid table caching."""

    TABLE_QUEUE_OWNER = "engine"
    name = "FIDR"
    nvme_read_offload = False  #: §7.5: data-SSD read queues stay on the host NVMe stack

    def __init__(
        self,
        server: Optional[ServerSpec] = None,
        config: Optional[SystemConfig] = None,
        num_buckets: int = 1 << 15,
        cache_lines: int = 1024,
        compressor: Optional[Compressor] = None,
        hw_cache_engine: bool = True,
    ):
        """``hw_cache_engine=False`` builds the Figure-14 intermediate
        configuration: NIC hashing and P2P transfers enabled, but table
        caching still fully host-side (software B+-tree, host NVMe
        queues for the table SSDs)."""
        self.hw_cache_engine = hw_cache_engine
        if not hw_cache_engine:
            self.TABLE_QUEUE_OWNER = "host"
            self.name = "FIDR (NIC+P2P only, software table cache)"
        super().__init__(
            server=server,
            config=config,
            num_buckets=num_buckets,
            cache_lines=cache_lines,
            compressor=compressor,
        )
        # The NIC's hash core models the engine's own fingerprinter, so
        # the digests it ships match whatever algorithm the codec policy
        # selected (idea a end-to-end, whichever plugin is configured).
        self.nic = FidrNic(
            self.server.nic, fingerprinter=self.engine.fingerprinter
        )
        self.engine.registry.register_collector(self._publish_fidr_metrics)

    def _publish_fidr_metrics(self, registry: MetricsRegistry) -> None:
        """Collector: NIC read-buffer effectiveness and the table
        cache's ledger as gauges."""
        rate = self._nic_buffer_hit_rate()
        registry.gauge("system.nic.buffer_hit_rate").set(
            rate if rate is not None else 0.0
        )
        self._publish_table_cache(registry)

    # -- wiring --------------------------------------------------------------------
    def _build_topology(self) -> PcieTopology:
        # §5.6: NIC + Compression Engine + data SSDs share a switch so
        # the write path is pure peer-to-peer; the Cache HW-Engine and
        # table SSDs share the second switch.
        topology = PcieTopology(
            num_switches=2, root_complex_bw=self.server.socket_pcie_bw
        )
        for device in (_NIC, _COMP, _DECOMP, _DATA_SSD):
            topology.attach(device, switch=0)
        for device in (_CACHE_ENGINE, _TABLE_SSD):
            topology.attach(device, switch=1)
        return topology

    def _make_index(self) -> CacheIndex:
        return HwTreeIndex() if self.hw_cache_engine else BTreeIndex()

    # -- write flow (Figure 6a) ------------------------------------------------------------
    def _enqueue(self, chunk: Chunk) -> None:
        """Step 1: buffer (and hash) the chunk in the NIC itself."""
        self.nic.buffer_write(chunk.lba, chunk.data)

    def _process_batch(self, chunks: List[Chunk]) -> None:
        costs = self.config.cpu
        count = len(chunks)

        # Step 2: NIC ships digests to the device manager.
        staged = self.nic.ship_digests(count)
        digest_bytes = self.config.digest_bytes * count
        self.pcie.transfer(_NIC, HOST, digest_bytes)
        self.memory.write(MemPath.METADATA, digest_bytes)
        self.memory.read(MemPath.METADATA, digest_bytes)
        self.cpu.charge(
            CpuTask.DEVICE_MANAGER, costs.device_manager_per_chunk * count
        )

        # Step 3: device manager sends bucket indexes to the Cache
        # HW-Engine (tiny messages, §5.6).
        self.pcie.transfer(HOST, _CACHE_ENGINE, self.config.bucket_index_bytes * count)

        # Steps 4-5: the engine resolves cache lines (tree + fetches run
        # on the engine); the host scans the cached content in DRAM.
        # Idea (a) end-to-end: the digests the NIC computed on ingest are
        # handed to the engine, which skips its host-side hash stage.  A
        # chunk owns its LBA's buffer entry when the entry holds the very
        # object the chunk does (identity: the host reads no payload) or,
        # being another write's, equal bytes (same content rewritten).
        # Otherwise a newer same-LBA write superseded it — the entry
        # carries *that* payload's digest — and it is re-fingerprinted.
        staged_by_lba = {entry.lba: entry for entry in staged}
        digests = []
        owned = []  # per chunk: its buffer entry, None once superseded
        for chunk in chunks:
            entry = staged_by_lba.get(chunk.lba)
            data = chunk.data
            if entry is None or (entry.data is not data and entry.data != data):
                entry = None
                digests.append(self.engine.fingerprinter.digest(data))
            else:
                digests.append(entry.digest)
            owned.append(entry)
        outcomes, delta = self._dedup_batch(chunks, digests=digests)
        self._charge_table_cache(delta)
        self.pcie.transfer(_CACHE_ENGINE, HOST, self.config.bucket_index_bytes * count)

        # Step 6: uniqueness flags back to the NIC.
        self.pcie.transfer(HOST, _NIC, self.config.flag_bytes * count)

        # Step 7: the NIC schedules a batch of unique chunks and sends it
        # peer-to-peer to the Compression Engine.
        flags = []
        unique_bytes = 0
        for chunk, outcome, entry in zip(chunks, outcomes, owned):
            if entry is None:
                # Superseded: whatever the buffer holds for this LBA is a
                # *newer* write.  It must stay buffered (and readable via
                # LBA Lookup) until its own batch commits, or reads in
                # between would see the stale mapping.
                continue
            is_unique = not outcome.duplicate
            flags.append((entry, is_unique))
            if is_unique:
                unique_bytes += len(chunk.data)
        self.nic.schedule_unique(flags)
        self.pcie.transfer(_NIC, _COMP, unique_bytes)  # P2P: no host DRAM

        # Step 8: compressed sizes + metadata to the host (tiny).
        unique_count = sum(1 for _, is_unique in flags if is_unique)
        metadata = self.config.batch_metadata_bytes * unique_count
        if metadata:
            self.pcie.transfer(_COMP, HOST, metadata)
            self.memory.write(MemPath.METADATA, metadata)
            self.memory.read(MemPath.METADATA, metadata)

        # Step 10: update cached table content for the new uniques and
        # the LBA-PBA map (host-side metadata work).
        self.cpu.charge(CpuTask.LBA_MAP, costs.lba_map_update * count)
        self.cpu.charge(
            CpuTask.CONTENT_UPDATE, costs.cache_content_update * unique_count
        )

    def _unstage(self, chunks: List[Chunk]) -> None:
        """A refused batch leaves the NIC buffer: its applied chunks
        are the engine's now and its refused ones are dropped.  A newer
        same-LBA write staged behind the batch keeps its entry."""
        for chunk in chunks:
            self.nic.discard(chunk.lba, chunk.data)

    def _charge_table_cache(self, delta) -> None:
        """Hybrid split (§5.5): content stays host-side, machinery moves
        to the engine — the host never pays tree/SSD/eviction cycles.
        With ``hw_cache_engine=False`` the host pays them all, exactly
        like the baseline."""
        costs = self.config.cpu
        self.memory.read(MemPath.TABLE_CACHE, delta.host_bytes_read)
        self.memory.write(MemPath.TABLE_CACHE, delta.host_bytes_written)
        self.cpu.charge(CpuTask.CONTENT, costs.bucket_scan * delta.content_scans)
        if not self.hw_cache_engine:
            self.cpu.charge(
                CpuTask.TREE, costs.tree_node_visit * delta.tree_node_visits
            )
            table_ssd_ops = delta.table_ssd_reads + delta.table_ssd_writes
            self.cpu.charge(CpuTask.TABLE_SSD, costs.table_ssd_io * table_ssd_ops)
            self.cpu.charge(CpuTask.REPLACEMENT, costs.eviction * delta.evictions)
        # Fetched/flushed buckets move table SSD ↔ host DRAM directly
        # (engine-issued DMA through the root complex, §5.6).
        self.pcie.transfer(_TABLE_SSD, HOST, delta.table_ssd_read_bytes)
        self.pcie.transfer(HOST, _TABLE_SSD, delta.table_ssd_write_bytes)

    def _on_container_seal(self, container: Container) -> None:
        """Step 9: the data SSD pulls the batch from the Compression
        Engine's memory, peer-to-peer."""
        size = container.fill_bytes
        self.pcie.transfer(_COMP, _DATA_SSD, size)
        self.data_array.drives[
            container.container_id % len(self.data_array)
        ].account_write(size)
        # NVMe queues for data SSDs stay host-side (§6.1).
        self.cpu.charge(CpuTask.DATA_SSD, self.config.cpu.data_ssd_io)

    # -- read flow (Figure 6b) ----------------------------------------------------------------
    def _staged_lookup(self, close: Callable[[], None]) -> Callable[[int], Optional[bytes]]:
        """Steps 1-2: LBA Lookup against the in-NIC write buffer."""
        return self.nic.lookup_read

    def _charge_read(self, lbas: List[int], report: ReadReport, fetched: int) -> None:
        costs = self.config.cpu
        count, chunk_size = len(lbas), self.engine.chunker.chunk_size
        # Step 3-4: LBAs to the host; LBA-PBA lookups.
        self.pcie.transfer(_NIC, HOST, 8 * count)
        self.cpu.charge(CpuTask.LBA_MAP, costs.lba_map_lookup * count)
        self.cpu.charge(CpuTask.DEVICE_MANAGER, costs.device_manager_per_chunk * count)
        if fetched:
            # Steps 5-7: SSD → Decompression Engine → NIC, all P2P.
            inflated = fetched * chunk_size
            if not self.nvme_read_offload:
                self.cpu.charge(CpuTask.DATA_SSD, costs.data_ssd_read_io * fetched)
            self.pcie.transfer(_DATA_SSD, _DECOMP, report.stored_bytes_read)
            self.pcie.transfer(_DECOMP, _NIC, inflated)
        # Step 8: NIC sends the data to the client.
        self.nic.send_read_data(count * chunk_size)

    # -- reporting ---------------------------------------------------------------------------------
    def _nic_buffer_hit_rate(self) -> Optional[float]:
        total = self.nic.read_buffer_hits + self.nic.read_buffer_misses
        if total == 0:
            return None
        return self.nic.read_buffer_hits / total
