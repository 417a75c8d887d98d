"""The baseline system: CIDR extended with software table caching
(paper §2.3, Figure 2).

Every flow is store-and-forward through host memory, the unique-chunk
predictor runs on the CPU over the buffered data, table caching is all
host software (B+-tree index, host NVMe stack for table SSDs), and the
integrated hash+compression FPGA needs predicted batches plus a
validation/correction pass.

Write flow (Figure 2a)
    client → NIC → host DRAM → predictor → FPGA (hash all, compress
    predicted-unique) → host DRAM → software table validation → data SSD.

Read flow (Figure 2b)
    data SSD → host DRAM → FPGA (decompress) → host DRAM → NIC → client.
"""

from __future__ import annotations

from typing import List, Optional

from ..cache.table_cache import BTreeIndex, CacheIndex
from ..datared.chunking import Chunk
from ..datared.compression import Compressor
from ..datared.container import Container
from ..datared.dedup import ReadReport
from ..hw.nic import BaselineNic
from ..hw.pcie import HOST, PcieTopology
from ..obs.metrics import MetricsRegistry
from ..hw.specs import ServerSpec
from .accounting import CpuTask, MemPath
from .base import ReductionSystem
from .config import SystemConfig
from .predictor import UniqueChunkPredictor

__all__ = ["BaselineSystem"]

_NIC = "nic"
_FPGA = "reduction-fpga"  #: integrated hash + compression accelerator
_DATA_SSD = "data-ssd"
_TABLE_SSD = "table-ssd"


class BaselineSystem(ReductionSystem):
    """CIDR-style HW data reduction with software table caching."""

    TABLE_QUEUE_OWNER = "host"
    name = "baseline (CIDR + software table cache)"

    def __init__(
        self,
        server: Optional[ServerSpec] = None,
        config: Optional[SystemConfig] = None,
        num_buckets: int = 1 << 15,
        cache_lines: int = 1024,
        compressor: Optional[Compressor] = None,
        btree_order: int = 16,
    ):
        self._btree_order = btree_order
        super().__init__(
            server=server,
            config=config,
            num_buckets=num_buckets,
            cache_lines=cache_lines,
            compressor=compressor,
        )
        self.nic = BaselineNic(self.server.nic)
        self.predictor = UniqueChunkPredictor()
        self._predictions = {}  # chunk id -> predicted_unique
        self.engine.registry.register_collector(self._publish_baseline_metrics)

    def _publish_baseline_metrics(self, registry: MetricsRegistry) -> None:
        """Collector: predictor effectiveness and the table cache's
        ledger as gauges."""
        accuracy = self._predictor_accuracy()
        registry.gauge("system.predictor.accuracy").set(
            accuracy if accuracy is not None else 0.0
        )
        self._publish_table_cache(registry)

    # -- wiring ------------------------------------------------------------------
    def _build_topology(self) -> PcieTopology:
        # No peer-to-peer use: a flat fabric where everything crosses the
        # root complex via host memory.
        topology = PcieTopology(
            num_switches=1, root_complex_bw=self.server.socket_pcie_bw
        )
        for device in (_NIC, _FPGA, _DATA_SSD, _TABLE_SSD):
            topology.attach(device, switch=0)
        return topology

    def _make_index(self) -> CacheIndex:
        return BTreeIndex(order=self._btree_order)

    # -- write flow (Figure 2a) ---------------------------------------------------------
    def _enqueue(self, chunk: Chunk) -> None:
        """Step 1: NIC DMAs the client data into a host-memory buffer."""
        size = len(chunk.data)
        self.nic.receive(size)
        self.pcie.transfer(_NIC, HOST, size)
        self.memory.write(MemPath.NIC_HOST, size)
        self.cpu.charge(CpuTask.NETWORK, self.config.cpu.nic_per_chunk)

    def _process_batch(self, chunks: List[Chunk]) -> None:
        costs = self.config.cpu
        batch_bytes = sum(len(chunk.data) for chunk in chunks)

        # Step 2: the predictor re-reads the whole buffer from DRAM.
        predictions = [self.predictor.predict_unique(chunk.data) for chunk in chunks]
        self.memory.read(MemPath.PREDICTION, batch_bytes)
        self.cpu.charge(
            CpuTask.PREDICTOR, costs.predictor_per_chunk * len(chunks)
        )

        # Step 3: batch scheduling + DMA of every chunk to the FPGA.
        self.cpu.charge(
            CpuTask.SCHEDULER, costs.batch_scheduler_per_chunk * len(chunks)
        )
        self.cpu.charge(CpuTask.DMA, costs.dma_per_chunk * len(chunks))
        self.memory.read(MemPath.FPGA, batch_bytes)
        self.pcie.transfer(HOST, _FPGA, batch_bytes)

        # Step 4: software table validation (the functional dedup).
        outcomes, delta = self._dedup_batch(chunks)
        self._charge_table_cache(delta)

        # Step 5: the FPGA returns all hashes plus the compressed output
        # of predicted-unique chunks.  Mispredictions cost extra:
        #  - predicted-unique duplicates were compressed for nothing
        #    (their output still crosses back to host memory),
        #  - predicted-duplicate uniques need a correction round trip.
        return_bytes = self.config.digest_bytes * len(chunks)
        correction_bytes = 0
        for chunk, outcome, predicted in zip(chunks, outcomes, predictions):
            actually_unique = not outcome.duplicate
            self.predictor.record_outcome(predicted, actually_unique)
            if predicted and actually_unique:
                return_bytes += outcome.stored_size
            elif predicted and not actually_unique:
                wasted = self.engine.compressor.compress(chunk.data)
                return_bytes += wasted.stored_size
            elif actually_unique:  # predicted duplicate: correction pass
                correction_bytes += len(chunk.data)
                return_bytes += outcome.stored_size
        if correction_bytes:
            self.memory.read(MemPath.FPGA, correction_bytes)
            self.pcie.transfer(HOST, _FPGA, correction_bytes)
            self.cpu.charge(CpuTask.DMA, costs.dma_per_chunk)
        self.memory.write(MemPath.FPGA, return_bytes)
        self.pcie.transfer(_FPGA, HOST, return_bytes)
        self.cpu.charge(CpuTask.DMA, costs.dma_per_chunk * len(chunks))

        # Step 6: LBA-PBA metadata updates for every chunk.
        self.cpu.charge(CpuTask.LBA_MAP, costs.lba_map_update * len(chunks))

    def _charge_table_cache(self, delta) -> None:
        """Host pays for everything the table-cache stack did (Table 2)."""
        costs = self.config.cpu
        self.memory.read(MemPath.TABLE_CACHE, delta.host_bytes_read)
        self.memory.write(MemPath.TABLE_CACHE, delta.host_bytes_written)
        self.cpu.charge(CpuTask.TREE, costs.tree_node_visit * delta.tree_node_visits)
        table_ssd_ops = delta.table_ssd_reads + delta.table_ssd_writes
        self.cpu.charge(CpuTask.TABLE_SSD, costs.table_ssd_io * table_ssd_ops)
        self.cpu.charge(CpuTask.CONTENT, costs.bucket_scan * delta.content_scans)
        self.cpu.charge(CpuTask.REPLACEMENT, costs.eviction * delta.evictions)
        # Bucket pages move host DRAM ↔ table SSD through the root complex.
        self.pcie.transfer(_TABLE_SSD, HOST, delta.table_ssd_read_bytes)
        self.pcie.transfer(HOST, _TABLE_SSD, delta.table_ssd_write_bytes)

    def _on_container_seal(self, container: Container) -> None:
        """Step 7: the data SSD pulls the sealed container from host DRAM."""
        size = container.fill_bytes
        self.memory.read(MemPath.DATA_SSD, size)
        self.pcie.transfer(HOST, _DATA_SSD, size)
        self.data_array.drives[
            container.container_id % len(self.data_array)
        ].account_write(size)
        self.cpu.charge(CpuTask.DATA_SSD, self.config.cpu.data_ssd_io)

    # -- read flow (Figure 2b) ---------------------------------------------------------------
    def _charge_read(self, lbas: List[int], report: ReadReport, fetched: int) -> None:
        costs = self.config.cpu
        count, chunk_size = len(lbas), self.engine.chunker.chunk_size
        logical = count * chunk_size
        self.cpu.charge(CpuTask.LBA_MAP, costs.lba_map_lookup * count)
        if fetched:
            # SSD → host DRAM → FPGA (decompress) → host DRAM → NIC.
            stored = report.stored_bytes_read
            inflated = fetched * chunk_size
            self.cpu.charge(CpuTask.DATA_SSD, costs.data_ssd_read_io * fetched)
            self.pcie.transfer(_DATA_SSD, HOST, stored)
            self.memory.write(MemPath.DATA_SSD, stored)
            self.memory.read(MemPath.FPGA, stored)
            self.pcie.transfer(HOST, _FPGA, stored)
            self.memory.write(MemPath.FPGA, inflated)
            self.pcie.transfer(_FPGA, HOST, inflated)
            self.cpu.charge(CpuTask.DMA, costs.dma_per_chunk * 2 * fetched)
        self.memory.read(MemPath.NIC_HOST, logical)
        self.pcie.transfer(HOST, _NIC, logical)
        self.nic.send(logical)
        self.cpu.charge(CpuTask.NETWORK, costs.nic_per_chunk * count)

    # -- reporting ------------------------------------------------------------------------------
    def _predictor_accuracy(self):
        return self.predictor.stats.accuracy if self.predictor.stats.total else None
