"""Cross-device accounting: labels, reports, projections.

Defines the canonical path/task labels both systems charge against, so
experiments can diff them row by row, and :class:`SystemReport`, the
read-only view the experiments consume (Figures 4, 5, 11, 12; Tables 1
and 2 are all projections over one report).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..cache.table_cache import CacheStats
from ..datared.dedup import EngineStats
from ..hw.cpu import CpuLedger
from ..hw.memory import MemoryLedger
from ..hw.pcie import PcieTopology
from ..hw.specs import ServerSpec

__all__ = ["MemPath", "CpuTask", "FIG5B_GROUPS", "TABLE2_GROUPS", "SystemReport"]


class MemPath:
    """Host-DRAM path labels (Table 1's rows)."""

    NIC_HOST = "NIC <-> host memory"
    PREDICTION = "host memory (unique prediction)"
    FPGA = "host memory <-> FPGAs"
    TABLE_CACHE = "table cache management"
    DATA_SSD = "host memory <-> data SSD"
    METADATA = "metadata messages"  #: FIDR's digests/flags/indexes (tiny)
    HOT_READ = "hot read cache"  #: §8 extension: cached hot blocks in DRAM


class CpuTask:
    """Host-CPU task labels (Figure 5b / Table 2 categories)."""

    NETWORK = "network handling"
    PREDICTOR = "unique chunk predictor"
    SCHEDULER = "accelerator batch scheduling"
    DMA = "accelerator DMA management"
    TREE = "table cache tree indexing"
    TABLE_SSD = "table SSD access"
    CONTENT = "table cache content access"
    REPLACEMENT = "table cache item replacement"
    LBA_MAP = "LBA-PBA map maintenance"
    DATA_SSD = "data SSD IO stack"
    DEVICE_MANAGER = "FIDR device manager"
    CONTENT_UPDATE = "table cache content update"


#: Coalescing map for Figure 5b's two-way split: memory/IO-management
#: overhead vs. everything else.
FIG5B_GROUPS: Dict[str, str] = {
    CpuTask.PREDICTOR: "memory/IO management",
    CpuTask.SCHEDULER: "memory/IO management",
    CpuTask.DMA: "memory/IO management",
    CpuTask.TREE: "memory/IO management",
    CpuTask.TABLE_SSD: "memory/IO management",
    CpuTask.REPLACEMENT: "memory/IO management",
    CpuTask.NETWORK: "other",
    CpuTask.CONTENT: "other",
    CpuTask.LBA_MAP: "other",
    CpuTask.DATA_SSD: "other",
    CpuTask.DEVICE_MANAGER: "other",
    CpuTask.CONTENT_UPDATE: "other",
}

#: The table-caching component set Table 2 normalizes within.
TABLE2_GROUPS = (
    CpuTask.TREE,
    CpuTask.TABLE_SSD,
    CpuTask.CONTENT,
    CpuTask.REPLACEMENT,
)


@dataclass
class SystemReport:
    """Snapshot of everything one system charged while running a workload.

    All projection methods are linear in the target throughput, exactly
    like the paper's measure-two-points-and-project methodology (§3.2).
    """

    name: str
    server: ServerSpec
    logical_write_bytes: float
    logical_read_bytes: float
    memory: MemoryLedger
    cpu: CpuLedger
    pcie: PcieTopology
    cache_stats: CacheStats
    reduction: EngineStats
    tree_node_visits: int = 0
    engine_tree_updates: int = 0  #: updates handled by the Cache HW-Engine
    predictor_accuracy: Optional[float] = None
    nic_buffer_hit_rate: Optional[float] = None

    @property
    def logical_bytes(self) -> float:
        return self.logical_write_bytes + self.logical_read_bytes

    # -- memory (Figures 4 and 11, Table 1) ------------------------------------------
    def memory_bw_demand(self, throughput: float) -> float:
        """Host-DRAM bandwidth (bytes/s) at a client throughput."""
        return self.memory.bandwidth_demand(throughput, self.logical_bytes)

    def memory_amplification(self) -> float:
        """Host-DRAM bytes per client byte."""
        return self.memory.amplification(self.logical_bytes)

    def memory_breakdown(self) -> Dict[str, float]:
        """Per-path shares (Table 1's bandwidth columns)."""
        return self.memory.breakdown()

    def memory_utilization(self, throughput: float) -> float:
        return self.memory_bw_demand(throughput) / self.server.dram.peak_bw

    # -- CPU (Figures 5 and 12, Table 2) --------------------------------------------------
    def cores_required(self, throughput: float) -> float:
        return self.cpu.cores_required(
            throughput, self.logical_bytes, self.server.cpu.frequency_hz
        )

    def cpu_breakdown(self) -> Dict[str, float]:
        return self.cpu.breakdown()

    def cpu_group_breakdown(self) -> Dict[str, float]:
        """Figure 5b's management-vs-other split."""
        return self.cpu.grouped_breakdown(FIG5B_GROUPS)

    def table2_breakdown(self) -> Dict[str, float]:
        """CPU shares within the table-caching component (Table 2),
        normalized over the whole CPU budget like the paper does."""
        return {
            task: share
            for task, share in self.cpu_breakdown().items()
            if task in TABLE2_GROUPS
        }

    # -- ceilings (Figure 14's solver inputs) ---------------------------------------------
    def max_throughput_memory(self) -> float:
        """Client throughput at which DRAM bandwidth saturates."""
        return self.server.dram.peak_bw / self.memory_amplification()

    def max_throughput_cpu(self) -> float:
        """Client throughput at which all cores saturate."""
        cycles_per_byte = self.cpu.cycles_per_byte(self.logical_bytes)
        if cycles_per_byte == 0:
            return float("inf")
        return self.server.cpu.total_cycles_per_s / cycles_per_byte

    def max_throughput_pcie(self) -> float:
        """Client throughput at which the socket's PCIe IO saturates.

        Conservative: counts every byte entering or leaving the root
        complex against the socket budget.
        """
        per_byte = self.pcie.root_complex_bytes / self.logical_bytes
        if per_byte == 0:
            return float("inf")
        return self.server.socket_pcie_bw / per_byte
