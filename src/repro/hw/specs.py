"""Hardware specifications used throughout the model (paper §3.2, §7.1).

Every capacity/bandwidth constant that enters a result lives here as a
named spec with the paper's (or vendor's) source noted, so calibration is
auditable.  Bandwidths are bytes/s, capacities bytes, decimal units
(1 GB/s = 1e9 B/s) to match the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
__all__ = [
    "CpuSpec",
    "DramSpec",
    "PcieLinkSpec",
    "SsdSpec",
    "FpgaSpec",
    "NicSpec",
    "ServerSpec",
    "XEON_E5_2650V4",
    "XEON_E5_4669V4",
    "HIGH_END_SOCKET_DRAM",
    "PROTOTYPE_DRAM",
    "PCIE3_X16",
    "PCIE3_X4",
    "SOCKET_PCIE_1TBPS",
    "SAMSUNG_970_PRO",
    "TABLE_SSD",
    "VCU1525",
    "FIDR_NIC_64G",
    "PROTOTYPE_SERVER",
    "TARGET_SERVER",
]

GB = 1_000_000_000
GIB = 1 << 30


@dataclass(frozen=True)
class CpuSpec:
    """One CPU socket."""

    name: str
    cores: int
    frequency_hz: float

    @property
    def total_cycles_per_s(self) -> float:
        return self.cores * self.frequency_hz


@dataclass(frozen=True)
class DramSpec:
    """One socket's memory subsystem."""

    name: str
    channels: int
    bw_per_channel: float  #: bytes/s
    capacity: int  #: bytes

    @property
    def peak_bw(self) -> float:
        return self.channels * self.bw_per_channel


@dataclass(frozen=True)
class PcieLinkSpec:
    """One PCIe link (per direction)."""

    name: str
    lanes: int
    bw_per_lane: float  #: usable bytes/s per lane per direction

    @property
    def bw(self) -> float:
        return self.lanes * self.bw_per_lane


@dataclass(frozen=True)
class SsdSpec:
    """One NVMe SSD."""

    name: str
    capacity: int
    read_bw: float
    write_bw: float
    read_iops: float
    write_iops: float
    read_latency_s: float
    write_latency_s: float


@dataclass(frozen=True)
class FpgaSpec:
    """One FPGA accelerator board."""

    name: str
    luts: int
    flip_flops: int
    brams: int  #: 36-Kb block RAMs
    urams: int  #: 288-Kb UltraRAMs
    board_dram_capacity: int
    board_dram_bw: float
    clock_hz: float
    pcie: PcieLinkSpec


@dataclass(frozen=True)
class NicSpec:
    """One (possibly FPGA-based) NIC."""

    name: str
    network_bw: float  #: bytes/s of client-facing bandwidth
    buffer_capacity: int  #: on-NIC buffering for client requests
    hash_bw: float  #: SHA-256 throughput of the in-NIC hash cores


@dataclass(frozen=True)
class ServerSpec:
    """A complete single-socket storage server configuration."""

    name: str
    cpu: CpuSpec
    dram: DramSpec
    socket_pcie_bw: float  #: total PCIe IO bandwidth of the socket
    nic: NicSpec
    data_ssd: SsdSpec
    table_ssd: SsdSpec
    num_data_ssds: int
    num_table_ssds: int


# ---------------------------------------------------------------------------
# Named instances
# ---------------------------------------------------------------------------

#: The prototype server's CPU (§7.1): Intel E5-2650 v4, 12C @ 2.2 GHz.
XEON_E5_2650V4 = CpuSpec(name="Intel Xeon E5-2650 v4", cores=12, frequency_hz=2.2e9)

#: The projection target's CPU (§7.5, [20]): E5-4669 v4, 22C @ 2.2 GHz.
XEON_E5_4669V4 = CpuSpec(name="Intel Xeon E5-4669 v4", cores=22, frequency_hz=2.2e9)

#: High-end socket memory (§3.2.1): 8 channels, 170 GB/s theoretical [7].
HIGH_END_SOCKET_DRAM = DramSpec(
    name="8-channel DDR4 (EPYC-class)",
    channels=8,
    bw_per_channel=21.25 * GB,
    capacity=512 * GIB,
)

#: The prototype's 4-channel socket (E5-2650 v4: DDR4-2400).
PROTOTYPE_DRAM = DramSpec(
    name="4-channel DDR4-2400",
    channels=4,
    bw_per_channel=19.2 * GB,
    capacity=128 * GIB,
)

#: PCIe gen3 x16: ~12.8 GB/s usable per direction after encoding/DLLP.
PCIE3_X16 = PcieLinkSpec(name="PCIe 3.0 x16", lanes=16, bw_per_lane=0.8 * GB)

PCIE3_X4 = PcieLinkSpec(name="PCIe 3.0 x4", lanes=4, bw_per_lane=0.8 * GB)

#: "Maximum PCIe BW supported in a CPU socket is 1 Tbps" (§1 footnote):
#: 128 GB/s of socket IO, e.g. AMD EPYC's 128 lanes [7].
SOCKET_PCIE_1TBPS = 128 * GB

#: Samsung 970 Pro 1 TB (§7.1 prototype data/table SSDs).
SAMSUNG_970_PRO = SsdSpec(
    name="Samsung 970 Pro 1TB",
    capacity=1000 * GB,
    read_bw=3.5 * GB,
    write_bw=2.7 * GB,
    read_iops=500_000,
    write_iops=500_000,
    read_latency_s=80e-6,
    write_latency_s=30e-6,
)

#: Table SSDs are the same drives dedicated to metadata; the Cache
#: HW-Engine evaluation connects them at 2 GB/s (Table 5 "Table SSD BW").
TABLE_SSD = replace(SAMSUNG_970_PRO, name="Table SSD (970 Pro)", read_bw=2.0 * GB)

#: Xilinx VCU1525 (§4.3, [47]): VU9P fabric, 64 GB DDR4, 16 GB/s PCIe.
#: LUT/FF/BRAM/URAM totals are the VU9P's, matching the utilization
#: percentages in Tables 4-5 (e.g. 290 K LUTs = 24.5% → ~1182 K total).
VCU1525 = FpgaSpec(
    name="Xilinx VCU1525 (VU9P)",
    luts=1_182_000,
    flip_flops=2_364_000,
    brams=2_160,
    urams=960,
    board_dram_capacity=64 * GIB,
    board_dram_bw=19.2 * GB,  # one DDR4-2400 channel active in the design
    clock_hz=250e6,
    pcie=PCIE3_X16,
)

#: The prototype FIDR NIC (§6.2): 64 Gbps target, two 32-Gbps TCP
#: offload engines, in-NIC buffering in board DRAM, SHA-256 cores sized
#: to line rate.
FIDR_NIC_64G = NicSpec(
    name="FIDR NIC (VCU1525, 64 Gbps)",
    network_bw=8 * GB,
    buffer_capacity=4 * GIB,
    hash_bw=8 * GB,
)

#: The measurement prototype (§7.1): one active E5-2650 v4 socket, four
#: 970 Pros (2 data + 2 table), three VCU1525s.
PROTOTYPE_SERVER = ServerSpec(
    name="FIDR prototype",
    cpu=XEON_E5_2650V4,
    dram=PROTOTYPE_DRAM,
    socket_pcie_bw=40 * GB,
    nic=FIDR_NIC_64G,
    data_ssd=SAMSUNG_970_PRO,
    table_ssd=TABLE_SSD,
    num_data_ssds=2,
    num_table_ssds=2,
)

#: The scaling target (§3.2): a high-end socket with 1-Tbps PCIe,
#: 170 GB/s DRAM, a 22-core Xeon, and enough devices to feed 75 GB/s.
TARGET_SERVER = ServerSpec(
    name="75 GB/s target socket",
    cpu=XEON_E5_4669V4,
    dram=HIGH_END_SOCKET_DRAM,
    socket_pcie_bw=SOCKET_PCIE_1TBPS,
    nic=replace(
        FIDR_NIC_64G, name="FIDR NIC array (10x)", network_bw=80 * GB,
        hash_bw=80 * GB,
    ),
    data_ssd=SAMSUNG_970_PRO,
    table_ssd=TABLE_SSD,
    num_data_ssds=16,
    num_table_ssds=8,
)
