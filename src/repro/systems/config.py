"""Calibration constants for the system-level performance model.

Every absolute scale factor lives here (DESIGN.md §4).  The *flows* —
which bytes cross host DRAM, which tasks run on the CPU — are structural
(Figures 2 and 6); these constants only set the per-event costs, each
fitted once against a specific measured point in the paper:

* CPU cycle costs are fitted so the baseline write-only profile lands at
  the paper's scale (≈67 Xeon cores at 75 GB/s, Figure 5a) with the
  reported composition (predictor ≈33%, table-cache management ≈52%,
  Figure 5b; Table 2's split within table caching), and so FIDR's
  residual orchestration matches Figure 12's reductions.
* Device constants (SSD queue costs, scan costs) are plausible
  micro-architecture values cross-checked against those same shares.

All cycle figures are cycles on a 2.2-GHz Xeon core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..datared import codecs as _codecs
from ..datared.compression import Compressor

__all__ = ["CodecPolicy", "CpuCosts", "DurabilityPolicy", "SystemConfig"]


@dataclass(frozen=True)
class DurabilityPolicy:
    """Crash-consistency policy for the engines a config builds.

    ``journal=True`` arms a group-commit
    :class:`~repro.datared.journal.MetadataJournal` on the engine:
    metadata records stage per batch and are fenced — one modeled fsync
    — at the end of every public mutating op, so every acknowledged
    write survives ``build_engine(cfg, recover_from=...)`` replay
    (DESIGN.md §5.9).

    ``checkpoint_every_commits`` additionally writes a compact
    checkpoint image every N commits and truncates the replay-dead
    prefix, bounding recovery time; ``None`` journals forever (explicit
    :meth:`~repro.datared.dedup.DedupEngine.checkpoint` calls still
    work).  The default policy is journal-off: the pre-durability
    engines, byte-for-byte.
    """

    journal: bool = False
    checkpoint_every_commits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.checkpoint_every_commits is not None:
            if not self.journal:
                raise ValueError(
                    "checkpoint_every_commits requires journal=True"
                )
            if self.checkpoint_every_commits < 1:
                raise ValueError("checkpoint_every_commits must be >= 1")


@dataclass(frozen=True)
class CpuCosts:
    """Per-event host-CPU cycle costs."""

    # -- shared data-path costs -------------------------------------------------
    #: Network/protocol handling per 4-KB chunk received or sent by the
    #: host-managed NIC path (descriptor handling, protocol decode).
    nic_per_chunk: float = 300.0
    #: DMA descriptor + doorbell management per accelerator transfer
    #: batch entry (the baseline pays this per chunk twice: to and from
    #: the reduction FPGA).
    dma_per_chunk: float = 200.0
    #: LBA-PBA map update (two-level mapping write) per chunk.
    lba_map_update: float = 450.0
    #: LBA-PBA map lookup per chunk read.
    lba_map_lookup: float = 250.0
    #: Data-SSD NVMe submission/completion per container (amortized over
    #: ~1000 chunks, so cheap per chunk; §6.1 keeps these queues on the
    #: host in both systems).
    data_ssd_io: float = 5000.0
    #: Data-SSD NVMe per 4-KB read (the read path issues one per chunk;
    #: §7.5 notes this stack stays on the CPU even in FIDR).
    data_ssd_read_io: float = 2200.0

    # -- baseline-only costs ---------------------------------------------------------
    #: The CIDR unique-chunk predictor, per chunk (content sampling,
    #: filter probe/update, batch grouping).  Fit: 32.7% of baseline
    #: write-only CPU (Figure 5b).
    predictor_per_chunk: float = 3000.0
    #: Batch scheduling around the integrated hash+compress FPGA.
    batch_scheduler_per_chunk: float = 250.0

    # -- table-cache management (host-side in the baseline) ----------------------------
    #: Per B+-tree node visited (pointer chase + key compare, mostly
    #: cache misses).  Fit: Table 2's 43.9% tree-indexing share.
    tree_node_visit: float = 450.0
    #: Table-SSD NVMe submission/completion per 4-KB bucket IO through
    #: the host software stack.  Fit: Table 2's 24.7% share.
    table_ssd_io: float = 5200.0
    #: Scanning one cached 4-KB bucket's entries in host memory.  Fit:
    #: Table 2's 6.3% content-access share.  Paid in *both* systems —
    #: FIDR deliberately keeps content scanning on the CPU (§5.1).
    bucket_scan: float = 330.0
    #: LRU/free-list bookkeeping per eviction.  Fit: Table 2's 1.0%.
    eviction: float = 500.0

    # -- FIDR-only costs ---------------------------------------------------------------
    #: FIDR device-manager orchestration per chunk (batched mailbox
    #: work: digests in, bucket indexes out, flags back; §5.3).  Fit:
    #: FIDR's residual CPU in Figure 12.
    device_manager_per_chunk: float = 1200.0
    #: Updating cached table content for newly written uniques (step 10).
    cache_content_update: float = 150.0


@dataclass(frozen=True)
class CodecPolicy:
    """Which write codec a system builds its engine with.

    The typed front door to the :mod:`repro.datared.codecs` registry: a
    name plus construction parameters, resolved when the system is
    built.  An unknown name raises ``ValueError`` there.  (Reads need no
    policy — they dispatch on each stored chunk's tag.)
    """

    codec: str = "zlib"
    #: Compression level for ``zlib`` (0-9); ``None`` keeps its default.
    level: Optional[int] = None
    #: Size ratio for the ``modeled`` codec.
    modeled_ratio: float = 0.5

    def build_compressor(self) -> Compressor:
        """Construct the configured codec."""
        params = {}
        if self.codec == "zlib" and self.level is not None:
            params["level"] = self.level
        elif self.codec == "modeled":
            params["ratio"] = self.modeled_ratio
        return _codecs.create_codec(self.codec, **params)


@dataclass(frozen=True)
class SystemConfig:
    """Knobs shared by both end-to-end systems."""

    chunk_size: int = 4096
    #: Hash digest bytes crossing PCIe per chunk (SHA-256).
    digest_bytes: int = 32
    #: Uniqueness flag + destination metadata per chunk (FIDR NIC ⇔ host).
    flag_bytes: int = 8
    #: Bucket-index message per chunk (host → Cache HW-Engine, §5.6's
    #: "8 byte-cache index per 4 KB request").
    bucket_index_bytes: int = 8
    #: Compressed-batch metadata per chunk (sizes + LBAs, engine → host).
    batch_metadata_bytes: int = 16
    #: Table-cache eviction batch size shipped to the engine (§5.5).
    eviction_batch: int = 8
    #: Chunks per NIC digest batch (FIDR) / predictor batch (baseline).
    batch_chunks: int = 64
    #: Decompressed-read LRU capacity in chunks (0 disables).  Hot
    #: re-reads served from the cache skip the container fetch and
    #: ``zlib.decompress``; entries are invalidated on free/GC.
    read_cache_chunks: int = 0
    #: Which write codec the engine is built with (see
    #: :class:`CodecPolicy`).  The default is the byte-stable ``zlib``.
    codec: CodecPolicy = field(default_factory=CodecPolicy)
    #: Crash-consistency policy (see :class:`DurabilityPolicy`).  The
    #: default keeps journaling off — no durability cost on the modeled
    #: data path unless a deployment opts in.
    durability: DurabilityPolicy = field(default_factory=DurabilityPolicy)
    cpu: CpuCosts = field(default_factory=CpuCosts)
