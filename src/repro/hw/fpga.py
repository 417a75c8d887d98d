"""FPGA accelerator engines (paper §2.3, §5.2, §6.1).

Functional models of the three accelerator roles with byte ledgers:

* :class:`HashAccelerator` — SHA-256 cores.  The baseline hosts them on
  the reduction FPGA; FIDR moves them into the NIC (§5.1 idea a).
* :class:`CompressionEngine` — compresses batches of unique chunks and
  accumulates output until the 4-MB container threshold (§5.3 step 8).
  In FIDR the compressed data stays on the engine for a peer-to-peer SSD
  pull; only metadata goes to the host (§6.1).
* :class:`DecompressionEngine` — the read path's inverse.

Each engine tracks PCIe ingress/egress and board-DRAM traffic so the
system layer can project device-level utilizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..datared.codecs import decode_chunk
from ..datared.compression import CompressedChunk, Compressor, ZlibCompressor
from ..datared.hashing import fingerprint
from .specs import FpgaSpec, VCU1525

__all__ = [
    "EngineTraffic",
    "HashAccelerator",
    "CompressionEngine",
    "DecompressionEngine",
]


@dataclass
class EngineTraffic:
    """Byte ledger for one accelerator."""

    pcie_in: float = 0.0
    pcie_out: float = 0.0
    board_dram: float = 0.0  #: reads + writes on the FPGA board DRAM
    payload_processed: float = 0.0  #: bytes of client data worked on

    def utilization(self, spec: FpgaSpec, data_throughput: float,
                    logical_bytes: float) -> dict:
        """Per-resource busy fractions at a projected client throughput."""
        if logical_bytes <= 0:
            raise ValueError("no client bytes covered")
        scale = data_throughput / logical_bytes
        return {
            "pcie": max(self.pcie_in, self.pcie_out) * scale / spec.pcie.bw,
            "board_dram": self.board_dram * scale / spec.board_dram_bw,
        }


class HashAccelerator:
    """SHA-256 hashing cores with line-rate capacity accounting."""

    def __init__(self, hash_bw: float, spec: Optional[FpgaSpec] = None,
                 name: str = "hash-engine"):
        if hash_bw <= 0:
            raise ValueError("hash bandwidth must be positive")
        self.hash_bw = hash_bw
        self.spec = spec if spec is not None else VCU1525
        self.name = name
        self.traffic = EngineTraffic()
        self.chunks_hashed = 0

    def hash_batch(self, chunks: List[bytes]) -> List[bytes]:
        """Fingerprint a batch; charges DRAM for staging the batch."""
        digests = []
        for data in chunks:
            digests.append(fingerprint(data))
            self.traffic.payload_processed += len(data)
            self.traffic.board_dram += len(data)  # staged once on board
        self.chunks_hashed += len(chunks)
        return digests

    def hashing_time(self, num_bytes: float) -> float:
        """Seconds the cores need for ``num_bytes`` of input."""
        return num_bytes / self.hash_bw


class CompressionEngine:
    """Batch compressor that holds output for a peer-to-peer SSD pull."""

    def __init__(
        self,
        compressor: Optional[Compressor] = None,
        batch_threshold: int = 4 * 1024 * 1024,
        compress_bw: float = 12.8e9,
        spec: Optional[FpgaSpec] = None,
        name: str = "compression-engine",
    ):
        if batch_threshold <= 0:
            raise ValueError("batch threshold must be positive")
        self.compressor = compressor if compressor is not None else ZlibCompressor()
        self.batch_threshold = batch_threshold
        self.compress_bw = compress_bw
        self.spec = spec if spec is not None else VCU1525
        self.name = name
        self.traffic = EngineTraffic()
        self._pending: List[CompressedChunk] = []
        self._pending_bytes = 0
        self.batches_completed = 0

    def compress_chunk(self, data: bytes) -> Tuple[CompressedChunk, bool]:
        """Compress one unique chunk; returns (result, batch_ready).

        ``batch_ready`` is True when accumulated output crossed the 4-MB
        threshold — the moment the engine ships *metadata* to the host so
        software can arrange the SSD's peer-to-peer pull (§5.3 step 8).
        """
        compressed = self.compressor.compress(data)
        self.traffic.pcie_in += len(data)
        self.traffic.payload_processed += len(data)
        self.traffic.board_dram += len(data) + compressed.stored_size
        self._pending.append(compressed)
        self._pending_bytes += compressed.stored_size
        if self._pending_bytes >= self.batch_threshold:
            return compressed, True
        return compressed, False

    def take_batch(self) -> List[CompressedChunk]:
        """Hand the accumulated batch to the SSD pull (engine egress)."""
        batch, self._pending = self._pending, []
        self.traffic.pcie_out += self._pending_bytes
        self.traffic.board_dram += self._pending_bytes  # read for DMA
        self._pending_bytes = 0
        if batch:
            self.batches_completed += 1
        return batch

    @property
    def pending_bytes(self) -> int:
        return self._pending_bytes

    def compression_time(self, num_bytes: float) -> float:
        return num_bytes / self.compress_bw


class DecompressionEngine:
    """The read path's decompressor (FIDR: SSD→engine→NIC, all P2P)."""

    def __init__(
        self,
        decompress_bw: float = 12.8e9,
        spec: Optional[FpgaSpec] = None,
        name: str = "decompression-engine",
    ):
        self.decompress_bw = decompress_bw
        self.spec = spec if spec is not None else VCU1525
        self.name = name
        self.traffic = EngineTraffic()
        self.chunks_decompressed = 0

    def decompress_chunk(self, chunk: CompressedChunk) -> bytes:
        data = decode_chunk(chunk)
        self.traffic.pcie_in += chunk.stored_size
        self.traffic.pcie_out += len(data)
        self.traffic.board_dram += chunk.stored_size + len(data)
        self.traffic.payload_processed += len(data)
        self.chunks_decompressed += 1
        return data

    def decompression_time(self, num_bytes: float) -> float:
        return num_bytes / self.decompress_bw
