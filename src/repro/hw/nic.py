"""NIC models (paper §5.4, Figure 7).

:class:`BaselineNic` is a plain high-performance NIC: every client byte
is DMA'd straight into host memory (Figure 2's first hop) — it only needs
a byte ledger.

:class:`FidrNic` adds the paper's data-reduction layer:

* **in-NIC buffering** — write requests (data + LBA) stay in NIC board
  DRAM; the client gets an immediate ack (§7.6.1's latency hiding relies
  on this buffer being battery-backed),
* **in-NIC hashing** — SHA-256 over buffered chunks, shipping only the
  32-byte digests to the host (§5.1 idea a),
* **read LBA lookup** — incoming reads first check the write buffer and
  are served NIC-locally on a hit (Figure 7's LBA Lookup module),
* **compression scheduling** — once the host returns uniqueness flags,
  the NIC batches *only unique* chunks for the Compression Engine.

All flows are functional (real bytes, real digests) plus ledgered (NIC
DRAM traffic, network bytes, PCIe bytes) for the performance model.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import List, NamedTuple, Optional, Tuple

from ..datared.hashing import SHA256, Fingerprinter
from .specs import NicSpec, FIDR_NIC_64G

__all__ = ["NicTraffic", "BaselineNic", "FidrNic", "BufferedWrite"]


@dataclass
class NicTraffic:
    """Byte ledger for one NIC."""

    network_rx: float = 0.0
    network_tx: float = 0.0
    pcie_to_host: float = 0.0
    pcie_from_host: float = 0.0
    nic_dram: float = 0.0  #: board-DRAM reads+writes for buffering
    hashed_bytes: float = 0.0


class BufferedWrite(NamedTuple):
    """One chunk staged in the FIDR NIC's write buffer, a tuple like
    every per-chunk record; ``data`` is the object ``buffer_write`` was
    handed, not a copy — the host recognises its own entries by
    identity (DESIGN.md §5.4)."""

    lba: int
    data: bytes
    digest: bytes


class BaselineNic:
    """Plain NIC: client data goes straight to host memory."""

    def __init__(self, spec: Optional[NicSpec] = None, name: str = "nic"):
        self.spec = spec if spec is not None else FIDR_NIC_64G
        self.name = name
        self.traffic = NicTraffic()

    def receive(self, num_bytes: float) -> None:
        """Client → NIC → host DRAM."""
        self.traffic.network_rx += num_bytes
        self.traffic.pcie_to_host += num_bytes

    def send(self, num_bytes: float) -> None:
        """Host DRAM → NIC → client."""
        self.traffic.pcie_from_host += num_bytes
        self.traffic.network_tx += num_bytes


class FidrNic:
    """FPGA NIC with in-NIC buffering, hashing, and batch scheduling."""

    def __init__(
        self,
        spec: Optional[NicSpec] = None,
        name: str = "fidr-nic",
        fingerprinter: Optional[Fingerprinter] = None,
    ):
        """``fingerprinter`` is the hash core this NIC models (default
        SHA-256, the paper's RTL core).  It must match the engine the
        digests are shipped to — FIDR wires the engine's own
        fingerprinter in — or every buffered digest would miss."""
        self.spec = spec if spec is not None else FIDR_NIC_64G
        self.name = name
        self.fingerprinter = fingerprinter if fingerprinter is not None else SHA256
        self.traffic = NicTraffic()
        # Write buffer: LBA → buffered chunk, insertion-ordered so the
        # oldest batch drains first.  OrderedDict gives O(1) lookup for
        # the read path's LBA Lookup module.
        self._buffer: "OrderedDict[int, BufferedWrite]" = OrderedDict()
        self._buffered_bytes = 0
        self.read_buffer_hits = 0
        self.read_buffer_misses = 0

    # -- write path ------------------------------------------------------------------
    def buffer_write(self, lba: int, data: bytes) -> None:
        """Stage one chunk (client write) in NIC DRAM; ack is immediate."""
        size = len(data)
        if not size:
            raise ValueError("empty chunk")
        traffic = self.traffic
        traffic.network_rx += size
        previous = self._buffer.pop(lba, None)
        if previous is not None:
            self._buffered_bytes -= len(previous.data)
        if self._buffered_bytes + size > self.spec.buffer_capacity:
            raise OverflowError(
                f"{self.name}: write buffer overflow "
                f"({self._buffered_bytes + size} bytes)"
            )
        digest = self.fingerprinter.digest(data)
        traffic.hashed_bytes += size
        traffic.nic_dram += size  # buffered once on arrival
        self._buffer[lba] = BufferedWrite(lba, data, digest)
        self._buffered_bytes += size

    def pending_chunks(self) -> int:
        return len(self._buffer)

    def ship_digests(self, batch_size: int) -> List[BufferedWrite]:
        """Send the oldest ``batch_size`` chunks' digests to the host.

        Only 32-byte digests cross PCIe here — the chunks themselves stay
        buffered (the memory-bandwidth win of §5.1).
        """
        batch = list(islice(self._buffer.values(), batch_size))
        self.traffic.pcie_to_host += 32 * len(batch)
        return batch

    def schedule_unique(
        self, flags: List[Tuple[BufferedWrite, bool]]
    ) -> List[BufferedWrite]:
        """Apply host uniqueness flags; returns the unique-chunk batch.

        Unique chunks go to the Compression Engine peer-to-peer;
        duplicates are simply dropped from the buffer (their metadata
        update happened host-side).  Mirrors Figure 7's compression
        scheduler scanning the flag list.
        """
        unique_batch: List[BufferedWrite] = []
        self.traffic.pcie_from_host += len(flags)  # 1-byte flag each
        for entry, is_unique in flags:
            staged = self._buffer.pop(entry.lba, None)
            if staged is None:
                continue  # overwritten while the host was deciding
            self._buffered_bytes -= len(staged.data)
            self.traffic.nic_dram += len(staged.data)  # read out of DRAM
            if is_unique:
                unique_batch.append(staged)
        return unique_batch

    def discard(self, lba: int, data: bytes) -> None:
        """Drop ``lba``'s buffered chunk if it is still ``data`` (the
        very object buffered, not a newer write of that LBA)."""
        staged = self._buffer.get(lba)
        if staged is not None and staged.data is data:
            del self._buffer[lba]
            self._buffered_bytes -= len(data)

    # -- read path ---------------------------------------------------------------------
    def lookup_read(self, lba: int) -> Optional[bytes]:
        """LBA Lookup: serve a read from the write buffer when possible."""
        staged = self._buffer.get(lba)
        if staged is not None:
            self.read_buffer_hits += 1
            self.traffic.nic_dram += len(staged.data)
            self.traffic.network_tx += len(staged.data)
            return staged.data
        self.read_buffer_misses += 1
        return None

    def send_read_data(self, num_bytes: float) -> None:
        """Forward decompressed data (fetched P2P from the engine) out."""
        self.traffic.pcie_from_host += num_bytes  # engine → NIC transfer
        self.traffic.nic_dram += num_bytes
        self.traffic.network_tx += num_bytes

    @property
    def buffered_bytes(self) -> int:
        return self._buffered_bytes
