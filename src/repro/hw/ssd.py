"""NVMe SSD models (paper §2.1.3, §6.1).

Two roles:

* **data SSDs** — receive sealed 4-MB containers sequentially and serve
  compressed-chunk reads.  Their NVMe queues stay in host memory in both
  systems (§6.1: sequential container writes have tolerable overhead).
* **table SSDs** — hold the full Hash-PBN table as 4-KB buckets and serve
  the cache's random fetches/flushes.  The baseline drives them from the
  host IO stack (a large CPU cost, Table 2); FIDR moves their queues into
  the Cache HW-Engine (§6.1).

:class:`NvmeSsd` is an IO ledger, not a byte store (DESIGN.md §5.8):
it counts the IO each role issues (:class:`IoStats`) and the bytes it
would hold, and keeps one byte per block saying whether the block was
ever written.  The containers hold the data SSDs' bytes, and the page
store under :class:`~repro.cache.table_cache.TableCache` holds the
table SSDs'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import CapacityError
from .specs import SsdSpec, SAMSUNG_970_PRO

__all__ = ["BLOCK_SIZE", "IoStats", "NvmeSsd", "SsdArray"]

#: Bytes of one ledgered block: a 4-KB table bucket page.
BLOCK_SIZE = 4096


@dataclass
class IoStats:
    """Cumulative IO issued to one SSD (or array)."""

    read_ops: int = 0
    write_ops: int = 0
    bytes_read: float = 0.0
    bytes_written: float = 0.0

    @property
    def total_bytes(self) -> float:
        return self.bytes_read + self.bytes_written

    def merge(self, other: "IoStats") -> "IoStats":
        return IoStats(
            read_ops=self.read_ops + other.read_ops,
            write_ops=self.write_ops + other.write_ops,
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
        )


class NvmeSsd:
    """IO ledger for one NVMe drive: block IO counted, blocks written
    remembered, no bytes kept."""

    def __init__(self, spec: Optional[SsdSpec] = None, name: str = "ssd"):
        self.spec = spec if spec is not None else SAMSUNG_970_PRO
        self.name = name
        self.stats = IoStats()
        self._written = bytearray()  # 1 per block ever written
        self.bytes_stored = 0

    # -- block IO --------------------------------------------------------------------
    def write_block(self, address: int) -> None:
        """Count one block write; the first write of a block stores it."""
        if address < 0:
            raise ValueError("negative address")
        written = self._written
        if address >= len(written):
            written.extend(bytes(address + 1 - len(written)))
        if not written[address]:
            if self.bytes_stored + BLOCK_SIZE > self.spec.capacity:
                raise CapacityError(f"{self.name}: capacity exceeded")
            written[address] = 1
            self.bytes_stored += BLOCK_SIZE
        self.stats.write_ops += 1
        self.stats.bytes_written += BLOCK_SIZE

    def read_block(self, address: int) -> None:
        """Count one block read of a block written before."""
        if address not in self:
            raise KeyError(f"{self.name}: nothing stored at {address}")
        self.stats.read_ops += 1
        self.stats.bytes_read += BLOCK_SIZE

    def __contains__(self, address: int) -> bool:
        return 0 <= address < len(self._written) and self._written[address] == 1

    @property
    def written_blocks(self) -> int:
        """Blocks ever written (each holds ``BLOCK_SIZE`` stored bytes)."""
        return len(self._written) - self._written.count(0)

    # -- accounting-only IO (performance paths that skip content) ------------------
    def account_read(self, num_bytes: float, ops: int = 1) -> None:
        self.stats.read_ops += ops
        self.stats.bytes_read += num_bytes

    def account_write(self, num_bytes: float, ops: int = 1) -> None:
        self.stats.write_ops += ops
        self.stats.bytes_written += num_bytes

    # -- timing -----------------------------------------------------------------------
    def read_service_time(self, num_bytes: float) -> float:
        """Seconds for one read: access latency + transfer time."""
        return self.spec.read_latency_s + num_bytes / self.spec.read_bw

    def utilization(self, data_throughput: float, logical_bytes: float) -> float:
        """Busy fraction at a projected client throughput (BW terms)."""
        if logical_bytes <= 0:
            raise ValueError("no client bytes covered")
        scale = data_throughput / logical_bytes
        return (
            self.stats.bytes_read * scale / self.spec.read_bw
            + self.stats.bytes_written * scale / self.spec.write_bw
        )


class SsdArray:
    """A stripe of identical SSDs with round-robin block placement:
    array block ``address`` is block ``address // count`` of drive
    ``address % count``."""

    def __init__(self, count: int, spec: Optional[SsdSpec] = None, name: str = "array"):
        if count < 1:
            raise ValueError("need at least one SSD")
        self.drives = [
            NvmeSsd(spec=spec, name=f"{name}[{index}]") for index in range(count)
        ]

    def write_block(self, address: int) -> None:
        block, drive = divmod(address, len(self.drives))
        self.drives[drive].write_block(block)

    def fetch_block(self, address: int) -> None:
        """Count one block read if the block was ever written; a block
        never written reads back empty without an IO (the table cache's
        fetch of a bucket never flushed)."""
        block, drive = divmod(address, len(self.drives))
        ssd = self.drives[drive]
        if block in ssd:
            ssd.account_read(BLOCK_SIZE)

    def __contains__(self, address: int) -> bool:
        block, drive = divmod(address, len(self.drives))
        return block in self.drives[drive]

    @property
    def stats(self) -> IoStats:
        combined = IoStats()
        for drive in self.drives:
            combined = combined.merge(drive.stats)
        return combined

    @property
    def read_bw(self) -> float:
        return sum(drive.spec.read_bw for drive in self.drives)

    @property
    def write_bw(self) -> float:
        return sum(drive.spec.write_bw for drive in self.drives)

    def __len__(self) -> int:
        return len(self.drives)
