"""The public storage-server facade.

:class:`StorageServer` wraps either end-to-end system behind the simple
block API a client of the paper's server would see: chunk-aligned writes
that are acknowledged immediately, strongly-consistent reads, and a
flush for shutdown.  The underlying system object stays reachable for
accounting (``server.system.report()``) and the common questions have
direct helpers.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Sequence, Tuple, Union

from .. import obs as _obs
from ..datared.dedup import EngineStats
from .accounting import SystemReport
from .base import ReductionSystem
from .baseline import BaselineSystem
from .fidr import FidrSystem

__all__ = ["SystemKind", "StorageServer"]


class SystemKind(enum.Enum):
    """Which architecture the server runs."""

    BASELINE = "baseline"
    FIDR = "fidr"


class StorageServer:
    """A deduplicating, compressing block store over simulated devices.

    Example
    -------
    >>> server = StorageServer.build(SystemKind.FIDR)
    >>> server.write(0, b"x" * 4096)
    >>> server.read(0, 1) == b"x" * 4096
    True
    """

    def __init__(self, system: ReductionSystem):
        self.system = system

    @classmethod
    def build(cls, kind: SystemKind = SystemKind.FIDR, **kwargs) -> "StorageServer":
        """Construct a server of the given architecture.

        ``kwargs`` pass through to the system constructor (``server``,
        ``config``, ``num_buckets``, ``cache_lines``, ``compressor`` and
        the architecture-specific knobs).
        """
        if kind is SystemKind.BASELINE:
            return cls(BaselineSystem(**kwargs))
        if kind is SystemKind.FIDR:
            return cls(FidrSystem(**kwargs))
        raise ValueError(f"unknown system kind {kind!r}")

    # -- block API ---------------------------------------------------------------
    def write(self, lba: int, payload: bytes) -> None:
        """Write ``payload`` at chunk-aligned ``lba`` (immediate ack)."""
        self.system.write(lba, payload)

    def read(self, lba: int, num_chunks: int = 1) -> bytes:
        """Read ``num_chunks`` chunks starting at chunk-aligned ``lba``."""
        return self.system.read(lba, num_chunks)

    def read_extents(self, extents: Sequence[Tuple[int, int]]) -> List[Union[bytes, Exception]]:
        """Read ``(lba, num_chunks)`` extents as one; per extent, its
        bytes or the exception it alone drew."""
        return self.system.read_extents(extents)

    def flush(self) -> None:
        """Drain staged writes and seal the open container."""
        self.system.flush()

    def trim(self, lba: int, num_chunks: int = 1) -> None:
        """Drop ``num_chunks`` chunk-aligned LBAs' mappings (TRIM, a
        block-device discard); trimmed LBAs read back as zeros."""
        self.system.trim(lba, num_chunks)

    # -- snapshots -----------------------------------------------------------------
    def create_snapshot(self, name: str) -> int:
        """Pin the current acked state under ``name`` (O(1) CoW).

        Returns the number of pinned chunk mappings.  The protocol's
        ``SNAP`` op dispatches here.
        """
        return self.system.create_snapshot(name)

    def delete_snapshot(self, name: str) -> int:
        """Drop snapshot ``name``; returns chunks reclaimed."""
        return self.system.delete_snapshot(name)

    def snapshots(self) -> List[str]:
        """Names of the live snapshots."""
        return self.system.snapshots()

    def read_snapshot(self, name: str, lba: int, num_chunks: int = 1) -> bytes:
        """Read chunk-aligned data as of snapshot ``name``."""
        return self.system.read_snapshot(name, lba, num_chunks)

    # -- introspection -------------------------------------------------------------
    @property
    def reduction_stats(self) -> EngineStats:
        """Dedup/compression effectiveness so far."""
        return self.system.engine.stats

    @property
    def engine_stats(self) -> EngineStats:
        """Typed snapshot of every engine ledger."""
        return self.system.engine.stats_snapshot()

    def stats_snapshot(self) -> Dict[str, Any]:
        """The ``repro.stats/v1`` snapshot this server publishes into its
        engine's registry — the same shape the protocol's STATS op
        serves over the wire."""
        return _obs.snapshot(self.system.engine.registry)

    @property
    def chunk_size(self) -> int:
        return self.system.engine.chunker.chunk_size

    def report(self) -> SystemReport:
        """Full device-accounting report for the processed workload."""
        return self.system.report()

    # -- lifecycle -----------------------------------------------------------------
    def close(self) -> None:
        """Drain, fence the journal (when armed) and release workers.

        Delegates to :meth:`ReductionSystem.close`; idempotent.  This is
        the uniform end of the engine lifecycle API — CLIs and examples
        use ``with StorageServer.build(...) as server: ...`` instead of
        ad-hoc flush-on-the-way-out teardown.
        """
        self.system.close()

    def __enter__(self) -> "StorageServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
