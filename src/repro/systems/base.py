"""Shared scaffold for the two end-to-end systems (baseline and FIDR).

A :class:`ReductionSystem` owns one functional data-reduction stack —
dedup engine, Hash-PBN table over a :class:`~repro.cache.TableCache`
whose fetches and flushes the table SSDs count, containers accounted
to data SSDs — plus the device ledgers.  Subclasses differ **only** in
flow topology: which devices move the bytes, which memory paths get
charged, which tasks the host CPU pays for.  That is the paper's
thesis rendered as code structure: both systems do identical logical
work; the architecture decides who pays.

Writes accumulate into batches of ``config.batch_chunks`` before the
backend runs (both CIDR's predictor and FIDR's NIC operate on batches);
reads are strongly consistent (subclasses either flush first or serve
from their staging buffer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..cache.table_cache import CacheIndex, TableCache
from ..errors import AlignmentError, CapacityError
from ..datared.chunking import Chunk
from ..datared.compression import Compressor
from ..datared.container import Container
from ..datared.dedup import ChunkOutcome, ReadReport
from ..datared.hash_pbn import InMemoryBucketStore
from ..hw.cpu import CpuLedger
from ..hw.memory import MemoryLedger
from ..hw.pcie import PcieTopology
from ..hw.specs import PROTOTYPE_SERVER, ServerSpec
from ..hw.ssd import SsdArray
from ..obs import trace as _trace
from ..obs.metrics import MetricsRegistry
from .accounting import SystemReport
from .config import SystemConfig
from .factory import build_engine

__all__ = ["CacheDelta", "ReductionSystem"]


@dataclass
class CacheDelta:
    """What the table-cache stack did during one batch of chunks."""

    content_scans: int = 0
    fetches: int = 0
    flushes: int = 0
    evictions: int = 0
    host_bytes_read: int = 0
    host_bytes_written: int = 0
    tree_searches: int = 0
    tree_updates: int = 0
    tree_node_visits: int = 0
    table_ssd_reads: int = 0
    table_ssd_writes: int = 0
    table_ssd_read_bytes: float = 0.0
    table_ssd_write_bytes: float = 0.0


class ReductionSystem:
    """Base class wiring the functional stack to the ledgers."""

    #: Who runs the table SSDs' NVMe queues ("host" or "engine", §6.1).
    TABLE_QUEUE_OWNER = "host"
    name = "abstract"

    def __init__(
        self,
        server: Optional[ServerSpec] = None,
        config: Optional[SystemConfig] = None,
        num_buckets: int = 1 << 15,
        cache_lines: int = 1024,
        compressor: Optional[Compressor] = None,
    ):
        """``compressor`` overrides the config's codec policy with a
        ready-built :class:`~repro.datared.compression.Compressor`
        instance.  (The codec-name *string* form deprecated since the
        codec-policy release is gone — set
        ``SystemConfig(codec=CodecPolicy(codec=...))`` instead.)"""
        self.server = server if server is not None else PROTOTYPE_SERVER
        self.config = config if config is not None else SystemConfig()
        if isinstance(compressor, str):
            raise TypeError(
                "codec name strings are no longer accepted as "
                "ReductionSystem's compressor=; use "
                "SystemConfig(codec=CodecPolicy(codec=...))"
            )

        # Device ledgers.
        self.memory = MemoryLedger(self.server.dram)
        self.cpu = CpuLedger(self.server.cpu)
        self.pcie = self._build_topology()

        # Functional storage stack.
        self.table_array = SsdArray(
            self.server.num_table_ssds, self.server.table_ssd, name="table-ssd"
        )
        self.data_array = SsdArray(
            self.server.num_data_ssds, self.server.data_ssd, name="data-ssd"
        )
        # Every bucket page lives in one page store; the cache models
        # residency over it and the table SSDs count its IO.
        self.table_cache = TableCache(
            InMemoryBucketStore(),
            capacity_lines=cache_lines,
            index=self._make_index(),
            eviction_batch=self.config.eviction_batch,
            ledger=self.table_array,
        )
        #: Built through the R009 factory: the Hash-PBN table sits over
        #: the table cache, and sealed containers charge the data SSDs.
        self.engine = build_engine(
            self.config,
            num_buckets=num_buckets,
            table_store=self.table_cache,
            compressor=compressor,
            on_seal=self._on_container_seal,
        )
        #: One owner for the whole stack: the engine's (DESIGN.md §5.3).
        #: Every client entry point below starts with this check.
        self.check_owner = self.engine.check_owner
        self.logical_write_bytes = 0.0
        self.logical_read_bytes = 0.0
        self._pending: List[Chunk] = []
        self._closed = False

    # -- subclass hooks --------------------------------------------------------------
    def _build_topology(self) -> PcieTopology:
        raise NotImplementedError

    def _make_index(self) -> CacheIndex:
        raise NotImplementedError

    def _enqueue(self, chunk: Chunk) -> None:
        """Stage one incoming chunk (host buffer vs. NIC buffer)."""
        raise NotImplementedError

    def _process_batch(self, chunks: List[Chunk]) -> None:
        """Run the backend write flow for one staged batch."""
        raise NotImplementedError

    def _unstage(self, chunks: List[Chunk]) -> None:
        """Drop a refused batch's chunks from wherever they are staged
        beyond ``_pending``.  Default: nowhere (a host buffer is the
        pending list itself)."""

    def _staged_lookup(
        self, close: Callable[[], None]
    ) -> Optional[Callable[[int], Optional[bytes]]]:
        """What serves an LBA's chunk before the engine does.  A probe
        whose answer the open engine pass's charge could change calls
        ``close()`` first.  Default: nothing, so reads drain staged writes."""
        self._drain()
        return None

    def _charge_read(self, lbas: List[int], report: ReadReport, fetched: int) -> None:
        """Charge one engine pass over ``lbas``, ``fetched`` of them off
        the data SSDs: per-chunk costs × count, bytes summed."""
        raise NotImplementedError

    def _on_container_seal(self, container: Container) -> None:
        """Charge the sealed container's trip to the data SSDs."""
        raise NotImplementedError

    # -- client API --------------------------------------------------------------------
    def write(self, lba: int, payload: bytes) -> None:
        """Client write at chunk-aligned ``lba`` (ack is immediate;
        the backend runs when a batch fills).

        Staged chunks hold *views* of ``payload`` until their batch is
        processed (DESIGN.md §5.4), so the buffer must not be mutated
        after submission — the serving layer hands immutable ``bytes``
        decoded from the wire, which satisfies this for free.
        """
        self.check_owner()
        chunks = self.engine.chunker.split(lba, payload)
        for chunk in chunks:
            self.logical_write_bytes += len(chunk.data)
            self._enqueue(chunk)
            self._pending.append(chunk)
        self._drain(self.config.batch_chunks)

    def _drain(self, leave_below: int = 1) -> None:
        """Run the backend, a batch at a time, until fewer than ``leave_below`` chunks are staged."""
        while len(self._pending) >= leave_below:
            batch = self._pending[: self.config.batch_chunks]
            del self._pending[: self.config.batch_chunks]
            processed = self.engine.stats.logical_bytes
            try:
                with _trace.span("system.batch", chunks=len(batch)):
                    self._process_batch(batch)
            except CapacityError:
                # The engine applied a prefix of the batch and refused
                # the rest (DESIGN.md §5.8): the refused chunks leave
                # staging and the front-door count, acked or not.
                applied = (
                    self.engine.stats.logical_bytes - processed
                ) // self.engine.chunker.chunk_size
                self.logical_write_bytes -= sum(
                    len(chunk.data) for chunk in batch[applied:]
                )
                self._unstage(batch)
                raise

    def flush(self) -> None:
        """Drain staged writes and seal the open container."""
        self.check_owner()
        self._drain()
        self.engine.flush()

    def _extent_step(self, lba: int, num_chunks: int) -> int:
        """Blocks per chunk, once ``num_chunks`` at ``lba`` is an extent."""
        if num_chunks < 1:
            raise AlignmentError("an extent is at least one chunk")
        step = self.engine.chunker.blocks_per_chunk
        if lba % step != 0:
            raise AlignmentError(f"LBA {lba} is not chunk-aligned")
        self.engine.chunker.check_extent_end(lba, num_chunks)
        return step

    def trim(self, lba: int, num_chunks: int = 1) -> None:
        """TRIM ``num_chunks`` chunk-aligned LBAs: drop their mappings.

        Staged writes drain first — the client was acked before its
        batch processed, so the trim must apply to the newest acked
        state (and draining also clears any NIC-buffered copy a read
        could otherwise still hit).  Trimmed LBAs read back as zeros.
        """
        self.check_owner()
        step = self._extent_step(lba, num_chunks)
        self._drain()
        for position in range(num_chunks):
            self.engine.trim(lba + position * step)

    def read(self, lba: int, num_chunks: int = 1) -> bytes:
        """Client read of ``num_chunks`` chunks at chunk-aligned ``lba``:
        :meth:`read_extents` of one."""
        (data,) = self.read_extents([(lba, num_chunks)])
        if isinstance(data, Exception):
            raise data
        return data

    def read_extents(  # repro-lint: hot-path
        self, extents: Sequence[Tuple[int, int]]
    ) -> List[Union[bytes, Exception]]:
        """Client reads of ``(lba, num_chunks)`` extents served as one
        (DESIGN.md §5.2): one staging pass, one engine pass over every
        chunk nothing staged serves, one ledger charge.
        Returns, per extent, its bytes — or the exception it alone drew."""
        self.check_owner()
        step = self.engine.chunker.blocks_per_chunk
        results: List[Union[bytes, Exception]] = [b""] * len(extents)
        pieces: List[Optional[bytes]] = []  # per chunk of every well-formed extent
        bounds: List[Tuple[int, int, int]] = []  # (extent, its span of pieces)
        #: The open engine pass, per chunk: (LBA, index in pieces, extent).
        opened: List[Tuple[int, int, int]] = []

        def close() -> None:
            # A pass charges nothing unless it succeeds, so one that raises
            # is re-run extent by extent: only the failing extent draws it.
            try:
                if opened:
                    self._engine_pass(opened, pieces)
            except Exception as error:
                for extent in dict.fromkeys(owner for _, _, owner in opened):
                    own = [chunk for chunk in opened if chunk[2] == extent]
                    if len(own) == len(opened):
                        results[extent] = error  # the pass was this extent's alone
                        continue
                    try:
                        self._engine_pass(own, pieces)
                    except Exception as failure:
                        results[extent] = failure
            del opened[:]

        serves = self._staged_lookup(close)
        for extent, (lba, num_chunks) in enumerate(extents):
            try:
                self._extent_step(lba, num_chunks)
            except ValueError as error:
                results[extent] = error
                continue
            start = len(pieces)
            for chunk_lba in range(lba, lba + num_chunks * step, step):
                staged = serves(chunk_lba) if serves is not None else None
                if staged is None:
                    opened.append((chunk_lba, len(pieces), extent))
                pieces.append(staged)
            bounds.append((extent, start, len(pieces)))
        close()
        for extent, start, end in bounds:
            if not isinstance(results[extent], Exception):
                # (joined even when alone: a staged hit is a view of its write)
                data = b"".join(pieces[start:end])  # repro-lint: copy-ok a list's slice
                self.logical_read_bytes += len(data)
                results[extent] = data
        return results

    def _engine_pass(  # repro-lint: hot-path
        self, chunks: List[Tuple[int, int, int]], pieces: List[Optional[bytes]]
    ) -> None:
        """One ``engine.read_many`` and one ledger charge for ``chunks``
        (as ``read_extents`` opens them); their bytes land in ``pieces``."""
        lbas = [lba for lba, _, _ in chunks]
        report = self.engine.read_many(lbas)
        drives, fetched = self.data_array.drives, 0
        for (lba, slot, _), piece, stored in zip(chunks, report.pieces, report.stored_sizes):
            pieces[slot] = piece
            if stored:  # fetched off the drive its own LBA stripes to
                drives[lba % len(drives)].account_read(stored)
                fetched += 1
        self._charge_read(lbas, report, fetched)

    # -- snapshots ---------------------------------------------------------------------
    def create_snapshot(self, name: str) -> int:
        """Pin the current acked state under ``name`` (O(1) CoW).

        Staged writes drain first: a client acked before its batch
        processed must be inside the snapshot, the same drain-first rule
        :meth:`trim` follows.  Returns the number of pinned chunks.
        """
        self.check_owner()
        self._drain()
        return self.engine.create_snapshot(name)

    def delete_snapshot(self, name: str) -> int:
        """Drop snapshot ``name``; returns chunks reclaimed by unpinning."""
        self.check_owner()
        return self.engine.delete_snapshot(name).reclaimed_chunks

    def snapshots(self) -> List[str]:
        """Names of the live snapshots."""
        self.check_owner()
        return self.engine.snapshots()

    def read_snapshot(self, name: str, lba: int, num_chunks: int = 1) -> bytes:
        """Read ``num_chunks`` chunks at ``lba`` as of snapshot ``name``.

        Served straight from the pinned metadata tree — a management
        read outside the modeled client data path, so no device ledger
        charges (the functional bytes are still exact).
        """
        self.check_owner()
        self._extent_step(lba, num_chunks)
        return self.engine.read_snapshot(name, lba, num_chunks).data

    # -- lifecycle ---------------------------------------------------------------------
    def close(self) -> None:
        """Drain, seal, fence and release: the end of the lifecycle API.

        Flushes staged writes (their clients were already acked) and
        closes the engine — which seals the open container and, when a
        journal is armed, writes the final commit fence.  Idempotent, so
        ``with system: ...`` plus an explicit late ``close()`` is safe.
        """
        self.check_owner()
        if self._closed:
            return
        self._drain()
        self.engine.close()
        self._closed = True

    def __enter__(self) -> "ReductionSystem":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- delta capture -----------------------------------------------------------------
    def _snapshot(self) -> Tuple:
        stats = self.table_cache.stats
        array = self.table_array.stats
        index = self.table_cache.index
        visits = getattr(index, "node_visits", 0)
        return (
            stats.content_scans,
            stats.fetches,
            stats.flushes,
            stats.evictions,
            stats.host_bytes_read,
            stats.host_bytes_written,
            index.searches,
            index.updates,
            visits,
            array.read_ops,
            array.write_ops,
            array.bytes_read,
            array.bytes_written,
        )

    def _delta_since(self, snapshot: Tuple) -> CacheDelta:
        now = self._snapshot()
        return CacheDelta(
            content_scans=now[0] - snapshot[0],
            fetches=now[1] - snapshot[1],
            flushes=now[2] - snapshot[2],
            evictions=now[3] - snapshot[3],
            host_bytes_read=now[4] - snapshot[4],
            host_bytes_written=now[5] - snapshot[5],
            tree_searches=now[6] - snapshot[6],
            tree_updates=now[7] - snapshot[7],
            tree_node_visits=now[8] - snapshot[8],
            table_ssd_reads=now[9] - snapshot[9],
            table_ssd_writes=now[10] - snapshot[10],
            table_ssd_read_bytes=now[11] - snapshot[11],
            table_ssd_write_bytes=now[12] - snapshot[12],
        )

    def _dedup_batch(
        self,
        chunks: List[Chunk],
        digests: Optional[List[bytes]] = None,
    ) -> Tuple[List[ChunkOutcome], CacheDelta]:
        """Run the functional dedup write for a batch, capturing what the
        table-cache stack did on its behalf.

        The batch goes through the stage-split
        :meth:`~repro.datared.dedup.DedupEngine.write_many`, so hashing
        and compression run once per batch while every table-cache
        access (and hence every ledger charge captured here) happens in
        chunk order, exactly as the per-chunk path would issue it.

        ``digests`` optionally carries per-chunk fingerprints already
        computed upstream (FIDR's NIC hashes on ingest); the engine then
        skips its hash stage entirely.
        """
        snapshot = self._snapshot()
        reports = self.engine.write_many(
            [(chunk.lba, chunk.data) for chunk in chunks], digests=digests
        )
        outcomes = [
            outcome for report in reports for outcome in report.chunks
        ]
        return outcomes, self._delta_since(snapshot)

    # -- reporting ----------------------------------------------------------------------
    def _publish_table_cache(self, registry: MetricsRegistry) -> None:
        """The table cache's ledger as ``system.table_cache.*`` gauges
        (each system's collector calls this; unchecked, see
        :meth:`~repro.datared.dedup.DedupEngine.stats_snapshot`)."""
        stats, index = self.table_cache.stats, self.table_cache.index
        values = {
            name: getattr(stats, name)
            for name in ("hits", "warm_hits", "misses", "evictions", "flushes", "hit_rate")
        }
        values["index.searches"] = index.searches
        values["index.updates"] = index.updates
        for name, value in values.items():
            registry.gauge(f"system.table_cache.{name}").set(value)

    def report(self) -> SystemReport:
        """Build the projection-ready report for the processed workload."""
        index = self.table_cache.index
        return SystemReport(
            name=self.name,
            server=self.server,
            logical_write_bytes=self.logical_write_bytes,
            logical_read_bytes=self.logical_read_bytes,
            memory=self.memory,
            cpu=self.cpu,
            pcie=self.pcie,
            cache_stats=self.table_cache.stats,
            reduction=self.engine.stats,
            tree_node_visits=getattr(index, "node_visits", 0),
            engine_tree_updates=(
                index.updates if self.TABLE_QUEUE_OWNER == "engine" else 0
            ),
            predictor_accuracy=self._predictor_accuracy(),
            nic_buffer_hit_rate=self._nic_buffer_hit_rate(),
        )

    def _predictor_accuracy(self) -> Optional[float]:
        return None

    def _nic_buffer_hit_rate(self) -> Optional[float]:
        return None
