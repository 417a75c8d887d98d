"""Fingerprint-sharded dedup engine: N-way parallel resolve+publish.

:class:`ShardedDedupEngine` splits fingerprint space into ``N``
contiguous digest-prefix ranges, each owned by an independent
:class:`~repro.datared.dedup.DedupEngine` shard with its own lock,
Hash-PBN table, containers, PBN space and byte ledgers.  The batched
write path keeps the engine's parallel hash fan-out, then partitions the
chunks by :func:`shard_for_digest` and runs the serial resolve+publish
section **concurrently per shard** — the stage measured as the
post-compression ceiling.

Two invariants make dedup stay *global* while the index scales out
(DESIGN.md §5.7):

* **Shard selection is a pure function of content.**  Identical chunks
  always hash to the same shard, so a duplicate is found no matter
  which client, batch, or LBA wrote the first copy; cross-shard
  duplicate storage is structurally impossible.
* **LBA ownership lives in the router's directory.**  A rewrite whose
  new content hashes to a different shard publishes on the new shard
  first, then trims the stale mapping from the old shard, so every LBA
  is mapped in exactly one shard and the per-shard ledgers sum to the
  global ledger (:func:`repro.analysis.invariants.check_sharded_engine`
  verifies both laws).

With ``num_shards=1`` the scatter degenerates to a single sub-batch on
one shard and the results — bytes, stats, container layout, report
contents — are identical to a plain :class:`DedupEngine`; the
differential suite proves it.
"""

from __future__ import annotations

from dataclasses import fields
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .journal import RecoveryReport

from ..errors import ShardError, SnapshotError
from ..obs.metrics import MetricsRegistry, get_registry
from ..parallel import StagePool
from ..sync import DisciplinedLock
from .chunking import BLOCK_SIZE, FixedChunker
from .compression import Compressor
from .dedup import (
    DedupEngine,
    EngineStats,
    ReadReport,
    ReductionStats,
    StageTimer,
    WriteOptions,
    WriteReport,
    _NO_OPTIONS,
    active_clock,
    chunk_and_hash,
    extent_lbas,
    flush_stages,
    publish_engine_gauges,
)
from .hashing import Fingerprinter

__all__ = ["ShardedDedupEngine", "shard_for_digest"]

#: The :class:`EngineStats` figures also published per shard, as
#: ``engine.shard.<i>.<name>``.
_SHARD_GAUGES = (
    "logical_bytes", "stored_bytes", "live_stored_bytes",
    "unique_chunks", "duplicate_chunks", "containers_sealed",
)

#: Payload type accepted by the write entry points (mirrors DedupEngine).
_Payload = Union[bytes, bytearray, memoryview]


def shard_for_digest(digest: bytes, num_shards: int) -> int:
    """Map a fingerprint to its owning shard.

    The first 8 digest bytes index a contiguous range partition of the
    64-bit prefix space (``prefix * N >> 64``), so each shard owns one
    consistent slice of fingerprint space and a uniform hash spreads
    chunks evenly.  Pure function of content: the single shard-selection
    helper every path (batched write, single write, router) must use —
    divergent selection would silently break global dedup.
    """
    if num_shards == 1:
        return 0
    prefix = int.from_bytes(digest[:8], "big")
    return (prefix * num_shards) >> 64


class ShardedDedupEngine:
    """N independent dedup shards behind one scatter-gather front door.

    The router owns a single :class:`~repro.sync.DisciplinedLock` with
    the same external semantics as the plain engine's batch-wide lock —
    concurrent callers serialize at the front door — and the win is the
    *intra-batch* cross-shard parallelism of the resolve+publish stage.

    Setting ``stage_clock`` propagates the clock to every shard:
    :class:`~repro.obs.trace.TracedStages` keeps its totals per thread,
    so shards on pool threads share one.
    """

    def __init__(
        self,
        num_shards: int,
        compressor: Optional[Compressor] = None,
        chunk_size: int = BLOCK_SIZE,
        num_buckets: int = 1 << 16,
        pool: Optional[StagePool] = None,
        read_cache_chunks: int = 0,
        registry: Optional[MetricsRegistry] = None,
        fingerprinter: Optional[Fingerprinter] = None,
        shard_factory: Optional[Callable[[int], DedupEngine]] = None,
    ) -> None:
        """``pool`` is the shared hash/compress fan-out pool (the same
        role it has on ``DedupEngine``); the shard scatter itself runs
        on a private thread pool sized to ``num_shards``.  Each shard
        gets a **private** metrics registry so N ``engine.*`` collectors
        never collide — this engine publishes the summed ``engine.*``
        gauges plus per-shard ``engine.shard.<i>.*`` gauges into
        ``registry`` (default: the process registry).  ``shard_factory``
        overrides shard construction (the systems factory wires custom
        containers per shard); it must honour the shared chunk size.
        ``read_cache_chunks`` and ``num_buckets`` are per-shard budgets.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        #: Rank 10 in :data:`repro.sync.LOCK_ORDER`: the router lock is
        #: the outermost lock in the stack — shard dedup-engine locks
        #: (rank 20) nest inside it on the caller thread (stats, trim),
        #: never the other way around.
        self.lock = DisciplinedLock("sharded-router")
        self.chunker = FixedChunker(chunk_size)
        self.pool = pool if pool is not None else StagePool(1)
        if shard_factory is None:
            def _default_factory(index: int) -> DedupEngine:
                return DedupEngine(
                    compressor=compressor,
                    chunk_size=chunk_size,
                    num_buckets=num_buckets,
                    pool=self.pool,
                    read_cache_chunks=read_cache_chunks,
                    registry=MetricsRegistry(),
                    fingerprinter=fingerprinter,
                )

            shard_factory = _default_factory
        #: The shards, index-addressed by :func:`shard_for_digest`.
        #: Strongly referenced here: each shard's registry holds its
        #: collector only weakly, and this list also keeps the shard
        #: engines alive for the per-shard gauges below.
        self.shards: List[DedupEngine] = [
            shard_factory(index) for index in range(num_shards)
        ]
        for index, shard in enumerate(self.shards):
            if shard.chunker.chunk_size != chunk_size:
                raise ValueError(
                    f"shard {index} chunk_size "
                    f"{shard.chunker.chunk_size} != {chunk_size}"
                )
        self.compressor = self.shards[0].compressor
        self.fingerprinter = self.shards[0].fingerprinter
        #: LBA → owning shard directory.  Every written LBA is recorded
        #: under the router lock; reads and trims resolve through it.
        #: An absent LBA is unmapped everywhere (shard 0 then serves the
        #: canonical zero-fill read).
        self._lba_shard: Dict[int, int] = {}  # guarded-by: self.lock
        #: Scatter pool: one thread per shard, ``min_slice_items=1`` so
        #: a handful of shard tasks never collapse into one serial
        #: slice (the StagePool default of 8 would serialize any
        #: fan-out below 8 shards).  Serial when there is one shard.
        self._fanout = StagePool(
            num_shards if num_shards > 1 else 1,
            slices_per_worker=1,
            min_slice_items=1,
        )
        self._stage_clock: Optional[StageTimer] = None
        self._closed = False  # guarded-by: self.lock
        #: Per-shard :class:`~repro.datared.journal.RecoveryReport`\ s
        #: when this cluster was rebuilt from crash images (set by the
        #: systems factory), else ``None``.
        self.recovery: Optional[List["RecoveryReport"]] = None
        #: Cross-shard conflicts a mixed-fence recovery resolved: LBAs
        #: that were mapped on two shards (a rewrite's cross-shard trim
        #: was torn away) and snapshot names that did not reach every
        #: shard's durable prefix (set by the systems factory).
        self.recovery_lba_conflicts = 0
        self.recovery_snapshots_dropped = 0
        self.registry = registry if registry is not None else get_registry()
        self.registry.register_collector(self._publish_metrics)

    # -- instrumentation ---------------------------------------------------------
    @property
    def stage_clock(self) -> Optional[StageTimer]:
        return self._stage_clock

    @stage_clock.setter
    def stage_clock(self, clock: Optional[StageTimer]) -> None:
        self._stage_clock = clock
        for shard in self.shards:
            shard.stage_clock = clock

    # -- stats -------------------------------------------------------------------
    @property
    def stats(self) -> ReductionStats:
        """Cluster-wide :class:`ReductionStats` (summed over shards)."""
        snap = self.stats_snapshot()
        return ReductionStats(**{
            field.name: getattr(snap, field.name)
            for field in fields(ReductionStats)
        })

    def shard_snapshots(self) -> List[EngineStats]:
        """Per-shard lock-consistent :class:`EngineStats` snapshots."""
        with self.lock:
            return [shard.stats_snapshot() for shard in self.shards]

    def stats_snapshot(self) -> EngineStats:
        """Cluster-wide :class:`EngineStats` (summed over shards)."""
        return _merge_snapshots(self.shard_snapshots())

    def _publish_metrics(self, registry: MetricsRegistry) -> None:
        """Collector: summed ``engine.*`` plus ``engine.shard.<i>.*``.

        The aggregate gauges carry the exact names the plain engine
        publishes, so every ``repro.stats/v1`` consumer (loadgen, obs
        top, the bench CLIs) reads a sharded engine unchanged; ratios
        are recomputed from the summed ledgers.
        """
        snaps = self.shard_snapshots()
        registry.gauge("engine.shards").set(self.num_shards)
        publish_engine_gauges(registry, _merge_snapshots(snaps))
        for index, shard_snap in enumerate(snaps):
            for name in _SHARD_GAUGES:
                registry.gauge(f"engine.shard.{index}.{name}").set(
                    getattr(shard_snap, name)
                )

    # -- write path --------------------------------------------------------------
    def write(
        self,
        lba: int,
        payload: _Payload,
        options: Optional[WriteOptions] = None,
    ) -> WriteReport:
        """Write ``payload`` at chunk-aligned ``lba``.

        A single write is a batch of one: it runs the exact batched
        scatter path, so shard selection cannot diverge between the
        entry points (the satellite regression test pins this).
        """
        return self.write_many([(lba, payload)], options)[0]

    def write_many(
        self,
        requests: Iterable[Tuple[int, _Payload]],
        options: Optional[WriteOptions] = None,
    ) -> List[WriteReport]:
        """Scatter a batch across shards; gather per-request reports.

        Chunks are fingerprinted on the shared pool (unchanged hash
        fan-out), partitioned by digest prefix, and each shard's
        sub-batch runs resolve+publish concurrently on the scatter
        pool.  Reports and LBA mappings re-merge in submission order;
        a rewrite that moved an LBA to a new shard trims the stale
        mapping from the old one before the call returns.

        If a shard fails, the other shards complete and stay conserved,
        the directory reflects only the applied writes, and a
        :class:`~repro.errors.ShardError` naming the failed shards is
        raised (per-chunk atomicity, like a split write).
        """
        if options is None:
            options = _NO_OPTIONS
        with self.lock:
            reports = self._write_many_locked(list(requests), options.digests)
            if options.flush:
                for shard in self.shards:
                    shard.flush()
            return reports

    def _write_many_locked(  # repro-lint: holds self.lock, single-writer, hot-path
        self,
        requests: List[Tuple[int, _Payload]],
        digests: Optional[Sequence[bytes]],
    ) -> List[WriteReport]:
        clock = active_clock(self._stage_clock)
        # Stages 0-1 (hash in parallel): the engine's own front, run at
        # the router so one digest both routes the chunk and skips the
        # shard's hash stage.
        flat, digests = chunk_and_hash(
            self.chunker, self.fingerprinter, self.pool, clock,
            requests, digests,
        )
        flush_stages(clock)  # the front door's stages; shards flush their own

        # Stage 2: partition by digest prefix, preserving flat order
        # within each shard's sub-batch.
        num_shards = self.num_shards
        assignment = [shard_for_digest(digest, num_shards) for digest in digests]
        per_shard: List[List[int]] = [[] for _ in range(num_shards)]
        for position, shard_index in enumerate(assignment):
            per_shard[shard_index].append(position)
        work = [
            (shard_index, positions)
            for shard_index, positions in enumerate(per_shard)
            if positions
        ]

        # Stage 3 (parallel): per-shard resolve+publish.  Every chunk is
        # its own single-chunk sub-request so the gather can rebuild
        # per-request reports chunk by chunk.  Exceptions are captured
        # per shard — never raised through the pool — so the scatter
        # always runs to completion before the gather inspects it.
        def scatter(item: Tuple[int, List[int]]) -> Union[List[WriteReport], BaseException]:
            shard_index, positions = item
            sub_requests: List[Tuple[int, _Payload]] = [
                (flat[position][1].lba, flat[position][1].data)
                for position in positions
            ]
            sub_digests = [digests[position] for position in positions]
            try:
                return self.shards[shard_index].write_many(
                    sub_requests, WriteOptions(digests=sub_digests)
                )
            except Exception as error:  # gathered below, per shard
                return error

        failures: Dict[int, BaseException] = {}
        by_position: Dict[int, WriteReport] = {}
        for (shard_index, positions), result in zip(
            work, self._fanout.map(scatter, work)
        ):
            if isinstance(result, BaseException):
                failures[shard_index] = result
            else:
                by_position.update(zip(positions, result))

        # Stage 4 (serial): gather in submission order.  A request's
        # first sub-report becomes its report (this call is its single
        # writer now) and the rest fold into it.  Last writer of an LBA
        # owns it; every other shard that wrote it this batch — plus its
        # previous owner — gets a trim, and the reclaims credit the
        # owning request exactly as an in-shard overwrite would.
        reports: List[Optional[WriteReport]] = [None] * len(requests)
        final: Dict[int, int] = {}  # lba -> flat position of its last writer
        losers: Dict[int, Set[int]] = {}  # lba -> shards holding a stale mapping
        for position, (request_index, chunk) in enumerate(flat):
            sub_report = by_position.get(position)
            if sub_report is None:
                continue  # its shard failed: unknown state, the caller's
            report = reports[request_index]
            if report is None:
                reports[request_index] = sub_report
            else:
                report.add(sub_report.chunks[0])
                report.containers_sealed += sub_report.containers_sealed
                report.reclaimed_chunks += sub_report.reclaimed_chunks
            lba, shard_index = chunk.lba, assignment[position]
            last = final.get(lba)
            previous = (
                self._lba_shard.get(lba, shard_index)
                if last is None else assignment[last]
            )
            if previous != shard_index:
                losers.setdefault(lba, set()).add(previous)
            final[lba] = position

        done = [WriteReport() if report is None else report for report in reports]
        for lba, shards in losers.items():
            position = final[lba]
            report = done[flat[position][0]]
            for shard_index in sorted(shards - failures.keys()):
                if shard_index != assignment[position]:
                    report.reclaimed_chunks += (
                        self.shards[shard_index].trim(lba).reclaimed_chunks
                    )
        self._lba_shard.update(
            (lba, assignment[position]) for lba, position in final.items()
        )

        if failures:
            raise ShardError(
                f"{len(failures)} shard(s) failed during write_many: " + "; ".join(
                    f"shard {index}: {error!r}" for index, error in failures.items()
                ),
                tuple(failures),
            )
        return done

    # -- read path ---------------------------------------------------------------
    def read(self, lba: int, num_chunks: int = 1) -> ReadReport:
        """Read ``num_chunks`` chunks starting at chunk-aligned ``lba``:
        :meth:`read_many` over the extent's LBAs."""
        return self.read_many(extent_lbas(self.chunker, lba, num_chunks))

    def read_many(self, lbas: Sequence[int]) -> ReadReport:
        """Read the chunks at ``lbas`` in one pass per shard.

        Positions are bucketed by owning shard through the LBA directory
        (in sequence order, so a shard's read LRU moves as a read per
        position would move it), the buckets fan out on the scatter pool
        and the pieces scatter back.  LBAs absent from the directory are
        unmapped everywhere, so shard 0 serves their canonical zero-fill
        (identical data and accounting to the plain engine's hole reads).
        """
        with self.lock:
            buckets: Dict[int, List[int]] = {}  # shard -> positions
            for position, lba in enumerate(lbas):
                buckets.setdefault(self._lba_shard.get(lba, 0), []).append(position)

            def gather(bucket: Tuple[int, List[int]]) -> ReadReport:
                shard_index, positions = bucket
                return self.shards[shard_index].read_many(
                    [lbas[position] for position in positions]
                )

            sub_reports = self._fanout.map(gather, list(buckets.items()))
            merged = ReadReport(
                pieces=[b""] * len(lbas), stored_sizes=[0] * len(lbas)
            )
            for positions, sub_report in zip(buckets.values(), sub_reports):
                _fold(merged, sub_report)
                for position, piece, stored in zip(
                    positions, sub_report.pieces, sub_report.stored_sizes
                ):
                    merged.pieces[position] = piece
                    merged.stored_sizes[position] = stored
            return merged

    # -- maintenance -------------------------------------------------------------
    def trim(self, lba: int) -> WriteReport:
        """Drop ``lba``'s mapping from its owning shard (TRIM/discard)."""
        with self.lock:
            shard_index = self._lba_shard.pop(lba, 0)
            return self.shards[shard_index].trim(lba)

    def flush(self) -> None:
        """Seal every shard's open container (batch boundary)."""
        with self.lock:
            for shard in self.shards:
                shard.flush()

    def collect_garbage(self, threshold: float = 0.5) -> int:
        """Compact each shard's containers; returns total reclaimed."""
        with self.lock:
            return sum(
                shard.collect_garbage(threshold) for shard in self.shards
            )

    # -- snapshots ---------------------------------------------------------------
    def create_snapshot(self, name: str) -> int:
        """Pin the cluster's current LBA→PBN view under ``name``.

        Fans out under the router lock: every shard pins its slice of
        the directory (a shard owning none of the mapped LBAs pins an
        empty view), so the name exists uniformly across shards — the
        uniformity law :func:`~repro.analysis.invariants.check_sharded_engine`
        verifies.  Returns the total number of pinned chunk mappings.
        """
        with self.lock:
            if self.shards and name in self.shards[0].snapshots():
                raise SnapshotError(f"snapshot {name!r} already exists")
            return sum(
                shard.create_snapshot(name) for shard in self.shards
            )

    def delete_snapshot(self, name: str) -> WriteReport:  # repro-lint: holds single-writer
        """Drop ``name`` on every shard; merged reclaim report.

        The merged :class:`WriteReport` is function-local until return,
        so this thread is its single writer by construction.
        """
        with self.lock:
            if self.shards and name not in self.shards[0].snapshots():
                raise SnapshotError(f"unknown snapshot {name!r}")
            merged = WriteReport()
            for shard in self.shards:
                sub_report = shard.delete_snapshot(name)
                merged.reclaimed_chunks += sub_report.reclaimed_chunks
                merged.containers_sealed += sub_report.containers_sealed
            return merged

    def snapshots(self) -> List[str]:
        """Snapshot names (uniform across shards; read from shard 0)."""
        with self.lock:
            return self.shards[0].snapshots()

    def read_snapshot(
        self, name: str, lba: int, num_chunks: int = 1
    ) -> ReadReport:
        """Read from snapshot ``name`` as of its creation point.

        Each chunk position resolves to the shard whose pinned view
        maps it (pure content routing means at most one shard does);
        positions no shard pinned read as the canonical zero-fill from
        shard 0, mirroring :meth:`read`'s hole semantics.
        """
        lbas = extent_lbas(self.chunker, lba, num_chunks)
        with self.lock:
            if self.shards and name not in self.shards[0].snapshots():
                raise SnapshotError(f"unknown snapshot {name!r}")
            merged = ReadReport()
            for chunk_lba in lbas:
                owner = 0
                for shard_index, shard in enumerate(self.shards):
                    if shard.snapshot_contains(name, chunk_lba):
                        owner = shard_index
                        break
                sub_report = self.shards[owner].read_snapshot(
                    name, chunk_lba, 1
                )
                _fold(merged, sub_report)
                merged.pieces += sub_report.pieces
                merged.stored_sizes += sub_report.stored_sizes
            return merged

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Flush + commit every shard, then stop the scatter pool.

        The uniform end of the engine lifecycle API (DESIGN.md §5.10):
        seals open containers, fences each shard's journal (when armed)
        and releases the fan-out workers.  Idempotent; the shared
        hash/compress pool is still the caller's to manage.
        """
        with self.lock:
            if self._closed:
                return
            for shard in self.shards:
                shard.close()
            self._closed = True
        self._fanout.shutdown()

    def __enter__(self) -> "ShardedDedupEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _fold(merged: ReadReport, part: ReadReport) -> None:
    """Add one shard's read counters into the cluster-wide report."""
    merged.chunks_read += part.chunks_read
    merged.stored_bytes_read += part.stored_bytes_read
    merged.unmapped_chunks += part.unmapped_chunks
    merged.cache_hits += part.cache_hits


def _merge_snapshots(snaps: Sequence[EngineStats]) -> EngineStats:
    """Sum per-shard snapshots into one cluster-wide snapshot.

    Every :class:`EngineStats` field is an integral ledger, so the
    cluster view is the plain field-wise sum; the derived ratios then
    recompute from the summed ledgers.
    """
    return EngineStats(**{
        field.name: sum(getattr(snap, field.name) for snap in snaps)
        for field in fields(EngineStats)
    })
