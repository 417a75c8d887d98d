"""The inline data-reduction engine (paper §2.2, Figure 1).

:class:`DedupEngine` is the functional core shared by both systems: it
performs the complete write flow — chunk, fingerprint, Hash-PBN lookup,
compress unique chunks, pack into containers, update both mapping tables
— and the read flow — LBA→PBN→PBA lookup, container read, decompress.

The engine is *policy-free*: it does not know whether hashing ran on a
NIC or a host core, or whether a bucket came from DRAM or a table SSD.
Every write/read returns a detailed report of what happened (per-chunk
dedup outcomes, bucket accesses, container seals) and the system layers
(:mod:`repro.systems.baseline`, :mod:`repro.systems.fidr`) charge their
device ledgers from those reports according to their own flow topology.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from threading import get_ident
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import CapacityError, SnapshotError, ThreadOwnershipError
from ..obs import trace as _trace
from ..obs.metrics import MetricsRegistry, get_registry
from . import codecs as _codecs
from .chunking import BLOCK_SIZE, Chunk, FixedChunker
from .compression import CompressedChunk, Compressor, ZlibCompressor
from .container import ContainerStore
from .hash_pbn import HashPbnTable
from .hashing import FINGERPRINT_SIZE, SHA256, Fingerprinter
from .lba_map import LbaMap, PbnAllocator, PbnMap

if TYPE_CHECKING:
    from .journal import MetadataJournal, RecoveryReport

#: Distinguishes "LBA never consulted" from "LBA unmapped" in the
#: batch planner's shadow map.
_UNSET: Any = object()

__all__ = [
    "ChunkOutcome",
    "EngineStats",
    "WriteReport",
    "ReadReport",
    "DedupEngine",
    "settle_allocator",
]


@functools.cache
def settle_allocator() -> None:
    """Free one untouched 16-MiB block, once a process: glibc's mmap and
    heap-trim thresholds rise to it, so 256-KiB buffers — a bulk read's
    pieces and reply, a client's replies, a server's WRITE frames — are
    recycled rather than mapped afresh (64 page faults a buffer) on
    every op or on none, as the process's earlier frees decided
    (DESIGN.md §5.1)."""
    bytes(16 * 1024 * 1024)


@dataclass
class EngineStats:
    """Every integral ledger of one engine: ``engine.stats``.

    ``stored_bytes`` is cumulative (never decremented);
    ``reclaimed_stored_bytes`` tracks space later freed by overwrites, so
    ``live_stored_bytes`` is the current on-SSD footprint.  All raw
    fields are integral (R004); the ratios are derived properties.
    ``containers_sealed`` and ``index_probes`` are counted by the
    container store and the table: the live ledger leaves them 0, and
    :meth:`DedupEngine.stats_snapshot` fills them into its copy.
    """

    logical_bytes: int = 0
    unique_logical_bytes: int = 0
    stored_bytes: int = 0
    reclaimed_stored_bytes: int = 0
    duplicate_chunks: int = 0
    unique_chunks: int = 0
    read_cache_hits: int = 0
    read_cache_misses: int = 0
    #: Garbage-collection work (see :meth:`DedupEngine.collect_garbage`).
    gc_containers_reclaimed: int = 0
    gc_bytes_moved: int = 0
    #: Batch-planner accuracy: uniques the planner missed (compressed
    #: inline by the walk) and duplicates it compressed needlessly.  Both
    #: stay 0 unless the planner's shadow walk diverges from execution —
    #: a correctness canary, live on every batch since every batch plans.
    plan_fallback_compressions: int = 0
    plan_wasted_compressions: int = 0
    containers_sealed: int = 0
    index_probes: int = 0  #: Hash-PBN buckets touched

    @property
    def live_stored_bytes(self) -> int:
        return self.stored_bytes - self.reclaimed_stored_bytes

    @property
    def dedup_ratio(self) -> float:
        """Fraction of written chunks removed by deduplication."""
        total = self.duplicate_chunks + self.unique_chunks
        return self.duplicate_chunks / total if total else 0.0

    @property
    def compression_ratio(self) -> float:
        """Stored fraction of unique bytes (0.5 = halved)."""
        if self.unique_logical_bytes == 0:
            return 1.0
        return self.stored_bytes / self.unique_logical_bytes

    @property
    def reduction_factor(self) -> float:
        """Logical bytes written per stored byte (higher is better)."""
        if self.stored_bytes == 0:
            return float("inf") if self.logical_bytes else 1.0
        return self.logical_bytes / self.stored_bytes


class ChunkOutcome(NamedTuple):
    """What happened to one chunk of a write request.

    A :class:`~typing.NamedTuple` (not a frozen dataclass): one is built
    per chunk on the write path and tuple construction is ~2x cheaper
    than frozen-dataclass field assignment, while keeping value equality
    and immutability.
    """

    lba: int
    pbn: int
    duplicate: bool
    logical_size: int
    stored_size: int  #: 0 for duplicates (nothing newly stored)


@dataclass
class WriteReport:
    """Everything the system layer needs to account one write request.

    The byte and chunk totals are read off :attr:`chunks` when asked
    for.  The engine builds one report per request (a 4-KiB request
    each, on the served path) and nothing on that path reads a total,
    so the write walk keeps only the outcomes and the seal count.
    """

    chunks: List[ChunkOutcome] = field(default_factory=list)
    containers_sealed: int = 0
    reclaimed_chunks: int = 0  #: last references dropped

    def add(self, outcome: ChunkOutcome) -> None:
        """Record one chunk outcome."""
        self.chunks.append(outcome)

    @property
    def logical_bytes(self) -> int:
        return sum(outcome.logical_size for outcome in self.chunks)

    @property
    def unique_chunks(self) -> int:
        return sum(1 for outcome in self.chunks if not outcome.duplicate)

    @property
    def duplicate_chunks(self) -> int:
        return len(self.chunks) - self.unique_chunks

    @property
    def stored_bytes(self) -> int:
        return sum(outcome.stored_size for outcome in self.chunks)


@dataclass
class ReadReport:
    """Accounting detail for one read pass."""

    #: Per position: the chunk's decompressed bytes (zeros for a hole).
    pieces: List[bytes] = field(default_factory=list)
    chunks_read: int = 0
    stored_bytes_read: int = 0  #: compressed bytes fetched from containers
    unmapped_chunks: int = 0  #: never-written holes (returned as zeros)
    cache_hits: int = 0  #: chunks served from the decompressed-read LRU
    #: (no container fetch, so they add nothing to stored_bytes_read)
    #: Per position: compressed bytes fetched for it (0 for a hole or a
    #: read-cache hit) — what the system layer charges a pass from.
    stored_sizes: List[int] = field(default_factory=list)

    @property
    def data(self) -> bytes:
        """The positions' bytes as one buffer (a lone piece as is)."""
        return self.pieces[0] if len(self.pieces) == 1 else b"".join(self.pieces)


class DedupEngine:
    """End-to-end inline deduplication + compression over containers."""

    def __init__(
        self,
        table: Optional[HashPbnTable] = None,
        compressor: Optional[Compressor] = None,
        containers: Optional[ContainerStore] = None,
        chunk_size: int = BLOCK_SIZE,
        num_buckets: int = 1 << 16,
        read_cache_chunks: int = 0,
        registry: Optional[MetricsRegistry] = None,
        fingerprinter: Optional[Fingerprinter] = None,
        journal: Optional["MetadataJournal"] = None,
    ) -> None:
        """``read_cache_chunks`` bounds the decompressed-read LRU (0
        disables it): hot re-reads of the same PBN skip the container
        fetch and ``zlib.decompress``.  PBNs are content-addressed while
        live, but a freed PBN may be *reallocated* for new content, so
        entries are dropped on release and on GC repoint.
        ``registry`` is the :class:`~repro.obs.metrics.MetricsRegistry`
        this engine publishes ``engine.*`` gauges into at snapshot time
        (default: the process registry); publication is pull-based via a
        weakly-held collector, so the hot path never touches it.
        ``fingerprinter`` injects the content-identity algorithm (a
        :class:`~repro.datared.hashing.Fingerprinter`, default
        :data:`~repro.datared.hashing.SHA256`); it must emit 32-byte
        digests, the width of a Hash-PBN entry.

        Building an engine settles the process's allocator
        (:func:`settle_allocator`), so its bulk reads take one speed
        whatever the write path allocated before."""
        #: The one thread that may call in: the one building the engine
        #: (DESIGN.md §5.3).  Every public entry point that touches
        #: metadata starts with :meth:`check_owner`, so a call from any
        #: other thread is a typed error before it reads or writes
        #: anything.  Hashing, compression and decompression run inline
        #: on that thread too.
        self._owner = get_ident()
        self.chunker = FixedChunker(chunk_size)
        self.table = table if table is not None else HashPbnTable(num_buckets)
        self.compressor = compressor if compressor is not None else ZlibCompressor()
        self.fingerprinter = fingerprinter if fingerprinter is not None else SHA256
        if self.fingerprinter.digest_size != FINGERPRINT_SIZE:
            raise ValueError(
                f"fingerprinter {self.fingerprinter.name!r} emits "
                f"{self.fingerprinter.digest_size}-byte digests; the "
                f"Hash-PBN table requires {FINGERPRINT_SIZE}"
            )
        self.containers = containers if containers is not None else ContainerStore()
        self.lba_map = LbaMap()
        self.pbn_map = PbnMap()
        self.allocator = PbnAllocator()
        self.stats = EngineStats()
        #: Group-commit journal (DESIGN.md §5.9), the engine's one
        #: metadata sink.  Armed by the factory from the config's
        #: DurabilityPolicy; when set, every metadata mutation stages a
        #: record in it and the engine fences them (one modeled fsync)
        #: at the end of every public mutating op.  ``None`` costs one
        #: identity check per batch.
        self.journal = journal
        #: Named CoW snapshots: name -> {lba: pbn}, one pinned reference
        #: per entry (see :meth:`create_snapshot`).
        self._snapshots: Dict[str, Dict[int, int]] = {}
        #: Container frees deferred until the journal commit that makes
        #: their records durable lands: freeing physical bytes before
        #: the fence would lose acknowledged data if the process died in
        #: between.  Always empty at rest (and when journaling is off).
        self._pending_releases: List[Tuple[int, int, int]] = []
        self._pending_drops: List[int] = []
        self._closed = False
        #: Attached by recovery (:func:`repro.datared.journal.recover_into`).
        self.recovery: Optional["RecoveryReport"] = None
        if read_cache_chunks < 0:
            raise ValueError("read_cache_chunks must be >= 0")
        #: Decompressed-chunk LRU keyed by PBN (None when disabled).  An
        #: ``int`` value exists only inside one ``_read_pass``.
        self.read_cache_chunks = read_cache_chunks
        self._read_cache: Optional["OrderedDict[int, Union[bytes, int]]"] = (
            OrderedDict() if read_cache_chunks > 0 else None
        )
        #: Pull-model publication: the registry holds this collector via
        #: WeakMethod, so a garbage-collected engine drops out on its own.
        self.registry = registry if registry is not None else get_registry()
        self.registry.register_collector(self._publish_metrics)
        settle_allocator()

    def check_owner(self) -> None:
        """Raise :class:`~repro.errors.ThreadOwnershipError` unless the
        calling thread is the one that built this engine."""
        if get_ident() != self._owner:
            raise ThreadOwnershipError(
                f"storage stack owned by thread {self._owner} called from "
                f"thread {get_ident()}; build it on the thread that uses it"
            )

    def stats_snapshot(self) -> EngineStats:
        """A copy of :attr:`stats` with the container store's seal count
        and the table's probe count filled in — a value, not a view.

        Unchecked, like the collector that calls it: the process
        registry holds the collector of every live engine, so a STATS
        answered on one thread also reads engines other threads own.
        """
        return replace(
            self.stats,
            containers_sealed=self.containers.sealed_count,
            index_probes=self.table.probe_count,
        )

    def _publish_metrics(self, registry: MetricsRegistry) -> None:
        """Collector: export one snapshot as the ``engine.*`` /
        ``index.*`` gauges of ``repro.stats/v1``.

        Integral ledgers publish as integer gauges; the derived ratios
        are the only floats, clamped finite so the snapshot stays
        strict-JSON (``reduction_factor`` is ``inf`` before the first
        stored byte).
        """
        snap = self.stats_snapshot()
        registry.gauge("engine.logical_bytes").set(snap.logical_bytes)
        registry.gauge("engine.unique_logical_bytes").set(
            snap.unique_logical_bytes
        )
        registry.gauge("engine.stored_bytes").set(snap.stored_bytes)
        registry.gauge("engine.live_stored_bytes").set(snap.live_stored_bytes)
        registry.gauge("engine.reclaimed_stored_bytes").set(
            snap.reclaimed_stored_bytes
        )
        registry.gauge("engine.duplicate_chunks").set(snap.duplicate_chunks)
        registry.gauge("engine.unique_chunks").set(snap.unique_chunks)
        registry.gauge("engine.read_cache.hits").set(snap.read_cache_hits)
        registry.gauge("engine.read_cache.misses").set(snap.read_cache_misses)
        registry.gauge("engine.gc.containers_reclaimed").set(
            snap.gc_containers_reclaimed
        )
        registry.gauge("engine.gc.bytes_moved").set(snap.gc_bytes_moved)
        registry.gauge("engine.plan.fallback_compressions").set(
            snap.plan_fallback_compressions
        )
        registry.gauge("engine.plan.wasted_compressions").set(
            snap.plan_wasted_compressions
        )
        registry.gauge("engine.containers_sealed").set(snap.containers_sealed)
        registry.gauge("index.probes").set(snap.index_probes)
        registry.gauge("engine.dedup_ratio").set(snap.dedup_ratio)
        registry.gauge("engine.compression_ratio").set(snap.compression_ratio)
        reduction = snap.reduction_factor
        if not math.isfinite(reduction):
            reduction = 0.0
        registry.gauge("engine.reduction_factor").set(reduction)

    # -- write path (Figure 1a) ------------------------------------------------
    def write(
        self,
        lba: int,
        payload: Union[bytes, bytearray, memoryview],
        *,
        digests: Optional[Sequence[bytes]] = None,
    ) -> WriteReport:
        """Write ``payload`` at chunk-aligned ``lba``; dedupe + compress.

        Zero-copy: chunks are views of ``payload`` until the container
        boundary materializes them, all within this call (DESIGN.md
        §5.4) — the caller's buffer may be reused once it returns.

        ``digests`` as in :meth:`write_many`.  A single write is a batch
        of one — there is no second write path.
        """
        return self.write_many([(lba, payload)], digests=digests)[0]

    def write_many(
        self,
        requests: Iterable[Tuple[int, Union[bytes, bytearray, memoryview]]],
        *,
        digests: Optional[Sequence[bytes]] = None,
    ) -> List[WriteReport]:
        """Write a batch of ``(lba, payload)`` requests, stage-split.

        The batch runs the paper's offload topology in software (§5.2,
        §5.4), every stage inline on the owner thread: fingerprint the
        whole batch (the NIC SHA-256 core), compress the chunks that
        will be unique as one batch (the FPGA DEFLATE engine), and walk
        the batch in chunk order — one Hash-PBN lookup per chunk through
        whatever store is below — with the precomputed artifacts
        injected.  Results — bytes,
        :class:`EngineStats`, container placements, journal event
        order — are identical to calling :meth:`write` per request, and
        every batch takes these stages whatever the tracing state:
        batching the compress stage is faster and smaller-heap than
        compressing inside the walk (DESIGN.md §5.2).

        A chunk the index has no room for raises
        :class:`~repro.errors.CapacityError` before it mutates
        anything; the chunks before it stay applied (per-chunk
        atomicity, like a split write).

        ``digests`` hands in precomputed SHA-256 fingerprints (e.g. from
        a NIC that hashed on ingest), one per chunk in flattened request
        order, and the hash stage is skipped; any other count is a
        :class:`ValueError`.

        Returns one :class:`WriteReport` per request, in order.
        """
        self.check_owner()
        try:
            reports = self._write_batch(requests, digests)
        finally:
            # Also on a refused chunk: the chunks applied before it
            # are fenced and their deferred frees drained, so the
            # engine is at rest whichever way the batch ended.
            _trace.flush_stages()
            self._commit()
        return reports

    def _write_batch(  # repro-lint: hot-path
        self,
        requests: Iterable[Tuple[int, Union[bytes, bytearray, memoryview]]],
        digests: Optional[Sequence[bytes]],
    ) -> List[WriteReport]:
        stage = _trace.stage
        requests = list(requests)
        reports = [WriteReport() for _ in requests]
        # Stages 0-1: chunk, then fingerprint every chunk — or check
        # that the caller's precomputed digests number one per chunk.
        split = self.chunker.split
        with stage("chunk"):
            flat = [
                (index, chunk)
                for index, (lba, payload) in enumerate(requests)
                for chunk in split(lba, payload)
            ]
        if not flat:
            return reports
        chunks = [chunk for _, chunk in flat]
        if digests is None:
            with stage("hash"):
                digests = self.fingerprinter.digest_many(
                    [chunk.data for chunk in chunks]
                )
        elif len(digests) != len(flat):
            raise ValueError(
                f"got {len(digests)} digests for {len(flat)} chunks"
            )

        # Stage 2 (serial): plan which chunks the serial walk will find
        # unique — a pure shadow simulation, no engine state is touched.
        plan = self._plan_batch(chunks, digests)

        # Stage 3: compress exactly those chunks, as one batch.
        staged: Dict[int, CompressedChunk] = {}
        if plan:
            with stage("compress"):
                packed = self.compressor.compress_many(
                    [chunks[position].data for position in plan]
                )
            staged = dict(zip(plan, packed))

        # Stage 4 (serial): the walk — one loop over the batch, in
        # chunk order, each structure's own method bound once.  Per
        # chunk: one table lookup; a unique packs, takes a PBN, is
        # indexed and journaled; every chunk then remaps its LBA and
        # releases the chunk it replaces.  Ledgers stay in locals and
        # land once, also when a refused chunk ends the batch early.
        table = self.table
        lookup, insert = table.lookup, table.insert
        containers = self.containers
        append = containers.append
        allocate = self.allocator.allocate
        pbn_map = self.pbn_map
        add, ref = pbn_map.add, pbn_map.ref
        set_lba = self.lba_map.set
        journal = self.journal
        if journal is not None:
            on_new_chunk, on_map = journal.on_new_chunk, journal.on_map
        release = self._release
        compress = self.compressor.compress
        logical = duplicates = uniques = unique_logical = stored = 0
        wasted = fallback = 0
        # The open request: its report and the sealed-container count
        # it started at.
        current = -1
        report = reports[0]
        outcomes = report.chunks
        sealed_before = containers.sealed_count
        try:
            with stage("walk", len(flat)):
                for position, ((index, chunk), digest) in enumerate(
                    zip(flat, digests)
                ):
                    if index != current:
                        if current >= 0:
                            report.containers_sealed = (
                                containers.sealed_count - sealed_before
                            )
                            sealed_before = containers.sealed_count
                        current = index
                        report = reports[index]
                        outcomes = report.chunks
                    lba = chunk.lba
                    data = chunk.data
                    size = len(data)
                    pbn = lookup(digest)
                    if pbn is None and table.is_full:
                        # Refuse before anything is stored or counted:
                        # past this point a failed index insert would
                        # leave a container payload and a PBN record
                        # nothing points at.
                        raise CapacityError(
                            f"Hash-PBN table is full ({table.entry_count} "
                            f"entries): cannot index the chunk at LBA {lba}"
                        )
                    logical += size
                    if pbn is None:
                        # Unique: the plan's artifact (``None`` = the
                        # plan missed it, so it compresses inline), packed
                        # — the container boundary takes the defensive
                        # copy of a view-backed payload (DESIGN.md §5.4)
                        # — then a PBN, its record, its index entry.
                        compressed = staged.pop(position, None)
                        if compressed is None:
                            fallback += 1
                            compressed = compress(data)
                        container_id, offset, stored_size = append(
                            compressed.materialize(), compressed.stored_size
                        )
                        pbn = allocate()
                        add(pbn, container_id, offset, stored_size, digest)
                        insert(digest, pbn)
                        if journal is not None:
                            on_new_chunk(
                                pbn, digest, container_id, offset,
                                stored_size, size,
                            )
                        uniques += 1
                        unique_logical += size
                        stored += stored_size
                        outcome = ChunkOutcome(lba, pbn, False, size, stored_size)
                    else:
                        # Duplicate: bump the reference, no data moves.
                        if position in staged:
                            wasted += 1
                        ref(pbn)
                        duplicates += 1
                        outcome = ChunkOutcome(lba, pbn, True, size, 0)
                    old = set_lba(lba, pbn)
                    if journal is not None:
                        on_map(lba, pbn)
                    if old is not None:
                        # Also when old == pbn (same content rewritten in
                        # place): that undoes the extra reference taken.
                        release(old, report)
                    outcomes.append(outcome)
        finally:
            stats = self.stats
            stats.logical_bytes += logical
            stats.duplicate_chunks += duplicates
            stats.unique_chunks += uniques
            stats.unique_logical_bytes += unique_logical
            stats.stored_bytes += stored
            stats.plan_wasted_compressions += wasted
            stats.plan_fallback_compressions += fallback
        report.containers_sealed = containers.sealed_count - sealed_before
        return reports

    def _plan_batch(
        self, chunks: Sequence[Chunk], digests: Sequence[bytes]
    ) -> List[int]:
        """Positions of the chunks the serial walk will compress.

        Replays the write path's metadata effects against *shadow*
        state: batch-local uniques, reference-count deltas on
        pre-existing PBNs, the pre-existing PBNs fully released (whose
        fingerprints the walk retires) and remapped LBAs are all
        tracked on the side, so a chunk's classification accounts
        for every earlier chunk in the batch — duplicates of a unique
        planned two positions back, fingerprints retired by an
        overwrite in between, same-LBA rewrites — without touching the
        table cache (presence probes resolve through
        :meth:`~repro.datared.lba_map.PbnMap.find_by_fingerprint`).
        """
        plan: List[int] = []
        #: digest -> the token ``[digest, references]`` of a live
        #: batch-unique chunk.
        fresh: Dict[bytes, List[Any]] = {}
        ref_delta: Dict[int, int] = {}  # pre-existing pbn -> refcount delta
        dead: Set[int] = set()  # pre-existing pbns fully released
        #: lba -> what the walk leaves it pointing at: a batch-unique's
        #: token, a pre-existing PBN, or None (unmapped).
        shadow_lba: Dict[int, Union[List[Any], int, None]] = {}
        find = self.pbn_map.find_by_fingerprint
        refcount = self.pbn_map.refcount
        get_lba = self.lba_map.get

        for position, (chunk, digest) in enumerate(zip(chunks, digests)):
            hit: Union[List[Any], int]
            token = fresh.get(digest)
            if token is not None:
                token[1] += 1
                hit = token
            else:
                # A released PBN's fingerprint is retired by the walk:
                # the mirror still names it, the shadow knows it is dead.
                pbn = find(digest)
                if pbn is None or pbn in dead:
                    hit = fresh[digest] = [digest, 1]
                    plan.append(position)
                else:
                    ref_delta[pbn] = ref_delta.get(pbn, 0) + 1
                    hit = pbn

            lba = chunk.lba
            old = shadow_lba.get(lba, _UNSET)
            if old is _UNSET:
                old = get_lba(lba)
            shadow_lba[lba] = hit
            # Release the chunk the LBA pointed at.
            if old is None:
                continue
            if isinstance(old, list):
                old[1] -= 1
                if old[1] == 0 and fresh.get(old[0]) is old:
                    del fresh[old[0]]
            else:
                delta = ref_delta.get(old, 0) - 1
                ref_delta[old] = delta
                if refcount(old) + delta == 0:
                    dead.add(old)
        return plan

    def _release(self, pbn: int, report: WriteReport) -> None:
        dead = self.pbn_map.unref(pbn)
        if dead is None:
            return
        container_id, offset, stored_size, fingerprint = dead
        # Last reference: reclaim space and retire the fingerprint.
        # The freed PBN may be reallocated for different content, so any
        # cached decompressed bytes for it must go *now*.
        if self._read_cache is not None:
            self._read_cache.pop(pbn, None)
        self.table.remove(fingerprint)
        self.allocator.free(pbn)
        if self.journal is not None:
            self.journal.on_free(pbn)
            # Defer the physical free to the commit barrier: the bytes
            # may be the only copy of data whose release record is not
            # durable yet (crash before the fence -> replay resurrects
            # the old mapping and must still read these bytes).
            self._pending_releases.append((container_id, offset, stored_size))
        else:
            self._mark_dead(container_id, offset, stored_size)
        self.stats.reclaimed_stored_bytes += stored_size
        report.reclaimed_chunks += 1

    def _mark_dead(self, container_id: int, offset: int, stored_size: int) -> None:
        """Free one placement; a container left with no live chunk also
        loses its PBN list, which then names only dead chunks."""
        if self.containers.mark_dead(container_id, offset, stored_size):
            self.pbn_map.forget_container(container_id)

    # -- read path (Figure 1b) ---------------------------------------------------
    def read(self, lba: int, num_chunks: int = 1) -> ReadReport:
        """Read ``num_chunks`` chunks starting at chunk-aligned ``lba``:
        :meth:`read_many` over the extent's LBAs."""
        return self.read_many(self._extent_lbas(lba, num_chunks))

    def _extent_lbas(self, lba: int, num_chunks: int) -> range:
        """The chunk LBAs of a ``num_chunks`` extent at chunk-aligned
        ``lba``."""
        if num_chunks < 1:
            raise ValueError("must read at least one chunk")
        step = self.chunker.blocks_per_chunk
        if lba % step != 0:
            raise ValueError(f"LBA {lba} is not chunk-aligned")
        self.chunker.check_extent_end(lba, num_chunks)
        return range(lba, lba + num_chunks * step, step)

    def read_many(self, lbas: Sequence[int]) -> ReadReport:
        """Read the chunks at ``lbas`` — chunk-aligned, in any order,
        repeats allowed — in one pass, reported per position.

        Unwritten holes read back as zeros (block-device semantics).
        Mapped chunks' container payloads are gathered in position
        order, then decompressed together as one batch.
        """
        self.check_owner()
        step = self.chunker.blocks_per_chunk
        for lba in lbas if step != 1 else ():
            if lba % step != 0:
                raise ValueError(f"LBA {lba} is not chunk-aligned")
        return self._read_pass(lbas)

    def _read_pass(  # repro-lint: hot-path
        self, lbas: Sequence[int], mapping: Optional[Dict[int, int]] = None
    ) -> ReadReport:
        stage = _trace.stage
        report = ReadReport()
        num_chunks = len(lbas)
        chunk_size = self.chunker.chunk_size
        cache = self._read_cache
        #: Per position: decompressed bytes (hole zeros / cache hit) or
        #: the index into ``pending`` its bytes will come from.
        slots: List[Union[bytes, int]] = []
        sizes = report.stored_sizes
        pending: List[CompressedChunk] = []
        pending_pbn: List[int] = []  # parallel to pending; cache on only
        plain: List[bytes] = []
        zero = b"\x00" * chunk_size
        misses = 0
        try:
            with stage("fetch", num_chunks):
                pbns = (
                    self.lba_map.get_many(lbas)
                    if mapping is None
                    else [mapping.get(lba) for lba in lbas]
                )
                for pbn, placed in zip(pbns, self.pbn_map.placements(pbns)):
                    if pbn is None or placed is None:
                        slots.append(zero)
                        sizes.append(0)
                        continue
                    if cache is not None:
                        hit = cache.get(pbn)
                        if hit is not None:
                            cache.move_to_end(pbn)
                            report.cache_hits += 1
                            slots.append(hit)
                            sizes.append(0)
                            continue
                        misses += 1
                    container_id, offset, stored_size = placed
                    payload = self.containers.read(container_id, offset)
                    if cache is not None:
                        # Probe, insert and evict in position order, as a
                        # read per chunk would: the entry holds the pending
                        # index until the bytes exist, so a later probe of
                        # this PBN — or of one this insert evicts — sees
                        # the cache that reader would have left.
                        cache[pbn] = len(pending)
                        pending_pbn.append(pbn)
                        if len(cache) > self.read_cache_chunks:
                            cache.popitem(last=False)
                    slots.append(len(pending))
                    sizes.append(stored_size)
                    pending.append(CompressedChunk(
                        payload=payload,
                        logical_size=chunk_size,
                        stored_size=stored_size,
                    ))
            if pending:
                # The tag-dispatched decoder reads every registered codec's
                # payloads regardless of the *configured* write codec.
                with stage("decompress", len(pending)):
                    plain = _codecs.decode_many(pending)
        finally:
            # Bytes for the pending indexes — or, after a failed fetch or
            # decode, no entry at all: none may outlive this pass.
            for index, pbn in enumerate(pending_pbn):
                if cache is not None and type(cache.get(pbn)) is int:
                    if plain:
                        cache[pbn] = plain[index]  # same PBN, same bytes
                    else:
                        del cache[pbn]
            if cache is not None:
                self.stats.read_cache_hits += report.cache_hits
                self.stats.read_cache_misses += misses
            _trace.flush_stages()
        report.chunks_read = report.cache_hits + len(pending)
        report.unmapped_chunks = num_chunks - report.chunks_read
        report.stored_bytes_read = sum(sizes)
        if len(pending) == num_chunks:
            report.pieces = plain  # every position fetched, already in order
        else:
            report.pieces = [
                slot if isinstance(slot, bytes) else plain[slot] for slot in slots
            ]
        return report

    # -- maintenance -------------------------------------------------------------
    def trim(self, lba: int) -> WriteReport:
        """Drop ``lba``'s mapping (TRIM/discard), releasing its chunk ref.

        The returned report carries ``reclaimed_chunks=1`` when the
        dropped reference was the chunk's last (its space is reclaimed
        and its fingerprint retired, exactly like an overwrite's
        release); trimming an unmapped LBA is a no-op.  A client's TRIM
        frame (a block-device discard) lands here.  With a journal armed
        the unmap emits an ``UNMAP`` record and commits, so replay drops
        the mapping exactly as the live engine did.
        """
        self.check_owner()
        report = WriteReport()
        old_pbn = self.lba_map.unmap(lba)
        if old_pbn is not None:
            if self.journal is not None:
                self.journal.on_unmap(lba)
            self._release(old_pbn, report)
        self._commit()
        return report

    def flush(self) -> None:
        """Seal the open container and commit the journal (batch
        boundary / shutdown barrier)."""
        self.check_owner()
        self.containers.seal_open()
        self._commit()

    def collect_garbage(self, threshold: float = 0.5) -> int:
        """Compact sealed containers above the garbage threshold.

        Live chunks move to the open container and their PBN records are
        repointed; fingerprints (and hence dedup identity) are unchanged.
        Returns the number of containers reclaimed.

        Placements resolve through one offset → PBN map per victim,
        built from the :class:`~repro.datared.lba_map.PbnMap`'s PBN list
        for that container, so a collection's work scales with the
        victims' chunks — not with the total PBN population.
        """
        self.check_owner()
        reclaimed = 0
        victims = self.containers.garbage_victims(threshold)
        journal = self.journal
        for victim in victims:
            owners = self.pbn_map.owners(victim.container_id)
            for offset, payload in victim.chunks():
                pbn = owners.get(offset)
                if pbn is None:
                    raise KeyError(
                        f"container {victim.container_id} offset {offset} "
                        "has no owning PBN"
                    )
                stored_size = self.pbn_map.get(pbn).stored_size
                placement = self.containers.append(payload, stored_size)
                self.pbn_map.repoint(
                    pbn, placement.container_id, placement.offset
                )
                if journal is not None:
                    journal.on_repoint(
                        pbn, placement.container_id, placement.offset
                    )
                    # The old placement stays readable until the
                    # REPOINT record is fenced: a crash before the
                    # commit replays the pre-GC placements.
                    self._pending_releases.append(
                        (victim.container_id, offset, stored_size)
                    )
                else:
                    victim.mark_dead(offset, stored_size)
                # Conservative read-LRU hygiene: the moved chunk's
                # bytes are identical, but drop the entry anyway so
                # the cache can never outlive a compaction decision.
                if self._read_cache is not None:
                    self._read_cache.pop(pbn, None)
                self.stats.gc_bytes_moved += stored_size
            # Every live chunk moved out: the victim's PBN list is stale.
            self.pbn_map.forget_container(victim.container_id)
            if journal is not None:
                self._pending_drops.append(victim.container_id)
            else:
                self.containers.drop(victim.container_id)
            reclaimed += 1
        self.stats.gc_containers_reclaimed += reclaimed
        self._commit()
        return reclaimed

    # -- durability barrier (DESIGN.md §5.9) -----------------------------------
    def _commit(self, checkpoint_if_due: bool = True) -> None:
        """Group-commit barrier at the end of every public mutating op.

        Replays the batch's table accesses through the table store
        (the table cache's residency model and its ledgers, DESIGN.md
        §5.8) with or without a journal.  Then fences the batch's staged
        journal records (one modeled fsync), *then* applies the
        container frees those records acknowledge — freeing first would
        lose committed data if the fence never landed.  Runs the
        configured checkpoint cadence last.
        """
        self.table.store.replay()
        journal = self.journal
        if journal is None:
            return
        journal.commit()
        if self._pending_releases:
            for container_id, offset, stored_size in self._pending_releases:
                self._mark_dead(container_id, offset, stored_size)
            self._pending_releases.clear()
        if self._pending_drops:
            for container_id in self._pending_drops:
                self.containers.drop(container_id)
            self._pending_drops.clear()
        if checkpoint_if_due and journal.should_checkpoint():
            self._write_checkpoint()

    def _write_checkpoint(self) -> None:
        # Deferred import: repro.datared.journal imports this module.
        from .journal import CheckpointState

        journal = self.journal
        assert journal is not None
        journal.write_checkpoint(CheckpointState.capture(self))

    def checkpoint(self) -> None:
        """Commit, then write a compact durable image of all metadata.

        Recovery afterwards replays checkpoint + tail instead of
        history-since-birth; the journal truncates the superseded prefix
        lazily on the next commit (see
        :meth:`~repro.datared.journal.MetadataJournal.write_checkpoint`).
        """
        self.check_owner()
        if self.journal is None:
            raise ValueError("engine has no journal to checkpoint")
        self._commit(checkpoint_if_due=False)
        self._write_checkpoint()

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Seal, commit, and retire the engine (idempotent).

        The sanctioned shutdown barrier of the engine lifecycle API:
        once ``close()`` returns, the open container is sealed and every
        acknowledged write is fenced in the durable journal image.
        Engines also work as context managers (``with build_engine(cfg)
        as engine: ...``), which calls this on exit.
        """
        self.check_owner()
        if self._closed:
            return
        self.containers.seal_open()
        self._commit()
        self._closed = True

    def __enter__(self) -> "DedupEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- snapshots (DESIGN.md §5.9) --------------------------------------------
    def create_snapshot(self, name: str) -> int:
        """O(1)-in-data copy-on-write snapshot of the current LBA tree.

        The snapshot is a named pointer table ``{lba: pbn}`` whose every
        entry holds one extra reference on its chunk, so overwrites
        copy-on-write naturally (the old chunk stays live for the
        snapshot), GC may *move* but never reclaim pinned chunks, and
        deleting the snapshot releases the pins like any overwrite
        would.  No chunk data is copied.  Returns the number of pinned
        chunks.
        """
        self.check_owner()
        if name in self._snapshots:
            raise SnapshotError(f"snapshot {name!r} already exists")
        pins = dict(self.lba_map.items())
        for pbn in pins.values():
            self.pbn_map.ref(pbn)
        self._snapshots[name] = pins
        if self.journal is not None:
            self.journal.on_snapshot_create(name)
        self._commit()
        return len(pins)

    def delete_snapshot(self, name: str) -> WriteReport:
        """Drop a snapshot, releasing its pins.

        The returned report's ``reclaimed_chunks`` counts chunks whose
        last reference the snapshot held (their space is reclaimed).
        """
        self.check_owner()
        pins = self._snapshots.pop(name, None)
        if pins is None:
            raise SnapshotError(f"no snapshot named {name!r}")
        # Journal the delete *before* the releases it implies, so
        # replay (which performs the releases at SNAP_DELETE) sees
        # the same order; the FREE records that follow are advisory.
        if self.journal is not None:
            self.journal.on_snapshot_delete(name)
        report = WriteReport()
        for pbn in pins.values():
            self._release(pbn, report)
        self._commit()
        return report

    def snapshots(self) -> List[str]:
        """Names of the live snapshots, sorted."""
        self.check_owner()
        return sorted(self._snapshots)

    def read_snapshot(
        self, name: str, lba: int, num_chunks: int = 1
    ) -> ReadReport:
        """Read through a snapshot's pointer table instead of the live
        map — the same zero-fill/cache/decode path as :meth:`read`."""
        self.check_owner()
        lbas = self._extent_lbas(lba, num_chunks)
        pins = self._snapshots.get(name)
        if pins is None:
            raise SnapshotError(f"no snapshot named {name!r}")
        return self._read_pass(lbas, mapping=pins)
