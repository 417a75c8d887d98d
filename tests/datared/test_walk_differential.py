"""The engine's write walk is one loop per batch (DESIGN.md §5.4).

:class:`PerChunkWalk` below is the walk as it was before: the batch
loop called ``_write_chunk`` per chunk, which called ``_publish_chunk``
for a unique and ``_remap`` for every chunk, and added each outcome to
its report through ``WriteReport.add``.  One history of batches through
both walks — uniques and duplicates (also within one batch), same-LBA
rewrites in one batch, overwrites that release chunks, a table that
fills partway through a batch, and a batch plan that misses uniques or
compresses duplicates — must leave equal per-request reports, engine
snapshots, allocators, table-cache and table-SSD ledgers, and equal
durable journal images at every fence, on plain, journaled, FIDR and
baseline stacks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.datared.compression import ModeledCompressor
from repro.datared.container import ContainerStore
from repro.datared.dedup import (
    _UNSET,
    ChunkOutcome,
    DedupEngine,
    WriteReport,
    active_clock,
    batch_stage,
    flush_stages,
)
from repro.datared.hash_pbn import HashPbnTable
from repro.datared.journal import MetadataJournal
from repro.errors import CapacityError
from repro.systems.baseline import BaselineSystem
from repro.systems.config import DurabilityPolicy, SystemConfig
from repro.systems.fidr import FidrSystem

CHUNK = 4096
#: Small containers, so seals land inside batches and requests.
CONTAINER_BYTES = 4 * CHUNK
#: A one-bucket table holds 107 entries; a "full" stack starts with
#: 96 of them taken (by chunks at LBAs no history writes), so a history
#: that adds a dozen live chunks fills it.
FULL_BUCKETS = 1
PREFILL = [(1000 + 2 * n, [10_000 + 2 * n, 10_001 + 2 * n]) for n in range(48)]


class PerChunkWalk(DedupEngine):
    """The write walk as a call per chunk (the reference)."""

    def _write_batch(self, requests, digests):
        clock = active_clock(self.stage_clock)
        requests = list(requests)
        reports = [WriteReport() for _ in requests]
        with batch_stage(clock, "chunk"):
            flat = [
                (index, chunk)
                for index, (lba, payload) in enumerate(requests)
                for chunk in self.chunker.split(lba, payload)
            ]
        if not flat:
            return reports
        chunks = [chunk for _, chunk in flat]
        if digests is None:
            with batch_stage(clock, "hash"):
                digests = self.fingerprinter.digest_many(
                    [chunk.data for chunk in chunks]
                )
        elif len(digests) != len(flat):
            raise ValueError(
                f"got {len(digests)} digests for {len(flat)} chunks"
            )
        plan = self._plan_batch(chunks, digests)
        staged = {}
        if plan:
            with batch_stage(clock, "compress"):
                packed = self.compressor.compress_many(
                    [chunks[position].data for position in plan]
                )
            staged = dict(zip(plan, packed))
        current = -1
        sealed_before = self.containers.sealed_count
        try:
            for position, ((index, chunk), digest) in enumerate(
                zip(flat, digests)
            ):
                if index != current:
                    if current >= 0:
                        reports[current].containers_sealed = (
                            self.containers.sealed_count - sealed_before
                        )
                    current = index
                    sealed_before = self.containers.sealed_count
                precompressed = staged.pop(position, None)
                outcome = self._write_chunk(
                    chunk, reports[index], clock, digest, precompressed
                )
                reports[index].add(outcome)
                if outcome.duplicate:
                    if precompressed is not None:
                        self.plan_wasted_compressions += 1
                elif precompressed is None:
                    self.plan_fallback_compressions += 1
        finally:
            flush_stages(clock)
        reports[current].containers_sealed = (
            self.containers.sealed_count - sealed_before
        )
        return reports

    def _plan_batch(
        self, chunks: Sequence[Any], digests: Sequence[bytes]
    ) -> List[int]:
        plan: List[int] = []
        fresh: Dict[bytes, Dict[str, Any]] = {}
        ref_delta: Dict[int, int] = {}
        dead: Set[int] = set()
        shadow_lba: Dict[int, Tuple[str, Any]] = {}

        def release(ref: Tuple[str, Any]) -> None:
            kind, target = ref
            if kind == "new":
                target["refs"] -= 1
                if (
                    target["refs"] == 0
                    and fresh.get(target["digest"]) is target
                ):
                    del fresh[target["digest"]]
            else:
                ref_delta[target] = ref_delta.get(target, 0) - 1
                if self.pbn_map.refcount(target) + ref_delta[target] == 0:
                    dead.add(target)

        for position, (chunk, digest) in enumerate(zip(chunks, digests)):
            token = fresh.get(digest)
            if token is not None:
                hit: Optional[Tuple[str, Any]] = ("new", token)
            else:
                hit = None
                pbn = self.pbn_map.find_by_fingerprint(digest)
                if pbn is not None and pbn not in dead:
                    hit = ("pre", pbn)
            if hit is None:
                token = {"digest": digest, "refs": 1}
                fresh[digest] = token
                plan.append(position)
                hit = ("new", token)
            elif hit[0] == "new":
                hit[1]["refs"] += 1
            else:
                ref_delta[hit[1]] = ref_delta.get(hit[1], 0) + 1
            old = shadow_lba.get(chunk.lba, _UNSET)
            if old is _UNSET:
                pre = self.lba_map.get(chunk.lba)
                old = ("pre", pre) if pre is not None else None
            shadow_lba[chunk.lba] = hit
            if old is not None:
                release(old)
        return plan

    def _write_chunk(self, chunk, report, clock, digest, precompressed):
        if clock is None:
            existing_pbn = self.table.lookup(digest)
        else:
            with clock.stage("lookup"):
                existing_pbn = self.table.lookup(digest)
        if existing_pbn is None and self.table.is_full:
            raise CapacityError(
                f"Hash-PBN table is full ({self.table.entry_count} "
                f"entries): cannot index the chunk at LBA {chunk.lba}"
            )
        self.stats.logical_bytes += len(chunk.data)
        if existing_pbn is not None:
            self.pbn_map.ref(existing_pbn)
            self._remap(chunk.lba, existing_pbn, report)
            self.stats.duplicate_chunks += 1
            return ChunkOutcome(
                lba=chunk.lba, pbn=existing_pbn, duplicate=True,
                logical_size=len(chunk.data), stored_size=0,
            )
        compressed = (
            precompressed
            if precompressed is not None
            else self.compressor.compress(chunk.data)
        )
        placement = self.containers.append(
            compressed.materialize(), compressed.stored_size
        )
        return self._publish_chunk(chunk, report, digest, compressed, placement)

    def _publish_chunk(self, chunk, report, digest, compressed, placement):
        pbn = self.allocator.allocate()
        self.pbn_map.add(
            pbn, placement.container_id, placement.offset,
            placement.stored_size, digest,
        )
        self.table.insert(digest, pbn)
        if self.observer is not None:
            self.observer.on_new_chunk(
                pbn, digest, placement.container_id, placement.offset,
                placement.stored_size, len(chunk.data),
            )
        self._remap(chunk.lba, pbn, report)
        self.stats.unique_chunks += 1
        self.stats.unique_logical_bytes += len(chunk.data)
        self.stats.stored_bytes += compressed.stored_size
        return ChunkOutcome(
            lba=chunk.lba, pbn=pbn, duplicate=False,
            logical_size=len(chunk.data), stored_size=compressed.stored_size,
        )

    def _remap(self, lba, new_pbn, report):
        old_pbn = self.lba_map.set(lba, new_pbn)
        if self.observer is not None:
            self.observer.on_map(lba, new_pbn)
        if old_pbn is not None:
            self._release(old_pbn, report)


def _skewed(plan_batch):
    """A plan that misses every third unique and compresses every fifth
    chunk it did not plan — the walk's fallback and wasted paths."""

    def plan(self, chunks, digests):
        planned = plan_batch(self, chunks, digests)
        kept = [position for position in planned if position % 3 != 1]
        extra = [
            position for position in range(len(chunks))
            if position % 5 == 2 and position not in planned
        ]
        return sorted(kept + extra)

    return plan


class SkewedWalk(DedupEngine):
    _plan_batch = _skewed(DedupEngine._plan_batch)


class SkewedPerChunkWalk(PerChunkWalk):
    _plan_batch = _skewed(PerChunkWalk._plan_batch)


def _content(content_id: int) -> bytes:
    return content_id.to_bytes(4, "big") * (CHUNK // 4)


#: One request: (lba slot, content ids of its chunks).  Few LBA slots and
#: few contents, so batches rewrite LBAs, overwrite and duplicate.
REQUEST = st.tuples(
    st.integers(0, 11), st.lists(st.integers(0, 40), min_size=1, max_size=3)
)
BATCH = st.lists(REQUEST, min_size=1, max_size=10)
HISTORY = st.lists(BATCH, min_size=1, max_size=8)


def _requests(batch) -> List[Tuple[int, bytes]]:
    return [
        (slot, b"".join(_content(content) for content in contents))
        for slot, contents in batch
    ]


def _report_view(report) -> Tuple:
    return report.chunks, report.containers_sealed, report.reclaimed_chunks


def _engine_view(engine: DedupEngine) -> Tuple:
    allocator = engine.allocator
    return (
        engine.stats_snapshot(),
        engine.stats,
        allocator.next_pbn,
        list(allocator._free),
        engine.table.entry_count,
        engine.table.probe_count,
        sorted(engine.lba_map.items()),
        engine.pbn_map.columns(),
        sorted(engine.pbn_map.pbns()),
    )


class _Stack:
    """One engine under test and what it recorded: reports per batch
    and the journal's durable image at every fence."""

    def __init__(self, kind: str, walk: type, full: bool, journaled: bool):
        self.images: List[Tuple[bytes, int]] = []
        self.system: Any = None
        buckets = FULL_BUCKETS if full else 64
        compressor = ModeledCompressor(0.5)
        if kind == "plain":
            journal = None
            if journaled:
                journal = MetadataJournal(
                    checkpoint_every_commits=3, on_durable=self._durable
                )
            self.engine = walk(
                table=HashPbnTable(buckets),
                compressor=compressor,
                containers=ContainerStore(CONTAINER_BYTES),
                journal=journal,
            )
        else:
            config = SystemConfig(
                batch_chunks=5,
                eviction_batch=2,
                durability=DurabilityPolicy(
                    journal=journaled,
                    checkpoint_every_commits=3 if journaled else None,
                ),
            )
            system_class = FidrSystem if kind == "fidr" else BaselineSystem
            self.system = system_class(
                config=config, num_buckets=buckets, cache_lines=4,
                compressor=compressor,
            )
            self.engine = self.system.engine
            self.engine.__class__ = walk
            self.engine.containers.container_size = CONTAINER_BYTES
            if journaled:
                self.engine.journal.on_durable = self._durable
        self.reports: List[List[Tuple]] = []
        write_many = self.engine.write_many

        def recorded(requests, options=None):
            reports = write_many(requests, options)
            self.reports.append([_report_view(report) for report in reports])
            return reports

        if full:
            assert self.write(PREFILL) is None
        self.engine.write_many = recorded

    def _durable(self, image: bytes, stable: int) -> None:
        self.images.append((image, stable))

    def write(self, batch) -> Optional[str]:
        """Run one batch; the refusal it drew, if any."""
        try:
            if self.system is None:
                self.engine.write_many(_requests(batch))
            else:
                for lba, payload in _requests(batch):
                    self.system.write(lba, payload)
        except CapacityError as error:
            return str(error)
        return None

    def flush(self) -> Optional[str]:
        """Drain and seal; the refusal it drew, if any."""
        try:
            (self.engine if self.system is None else self.system).flush()
        except CapacityError as error:
            return str(error)
        return None

    def view(self) -> Tuple:
        views: Tuple = (_engine_view(self.engine), self.reports, self.images)
        if self.system is not None:
            self.system.table_cache.replay()
            views += (
                self.system.table_cache.stats,
                [drive.stats for drive in self.system.table_array.drives],
                [drive.bytes_stored for drive in self.system.table_array.drives],
                self.system.logical_write_bytes,
                self.system.cpu.tasks(),
            )
        return views

    def close(self) -> None:
        if self.system is not None:
            self.system.close()
        else:
            self.engine.close()


STACKS = [
    ("plain", False), ("plain", True),
    ("fidr", False), ("fidr", True),
    ("baseline", False), ("baseline", True),
]


@pytest.mark.parametrize("kind,journaled", STACKS)
@settings(max_examples=40, deadline=None)
@given(history=HISTORY, full=st.booleans(), skew=st.booleans())
def test_one_loop_walk_matches_the_per_chunk_walk(kind, journaled, history, full, skew):
    walks = (SkewedWalk, SkewedPerChunkWalk) if skew else (DedupEngine, PerChunkWalk)
    new, old = (_Stack(kind, walk, full, journaled) for walk in walks)
    try:
        for batch in history:
            assert new.write(batch) == old.write(batch)
            assert new.view() == old.view()
        assert new.flush() == old.flush()
        assert new.view() == old.view()
    finally:
        new.close()
        old.close()


def test_the_reference_walk_refuses_and_skews():
    """The history space reaches what the walk must match: a refusal
    partway through a batch, a release, a sealed container inside a
    request, and the plan's fallback and wasted counters."""
    stack = _Stack("plain", SkewedPerChunkWalk, full=True, journaled=True)
    try:
        refused = None
        for round_ in range(10):
            fresh = 100 * (round_ + 1)  # content no earlier round wrote
            # LBAs 0-2 drop last round's chunk; position 2 duplicates
            # position 0, then fresh LBAs take fresh content.
            batch = [(0, [fresh, fresh]), (2, [fresh, fresh + 1])] + [
                (12 * round_ + 4 + slot, [fresh + 2 + slot, fresh + 3 + slot])
                for slot in range(0, 8, 2)
            ]
            refused = stack.write(batch)
            if refused is not None:
                break
        assert refused is not None and "LBA" in refused
        snap = stack.engine.stats_snapshot()
        assert snap.plan_fallback_compressions > 0
        assert snap.plan_wasted_compressions > 0
        assert snap.reclaimed_stored_bytes > 0
        assert any(
            report[1] > 0 for reports in stack.reports for report in reports
        )
        assert stack.images
    finally:
        stack.close()
