"""The engine has one ingest path, and these tests pin it.

``write`` is ``write_many`` of one request, and every batch — traced
or not, private or interposed index store — runs chunk → hash →
(batched resolve) → plan → ``compress_many`` → serial walk.  The inline ``compressor.compress`` in the walk survives only as
the counted fallback for a unique the plan missed.
"""

import pytest

from repro.datared.compression import ModeledCompressor, ZlibCompressor
from repro.datared.dedup import DedupEngine, WriteOptions, active_clock
from repro.datared.hash_pbn import HashPbnTable
from repro.datared.hashing import fingerprint
from repro.datared.journal import MetadataJournal
from repro.obs import trace

from .reference import InterposingStore

CHUNK = 4096


def _self_overwriting_stream(rng):
    """(lba, payload) requests whose multi-chunk payloads repeat a chunk
    internally, get rewritten in place (old PBN == new PBN) and are then
    partly overwritten at an overlapping LBA (retiring a fingerprint
    that a later request stores again)."""
    a, b, c, d = (rng.randbytes(CHUNK) for _ in range(4))
    return [
        (0, a + b + a),
        (0, a + b + a),   # identical rewrite in place
        (1, c + a),       # overlaps; LBA 1's b is retired
        (3, b),           # b again: stored anew, not a duplicate
        (0, d + d + d),   # everything above released or re-pointed
        (8, a),
    ]


def _build(interposed):
    journal = MetadataJournal()
    store = InterposingStore() if interposed else None
    engine = DedupEngine(
        table=HashPbnTable(64, store=store),
        compressor=ModeledCompressor(0.5),
        journal=journal,
    )
    assert engine.table.private_store is not interposed
    return engine, journal, store


def _records(engine):
    return [
        (pbn, r.container_id, r.offset, r.stored_size, r.fingerprint, r.refcount)
        for pbn, r in engine.pbn_map.records()
    ]


@pytest.mark.parametrize("with_digests", [False, True])
@pytest.mark.parametrize("interposed", [False, True])
def test_write_is_write_many_of_one(rng, interposed, with_digests):
    solo, solo_journal, solo_store = _build(interposed)
    batch, batch_journal, batch_store = _build(interposed)
    for lba, payload in _self_overwriting_stream(rng):
        options = None
        if with_digests:
            options = WriteOptions(digests=[
                fingerprint(payload[offset : offset + CHUNK])
                for offset in range(0, len(payload), CHUNK)
            ])
        report = solo.write(lba, payload, options)
        twin = batch.write_many([(lba, payload)], options)[0]
        assert report == twin
        # Journal record order, fence by fence.
        assert solo_journal.to_bytes() == batch_journal.to_bytes()
    assert solo.stats == batch.stats
    assert solo.stats_snapshot() == batch.stats_snapshot()
    assert sorted(solo.containers.live_placements()) == sorted(
        batch.containers.live_placements()
    )
    assert _records(solo) == _records(batch)
    assert solo.read(0, 9).data == batch.read(0, 9).data
    if interposed:
        # The accounting store saw the identical page traffic.
        assert (solo_store.reads, solo_store.writes) == (
            batch_store.reads, batch_store.writes
        )
        assert solo_store.pages == batch_store.pages


class _CountingZlib(ZlibCompressor):
    """Counts batch calls, and single calls made outside a batch call."""

    def __init__(self):
        super().__init__()
        self.batch_calls = 0
        self.inline_calls = 0
        self._in_batch = False

    def compress(self, data):
        if not self._in_batch:
            self.inline_calls += 1
        return super().compress(data)

    def compress_many(self, buffers):
        self.batch_calls += 1
        self._in_batch = True
        try:
            return super().compress_many(buffers)
        finally:
            self._in_batch = False


@pytest.mark.parametrize("clock", ["none", "installed-but-disabled"])
def test_untraced_serial_batch_plans_and_batch_compresses(rng, clock):
    """Tracing off: the configuration that used to skip the plan and
    compress inside the walk."""
    compressor = _CountingZlib()
    engine = DedupEngine(num_buckets=256, compressor=compressor)
    if clock == "installed-but-disabled":
        engine.stage_clock = trace.TracedStages()
    assert not trace.is_enabled()
    assert active_clock(engine.stage_clock) is None

    engine.write_many(
        [(lba, rng.randbytes(CHUNK // 2) + bytes(CHUNK // 2))
         for lba in range(64)]
    )

    assert engine.stats.unique_chunks == 64
    assert compressor.batch_calls == 1
    assert compressor.inline_calls == 0
    assert engine.plan_fallback_compressions == 0
    assert engine.plan_wasted_compressions == 0


def test_a_unique_the_plan_missed_falls_back_and_is_counted(rng):
    """The canary is live on every batch: blind the planner and the walk
    still stores every chunk, compressing inline and counting it."""
    compressor = _CountingZlib()
    engine = DedupEngine(num_buckets=256, compressor=compressor)
    engine._plan_batch = lambda chunks, digests: []
    payloads = [rng.randbytes(CHUNK) for _ in range(5)]
    engine.write_many(list(enumerate(payloads)))
    assert compressor.batch_calls == 0
    assert compressor.inline_calls == 5
    assert engine.plan_fallback_compressions == 5
    for lba, data in enumerate(payloads):
        assert engine.read(lba).data == data
