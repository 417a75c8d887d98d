"""The engine has one ingest path, and these tests pin it.

``write`` is ``write_many`` of one request, and every batch — traced
or not, over the table's own page store or an interposing one — runs
chunk → hash → plan → ``compress_many`` → serial walk, one table lookup
per chunk.  The inline ``compressor.compress`` in the walk survives
only as the counted fallback for a unique the plan missed.
"""

import pytest

from repro.datared.compression import ModeledCompressor, ZlibCompressor
from repro.datared.dedup import DedupEngine
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
    return engine, journal, store


def _records(engine):
    return [
        (pbn, r.container_id, r.offset, r.stored_size, r.fingerprint, r.refcount)
        for pbn, r in engine.pbn_map.records()
    ]


def _random_batches(rng):
    """Twelve 16-chunk batches over a 48-chunk region: fresh content,
    repeats from a small hot pool, and overwrites within and across
    batches."""
    hot = [rng.randbytes(CHUNK) for _ in range(8)]
    return [
        [
            (
                rng.randrange(48),
                rng.choice(hot) if rng.random() < 0.5 else rng.randbytes(CHUNK),
            )
            for _ in range(16)
        ]
        for _ in range(12)
    ]


def test_bare_and_interposed_engines_walk_alike(rng):
    """One walk: an engine over its own page store and the same engine
    over an interposing store give equal reports, records, probes and
    page traffic."""
    bare, _, _ = _build(interposed=False)
    over, _, store = _build(interposed=True)
    stream = [[request] for request in _self_overwriting_stream(rng)]
    stream += _random_batches(rng)
    for batch in stream:
        assert bare.write_many(batch) == over.write_many(batch)
    assert bare.table.probe_count == over.table.probe_count
    pages = bare.table.store
    assert (pages.reads, pages.writes) == (store.reads, store.writes)
    assert _records(bare) == _records(over)
    assert bare.stats_snapshot() == over.stats_snapshot()
    assert [pages.read_bucket(index) for index in range(64)] == [
        store.read_bucket(index) for index in range(64)
    ]


@pytest.mark.parametrize("with_digests", [False, True])
@pytest.mark.parametrize("interposed", [False, True])
def test_write_is_write_many_of_one(rng, interposed, with_digests):
    solo, solo_journal, solo_store = _build(interposed)
    batch, batch_journal, batch_store = _build(interposed)
    for lba, payload in _self_overwriting_stream(rng):
        digests = None
        if with_digests:
            digests = [
                fingerprint(payload[offset : offset + CHUNK])
                for offset in range(0, len(payload), CHUNK)
            ]
        report = solo.write(lba, payload, digests=digests)
        twin = batch.write_many([(lba, payload)], digests=digests)[0]
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


def test_untraced_serial_batch_plans_and_batch_compresses(rng):
    """Tracing off: the configuration that used to skip the plan and
    compress inside the walk."""
    compressor = _CountingZlib()
    engine = DedupEngine(num_buckets=256, compressor=compressor)
    assert not trace.is_enabled()

    engine.write_many(
        [(lba, rng.randbytes(CHUNK // 2) + bytes(CHUNK // 2))
         for lba in range(64)]
    )

    assert engine.stats.unique_chunks == 64
    assert compressor.batch_calls == 1
    assert compressor.inline_calls == 0
    assert engine.stats.plan_fallback_compressions == 0
    assert engine.stats.plan_wasted_compressions == 0


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
    assert engine.stats.plan_fallback_compressions == 5
    for lba, data in enumerate(payloads):
        assert engine.read(lba).data == data
