"""Micro-benchmarks of the core data structures.

Not paper figures — these track the Python implementation's own
performance (ops/s of the dedup write path, tree indexes, table cache),
useful for spotting regressions while extending the library.

The ratio gates at the bottom are CI-enforced (``bench-smoke``): five
properties no ``bench/`` workload exercises, each timed against its
alternative on the same host inside one test, thirteen counts — the
Python calls per unique chunk of a served write, untraced and the
calls tracing adds, the table-trace replays per served write, the
bytes the page store holds per bucket, the serving tier's ops per
backend turn, its cross-thread wake-ups, its READ ops per engine pass,
the transports a bulk reply pauses, the page faults a client process
takes per bulk read, a server process per bulk write and an engine's
process per 256-KiB buffer, the heap
bytes held per unique chunk of metadata, and the heap an overwriting
stack gains from 4 to 12 passes — and the time a checkpoint takes per
live chunk.
"""

import asyncio
import contextlib
import gc
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
import zlib
from asyncio import selector_events

import pytest

from repro.cache.btree import BPlusTree
from repro.cache.table_cache import BTreeIndex, TableCache
from repro.datared.codecs import decode_many
from repro.datared.compression import (
    CompressedChunk,
    ModeledCompressor,
    ZlibCompressor,
    _probe,
)
from repro.datared.dedup import DedupEngine
from repro.datared.hash_pbn import (
    BUCKET_SIZE,
    ENTRY_SIZE,
    HashPbnTable,
    InMemoryBucketStore,
    PackedBucket,
)
from repro.datared.hashing import fingerprint
from repro.datared.journal import CheckpointState
from repro.net.aserver import AsyncProtocolClient, AsyncProtocolServer
from repro.net.protocol import FrameDecoder, Op, encode_frame
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.systems.config import DurabilityPolicy, SystemConfig
from repro.systems.fidr import FidrSystem
from repro.systems.server import StorageServer, SystemKind
from repro.workloads.content import ContentFactory
from tests.datared.test_probe_differential import set_probe
from tests.net.reference import ReferenceDecoder, fields
from tests.net.wire import held_backend


@pytest.fixture
def rng():
    return random.Random(11)


def test_dedup_write_path(benchmark, rng):
    """Chunks through the full write flow (hash, table, pack, map)."""
    engine = DedupEngine(num_buckets=1 << 12, compressor=ModeledCompressor(0.5))
    pool = [rng.randbytes(4096) for _ in range(64)]

    state = {"lba": 0}

    def write_block():
        lba = state["lba"]
        state["lba"] += 8
        engine.write(lba, pool[lba % len(pool)])

    benchmark(write_block)


def test_btree_search(benchmark, rng):
    tree = BPlusTree(order=16)
    keys = rng.sample(range(1_000_000), 20_000)
    for key in keys:
        tree.insert(key, key)
    probe = iter(keys * 100)
    benchmark(lambda: tree.search(next(probe)))


def test_table_cache_access(benchmark, rng):
    cache = TableCache(InMemoryBucketStore(), capacity_lines=256)
    table = HashPbnTable(1 << 12, store=cache)
    digests = [fingerprint(str(i).encode()) for i in range(4096)]
    probe = iter(digests * 1000)
    benchmark(lambda: table.lookup(next(probe)))


def test_sha256_fingerprint(benchmark, rng):
    data = rng.randbytes(4096)
    benchmark(lambda: fingerprint(data))


# -- ratio gates ---------------------------------------------------------------

BATCH_CHUNKS = 64  #: what one served bulk op hands the engine


def _fastest(rounds, variants):
    """Seconds per variant (label -> zero-argument callable): its fastest
    of ``rounds`` interleaved rounds.  Every round times each variant
    once, back to back, so a slow spell of the host lands on all alike,
    and the minimum strips what is left (interference only ever slows a
    run).  Keep runs to a few ms and rounds in the hundreds: on a shared
    2-vCPU runner that repeats to ~2%, the same seconds spent on fewer,
    longer runs only to ~7%."""
    fastest = dict.fromkeys(variants, float("inf"))
    for _ in range(rounds):
        for label, run in variants.items():
            start = time.perf_counter()
            run()
            fastest[label] = min(fastest[label], time.perf_counter() - start)
    return fastest


def _write_batch(rng):
    """One batch of ``(lba, chunk)`` requests: 50%-compressible chunks,
    a quarter of them drawn from an 8-chunk duplicate pool."""
    content = ContentFactory()
    return [
        (lba, content.chunk(rng.randrange(8) if rng.random() < 0.25 else 8 + lba))
        for lba in range(BATCH_CHUNKS)
    ]


def _engine():
    return DedupEngine(num_buckets=1 << 14, compressor=ZlibCompressor())


def _ingest(engine, batch):
    engine.write_many(batch)
    engine.flush()
    return engine


_NULL_STAGE = contextlib.nullcontext()


def _stubbed_ingest(batch):
    """:func:`_ingest` with the engine's stage hook stubbed out: a stage
    is a shared no-op context and a flush does nothing."""
    stage, flush = trace.stage, trace.flush_stages
    trace.stage = lambda name, chunks=1: _NULL_STAGE
    trace.flush_stages = lambda: None
    try:
        return _ingest(_engine(), batch)
    finally:
        trace.stage, trace.flush_stages = stage, flush


def test_disabled_tracing_is_free(rng):
    """The zero-overhead contract (DESIGN.md §5.5): with tracing off, an
    engine whose stages go through the disabled ``trace.stage`` and
    ``trace.flush_stages`` writes at >= 0.97x the speed of one whose
    stage hook is stubbed to no-ops."""
    batch = _write_batch(rng)
    assert not trace.is_enabled()
    took = _fastest(800, {
        "stubbed": lambda: _stubbed_ingest(batch),
        "traced": lambda: _ingest(_engine(), batch),
    })
    assert took["stubbed"] / took["traced"] >= 0.97, took


def test_entropy_gate_pays_where_it_claims(rng):
    """The zlib codec's entropy gate (DESIGN.md §5.6) against the codec
    without it — a plain reused ``compressobj`` behind the same tag — on
    64-chunk batches: half-and-half chunks compress >= 2.5x and decode
    >= 4x faster (their random half is stored blocks).  What the gate
    costs where it cannot help: ASCII text, which ``isascii()`` keeps
    from being sampled at all, at most 10%; 32/32 interleaved random and
    constant bytes, non-ASCII so every segment is sampled and none is
    cut, at most 25% (measured 1.18-1.21x: ~8 us of probe and ~3 us of
    run bookkeeping on a 60 us deflate)."""
    content = ContentFactory()
    half = [content.chunk(index) for index in range(BATCH_CHUNKS)]
    words = [rng.randbytes(rng.randint(2, 9)).hex().encode() for _ in range(300)]
    text = [
        b" ".join(rng.choice(words) for _ in range(600))[:4096]
        for _ in range(BATCH_CHUNKS)
    ]
    mixed = [
        b"".join(rng.randbytes(32) + b"\xa5" * 32 for _ in range(64))
        for _ in range(BATCH_CHUNKS)
    ]
    codec = ZlibCompressor()
    squeezer = zlib.compressobj(1, zlib.DEFLATED, -12)

    def plain(chunks):
        payloads = (
            b"".join((
                b"\x01", squeezer.compress(chunk),
                squeezer.flush(zlib.Z_FULL_FLUSH),
            ))
            for chunk in chunks
        )
        return [CompressedChunk(p, 4096, len(p)) for p in payloads]

    def gated(chunks):
        return [codec.compress(chunk) for chunk in chunks]

    for uncut in (text, mixed):
        assert [c.payload for c in gated(uncut)] == [c.payload for c in plain(uncut)]
    stored = {"plain": plain(half), "gated": gated(half)}
    assert decode_many(stored["gated"]) == decode_many(stored["plain"]) == half
    took = _fastest(300, {
        "half plain": lambda: plain(half),
        "half gated": lambda: gated(half),
        "text plain": lambda: plain(text),
        "text gated": lambda: gated(text),
        "mixed plain": lambda: plain(mixed),
        "mixed gated": lambda: gated(mixed),
        "read plain": lambda: decode_many(stored["plain"]),
        "read gated": lambda: decode_many(stored["gated"]),
    })
    assert took["half plain"] / took["half gated"] >= 2.5, took
    assert took["text gated"] / took["text plain"] <= 1.10, took
    assert took["mixed gated"] / took["mixed plain"] <= 1.25, took
    assert took["read plain"] / took["read gated"] >= 4, took


def test_one_pass_decoder_beats_the_per_frame_one(rng):
    """One socket read's worth of pipelined small ops — sixteen 4-KiB
    WRITE frames — decodes in <= 0.6x the time of the per-frame decoder
    it replaced (``tests/net/reference.py``: a call, a double payload
    copy, a prefix delete and a frozen-dataclass record per frame).
    The CRC both compute is more than half of what is left (~0.5 here)."""
    wire = b"".join(
        encode_frame(Op.WRITE, 8 * index, rng.randbytes(4096), request_id=index + 1)
        for index in range(16)
    )
    registry = MetricsRegistry(stripes=1)
    one_pass, per_frame = FrameDecoder(registry), ReferenceDecoder(registry)
    assert [fields(f) for f in one_pass.events(wire)] == [
        fields(f) for f in per_frame.events(wire)
    ]
    took = _fastest(1000, {
        "one pass": lambda: one_pass.events(wire),
        "per frame": lambda: per_frame.events(wire),
    })
    assert took["one pass"] / took["per frame"] <= 0.6, took


def test_entropy_probe_counts_in_one_call():
    """The zlib entropy gate counts a sample's distinct bytes with one
    ``bytes.translate`` call (DESIGN.md §5.6): ``_probe`` over 64
    half-and-half chunks, where every segment is sampled, costs <= 0.7x
    the same probe building a ``set`` per sample (~0.6 here)."""
    content = ContentFactory()
    chunks = [content.chunk(index) for index in range(BATCH_CHUNKS)]
    assert [_probe(c, 4096) for c in chunks] == [set_probe(c, 4096) for c in chunks]
    took = _fastest(300, {
        "translate": lambda: [_probe(c, 4096) for c in chunks],
        "set": lambda: [set_probe(c, 4096) for c in chunks],
    })
    assert took["translate"] / took["set"] <= 0.7, took


def test_served_table_path_walks_no_tree(rng):
    """The served table cache resolves lines through its own map and the
    Cache HW-Engine's index only counts (DESIGN.md §5.4): lookup + insert
    of 4,096 fresh digests through ``FidrSystem().table_cache``, its
    trace replayed once per 64 digests as an engine batch's fence would,
    is >= 1.3x faster than through the same cache walking a
    ``BTreeIndex``, and leaves the same ledger.  Timing the traced
    accesses without their replay measures ~1.03x: the model's work
    is the replay."""
    rounds, per_round = 12, 4096
    digests = [rng.randbytes(32) for _ in range(rounds * per_round)]
    with FidrSystem() as counted, FidrSystem() as walked:
        walked.table_cache.index = BTreeIndex()
        runs = {}
        for label, system in (("counted", counted), ("walked", walked)):
            cache = system.table_cache
            table = HashPbnTable(1 << 15, store=cache)
            fresh = iter(digests)

            def run(table=table, cache=cache, fresh=fresh):
                for pbn in range(per_round):
                    digest = next(fresh)
                    assert table.lookup(digest) is None
                    table.insert(digest, pbn)
                    if pbn % BATCH_CHUNKS == BATCH_CHUNKS - 1:
                        cache.replay()

            runs[label] = run
        took = _fastest(rounds, runs)
        assert counted.table_cache.stats == walked.table_cache.stats
    assert took["walked"] / took["counted"] >= 1.3, took


def test_served_writes_settle_at_each_fence(monkeypatch):
    """The table cache and the journal settle a batch at its group-commit
    fence (DESIGN.md §5.8, §5.9), as a count: served FIDR with the
    journal armed replays a non-empty table trace once per 64-chunk
    write — k writes, k replays — and after every ``write_many`` no
    traced access or unframed journal record is left."""
    content = ContentFactory(compress_fraction=0.5)
    config = SystemConfig(durability=DurabilityPolicy(journal=True, checkpoint_every_commits=4))
    writes = 16
    with StorageServer.build(SystemKind.FIDR, config=config, num_buckets=1 << 10) as storage:
        engine = storage.system.engine
        cache = storage.system.table_cache
        replays = []
        replay = TableCache.replay

        def counted(self):
            if self._trace:
                replays.append(len(self._trace))
            replay(self)

        write_many = engine.write_many

        def fenced(*args, **kwargs):
            reports = write_many(*args, **kwargs)
            assert cache._trace == [] and engine.journal._staged == []
            return reports

        monkeypatch.setattr(TableCache, "replay", counted)
        monkeypatch.setattr(engine, "write_many", fenced)
        for write in range(writes):
            lba = (write % 4) * BATCH_CHUNKS  # overwrites: releases too
            storage.write(lba, b"".join(
                content.chunk(write * BATCH_CHUNKS + i) for i in range(BATCH_CHUNKS)))
        assert len(replays) == writes, replays
        assert min(replays) >= 2 * BATCH_CHUNKS
        assert engine.journal.checkpoints == writes // 4


#: Python calls per unique chunk of a served 64-chunk FIDR write, tracing
#: off: 58.2 with the write walk one loop per batch; 72.4 with a call
#: per chunk per structure step (``_write_chunk`` → ``_publish_chunk``
#: → ``_remap``) and the table's ``_home``/``_load`` helper frames.
CALLS_PER_UNIQUE_CHUNK = 62


def _served_calls_per_chunk(traced):
    """Python calls (``sys.setprofile`` ``call`` events: frames, not C
    builtins) per chunk over 32 served 64-chunk writes of unique
    50%-compressible content to fresh LBAs, through a FIDR
    ``StorageServer`` as ``serve`` builds it."""
    content = ContentFactory(compress_fraction=0.5)
    writes = 32
    payloads = [
        b"".join(content.chunk(op * BATCH_CHUNKS + i) for i in range(BATCH_CHUNKS))
        for op in range(writes + 1)
    ]
    calls = [0]

    def count(frame, event, arg):
        if event == "call":
            calls[0] += 1

    with StorageServer.build(SystemKind.FIDR) as storage:
        storage.write(writes * BATCH_CHUNKS, payloads[writes])  # warm: first container and pages
        with trace.enabled(traced):
            sys.setprofile(count)
            try:
                for op, payload in enumerate(payloads):
                    storage.write(op * BATCH_CHUNKS, payload)
            finally:
                sys.setprofile(None)
        trace.clear()
        assert storage.system.engine.stats.unique_chunks == (writes + 1) * BATCH_CHUNKS
    return calls[0] / (writes * BATCH_CHUNKS)


def test_the_write_walk_is_one_loop_per_batch():
    """The engine's write walk is one loop per batch, with no stage span
    per chunk (DESIGN.md §5.4, §5.5), as two counts of Python calls per
    unique chunk through served FIDR: at most
    ``CALLS_PER_UNIQUE_CHUNK`` with tracing off (58.2; 72.4 with a
    helper frame per chunk per walk step), and tracing on — as ``serve``
    runs — adds at most one (0.65: the per-batch spans; 9.9 with a
    ``lookup``/``pack``/``publish`` stage entered per chunk)."""
    untraced = _served_calls_per_chunk(traced=False)
    traced = _served_calls_per_chunk(traced=True)
    assert untraced <= CALLS_PER_UNIQUE_CHUNK, untraced
    assert traced - untraced <= 1.0, (untraced, traced)


def test_each_bucket_page_lives_in_one_compact_home():
    """Every bucket page has one home, sized to what it holds (DESIGN.md
    §5.8), as a count: after 4,096 unique chunk writes through served
    FIDR and a flush of its table cache, the page store under the cache
    holds 3 + 38 bytes per entry of every written bucket — each entry
    in exactly one page, no page a whole 4 KiB — and the table SSDs are
    a ledger: 4 KiB stored per flushed bucket, one write per flush."""
    content = ContentFactory()
    with StorageServer.build(
        SystemKind.FIDR, num_buckets=1 << 12, compressor=ModeledCompressor(0.5)
    ) as storage:
        for lba in range(0, 4096, BATCH_CHUNKS):
            storage.write(lba, b"".join(
                content.chunk(lba + i) for i in range(BATCH_CHUNKS)))
        storage.flush()
        system = storage.system
        cache = system.table_cache
        cache.flush_all()
        assert len(system.engine.table) == 4096
        pages = list(cache.pages._pages.values())
        assert all(isinstance(page, PackedBucket) for page in pages)
        held = sum(len(page.buf) for page in pages)
        assert held == 3 * len(pages) + ENTRY_SIZE * 4096, (held, len(pages))
        assert not [page for page in pages if len(page.buf) == BUCKET_SIZE]
        drives = system.table_array.drives
        flushed = sum(drive.written_blocks for drive in drives)
        assert flushed == len(pages)
        assert sum(drive.bytes_stored for drive in drives) == BUCKET_SIZE * flushed
        assert system.table_array.stats.write_ops == cache.stats.flushes


def test_one_batched_read_beats_reads_of_one(rng):
    """The served read path is one batch (DESIGN.md §5.2): with tracing
    on, as ``serve`` runs it, one 64-chunk ``FidrSystem.read`` is
    >= 1.3x faster per chunk than sixty-four 1-chunk reads of the same
    LBAs."""
    with FidrSystem(num_buckets=1 << 14, compressor=ZlibCompressor()) as system:
        system.write(0, b"".join(chunk for _, chunk in _write_batch(rng)))
        system.flush()
        assert system.read(0, BATCH_CHUNKS) == b"".join(
            system.read(lba, 1) for lba in range(BATCH_CHUNKS)
        )
        with trace.enabled():
            took = _fastest(300, {
                "batched": lambda: system.read(0, BATCH_CHUNKS),
                "singles": lambda: [
                    system.read(lba, 1) for lba in range(BATCH_CHUNKS)
                ],
            })
        trace.clear()
    assert took["singles"] / took["batched"] >= 1.3, took


async def _fine_grain_rounds(writer, reader, content, seeded):
    """8 rounds of 16 one-chunk writes to fresh LBAs beside 16 verified
    one-chunk reads of ``seeded`` (LBAs 0-15), each round gathered."""
    for round_ in range(8):
        base = 16 * (round_ + 1)
        replies = await asyncio.gather(
            *(writer.write(base + i, content.chunk(base + i)) for i in range(16)),
            *(reader.read(i, 1) for i in range(16)),
        )
        assert replies[16:] == seeded


def test_pipelined_small_ops_share_backend_turns(rng):
    """The serving tier's coalescing ratio (DESIGN.md §5.1), as a count:
    two loopback connections, 8 rounds of 16 one-chunk writes beside 16
    one-chunk reads; the backend must be entered >= 4x less often than
    ops are served (32x with both ends on one loop; 1.0 for a worker
    that takes one frame per wake-up).  A count, not a timing, so it
    repeats where a loopback throughput ratio would not."""
    content = ContentFactory()
    seeded = [content.chunk(index) for index in range(16)]

    async def drive():
        async with AsyncProtocolServer(storage) as server:
            async with await AsyncProtocolClient.connect(
                server.host, server.port
            ) as writer, await AsyncProtocolClient.connect(
                server.host, server.port
            ) as reader:
                await writer.write(0, b"".join(seeded))
                metrics = server.metrics
                served, turns = metrics.storage_ops, metrics.storage_turns
                await _fine_grain_rounds(writer, reader, content, seeded)
                return (
                    metrics.storage_ops - served,
                    metrics.storage_turns - turns,
                )

    with StorageServer.build(
        SystemKind.FIDR, num_buckets=1 << 12, compressor=ZlibCompressor()
    ) as storage:
        served, turns = asyncio.run(drive())
    assert served == 256
    assert served / turns >= 4, (served, turns)


def test_served_groups_stay_on_the_loop(monkeypatch):
    """The serving tier's cross-thread wake-ups (DESIGN.md §5.2), as a
    count: over the whole run of an in-process server, the rounds of the
    coalescing gate above — 8 rounds of 16 one-chunk writes beside 16
    one-chunk reads on two connections — must make no
    ``loop.call_soon_threadsafe`` call and start no thread: a group is
    served on the loop that parsed it.  (The one-thread backend executor
    this replaced rang one doorbell per group: 9 calls — the seeding
    write, then one group a round — and 1 thread start.)"""
    content = ContentFactory()
    seeded = [content.chunk(index) for index in range(16)]
    doorbells, starts = [], []
    call_soon_threadsafe = asyncio.base_events.BaseEventLoop.call_soon_threadsafe
    start = threading.Thread.start

    def rung(loop, *args, **kwargs):
        doorbells.append(args[0])
        return call_soon_threadsafe(loop, *args, **kwargs)

    def started(thread):
        starts.append(thread.name)
        start(thread)

    async def drive():
        async with AsyncProtocolServer(storage) as server:
            async with await AsyncProtocolClient.connect(
                server.host, server.port
            ) as writer, await AsyncProtocolClient.connect(
                server.host, server.port
            ) as reader:
                await writer.write(0, b"".join(seeded))
                await _fine_grain_rounds(writer, reader, content, seeded)

    with StorageServer.build(
        SystemKind.FIDR, num_buckets=1 << 12, compressor=ZlibCompressor()
    ) as storage:
        monkeypatch.setattr(
            asyncio.base_events.BaseEventLoop, "call_soon_threadsafe", rung
        )
        monkeypatch.setattr(threading.Thread, "start", started)
        asyncio.run(drive())
    assert (len(doorbells), starts) == (0, []), (len(doorbells), starts)


def test_grouped_reads_share_one_engine_pass(rng, monkeypatch):
    """A run of READs is one ``read_extents`` (DESIGN.md §5.2), as a
    count: 8 bursts of 16 one-chunk reads, each queued whole behind a
    held dispatch, must reach the engine in >= 8x fewer passes
    than ops (16x when a burst is one group; 1.0 for a ``handle_frame``
    that reads alone)."""
    content = ContentFactory()
    seeded = [content.chunk(index) for index in range(64)]
    passes = []
    read_many = DedupEngine.read_many

    def counted(self, lbas):
        passes.append(len(lbas))
        return read_many(self, lbas)

    async def drive():
        async with AsyncProtocolServer(storage, workers=1) as server:
            async with await AsyncProtocolClient.connect(
                server.host, server.port
            ) as client:
                await client.write(0, b"".join(seeded))
                storage.flush()
                monkeypatch.setattr(DedupEngine, "read_many", counted)
                for round_ in range(8):
                    lbas = rng.sample(range(64), 16)
                    async with held_backend(server):
                        burst = asyncio.gather(*(client.read(lba, 1) for lba in lbas))
                        while server.metrics.requests_enqueued < 1 + 16 * (round_ + 1):
                            await asyncio.sleep(0.001)
                    assert await burst == [seeded[lba] for lba in lbas]

    with StorageServer.build(
        SystemKind.FIDR, num_buckets=1 << 12, compressor=ZlibCompressor()
    ) as storage:
        asyncio.run(drive())
    assert sum(passes) == 128
    assert sum(passes) / len(passes) >= 8, passes


def test_bulk_replies_never_pause_a_transport(monkeypatch):
    """A 256-KiB reply is parsed as the socket delivers it (DESIGN.md
    §5.1), as a count: 32 bulk writes, then 128 bulk reads of 64 chunks
    through an in-process server and client, and no transport may stop
    reading — a stream reader, whose buffer limit is 64 KiB, paused the
    client's once per read (127 pauses in 128 reads)."""
    content = ContentFactory(compress_fraction=0.5)
    pauses = []
    pause_reading = selector_events._SelectorTransport.pause_reading

    def counted(transport):
        pauses.append(transport)
        pause_reading(transport)

    async def drive():
        async with AsyncProtocolServer(storage) as server:
            async with await AsyncProtocolClient.connect(
                server.host, server.port
            ) as client:
                extents = [
                    b"".join(content.chunk(64 * extent + i) for i in range(64))
                    for extent in range(32)
                ]
                for extent, data in enumerate(extents):
                    await client.write(64 * extent, data)
                monkeypatch.setattr(
                    selector_events._SelectorTransport, "pause_reading", counted
                )
                for op in range(128):
                    assert await client.read(64 * (op % 32), 64) == extents[op % 32]

    with StorageServer.build(
        SystemKind.FIDR, num_buckets=1 << 12, compressor=ZlibCompressor()
    ) as storage:
        asyncio.run(drive())
    assert not pauses, f"{len(pauses)} pauses in 128 bulk reads"


_BULK_READ_FAULTS = """
import asyncio, resource
from repro.datared.compression import ZlibCompressor
from repro.net.aserver import AsyncProtocolClient, AsyncProtocolServer
from repro.systems.server import StorageServer, SystemKind
from repro.workloads.content import ContentFactory
from tests.net.wire import held_backend

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

async def drive(storage):
    content = ContentFactory(compress_fraction=0.5)
    async with AsyncProtocolServer(storage) as server:
        async with await AsyncProtocolClient.connect(
            server.host, server.port
        ) as client:
            for extent in range(8):
                await client.write(64 * extent, b"".join(
                    content.chunk(64 * extent + i) for i in range(64)))
            for _ in range(16):  # first touches are not the subject
                await client.read(0, 64)
            before = faults()
            for op in range(128):
                await client.read(64 * (op % 8), 64)
            return (faults() - before) / 128

with StorageServer.build(
    SystemKind.FIDR, num_buckets=1 << 12, compressor=ZlibCompressor()
) as storage:
    print(asyncio.run(drive(storage)))
"""


def test_bulk_reads_recycle_their_buffers():
    """A client's 256-KiB reads must not map their buffers afresh per op
    (``dedup.settle_allocator``), as a count: minor page faults per
    read in a fresh interpreter, 128 reads after 16 warming ones — 0.0
    settled, 106 (every buffer of every op) when the allocator is left
    to the mode the process's earlier frees put it in.  The subprocess
    is the point: this process's allocator has a history already."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    ran = subprocess.run(
        [sys.executable, "-c", _BULK_READ_FAULTS],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert float(ran.stdout) < 8, ran.stdout


_BULK_WRITE_FAULTS = """
import asyncio, resource
from repro.net.aserver import AsyncProtocolServer, _Connection
from repro.net.protocol import Op, encode_frame
from repro.systems.server import StorageServer, SystemKind
from repro.workloads.content import ContentFactory

class Socket:
    # The transport of one connection: replies dropped, reads never
    # held (one frame is in flight at a time), close is a loss.
    def __init__(self, protocol):
        self.protocol = protocol
        protocol.connection_made(self)
    def write(self, data):
        pass
    def pause_reading(self):
        pass
    def resume_reading(self):
        pass
    def is_closing(self):
        return False
    def close(self):
        self.protocol.connection_lost(None)

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

async def drive(storage):
    content = ContentFactory(compress_fraction=0.5)
    frames = [encode_frame(Op.WRITE, 64 * extent, b"".join(
        content.chunk(64 * extent + i) for i in range(64)),
        request_id=extent + 1) for extent in range(16)]
    server = await AsyncProtocolServer(storage).start()
    connection = _Connection(server)
    Socket(connection)

    async def write(op):
        # A fresh buffer per frame, as each socket read hands over.
        connection.data_received(memoryview(frames[op % 16]).tobytes())
        while connection.pending:
            await asyncio.sleep(0)

    for op in range(32):  # first touches are not the subject
        await write(op)
    before = faults()
    for op in range(128):
        await write(op)
    per_write = (faults() - before) / 128
    await server.stop()
    return per_write

with StorageServer.build(SystemKind.FIDR) as storage:
    print(asyncio.run(drive(storage)))
"""


def test_bulk_writes_recycle_their_buffers():
    """The server's 256-KiB WRITE frames must not map their buffers
    afresh per op (building the stack's ``DedupEngine`` settles the
    allocator, DESIGN.md §5.1), as a count: minor page faults per write
    in a fresh interpreter holding only the server side — frames fed
    straight to a ``_Connection``, no client, whose construction would
    settle the allocator too — 128 writes after 32 warming ones: 0.0
    settled, 224 when nothing leaves the allocator in any mode but the
    one the process's earlier frees put it in."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    ran = subprocess.run(
        [sys.executable, "-c", _BULK_WRITE_FAULTS],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert float(ran.stdout) < 8, ran.stdout


_ENGINE_BUFFER_FAULTS = """
import resource
from repro.datared.dedup import DedupEngine

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

def burst():
    # Four 256-KiB buffers live at once, as a bulk read's pieces are,
    # then all freed.
    buffers = [b"\\x01" * (256 * 1024) for _ in range(4)]
    del buffers

engine = DedupEngine(num_buckets=1 << 10)
for _ in range(8):  # first touches are not the subject
    burst()
before = faults()
for _ in range(64):
    burst()
print((faults() - before) / (64 * 4))
"""


def test_an_engine_settles_the_allocator():
    """Building a ``DedupEngine`` settles the process's allocator
    (``dedup.settle_allocator``, DESIGN.md §5.1), so an in-process stack
    with no server or client recycles 256-KiB buffers rather than
    mapping them afresh, as a count: minor page faults per buffer in a
    fresh interpreter that builds one engine, then allocates and frees
    four 256-KiB buffers at a time, 64 times after 8 warming ones — 0.0
    settled, 56 when only the serving tier settles the allocator."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    ran = subprocess.run(
        [sys.executable, "-c", _ENGINE_BUFFER_FAULTS],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert float(ran.stdout) < 8, ran.stdout


METADATA_CHUNKS = 32_768


def test_metadata_heap_per_unique_chunk():
    """Per-chunk metadata is columns, not objects (DESIGN.md §5.8), as a
    count: Python heap held per unique chunk after 32,768 unique 4-KiB
    writes through served FIDR, the stored payload objects excluded
    (tracemalloc; the content generator's own allocations filtered).
    754 B with one object per chunk in four dicts; 481 B in columns.
    What stays is the fingerprint mirror (~145 B) and the bucket pages
    (~150 B at the default 32,768 buckets)."""
    content = ContentFactory(compress_fraction=0.5)
    with StorageServer.build(SystemKind.FIDR) as storage:
        engine = storage.system.engine
        tracemalloc.start()
        try:
            for lba in range(0, METADATA_CHUNKS, BATCH_CHUNKS):
                storage.write(lba, b"".join(
                    content.chunk(lba + i) for i in range(BATCH_CHUNKS)))
            storage.flush()
            gc.collect()
            held = tracemalloc.take_snapshot().filter_traces([
                tracemalloc.Filter(False, "*/workloads/content.py"),
                tracemalloc.Filter(False, tracemalloc.__file__),
            ])
        finally:
            tracemalloc.stop()
        heap = sum(stat.size for stat in held.statistics("filename"))
        payloads = sum(
            sys.getsizeof(payload)
            for container in engine.containers._containers.values()
            for payload in container._payloads.values()
        )
        assert engine.stats.unique_chunks == METADATA_CHUNKS
    per_chunk = (heap - payloads) / METADATA_CHUNKS
    assert per_chunk <= 500, per_chunk


OVERWRITE_REGION = 1024
OVERWRITE_PASSES = 4


def test_overwrite_heap_follows_live_data():
    """The heap follows live data, not write history (DESIGN.md §5.8,
    §5.9), as a ratio: a journaled FIDR stack overwriting a 1,024-chunk
    region holds the same tracemalloc heap after 12 passes as after 4,
    within 2 % (the content generator's own allocations filtered).
    Each pass is sealed by a flush, so whole containers die and bucket
    pages empty.  1.135x when emptied pages stay in the page store,
    fully-dead containers keep their tables and PBN lists, and the
    table SSDs keep a stand-in block per flushed bucket; ~1.004x
    without them."""
    content = ContentFactory(compress_fraction=0.5)
    config = SystemConfig(durability=DurabilityPolicy(journal=True, checkpoint_every_commits=32))
    stamp = 0

    def overwrite(storage, passes):
        nonlocal stamp
        for _ in range(passes):
            for lba in range(0, OVERWRITE_REGION, BATCH_CHUNKS):
                storage.write(lba, b"".join(
                    content.chunk(stamp + i) for i in range(BATCH_CHUNKS)))
                stamp += BATCH_CHUNKS
            storage.flush()

    def heap():
        gc.collect()
        held = tracemalloc.take_snapshot().filter_traces([
            tracemalloc.Filter(False, "*/workloads/content.py"),
            tracemalloc.Filter(False, tracemalloc.__file__),
        ])
        return sum(stat.size for stat in held.statistics("filename"))

    tracemalloc.start()
    try:
        with StorageServer.build(
            SystemKind.FIDR, config=config, num_buckets=1 << 12,
            compressor=ModeledCompressor(0.5),
        ) as storage:
            overwrite(storage, OVERWRITE_PASSES)
            early = heap()
            overwrite(storage, 2 * OVERWRITE_PASSES)
            late = heap()
            assert storage.system.engine.containers.garbage_victims(0.999)
    finally:
        tracemalloc.stop()
    assert late <= 1.02 * early, (early, late, late / early)


def test_checkpoint_copies_columns():
    """A checkpoint copies the metadata columns and LBA pages rather than
    packing one record per chunk, as a time per live chunk: capture +
    encode of 32,768 live chunks, fastest of five, ≤ 0.3 µs a chunk
    (0.7–1.1 µs packing records; ~0.08 µs copying columns)."""
    engine = DedupEngine(num_buckets=1 << 14, compressor=ModeledCompressor(0.5))
    content = ContentFactory()
    for lba in range(0, METADATA_CHUNKS, BATCH_CHUNKS):
        engine.write_many(
            [(lba + i, content.chunk(lba + i)) for i in range(BATCH_CHUNKS)]
        )
    live = len(engine.pbn_map)
    assert live == METADATA_CHUNKS
    took = _fastest(5, {"checkpoint": lambda: CheckpointState.capture(engine).encode()})
    assert took["checkpoint"] / live <= 0.3e-6, took
