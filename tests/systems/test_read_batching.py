"""The read path is one batch — and indistinguishable from n reads of one.

``ReductionSystem.read_extents`` stages once, makes one engine pass over
every chunk nothing staged serves and charges the lot once (DESIGN.md
§5.2); ``read(lba, n)`` is ``read_extents`` of one.  The oracle is
equivalence: on twin systems fed the same writes, ``read(lba, n)`` on
one and ``n × read(lba + i, 1)`` on the other — and ``read_extents`` of k
extents on one and k ``read`` calls on the other — return the same bytes
and leave *every* ledger identical — including the two order-dependent
caches (the engine's decompressed-read LRU and the §8 hot-read cache),
whose per-position probe/insert order the batched pass must reproduce.
"""

from __future__ import annotations

import dataclasses
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datared import codecs
from repro.datared.compression import ZlibCompressor
from repro.datared.dedup import DedupEngine
from repro.errors import AlignmentError, ChunkDecodeError
from repro.systems.baseline import BaselineSystem
from repro.systems.config import SystemConfig
from repro.systems.extensions import ExtendedFidrSystem
from repro.systems.fidr import FidrSystem
from repro.systems.server import StorageServer

from ..ledgers import ledger_view

CHUNK = 4096
SPAN = 48  # LBAs the script touches; reads reach past it into holes
BATCH = 16


def _config(**fields) -> SystemConfig:
    return SystemConfig(batch_chunks=BATCH, **fields)


#: name -> (class, constructor kwargs).  The two cache-pressure cases
#: (``*-small``) hold fewer chunks than one read covers.
CONFIGS = {
    "baseline": (BaselineSystem, {}),
    "fidr": (FidrSystem, {}),
    "fidr-software-table-cache": (FidrSystem, {"hw_cache_engine": False}),
    "extended-nvme-offload": (ExtendedFidrSystem, {"nvme_read_offload": True}),
    "extended-hot-cache-small": (
        ExtendedFidrSystem, {"hot_read_cache_chunks": 5},
    ),
    "extended-hot-cache-and-lru": (
        ExtendedFidrSystem,
        {"hot_read_cache_chunks": 3, "config": _config(read_cache_chunks=4)},
    ),
    "read-lru-large": (FidrSystem, {"config": _config(read_cache_chunks=256)}),
    "read-lru-small": (FidrSystem, {"config": _config(read_cache_chunks=3)}),
    "baseline-read-lru-small": (
        BaselineSystem, {"config": _config(read_cache_chunks=2)},
    ),
}


def build(name: str):
    cls, kwargs = CONFIGS[name]
    kwargs = dict(kwargs)
    kwargs.setdefault("config", _config())
    return cls(
        num_buckets=2048, cache_lines=128, compressor=ZlibCompressor(), **kwargs
    )


def ledgers(system) -> dict:
    """Every charge and counter a read can move, as plain data: the
    write-side ledger view plus what only reads touch."""
    report = system.report()
    engine = system.engine
    view = ledger_view(SimpleNamespace(system=system))
    view.update({
        "report": (
            report.logical_write_bytes, report.logical_read_bytes,
            report.tree_node_visits, report.engine_tree_updates,
            report.predictor_accuracy, report.nic_buffer_hit_rate,
        ),
        "engine_stats": system.engine.stats_snapshot(),
        "fabric": (system.pcie.p2p_bytes, system.pcie.root_complex_bytes),
        "nic": dataclasses.asdict(system.nic.traffic),
        "drives": [
            (drive.stats.read_ops, drive.stats.bytes_read)
            for drive in system.data_array.drives
        ],
        "read_lru": (
            engine.stats.read_cache_hits, engine.stats.read_cache_misses,
            list(engine._read_cache or ()),
        ),
    })
    if isinstance(system, FidrSystem):
        view["nic_lookup"] = (
            system.nic.read_buffer_hits, system.nic.read_buffer_misses
        )
    hot = getattr(system, "hot_read_cache", None)
    if hot is not None:
        view["hot"] = (hot.hits, hot.misses, list(hot._data), list(hot._ghost))
    return view


def write_script(rng: random.Random):
    """Writes that leave holes, duplicates inside one extent, rewritten
    LBAs — and, ending off a batch boundary, staged-but-unprocessed
    chunks the NIC buffer serves mid-run."""
    pool = [rng.randbytes(CHUNK // 2) + bytes(CHUNK // 2) for _ in range(4)]
    script = []
    for _ in range(rng.randrange(4, 9)):
        lba = rng.randrange(SPAN - 8)
        chunks = [
            pool[rng.randrange(len(pool))] if rng.random() < 0.5
            else rng.randbytes(CHUNK // 2) + bytes(CHUNK // 2)
            for _ in range(rng.randrange(1, 9))
        ]
        script.append((lba, b"".join(chunks)))
    return script


def read_script(rng: random.Random):
    """Overlapping extents, repeated, so second-access admission, LRU
    hits and evictions inside one run all occur."""
    reads = []
    for _ in range(6):
        lba = rng.randrange(SPAN)
        count = rng.randrange(1, SPAN + 8 - lba)
        reads += [(lba, count)] * rng.randrange(1, 3)
    return reads


def assert_same_ledgers(got_system, want_system, context):
    got, want = ledgers(got_system), ledgers(want_system)
    for key in want:
        assert got[key] == want[key], (key, context)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_one_read_of_n_equals_n_reads_of_one(name, seed):
    rng = random.Random(seed)
    with build(name) as batched, build(name) as single:
        for round_index in range(3):
            for lba, payload in write_script(rng):
                batched.write(lba, payload)
                single.write(lba, payload)
            if round_index == 1:
                batched.flush()
                single.flush()
            for lba, count in read_script(rng):
                whole = batched.read(lba, count)
                pieces = [single.read(lba + i, 1) for i in range(count)]
                # Never a view of a staged write's buffer, even for one hit.
                assert {type(whole), *map(type, pieces)} == {bytes}
                assert whole == b"".join(pieces), (lba, count)
                assert_same_ledgers(batched, single, (lba, count))


def read_each(system, extents):
    """What ``read_extents`` must equal: one ``read`` per extent, each
    failure caught as that extent's result."""
    results = []
    for lba, count in extents:
        try:
            results.append(system.read(lba, count))
        except Exception as error:
            results.append(error)
    return results


def comparable(results):
    """``results`` with each exception as its ``(type, message)``."""
    return [
        (type(item), str(item)) if isinstance(item, Exception) else item
        for item in results
    ]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_read_extents_of_k_equals_k_reads(name, seed):
    """Scattered, overlapping and repeated extents, over holes, reduced
    chunks and staged ones, in one call against one call each."""
    rng = random.Random(100 + seed)
    with build(name) as grouped, build(name) as single:
        for round_index in range(3):
            for lba, payload in write_script(rng):
                grouped.write(lba, payload)
                single.write(lba, payload)
            if round_index == 1:
                grouped.flush()
                single.flush()
            for _ in range(3):
                extents = read_script(rng)[:4] + [
                    (rng.randrange(SPAN + 8), 1) for _ in range(16)
                ]
                extents += rng.sample(extents, 4)  # the same LBAs again
                rng.shuffle(extents)
                got = grouped.read_extents(extents)
                assert {type(data) for data in got} == {bytes}
                assert got == read_each(single, extents), extents
                assert_same_ledgers(grouped, single, extents)


@pytest.fixture
def decodes(monkeypatch):
    """The chunk count of every ``codecs.decode_many`` call, in order."""
    calls = []
    decode_many = codecs.decode_many

    def counted(chunks, *args, **kwargs):
        calls.append(len(chunks))
        return decode_many(chunks, *args, **kwargs)

    monkeypatch.setattr(codecs, "decode_many", counted)
    return calls


def loaded_storage(chunks=64):
    storage = StorageServer(build("fidr"))
    rng = random.Random(7)
    storage.write(0, b"".join(
        rng.randbytes(CHUNK // 2) + bytes(CHUNK // 2) for _ in range(chunks)
    ))
    storage.flush()
    return storage


def test_a_64_chunk_read_is_one_engine_read_and_one_decode(engine_passes, decodes):
    """The structural claim (fails on a per-chunk read loop)."""
    with loaded_storage() as storage:
        assert len(storage.read(0, 64)) == 64 * CHUNK
        assert (engine_passes, decodes) == ([64], [64])


def test_16_scattered_extents_are_one_engine_pass_and_one_decode(engine_passes, decodes):
    """The same claim across ops (fails on a per-extent read loop)."""
    with loaded_storage() as storage:
        extents = [(lba, 1) for lba in random.Random(3).sample(range(64), 16)]
        replies = storage.read_extents(extents)
        assert (engine_passes, decodes) == ([16], [16])
        assert replies == [storage.read(lba, 1) for lba, _ in extents]


@pytest.mark.parametrize("bad", [(7, 1), (8, 0)], ids=["misaligned", "empty"])
def test_a_malformed_extent_fails_alone_before_the_pass(bad):
    """Extent 7 of 16 is refused with a typed error; the other fifteen
    are served, and charged, as fifteen reads."""
    def twin():
        system = FidrSystem(  # 2-block chunks make odd LBAs misaligned
            num_buckets=2048, cache_lines=128, compressor=ZlibCompressor(),
            config=SystemConfig(batch_chunks=BATCH, chunk_size=2 * CHUNK),
        )
        system.write(0, random.Random(5).randbytes(40 * 2 * CHUNK))
        return system

    extents = [(2 * index, 1) for index in range(16)]
    extents[6] = bad
    with twin() as grouped, twin() as single:
        got = grouped.read_extents(extents)
        assert type(got[6]) is AlignmentError
        assert sum(isinstance(item, Exception) for item in got) == 1
        assert comparable(got) == comparable(read_each(single, extents))
        assert_same_ledgers(grouped, single, bad)


#: The engine's read LRU is the one structure a failed pass has already
#: moved (probes counted, victims evicted) when the extents are re-run
#: one by one, so the exact-ledger claim below excludes it (DESIGN §5.2).
#: How a stored chunk rots: a broken deflate stream, a tag nobody
#: decodes, a body of the wrong length — each the one typed storage fault.
ROTS = (b"\x01not deflate", b"\x7funknown tag", b"\x00short")


@pytest.mark.parametrize("name", sorted(n for n in CONFIGS if "lru" not in n))
def test_a_corrupt_payload_mid_run_fails_exactly_its_op(name):
    """One stored chunk is rotted; of 16 grouped one-chunk reads only
    the one that needs it draws the decode error, and every ledger is
    where 16 single reads — one of them failing — leave it."""
    rng = random.Random(9)
    payload = b"".join(
        rng.randbytes(CHUNK // 2) + bytes(CHUNK // 2) for _ in range(32)
    )
    extents = [(lba, 1) for lba in rng.sample(range(32), 16)]
    rotted = extents[9][0]
    for rot in ROTS:
        with build(name) as grouped, build(name) as single:
            for system in (grouped, single):
                system.write(0, payload)
                system.flush()
                engine = system.engine
                record = engine.pbn_map.get(engine.lba_map.get(rotted))
                container = engine.containers._get(record.container_id)
                container._payloads[record.offset] = rot
            got = grouped.read_extents(extents)
            assert [type(item) is ChunkDecodeError for item in got] == [
                index == 9 for index in range(16)
            ], rot
            assert comparable(got) == comparable(read_each(single, extents))
            assert_same_ledgers(grouped, single, name)


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(1, 6),
    lbas=st.lists(st.integers(0, 5), min_size=8, max_size=8),
    reads=st.lists(
        st.one_of(
            st.tuples(st.integers(0, 9), st.integers(1, 10)),
            st.lists(st.integers(0, 11), min_size=1, max_size=12),
        ),
        min_size=1, max_size=5,
    ),
)
def test_engine_read_lru_keeps_per_position_order(capacity, lbas, reads):
    """Trap (i) at its source: duplicate PBNs inside one run, capacity
    below the run length, holes — ``engine.read(lba, n)``, and
    ``engine.read_many`` of any LBA sequence, repeats included, leave
    the LRU (content *and* order) and its counters as single reads would."""
    contents = [bytes([tag]) * CHUNK for tag in range(6)]

    def engine():
        built = DedupEngine(
            num_buckets=256, compressor=ZlibCompressor(),
            read_cache_chunks=capacity,
        )
        for lba, tag in enumerate(lbas):  # LBAs 8.. stay holes
            built.write(lba, contents[tag])
        return built

    batched, single = engine(), engine()
    for read in reads:
        if isinstance(read, tuple):
            whole = batched.read(*read)
            read = range(read[0], read[0] + read[1])
        else:
            whole = batched.read_many(read)
        parts = [single.read(lba, 1) for lba in read]
        assert whole.data == b"".join(part.data for part in parts)
        assert whole.stored_sizes == [part.stored_bytes_read for part in parts]
        for field in (
            "chunks_read", "stored_bytes_read", "unmapped_chunks", "cache_hits"
        ):
            assert getattr(whole, field) == sum(
                getattr(part, field) for part in parts
            ), field
        assert list(batched._read_cache.items()) == list(
            single._read_cache.items()
        )
        assert (batched.stats.read_cache_hits, batched.stats.read_cache_misses) == (
            single.stats.read_cache_hits, single.stats.read_cache_misses
        )


def test_a_failed_decode_leaves_no_pending_index_in_the_lru(monkeypatch):
    engine = DedupEngine(
        num_buckets=256, compressor=ZlibCompressor(), read_cache_chunks=4
    )
    engine.write(0, b"a" * CHUNK + b"b" * CHUNK)

    def broken(*args, **kwargs):
        raise ValueError("corrupt payload")

    with monkeypatch.context() as patched:
        patched.setattr(codecs, "decode_many", broken)
        with pytest.raises(ValueError):
            engine.read(0, 2)
    assert not engine._read_cache
    assert engine.read(0, 2).data == b"a" * CHUNK + b"b" * CHUNK
