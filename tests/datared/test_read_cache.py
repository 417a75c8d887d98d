"""Decompressed-read LRU tests (DESIGN.md §5.4).

The cache is keyed by PBN — content-addressed while a PBN is live, but
a *freed* PBN is reallocated by the LIFO free-list for arbitrary new
content, so invalidation on release/GC is load-bearing correctness, not
an optimisation.  The hostile tests here construct exactly that reuse.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.invariants import check_engine
from repro.datared.chunking import BLOCK_SIZE
from repro.datared.compression import ZlibCompressor
from repro.datared.container import ContainerStore
from repro.datared.dedup import DedupEngine

CHUNK = 4096
BLOCKS = CHUNK // BLOCK_SIZE


def chunk_payload(rng: random.Random, tag: int) -> bytes:
    """A unique, compressible chunk stamped with ``tag``."""
    return bytes([tag]) * 16 + rng.randbytes(CHUNK // 2 - 16) + bytes(CHUNK // 2)


def build_engine(cache_chunks: int, container_size: int = 0) -> DedupEngine:
    containers = (
        ContainerStore(container_size=container_size) if container_size else None
    )
    return DedupEngine(
        num_buckets=256,
        compressor=ZlibCompressor(),
        containers=containers,
        read_cache_chunks=cache_chunks,
    )


class TestReadCacheServing:
    def test_repeat_read_hits_and_skips_storage(self, rng):
        engine = build_engine(cache_chunks=8)
        data = chunk_payload(rng, 1)
        engine.write(0, data)

        first = engine.read(0)
        assert first.data == data
        assert first.cache_hits == 0
        assert engine.stats.read_cache_misses == 1

        second = engine.read(0)
        assert second.data == data
        assert second.cache_hits == 1
        assert second.chunks_read == 1
        # A cache hit moves no stored bytes — that is the point.
        assert second.stored_bytes_read == 0
        assert engine.stats.read_cache_hits == 1

    def test_cache_is_pbn_keyed_so_duplicates_share_entries(self, rng):
        engine = build_engine(cache_chunks=8)
        data = chunk_payload(rng, 2)
        engine.write(0, data)
        engine.write(BLOCKS, data)  # dedup: same PBN, different LBA

        assert engine.read(0).cache_hits == 0  # populates the entry
        hit = engine.read(BLOCKS)  # different LBA, same PBN -> hit
        assert hit.data == data
        assert hit.cache_hits == 1

    def test_capacity_is_bounded_with_lru_eviction(self, rng):
        engine = build_engine(cache_chunks=2)
        payloads = [chunk_payload(rng, tag) for tag in range(4)]
        for index, data in enumerate(payloads):
            engine.write(index * BLOCKS, data)
        for index in range(4):
            engine.read(index * BLOCKS)
        assert engine._read_cache is not None
        assert len(engine._read_cache) == 2
        # Oldest entries were evicted; newest two still hit.
        assert engine.read(2 * BLOCKS).cache_hits == 1
        assert engine.read(3 * BLOCKS).cache_hits == 1
        assert engine.read(0).cache_hits == 0

    def test_disabled_by_default(self, rng):
        engine = DedupEngine(num_buckets=256)
        data = chunk_payload(rng, 3)
        engine.write(0, data)
        assert engine._read_cache is None
        assert engine.read(0).data == data
        assert engine.read(0).cache_hits == 0
        assert engine.stats.read_cache_hits == engine.stats.read_cache_misses == 0

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            DedupEngine(num_buckets=256, read_cache_chunks=-1)

    def test_multi_chunk_read_mixes_hits_holes_and_misses(self, rng):
        engine = build_engine(cache_chunks=8)
        cached = chunk_payload(rng, 4)
        fresh = chunk_payload(rng, 5)
        engine.write(0, cached)
        engine.write(2 * BLOCKS, fresh)
        engine.read(0)  # cache position 0; position 1 stays a hole

        report = engine.read(0, 3)
        assert report.data == cached + b"\x00" * CHUNK + fresh
        assert report.cache_hits == 1
        assert report.unmapped_chunks == 1
        assert report.chunks_read == 2  # the hit and the miss


class TestReadCacheInvalidation:
    def test_overwrite_drops_the_stale_entry(self, rng):
        engine = build_engine(cache_chunks=8)
        old = chunk_payload(rng, 6)
        new = chunk_payload(rng, 7)
        engine.write(0, old)
        engine.read(0)  # cache old under its PBN
        engine.write(0, new)  # last ref drops, PBN freed

        report = engine.read(0)
        assert report.data == new
        assert check_engine(engine) == []

    def test_freed_pbn_reuse_cannot_serve_stale_bytes(self, rng):
        """The sharpest corner: LIFO free-list reuse hands a freed PBN
        to *new content* immediately.  A cache entry surviving the free
        would serve the old chunk's bytes at the new chunk's address."""
        engine = build_engine(cache_chunks=8)
        old = chunk_payload(rng, 8)
        replacement = chunk_payload(rng, 9)
        recycled = chunk_payload(rng, 10)

        engine.write(0, old)
        assert engine.read(0).data == old  # old cached under PBN p
        engine.write(0, replacement)  # frees p
        engine.write(BLOCKS, recycled)  # allocator reuses p

        report = engine.read(BLOCKS)
        assert report.data == recycled
        assert report.cache_hits == 0  # must NOT hit the dead entry
        assert engine.read(0).data == replacement
        assert check_engine(engine) == []

    def test_overwrite_then_gc_never_serves_stale(self, rng):
        """Hostile sequence from the issue: populate the cache, kill the
        chunks via overwrite, run GC (which compacts and repoints), keep
        writing so freed PBNs recycle — every read must reflect the
        latest write at every step."""
        engine = build_engine(cache_chunks=32, container_size=16 * 1024)
        rng_local = random.Random(0xCAFE)
        expected = {}

        def write(lba: int, tag: int) -> None:
            data = chunk_payload(rng_local, tag)
            expected[lba] = data
            engine.write(lba, data)

        for index in range(8):
            write(index * BLOCKS, index)
        engine.flush()
        for index in range(8):
            engine.read(index * BLOCKS)  # warm the cache

        # Overwrite half the region: kills old chunks, frees PBNs.
        for index in range(0, 8, 2):
            write(index * BLOCKS, 100 + index)
        engine.flush()
        assert engine.collect_garbage(threshold=0.3) > 0

        # Recycle freed PBNs onto brand-new LBAs.
        for index in range(8, 12):
            write(index * BLOCKS, 200 + index)

        for lba, data in expected.items():
            report = engine.read(lba)
            assert report.data == data, f"stale read at LBA {lba}"
        assert check_engine(engine) == []

    def test_gc_repoint_drops_cache_entries(self, rng):
        engine = build_engine(cache_chunks=32, container_size=16 * 1024)
        survivor_lbas = []
        for index in range(8):
            engine.write(index * BLOCKS, chunk_payload(rng, index))
            if index % 2:
                survivor_lbas.append(index * BLOCKS)
        engine.flush()
        for lba in survivor_lbas:
            engine.read(lba)
        # Kill the even chunks so their containers become GC victims.
        for index in range(0, 8, 2):
            engine.write(index * BLOCKS, chunk_payload(rng, 50 + index))
        engine.flush()

        before = dict(engine._read_cache or {})
        assert engine.collect_garbage(threshold=0.3) > 0
        after = engine._read_cache or {}
        # Conservative hygiene: repointed survivors left the cache even
        # though their bytes did not change.
        assert len(after) < len(before)

        for lba in survivor_lbas:
            assert engine.read(lba).data  # still the right bytes
        assert check_engine(engine) == []
