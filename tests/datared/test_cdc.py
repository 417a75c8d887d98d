"""Tests for content-defined chunking and the CDC store."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.datared.cdc import CdcDedupStore, GearChunker
from repro.datared.compression import ModeledCompressor


class TestGearChunker:
    def test_empty(self):
        assert GearChunker().split(b"") == []

    def test_reassembles(self, rng):
        data = rng.randbytes(50_000)
        chunks = GearChunker().split(data)
        assert b"".join(chunks) == data

    def test_size_bounds(self, rng):
        chunker = GearChunker(min_size=512, avg_size=2048, max_size=8192)
        chunks = chunker.split(rng.randbytes(100_000))
        # All but the final chunk respect the minimum; all respect max.
        assert all(len(chunk) >= 512 for chunk in chunks[:-1])
        assert all(len(chunk) <= 8192 for chunk in chunks)

    def test_mean_size_near_target(self, rng):
        chunker = GearChunker(min_size=1024, avg_size=4096, max_size=16384)
        chunks = chunker.split(rng.randbytes(400_000))
        mean = sum(len(chunk) for chunk in chunks) / len(chunks)
        # Geometric past the minimum: mean ≈ min + avg, loosely.
        assert 2500 < mean < 9000

    def test_deterministic(self, rng):
        data = rng.randbytes(20_000)
        assert GearChunker().split(data) == GearChunker().split(data)

    def test_boundaries_survive_prefix_insertion(self, rng):
        """The CDC property: a shifted stream re-synchronizes."""
        chunker = GearChunker()
        data = rng.randbytes(100_000)
        original = {bytes(chunk) for chunk in chunker.split(data)}
        shifted = {bytes(chunk) for chunk in chunker.split(b"PREFIX" + data)}
        shared = original & shifted
        assert len(shared) >= 0.7 * len(original)

    def test_fixed_chunking_would_not_survive_shift(self, rng):
        data = rng.randbytes(100_000)
        fixed = {data[i : i + 4096] for i in range(0, len(data), 4096)}
        shifted_data = b"P" + data
        shifted = {
            shifted_data[i : i + 4096]
            for i in range(0, len(shifted_data), 4096)
        }
        assert len(fixed & shifted) == 0

    def test_bytes_scanned_counts_input(self, rng):
        chunker = GearChunker()
        chunker.split(rng.randbytes(12_345))
        assert chunker.bytes_scanned == 12_345

    def test_validation(self):
        with pytest.raises(ValueError):
            GearChunker(min_size=0)
        with pytest.raises(ValueError):
            GearChunker(min_size=100, avg_size=50)
        with pytest.raises(ValueError):
            GearChunker(avg_size=3000)  # not a power of two

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=0, max_size=60_000))
    def test_split_partitions_arbitrary_input(self, data):
        chunks = GearChunker(min_size=64, avg_size=1024, max_size=4096).split(data)
        assert b"".join(chunks) == data
        assert all(chunks)  # no empty chunks


class TestCdcDedupStore:
    def test_roundtrip(self, rng):
        store = CdcDedupStore(compressor=ModeledCompressor(0.5))
        data = rng.randbytes(30_000)
        store.write_stream("s", data)
        assert store.read_stream("s") == data

    def test_the_raw_escape_keeps_its_tag_in_the_container(self, rng):
        # Incompressible chunks take zlib's raw escape, whose tag rides
        # in the chunk's prefix: the store must write it with the body.
        store = CdcDedupStore()
        data = rng.randbytes(30_000)
        store.write_stream("s", data)
        assert store.read_stream("s") == data

    def test_identical_streams_fully_dedupe(self, rng):
        store = CdcDedupStore(compressor=ModeledCompressor(0.5))
        data = rng.randbytes(30_000)
        store.write_stream("a", data)
        before = store.stats.unique_chunks
        store.write_stream("b", data)
        assert store.stats.unique_chunks == before
        assert store.read_stream("b") == data

    def test_shifted_stream_mostly_dedupes(self, rng):
        store = CdcDedupStore(compressor=ModeledCompressor(0.5))
        data = rng.randbytes(80_000)
        store.write_stream("orig", data)
        uniques_before = store.stats.unique_chunks
        store.write_stream("shifted", b"HEADER" + data)
        new_uniques = store.stats.unique_chunks - uniques_before
        assert new_uniques <= 4  # only the chunks around the edit
        assert store.read_stream("shifted") == b"HEADER" + data

    def test_unknown_stream(self):
        with pytest.raises(KeyError):
            CdcDedupStore().read_stream("ghost")

    def test_stream_listing_and_replace(self, rng):
        store = CdcDedupStore(compressor=ModeledCompressor(0.5))
        store.write_stream("x", rng.randbytes(5000))
        replacement = rng.randbytes(5000)
        store.write_stream("x", replacement)
        assert store.streams() == ["x"]
        assert store.read_stream("x") == replacement

    def test_reduction_factor(self, rng):
        store = CdcDedupStore(compressor=ModeledCompressor(0.5))
        data = rng.randbytes(20_000)
        store.write_stream("a", data)
        store.write_stream("b", data)
        # 2x from dedup, 2x from compression.
        assert store.stats.reduction_factor == pytest.approx(4.0, rel=0.1)
