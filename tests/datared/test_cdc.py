"""Tests for content-defined chunking."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.datared.cdc import GearChunker


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

