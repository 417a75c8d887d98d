"""Tests for the compression strategies."""

import pytest
from hypothesis import given, strategies as st

from repro.datared.codecs import decode_chunk
from repro.datared.compression import (
    CompressedChunk,
    ModeledCompressor,
    ZlibCompressor,
    compression_ratio,
)


class TestZlibCompressor:
    def test_roundtrip_compressible(self):
        compressor = ZlibCompressor()
        data = b"pattern" * 600
        chunk = compressor.compress(data)
        assert decode_chunk(chunk) == data
        assert chunk.stored_size < len(data)

    def test_incompressible_stored_raw(self, rng):
        compressor = ZlibCompressor()
        data = rng.randbytes(4096)
        chunk = compressor.compress(data)
        assert decode_chunk(chunk) == data
        # Raw escape: at most original size + tag accounting cap.
        assert chunk.stored_size <= len(data)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ZlibCompressor().compress(b"")

    def test_level_validation(self):
        with pytest.raises(ValueError):
            ZlibCompressor(level=10)

    def test_unknown_tag_rejected(self):
        compressor = ZlibCompressor()
        bogus = CompressedChunk(payload=b"\x07junk", logical_size=4, stored_size=5)
        with pytest.raises(ValueError):
            decode_chunk(bogus)

    def test_size_mismatch_detected(self):
        compressor = ZlibCompressor()
        chunk = compressor.compress(b"abcd" * 100)
        tampered = CompressedChunk(
            payload=chunk.payload, logical_size=9999, stored_size=chunk.stored_size
        )
        with pytest.raises(ValueError):
            decode_chunk(tampered)

    @given(st.binary(min_size=1, max_size=8192))
    def test_roundtrip_arbitrary(self, data):
        compressor = ZlibCompressor()
        assert decode_chunk(compressor.compress(data)) == data

    def test_half_compressible_lands_near_half(self, rng):
        data = rng.randbytes(2048) + b"\x00" * 2048
        chunk = ZlibCompressor().compress(data)
        assert 0.45 < chunk.stored_size / len(data) < 0.60


class TestZeroCopyIncompressiblePath:
    """DESIGN.md §5.4: the raw escape stores a *view* of the caller's
    buffer; the one sanctioned copy happens at the container boundary
    via ``materialize()``."""

    def test_raw_escape_borrows_the_callers_buffer(self, rng):
        compressor = ZlibCompressor()
        source = bytearray(rng.randbytes(4096))
        chunk = compressor.compress(source)
        assert chunk.prefix == ZlibCompressor._RAW
        assert type(chunk.payload) is memoryview
        assert chunk.payload.obj is source  # zero-copy, not a snapshot

    def test_materialize_freezes_the_bytes_before_mutation(self, rng):
        compressor = ZlibCompressor()
        source = bytearray(rng.randbytes(4096))
        original = bytes(source)
        chunk = compressor.compress(source)
        container_bytes = chunk.materialize()  # the defensive copy
        source[:16] = b"\xff" * 16  # caller reuses its buffer
        stored = CompressedChunk(
            payload=container_bytes,
            logical_size=chunk.logical_size,
            stored_size=chunk.stored_size,
        )
        assert decode_chunk(stored) == original

    def test_unmaterialized_view_tracks_mutation(self, rng):
        """The flip side: until materialize(), the chunk *is* the
        caller's buffer.  This pins down the ownership rule the engine
        relies on — copies happen exactly once, at container append."""
        compressor = ZlibCompressor()
        source = bytearray(rng.randbytes(4096))
        chunk = compressor.compress(source)
        source[:16] = b"\xee" * 16
        assert decode_chunk(chunk) == bytes(source)


class TestModeledCompressor:
    def test_reports_modeled_size_keeps_payload(self):
        compressor = ModeledCompressor(0.5)
        data = b"q" * 4096
        chunk = compressor.compress(data)
        assert chunk.stored_size == 2048
        assert decode_chunk(chunk) == data

    def test_ratio_validation(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                ModeledCompressor(bad)

    def test_minimum_one_byte(self):
        chunk = ModeledCompressor(0.001).compress(b"ab")
        assert chunk.stored_size >= 1

    @given(
        st.floats(min_value=0.05, max_value=1.0),
        st.binary(min_size=16, max_size=4096),
    )
    def test_modeled_size_proportional(self, ratio, data):
        chunk = ModeledCompressor(ratio).compress(data)
        assert chunk.stored_size == max(1, min(len(data), round(len(data) * ratio)))


class TestCompressedChunk:
    def test_validation(self):
        with pytest.raises(ValueError):
            CompressedChunk(payload=b"x", logical_size=0, stored_size=1)
        with pytest.raises(ValueError):
            CompressedChunk(payload=b"x", logical_size=1, stored_size=0)
        with pytest.raises(ValueError):
            CompressedChunk(payload=b"x", logical_size=1, stored_size=0x10000)


class TestCompressionRatio:
    def test_basic(self):
        assert compression_ratio(100, 50) == 0.5

    def test_empty_default(self):
        assert compression_ratio(0, 0, empty=1.0) == 1.0

    def test_empty_without_default_raises(self):
        with pytest.raises(ValueError):
            compression_ratio(0, 0)
