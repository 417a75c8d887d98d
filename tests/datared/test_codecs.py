"""The codec plugin API: registry behavior, 1-byte tag round-trips,
tag-dispatched reads independent of the configured write codec (the only
decoder there is), the one typed error every rotted payload draws,
mixed-codec containers — a third-party codec's included — surviving
reconfiguration and GC, and the fingerprint seam."""

from __future__ import annotations

import zlib

import pytest

from repro.datared import codecs
from repro.datared.codecs import (
    AdaptiveCodec,
    RawCodec,
    TAG_DEFLATE,
    TAG_MODELED,
    TAG_RAW,
    codec_names,
    create_codec,
    decode_chunk,
    decode_many,
    register_codec,
    register_decoder,
)
from repro.datared.compression import (
    CompressedChunk,
    Compressor,
    ModeledCompressor,
    ZlibCompressor,
)
from repro.datared.dedup import DedupEngine
from repro.datared.hashing import (
    SHA256,
    Fingerprinter,
    fingerprint,
    fingerprint_many,
)
from repro.errors import ChunkDecodeError, ErrorCode, error_code_for
from repro.obs.metrics import MetricsRegistry
from repro.parallel import StagePool

CHUNK = 4096


def make_chunk(rng, size: int = CHUNK) -> bytes:
    """A random (incompressible) chunk."""
    return rng.randbytes(size)


def make_compressible_chunk(rng, size: int = CHUNK) -> bytes:
    """Half random, half zeros: medium entropy, compresses about 2:1."""
    head = rng.randbytes(size // 2)
    return head + b"\x00" * (size - len(head))


def corpus(rng, count: int = 8):
    """A deterministic mix of incompressible/compressible/zero chunks."""
    chunks = []
    for index in range(count):
        if index % 3 == 0:
            chunks.append(make_chunk(rng, CHUNK))
        elif index % 3 == 1:
            chunks.append(make_compressible_chunk(rng, CHUNK))
        else:
            chunks.append(b"\x00" * CHUNK)
    return chunks


def as_container_chunk(chunk: CompressedChunk) -> CompressedChunk:
    """Re-shape a fresh chunk the way the container read path sees it:
    tag folded into the payload bytes, no prefix."""
    return CompressedChunk(
        payload=chunk.materialize(),
        logical_size=chunk.logical_size,
        stored_size=chunk.stored_size,
    )


# -- registry ---------------------------------------------------------------


class TestCodecRegistry:
    def test_builtin_codecs_are_registered(self):
        assert codec_names() == ["adaptive", "modeled", "raw", "zlib"]

    def test_create_codec_builds_the_registered_type(self):
        assert isinstance(create_codec("zlib"), ZlibCompressor)
        assert isinstance(create_codec("raw"), RawCodec)
        assert isinstance(create_codec("modeled"), ModeledCompressor)
        assert isinstance(create_codec("adaptive"), AdaptiveCodec)

    def test_create_codec_forwards_params(self):
        modeled = create_codec("modeled", ratio=0.25)
        chunk = modeled.compress(b"\x00" * CHUNK)
        assert chunk.stored_size == CHUNK // 4

    def test_unknown_codec_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown codec"):
            create_codec("snappy")

    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_codec("zlib", ZlibCompressor)

    def test_empty_name_is_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            register_codec("", ZlibCompressor)

    def test_replace_allows_reregistration(self):
        register_codec("zlib", ZlibCompressor, replace=True)
        assert isinstance(create_codec("zlib"), ZlibCompressor)

# -- tag round-trips --------------------------------------------------------


class TestTagRoundTrips:
    @pytest.mark.parametrize("name", ["zlib", "raw", "modeled", "adaptive"])
    def test_fresh_and_container_chunks_decode(self, name, rng):
        codec = create_codec(name)
        for data in corpus(rng):
            fresh = codec.compress(data)
            assert decode_chunk(fresh) == data
            assert decode_chunk(as_container_chunk(fresh)) == data

    def test_fresh_chunks_carry_the_tag(self, rng):
        compressible = make_compressible_chunk(rng, CHUNK)
        # zlib's deflate branch folds the tag into the payload in one
        # join (materialize() is then a no-op); the others keep it in
        # the prefix and borrow the caller's buffer.
        zlib_chunk = create_codec("zlib").compress(compressible)
        assert zlib_chunk.prefix == b""
        assert zlib_chunk.payload[0] == TAG_DEFLATE
        assert create_codec("raw").compress(compressible).prefix == bytes(
            [TAG_RAW]
        )
        assert create_codec("modeled").compress(compressible).prefix == bytes(
            [TAG_MODELED]
        )

    def test_incompressible_chunks_share_the_raw_escape(self, rng):
        data = make_chunk(rng, CHUNK)
        chunk = create_codec("zlib").compress(data)
        assert chunk.prefix == bytes([TAG_RAW])
        assert chunk.stored_size == CHUNK
        assert decode_chunk(chunk) == data

    def test_raw_codec_never_compresses(self, rng):
        chunk = create_codec("raw").compress(b"\x00" * CHUNK)
        assert chunk.stored_size == CHUNK
        assert chunk.prefix == bytes([TAG_RAW])

    def test_decode_many_preserves_order(self, rng):
        codec = create_codec("zlib")
        data = corpus(rng, 12)
        chunks = [as_container_chunk(codec.compress(d)) for d in data]
        assert decode_many(chunks) == data

    def test_decode_many_fans_out_on_a_pool(self, rng):
        codec = create_codec("zlib")
        data = corpus(rng, 12)
        chunks = [as_container_chunk(codec.compress(d)) for d in data]
        pool = StagePool(2)
        try:
            assert decode_many(chunks, pool=pool) == data
        finally:
            pool.shutdown()


# -- the one decode error ---------------------------------------------------


class TestDecodeErrors:
    """Every way a stored payload can have rotted is one typed storage
    fault — ``INTERNAL`` on the wire, never the client's ``BAD_REQUEST``."""

    @staticmethod
    def assert_typed(chunk: CompressedChunk, match: str) -> ChunkDecodeError:
        with pytest.raises(ChunkDecodeError, match=match) as caught:
            decode_chunk(chunk)
        assert isinstance(caught.value, ValueError)
        assert error_code_for(caught.value) is ErrorCode.INTERNAL
        return caught.value

    def test_unknown_tag(self):
        chunk = CompressedChunk(
            payload=b"\x7fbody", logical_size=4, stored_size=5
        )
        self.assert_typed(chunk, "unknown codec tag 0x7f")

    @pytest.mark.parametrize("tag, name", [(0x02, "zstd"), (0x03, "lz4")])
    def test_retired_tags_name_their_codec(self, tag, name):
        for chunk in (
            CompressedChunk(b"frame", CHUNK, 6, prefix=bytes([tag])),
            CompressedChunk(bytes([tag]) + b"frame", CHUNK, 6),
        ):
            self.assert_typed(chunk, f"0x{tag:02x}.*retired '{name}'")

    def test_wrong_length(self):
        # Tagged raw, but one byte short of the logical size.
        chunk = CompressedChunk(
            payload=b"\x00" * CHUNK, logical_size=CHUNK, stored_size=CHUNK
        )
        self.assert_typed(chunk, f"{CHUNK - 1} bytes, expected {CHUNK}")

    def test_undecodable_body_chains_the_backend_error(self):
        chunk = CompressedChunk(
            payload=b"\x01not deflate", logical_size=CHUNK, stored_size=12
        )
        error = self.assert_typed(chunk, "0x01 body does not decode")
        assert isinstance(error.__cause__, zlib.error)

    def test_empty_payload(self):
        chunk = CompressedChunk(payload=b"", logical_size=CHUNK, stored_size=1)
        self.assert_typed(chunk, "empty stored payload")

    def test_decode_many_raises_it_too(self, rng):
        good = as_container_chunk(create_codec("zlib").compress(bytes(CHUNK)))
        bad = CompressedChunk(payload=b"\x7f", logical_size=CHUNK, stored_size=1)
        with pytest.raises(ChunkDecodeError):
            decode_many([good, bad, good])


class TestRegisterDecoder:
    def test_new_tag_dispatches(self):
        tag = 0x7E

        def decode(chunk: CompressedChunk) -> bytes:
            return bytes(chunk.payload[1:])

        register_decoder(tag, decode)
        try:
            chunk = CompressedChunk(
                payload=bytes([tag]) + b"data", logical_size=4, stored_size=5
            )
            assert decode_chunk(chunk) == b"data"
        finally:
            codecs._DECODERS.pop(tag, None)

    def test_allocated_tag_is_protected(self):
        with pytest.raises(ValueError, match="already allocated"):
            register_decoder(TAG_DEFLATE, lambda chunk: b"")

    @pytest.mark.parametrize("tag", [0x02, 0x03])
    def test_retired_tags_are_never_reallocated(self, tag):
        with pytest.raises(ValueError, match="already allocated"):
            register_decoder(tag, lambda chunk: b"")
        assert tag not in codecs._DECODERS

    def test_replace_takes_an_allocated_tag(self):
        original = codecs._DECODERS[TAG_MODELED]
        try:
            register_decoder(TAG_MODELED, lambda chunk: b"x", replace=True)
            chunk = CompressedChunk(
                payload=bytes([TAG_MODELED]), logical_size=1, stored_size=1
            )
            assert decode_chunk(chunk) == b"x"
        finally:
            register_decoder(TAG_MODELED, original, replace=True)

    def test_tag_must_fit_one_byte(self):
        with pytest.raises(ValueError, match="one byte"):
            register_decoder(0x100, lambda chunk: b"")
        with pytest.raises(ValueError, match="one byte"):
            register_decoder(-1, lambda chunk: b"")


# -- the adaptive codec -----------------------------------------------------


class TestAdaptiveCodec:
    def test_routes_by_entropy_probe(self, rng):
        codec = AdaptiveCodec()
        assert codec.primary.name == "zlib" and codec.skip.name == "raw"
        assert codec._route(b"\x00" * CHUNK) is codec.primary
        assert codec._route(make_compressible_chunk(rng, CHUNK)) is codec.primary
        assert codec._route(make_chunk(rng, CHUNK)) is codec.skip

    def test_random_chunks_skip_compression(self, rng):
        codec = AdaptiveCodec()
        chunk = codec.compress(make_chunk(rng, CHUNK))
        assert chunk.prefix == bytes([TAG_RAW])
        assert chunk.stored_size == CHUNK

    def test_routing_publishes_counters(self, rng):
        registry = MetricsRegistry()
        codec = AdaptiveCodec(registry=registry)
        redundant = codec.compress(b"\x00" * CHUNK)
        random_ = codec.compress(make_chunk(rng, CHUNK))
        assert redundant.payload[0] == TAG_DEFLATE
        assert random_.prefix == bytes([TAG_RAW])
        counters = registry.snapshot()["counters"]
        assert {
            name: value for name, value in counters.items()
            if name.startswith("codec.adaptive.")
        } == {
            "codec.adaptive.chosen.zlib": 1,
            "codec.adaptive.chosen.raw": 1,
        }

    def test_compress_many_preserves_order_and_counts(self, rng):
        registry = MetricsRegistry()
        codec = AdaptiveCodec(registry=registry)
        data = corpus(rng, 9)
        chunks = codec.compress_many(data)
        assert decode_many(chunks) == data
        total = sum(
            registry.counter(f"codec.adaptive.chosen.{target.name}").value
            for target in (codec.skip, codec.primary)
        )
        assert total == len(data)

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="probe_bytes"):
            AdaptiveCodec(probe_bytes=4)
        with pytest.raises(ValueError, match="raw_threshold"):
            AdaptiveCodec(raw_threshold=0.0)


# -- engine-level mixed-codec containers ------------------------------------


class PresetDictionaryCodec(Compressor):
    """A third-party codec whose decode needs out-of-band state: raw
    DEFLATE primed with a preset dictionary only the instance holds, so
    it registers its *bound* :meth:`decode` under its own tag."""

    name = "preset-dictionary"
    TAG = 0x7D

    def __init__(self, dictionary: bytes = b"") -> None:
        self.dictionary = dictionary

    def compress(self, data) -> CompressedChunk:
        squeezer = zlib.compressobj(1, zlib.DEFLATED, -15, zdict=self.dictionary)
        body = squeezer.compress(data) + squeezer.flush()
        return CompressedChunk(
            payload=body,
            logical_size=len(data),
            stored_size=1 + len(body),
            prefix=bytes([self.TAG]),
        )

    def decode(self, chunk: CompressedChunk) -> bytes:
        body = chunk.payload if chunk.prefix else memoryview(chunk.payload)[1:]
        inflater = zlib.decompressobj(-15, zdict=self.dictionary)
        return inflater.decompress(body)


@pytest.fixture
def preset_dictionary_codec(rng):
    codec = PresetDictionaryCodec(dictionary=rng.randbytes(CHUNK // 2))
    register_codec(codec.name, lambda: codec)
    register_decoder(codec.TAG, codec.decode)
    try:
        yield codec
    finally:
        codecs._CODECS.pop(codec.name, None)
        codecs._DECODERS.pop(codec.TAG, None)


class TestMixedCodecEngine:
    def test_third_party_codec_shares_a_container_with_the_builtins(
        self, rng, preset_dictionary_codec
    ):
        # One container, five writers: the write codec is reconfigured
        # between phases, some LBAs are overwritten (garbage for GC), and
        # every chunk reads back by its tag — before and after the one
        # compaction — whatever codec is configured at the time.
        dictionary = preset_dictionary_codec.dictionary
        engine = DedupEngine(num_buckets=256)
        expected = {}
        lba = 0
        for name in ("preset-dictionary", "zlib", "raw", "modeled",
                     "adaptive", "preset-dictionary"):
            engine.compressor = create_codec(name)
            for data in (
                dictionary + make_chunk(rng, CHUNK // 2),  # dictionary-bound
                make_compressible_chunk(rng),
                make_chunk(rng),
            ):
                expected[lba] = data
                engine.write(lba, data)
                lba += 1
            for stale in list(expected)[::4]:  # overwrite: dead chunks
                expected[stale] = make_compressible_chunk(rng)
                engine.write(stale, expected[stale])
        engine.flush()
        assert engine.containers.container_count == 1

        def read_all():
            return {at: engine.read(at, 1).data for at in expected}

        engine.compressor = create_codec("zlib")
        assert read_all() == expected
        assert engine.collect_garbage(threshold=0.01) == 1
        assert read_all() == expected
        assert engine.read(0, lba).data == b"".join(
            expected[at] for at in sorted(expected)
        )

        # The dictionary really is out of band: a decoder without it
        # draws the typed error, as does the tag once nobody claims it.
        register_decoder(
            PresetDictionaryCodec.TAG, PresetDictionaryCodec().decode,
            replace=True,
        )
        with pytest.raises(ChunkDecodeError, match="0x7d body does not decode"):
            read_all()
        del codecs._DECODERS[PresetDictionaryCodec.TAG]
        with pytest.raises(ChunkDecodeError, match="unknown codec tag 0x7d"):
            read_all()

    def test_reconfigure_overwrite_and_gc(self, rng):
        # Phase 1: write with zlib.  Phase 2: reconfigure to a different
        # codec, overwrite half the LBAs and add new ones.  Every read —
        # before and after GC compaction — must return exact bytes, with
        # containers now holding chunks from both codecs.
        engine = DedupEngine(num_buckets=256, compressor=create_codec("zlib"))
        first = {
            lba * 8: make_compressible_chunk(rng, CHUNK) for lba in range(6)
        }
        for lba, data in first.items():
            engine.write(lba, data)

        engine.compressor = create_codec("adaptive")
        expected = dict(first)
        for lba in list(first)[::2]:
            expected[lba] = make_chunk(rng, CHUNK)
            engine.write(lba, expected[lba])
        for lba in range(6, 10):
            expected[lba * 8] = make_compressible_chunk(rng, CHUNK)
            engine.write(lba * 8, expected[lba * 8])

        for lba, data in expected.items():
            assert engine.read(lba, 1).data == data

        engine.collect_garbage(threshold=0.01)
        for lba, data in expected.items():
            assert engine.read(lba, 1).data == data

    def test_modeled_chunks_flow_through_the_tag_path(self, rng):
        # Satellite: ModeledCompressor emits tag 0x04 chunks that decode
        # via the registry even when the engine is later reconfigured.
        engine = DedupEngine(
            num_buckets=256, compressor=ModeledCompressor(0.5)
        )
        data = make_chunk(rng, CHUNK)
        engine.write(0, data)
        engine.compressor = create_codec("zlib")
        assert engine.read(0, 1).data == data
        snap = engine.stats_snapshot()
        assert snap.stored_bytes == CHUNK // 2  # modeled accounting held


# -- differential: serial / thread pool, every codec ------------------------


class TestExecutorDifferential:
    @pytest.mark.parametrize("name", codec_names())
    def test_bytes_and_ledgers_identical_across_backends(self, name, rng):
        requests = []
        lba = 0
        for data in corpus(rng, 8) + [b"\x07" * CHUNK]:
            requests.append((lba, data))
            lba += CHUNK // 512
        requests.append(requests[1])  # a duplicate write

        def run(pool):
            engine = DedupEngine(
                num_buckets=256, compressor=create_codec(name), pool=pool
            )
            engine.write_many(requests)
            reads = [engine.read(lba, 1).data for lba, _ in requests]
            return reads, engine.stats_snapshot()

        serial_reads, serial_stats = run(None)
        assert serial_reads == [data for _, data in requests]

        with StagePool(2, min_slice_items=1) as pool:
            reads, stats = run(pool)
            assert pool._slices_dispatched.value > 0
        assert reads == serial_reads
        assert stats == serial_stats


# -- the fingerprint seam ---------------------------------------------------


class TestFingerprinterRegistry:
    def test_sha256_matches_module_functions(self, rng):
        data = make_chunk(rng, CHUNK)
        assert SHA256.digest(data) == fingerprint(data)
        batch = corpus(rng, 5)
        assert SHA256.digest_many(batch) == fingerprint_many(batch)

    def test_wrong_digest_width_is_rejected(self):
        class Short(Fingerprinter):
            name = "short"
            digest_size = 16

            def digest(self, data) -> bytes:
                return fingerprint(data)[:16]

        with pytest.raises(ValueError, match="32"):
            DedupEngine(num_buckets=256, fingerprinter=Short())

    def test_digest_many_fans_out_on_thread_pools_only(self, rng):
        class Counting(Fingerprinter):
            def digest(self, data) -> bytes:
                return fingerprint(data)

        batch = corpus(rng, 6)
        expected = [fingerprint(data) for data in batch]
        with StagePool(2, min_slice_items=1) as pool:
            for algo in (SHA256, Counting()):
                before = pool._slices_dispatched.value
                assert algo.digest_many(batch, pool=pool) == expected
                assert pool._slices_dispatched.value > before
                assert algo.digest_many(batch) == expected

    def test_engine_accepts_an_injected_fingerprinter(self, rng):
        class Counting(Fingerprinter):
            calls = 0

            def digest(self, data) -> bytes:
                Counting.calls += 1
                return fingerprint(data)

        default = DedupEngine(num_buckets=256)
        injected = DedupEngine(num_buckets=256, fingerprinter=Counting())
        data = make_chunk(rng, CHUNK)
        for engine in (default, injected):
            engine.write(0, data)
            engine.write(8, data)
        assert Counting.calls == 2
        assert injected.stats_snapshot() == default.stats_snapshot()
