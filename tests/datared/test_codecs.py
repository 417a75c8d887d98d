"""The codec plugin API: registry behavior, 1-byte tag round-trips,
tag-dispatched reads independent of the configured write codec (the only
decoder there is), the one typed error every rotted payload draws,
the zlib codec's entropy gate (routing, format compatibility with the
ungated stream, the ratio it trades), mixed-codec containers — a
third-party codec's included — surviving reconfiguration and GC, and the
fingerprint seam."""

from __future__ import annotations

import array
import base64
import json
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datared import codecs
from repro.datared.codecs import (
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
    _probe,
)
from repro.datared.dedup import DedupEngine
from repro.datared.hashing import (
    SHA256,
    Fingerprinter,
    fingerprint,
    fingerprint_many,
)
from repro.errors import ChunkDecodeError, ErrorCode, error_code_for
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.workloads.content import ContentFactory

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
        assert codec_names() == ["modeled", "raw", "zlib"]

    def test_create_codec_builds_the_registered_type(self):
        assert isinstance(create_codec("zlib"), ZlibCompressor)
        assert isinstance(create_codec("raw"), RawCodec)
        assert isinstance(create_codec("modeled"), ModeledCompressor)

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
    @pytest.mark.parametrize("name", ["zlib", "raw", "modeled"])
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


# -- the adaptive codec: zlib's entropy gate --------------------------------


class UngatedZlib(Compressor):
    """The zlib codec as every commit before the gate wrote it — the
    whole chunk through one reused level-1 deflate.  The reference the
    gate is held against (same bytes, ratio traded) and the writer of
    pre-gate payloads."""

    name = "zlib-ungated"

    def __init__(self) -> None:
        self._squeezer = zlib.compressobj(1, zlib.DEFLATED, -12)

    def compress(self, data) -> CompressedChunk:
        size = len(data)
        payload = b"".join((
            b"\x01",
            self._squeezer.compress(data),
            self._squeezer.flush(zlib.Z_FULL_FLUSH),
        ))
        if len(payload) <= size:
            return CompressedChunk(payload, size, len(payload))
        return CompressedChunk(bytes(data), size, size, prefix=b"\x00")


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


def zlib_routes(registry: MetricsRegistry) -> dict:
    return {
        name.rsplit(".", 1)[1]: value
        for name, value in registry.snapshot()["counters"].items()
        if name.startswith("codec.zlib.chosen.")
    }


class TestAdaptiveCodec:
    """The per-chunk router these tests were written for is gone; its
    subjects — skip what will not shrink, count the routes, keep batch
    order — are the zlib codec's own now."""

    def test_routes_by_entropy_probe(self, rng):
        half = CHUNK // 2
        assert _probe(b"\x00" * CHUNK, CHUNK) == [(0, CHUNK, False)]
        assert _probe(b"\xa5" * CHUNK, CHUNK) == [(0, CHUNK, False)]
        assert _probe(make_chunk(rng), CHUNK) == [(0, CHUNK, True)]
        assert _probe(make_compressible_chunk(rng), CHUNK) == [
            (0, half, True), (half, CHUNK, False),
        ]
        # A random-looking segment whose head already occurred is LZ77's.
        blob, filler = make_chunk(rng, 1024), b"\xa5" * 1024
        assert _probe(blob + filler + blob + filler, CHUNK) == [
            (0, 1024, True), (1024, CHUNK, False),
        ]
        # ... within the deflate window only.
        far = blob + b"\xa5" * 8192 + blob
        assert _probe(far, CHUNK)[-1] == (len(far) - 1024, len(far), True)
        assert _probe(far, 4 * CHUNK)[-1] == (1024, len(far), False)
        # The remainder rides with the last whole segment.
        assert _probe(blob + filler + blob[:1000], 1) == [
            (0, 1024, True), (1024, 3048, False),
        ]

    def test_random_chunks_skip_compression(self, rng, monkeypatch):
        codec = ZlibCompressor()
        redundant = codec.compress(b"\xa5" * CHUNK)
        assert redundant.payload == UngatedZlib().compress(b"\xa5" * CHUNK).payload
        # The escape is reached without deflate ever seeing the chunk.
        monkeypatch.setattr(
            codec, "_squeezer", lambda: pytest.fail("deflate was called")
        )
        chunk = codec.compress(make_chunk(rng, CHUNK))
        assert chunk.prefix == bytes([TAG_RAW])
        assert chunk.stored_size == CHUNK

    def test_routing_publishes_counters(self, rng, registry):
        codec = ZlibCompressor()
        batch = [
            b"\x00" * CHUNK, make_chunk(rng), make_compressible_chunk(rng),
        ]
        with trace.enabled():
            trace.clear()
            redundant, random_, mixed = codec.compress_many(batch)
            (record,) = [
                r for r in trace.tail() if r.name == "compress.zlib"
            ]
        trace.clear()
        assert redundant.payload[0] == mixed.payload[0] == TAG_DEFLATE
        assert random_.prefix == bytes([TAG_RAW])
        assert mixed.stored_size < UngatedZlib().compress(batch[2]).stored_size
        assert zlib_routes(registry) == {"deflate": 1, "raw": 1, "mixed": 1}
        # The bytes that skipped, and reached, C deflate.
        assert record.tags == {
            "chunks": 3, "stored": CHUNK + CHUNK // 2,
            "deflated": CHUNK + CHUNK // 2,
        }
        # Per batch: a lone compress() counts nothing, a second batch
        # counts once more.
        codec.compress(batch[0])
        again = codec.compress_many(batch)
        assert [c.materialize() for c in again] == [
            c.materialize() for c in (redundant, random_, mixed)
        ]
        assert zlib_routes(registry) == {"deflate": 2, "raw": 2, "mixed": 2}

    def test_compress_many_preserves_order_and_counts(self, rng, registry):
        codec = ZlibCompressor()
        data = corpus(rng, 9)
        chunks = codec.compress_many(data)
        assert decode_many(chunks) == data
        assert [c.materialize() for c in chunks] == [
            codec.compress(d).materialize() for d in data
        ]
        assert zlib_routes(registry) == {"raw": 3, "mixed": 3, "deflate": 3}


def assemble(pieces) -> bytes:
    """Chunk content from ``(kind, seed, length)`` pieces."""
    out = []
    for kind, seed, length in pieces:
        rng = random.Random(seed)
        if kind == "random":
            out.append(rng.randbytes(length))
        elif kind == "constant":
            out.append(bytes([seed % 256]) * length)
        elif kind == "text":
            words = [b"chunk", b"dedup", b"table", b"cache", b"the", b"of"]
            line = b" ".join(rng.choice(words) for _ in range(length // 3 + 1))
            out.append(line[:length])
        else:  # a short random blob, repeated
            blob = rng.randbytes(1 + seed % 300)
            out.append((blob * (length // len(blob) + 1))[:length])
    return b"".join(out)


pieces = st.lists(
    st.tuples(
        st.sampled_from(["random", "constant", "text", "repeated"]),
        st.integers(0, 2**16),
        st.one_of(st.integers(1, 3000), st.sampled_from([1024, 2048, 4096])),
    ),
    min_size=1, max_size=8,
)


class TestGateFormat:
    """Whatever the gate decides, the stored form is the one every
    earlier reader already decodes: plain raw deflate behind tag 0x01,
    or the shared raw escape."""

    @staticmethod
    def check(codec: ZlibCompressor, data: bytes) -> None:
        chunk = codec.compress(data)
        stored = chunk.materialize()
        assert chunk.stored_size <= chunk.logical_size == len(data)
        assert decode_chunk(chunk) == data
        assert decode_chunk(as_container_chunk(chunk)) == data
        if stored[0] == TAG_DEFLATE:
            assert chunk.stored_size == len(stored)
            assert zlib.decompressobj(-15).decompress(stored[1:]) == data
        else:  # the escape's tag byte is not charged
            assert stored[0] == TAG_RAW and stored[1:] == data
        for shape in (bytearray(data), memoryview(bytearray(data))):
            assert codec.compress(shape).materialize() == stored

    @settings(max_examples=150, deadline=None)
    @given(pieces)
    def test_any_mix_of_content_round_trips(self, parts):
        self.check(ZlibCompressor(), assemble(parts))

    @pytest.mark.parametrize("size", [
        1, 15, 16, 17, 63, 64, 1023, 1024, 1025, 2047, 2048, 4095, 4097,
        65535, 65536, 70000,
    ])
    def test_sizes_around_every_boundary(self, size, rng):
        codec = ZlibCompressor()
        for data in (
            b"\xa5" * size,
            make_compressible_chunk(rng, size),
            (b"\xa5" * (size // 3)) + make_chunk(rng, size - size // 3),
        ):
            self.check(codec, data)
        if size <= 0xFFFF:
            self.check(codec, make_chunk(rng, size))
        else:  # the PBN-PBA entry's 2-byte size field, as before the gate
            with pytest.raises(ValueError, match="2-byte field"):
                codec.compress(make_chunk(rng, size))

    def test_a_long_incompressible_run_is_split_into_stored_blocks(self, rng):
        # 68 KiB random + 2 KiB constant: one stored run longer than a
        # stored block's 16-bit LEN can say.
        run = 68 * 1024
        data = make_chunk(rng, run) + b"\xa5" * 2048
        payload = ZlibCompressor()._emit(
            data, [(0, run, True), (run, len(data), False)]
        )
        assert payload[:6] == b"\x01\x00\xff\xff\x00\x00"
        second = 6 + 0xFFFF
        assert payload[second:second + 5] == b"\x00" + (
            (run - 0xFFFF).to_bytes(2, "little")
            + ((run - 0xFFFF) ^ 0xFFFF).to_bytes(2, "little")
        )
        assert zlib.decompressobj(-15).decompress(payload[1:]) == data

    def test_batched_and_single_chunks_are_byte_identical(self, rng):
        codec = ZlibCompressor()
        batch = [
            assemble([("random", seed, 1500), ("text", seed, 1100),
                      ("random", seed + 1, 1024), ("constant", seed, 472)])
            for seed in range(24)
        ] + corpus(rng, 8)
        batched = [c.materialize() for c in codec.compress_many(batch)]
        assert batched == [codec.compress(data).materialize() for data in batch]

    def test_a_payload_the_parent_commit_wrote_still_decodes(self):
        # ZlibCompressor().compress(data).materialize() at 5d8d0cf.
        data = bytes(range(0, 256, 4)) + b"\xa5" * (CHUNK - 64)
        stored = bytes.fromhex(
            "016260e1e0111091905150d1d03130b1b07170f1f0090889884948c9c82928"
            "a9a86968e9e8993065c69c054b56acd9b065c79e03474e9cb970e5c69d074f"
            "5ebcf9f0e5c79fa5a36034044643603404464360340446436034044643603404"
            "46436034044643603404464360d08700000000ffff"
        )
        chunk = CompressedChunk(stored, CHUNK, len(stored))
        assert decode_chunk(chunk) == data
        assert decode_chunk(ZlibCompressor().compress(data)) == data


def content_classes(count: int = 8) -> dict:
    """Fixed-seed chunks of ten content classes (EXPERIMENTS.md, PR 24)."""
    rng = random.Random(24)
    factory = ContentFactory()
    words = [
        bytes(rng.choices(b"abcdefghijklmnopqrstuvwxyz", k=rng.randint(2, 9)))
        for _ in range(300)
    ]

    def text() -> bytes:
        return b" ".join(rng.choice(words) for _ in range(1200))[:CHUNK]

    def jsonish() -> bytes:
        rows = [
            {"id": rng.randrange(10**6), "name": rng.choice(words).decode(),
             "ok": rng.random() < 0.5, "score": round(rng.random(), 3)}
            for _ in range(120)
        ]
        return json.dumps(rows).encode()[:CHUNK]

    def packed(code: str, width: int, draw) -> bytes:
        return array.array(code, (draw() for _ in range(CHUNK // width))).tobytes()

    ids = iter(range(count))
    makers = {
        "half-and-half": lambda: factory.chunk(next(ids)),
        "all-random": lambda: rng.randbytes(CHUNK),
        "zeros": lambda: bytes(CHUNK),
        "text": text,
        "json": jsonish,
        "base64": lambda: base64.b64encode(rng.randbytes(3 * CHUNK // 4)),
        "interleaved": lambda: b"".join(
            rng.randbytes(32) + b"\xa5" * 32 for _ in range(CHUNK // 64)
        ),
        "repeated-random": lambda: (rng.randbytes(1000) * 5)[:CHUNK],
        "float64-gauss": lambda: packed("d", 8, lambda: rng.gauss(0, 1)),
        "float32-uniform": lambda: packed("f", 4, rng.random),
    }
    return {name: [make() for _ in range(count)] for name, make in makers.items()}


class TestGateRatio:
    """What the heuristic costs, written down (DESIGN.md §5.6): nothing
    on homogeneous content, a gain on the served half-and-half chunks,
    and a measured loss on three classes."""

    classes = content_classes()

    @staticmethod
    def ratios(chunks) -> tuple:
        gated, ungated = ZlibCompressor(), UngatedZlib()
        size = sum(len(c) for c in chunks)
        return (
            sum(gated.compress(c).stored_size for c in chunks) / size,
            sum(ungated.compress(c).stored_size for c in chunks) / size,
        )

    @pytest.mark.parametrize(
        "name", ["zeros", "text", "json", "base64", "interleaved"]
    )
    def test_homogeneous_content_is_byte_for_byte_the_ungated_stream(self, name):
        gated, ungated = ZlibCompressor(), UngatedZlib()
        for data in self.classes[name]:
            assert (
                gated.compress(data).materialize()
                == ungated.compress(data).materialize()
            )

    def test_half_and_half_stores_less_than_ungated(self):
        gated, ungated = self.ratios(self.classes["half-and-half"])
        assert gated < ungated
        assert gated == pytest.approx(0.509, abs=0.003)

    def test_random_is_the_raw_escape_either_way(self):
        assert self.ratios(self.classes["all-random"]) == (1.0, 1.0)

    @pytest.mark.parametrize("name, gated, ungated", [
        # Sampled every 16th byte, an array of floats shows only its
        # low mantissa bytes: random.
        ("float64-gauss", 1.000, 0.969),
        ("float32-uniform", 0.999, 0.907),
        # Copy 1 is stored, so copy 2 has nothing to match against.
        ("repeated-random", 0.509, 0.267),
    ])
    def test_where_the_gate_trades_ratio(self, name, gated, ungated):
        measured = self.ratios(self.classes[name])
        assert measured == pytest.approx((gated, ungated), abs=0.01)


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
        # One container, five writers — the pre-gate zlib stream among
        # them: the write codec is reconfigured between phases, some LBAs
        # are overwritten (garbage for GC), and every chunk reads back by
        # its tag — before and after the one compaction — whatever codec
        # is configured at the time.
        dictionary = preset_dictionary_codec.dictionary
        engine = DedupEngine(num_buckets=256)
        expected = {}
        lba = 0
        for name in ("preset-dictionary", "zlib", "raw", "modeled",
                     "zlib-ungated", "preset-dictionary"):
            engine.compressor = (
                UngatedZlib() if name == "zlib-ungated" else create_codec(name)
            )
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
        # Phase 1: write the stream every commit before the entropy gate
        # wrote.  Phase 2: reconfigure to today's zlib codec, overwrite
        # half the LBAs and add new ones.  Every read — before and after
        # GC compaction — must return exact bytes, with containers now
        # holding pre-gate and gated payloads side by side.
        engine = DedupEngine(num_buckets=256, compressor=UngatedZlib())
        first = {
            lba * 8: make_compressible_chunk(rng, CHUNK) for lba in range(6)
        }
        for lba, data in first.items():
            engine.write(lba, data)

        engine.compressor = create_codec("zlib")
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


# -- differential: one batch / one write per chunk, every codec -------------


class TestBatchDifferential:
    @pytest.mark.parametrize("name", codec_names())
    def test_per_chunk_writes_match_one_batch(self, name, rng):
        requests = []
        lba = 0
        for data in corpus(rng, 8) + [b"\x07" * CHUNK]:
            requests.append((lba, data))
            lba += CHUNK // 512
        requests.append(requests[1])  # a duplicate write

        def run(batched):
            engine = DedupEngine(num_buckets=256, compressor=create_codec(name))
            if batched:
                engine.write_many(requests)
            else:
                for request in requests:
                    engine.write(*request)
            reads = [engine.read(lba, 1).data for lba, _ in requests]
            # The reduction ledger: index probe counts differ by design
            # (a batch resolves each distinct digest once).
            return reads, engine.stats

        batch_reads, batch_stats = run(True)
        assert batch_reads == [data for _, data in requests]
        assert run(False) == (batch_reads, batch_stats)


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

    def test_digest_many_matches_digest(self, rng):
        class Counting(Fingerprinter):
            def digest(self, data) -> bytes:
                return fingerprint(data)

        batch = corpus(rng, 6)
        expected = [fingerprint(data) for data in batch]
        for algo in (SHA256, Counting()):
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
