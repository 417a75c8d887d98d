"""Chunk compression (paper §2.1, §5.2.2).

The FIDR prototype compresses unique chunks on a dedicated FPGA engine.
Here the *encode* side is a pluggable strategy with two implementations
in this module (decoding is by stored tag byte, in
:func:`repro.datared.codecs.decode_chunk`, whatever codec wrote it):

* :class:`ZlibCompressor` — real DEFLATE compression.  Used by the
  functional storage server and all correctness tests: data written
  through the system is genuinely compressed and decompressed.
* :class:`ModeledCompressor` — stores payloads verbatim but reports a
  compressed size from the workload's declared compressibility.  Used by
  large performance sweeps where running DEFLATE over hundreds of GB of
  synthetic content would dominate run time without changing any result
  (only sizes feed the performance model).

Both produce :class:`CompressedChunk`, which carries the logical size,
the *stored* size used for capacity/bandwidth accounting, and enough to
reconstruct the original bytes exactly.

Hot-path discipline (DESIGN.md §5.4): the incompressible escape stores
a :class:`memoryview` of the *caller's* buffer, valid only until that
buffer changes; :meth:`CompressedChunk.materialize` at the container
boundary takes the one defensive copy.
"""

from __future__ import annotations

import struct
import threading
import zlib
from typing import List, Optional, Sequence, Tuple, Union

from ..obs import metrics as _metrics
from ..obs import trace as _trace

__all__ = [
    "CompressedChunk",
    "Compressor",
    "ZlibCompressor",
    "ModeledCompressor",
    "compression_ratio",
]

#: Anything a compressor accepts as chunk content.
Buffer = Union[bytes, bytearray, memoryview]


class CompressedChunk:
    """A compressed chunk payload plus its size accounting.

    ``stored_size`` is the number of bytes the chunk occupies in a
    container on the data SSDs (2-byte field in the PBN-PBA table entry,
    §2.1.4).  ``payload`` round-trips through
    :func:`repro.datared.codecs.decode_chunk`.

    ``payload`` may be a :class:`memoryview` borrowed from the caller's
    write buffer (the zero-copy incompressible path); ``prefix`` holds
    any compressor tag bytes that belong in front of it on disk.  The
    container-format bytes come from :meth:`materialize` — chunks read
    back from a container always carry materialized ``bytes`` payloads
    with an empty prefix.

    A ``__slots__`` value class: one is built per unique chunk on the
    write path, where frozen-dataclass construction costs ~3x a plain
    ``__init__`` (measured on the ``compress`` stage).
    """

    __slots__ = ("payload", "logical_size", "stored_size", "prefix")

    def __init__(
        self,
        payload: Union[bytes, memoryview],
        logical_size: int,
        stored_size: int,
        prefix: bytes = b"",
    ) -> None:
        if logical_size <= 0:
            raise ValueError("logical_size must be positive")
        if not 0 < stored_size <= 0xFFFF:
            raise ValueError(
                f"stored_size {stored_size} outside the 2-byte field "
                "of a PBN-PBA entry"
            )
        self.payload = payload
        self.logical_size = logical_size
        self.stored_size = stored_size
        self.prefix = prefix

    def __repr__(self) -> str:
        return (
            f"CompressedChunk(logical_size={self.logical_size}, "
            f"stored_size={self.stored_size}, prefix={self.prefix!r})"
        )

    def materialize(self) -> bytes:  # repro-lint: hot-path
        """Container-format ``bytes``: the one sanctioned copy point.

        This is where a borrowed view is frozen into an owned buffer —
        after this call the chunk's bytes are immune to mutations of the
        source write buffer (defensive-copy semantics at the container
        boundary, DESIGN.md §5.4).
        """
        if not self.prefix and type(self.payload) is bytes:
            return self.payload
        return b"".join((self.prefix, self.payload))  # repro-lint: copy-ok the container boundary's defensive copy


class Compressor:
    """Encoder interface: compress one chunk, or a batch of them.

    This is the codec plugin contract (see :mod:`repro.datared.codecs`
    for the registry and the on-disk tag allocation).  Implementations
    stamp each payload with a 1-byte codec tag — either as
    :attr:`CompressedChunk.prefix` on a fresh chunk or as the first
    payload byte once materialized — and the tag table decodes it, so a
    codec has no read side of its own.  ``name`` identifies the codec in
    the registry, in per-codec ``compress.<name>`` trace spans, and in
    routing counters.
    """

    name = "custom"

    def compress(self, data: Buffer) -> CompressedChunk:
        raise NotImplementedError

    def compress_many(
        self, buffers: Sequence[Buffer]
    ) -> List[CompressedChunk]:  # repro-lint: hot-path
        """Compress a batch (the FPGA DEFLATE engine takes batches, §5.2),
        in input order.

        The batch runs under a ``compress.<name>`` trace span, so when
        tracing is enabled each codec's stage time lands in its own
        ``compress.<name>.ns`` histogram; disabled, the span is the
        shared no-op (one dict lookup per batch).
        """
        with _trace.span("compress." + self.name, chunks=len(buffers)):
            return [self.compress(data) for data in buffers]


#: The entropy gate's geometry (:func:`_probe`): segment size, strided
#: samples per segment, and the leading bytes whose earlier occurrence
#: rescues a random-looking segment for LZ77.
_SEGMENT = 1024
_SAMPLES = 64
_RESCUE = 16

#: A DEFLATE stored block: BFINAL=0 / BTYPE=00 padded to a byte, LEN, ~LEN.
_stored_header = struct.Struct("<BHH").pack
_STORED_MAX = 0xFFFF

#: Every byte value once: deleting a sample's bytes from it leaves the
#: values the sample lacks.
_ALL_BYTES = bytes(range(256))


def _probe(raw: bytes, window: int) -> List[Tuple[int, int, bool]]:  # repro-lint: hot-path
    """``raw`` as maximal runs ``(start, end, stored?)``, in order.

    A segment is incompressible when at least 0.80 of its ~64 strided
    samples are distinct (about 7 bits of entropy per byte, counted as
    ``256 - len(_ALL_BYTES.translate(None, sample))``: the number
    ``len(set(sample))`` gives, in one C call), unless its
    first 16 bytes already occur within the window before it, where
    LZ77 finds the repeat.  The last segment absorbs the remainder;
    pure 7-bit data is under the line by construction, never sampled.
    """
    size = len(raw)
    if raw.isascii():
        return [(0, size, False)]
    last = max(size // _SEGMENT - 1, 0) * _SEGMENT
    runs: List[Tuple[int, int, bool]] = []
    begin = 0
    verdict: Optional[bool] = None
    for start in range(0, last + 1, _SEGMENT):
        end = start + _SEGMENT if start != last else size
        sample = raw[start:end:(end - start) // _SAMPLES or 1]  # repro-lint: copy-ok the probe sample is <= 127 bytes
        distinct = 256 - len(_ALL_BYTES.translate(None, sample))
        stored = distinct * 5 >= len(sample) * 4 and not (
            start
            and raw.find(
                raw[start:start + _RESCUE],  # repro-lint: copy-ok a 16-byte needle
                max(0, start - window),
                start + _RESCUE - 1,
            ) >= 0
        )
        if stored is not verdict:
            if verdict is not None:
                runs.append((begin, start, verdict))
            begin, verdict = start, stored
    runs.append((begin, size, stored))
    return runs


class ZlibCompressor(Compressor):
    """Real DEFLATE compression via :mod:`zlib`, behind an entropy gate.

    **The gate** (fixed geometry, no parameter; DESIGN.md §5.6 has the
    rule and what it costs).  DEFLATE cost is per byte *deflated*, so
    :func:`_probe` cuts the chunk into runs: a compressible run goes
    through ``deflate`` and a ``Z_FULL_FLUSH``, an incompressible one is
    written as DEFLATE *stored* blocks — legal because every deflated
    run ends byte-aligned with the dictionary reset.  The body is still
    plain raw deflate behind the ``_DEFLATE`` tag, and with nothing
    flagged it is byte for byte the ungated stream.  A chunk flagged
    end to end (deflate is never called) or whose output exceeds the
    original takes the raw escape: ``stored_size <= logical_size``.

    Two hot-path measures keep ``deflate`` setup off the per-chunk bill
    (it otherwise costs more than the compression itself on 4-KB
    inputs):

    * ``window_bits`` sizes the DEFLATE window to 4 KB (``wbits=12``) —
      a 4-KB chunk can never back-reference further, so the compressed
      length is identical to the 32-KB default while ``deflateInit``
      skips most of its window and hash-table setup.
    * Each thread keeps one *reused* raw-deflate ``compressobj``; every
      deflated run is emitted as complete deflate blocks terminated by a
      ``Z_FULL_FLUSH``, which resets the dictionary so the output is
      byte-identical whether the state is fresh or reused.  That makes
      chunks self-contained (decompressible independently).  The state
      is per thread so that servers on different loop threads of one
      process never interleave two streams in one ``compressobj``.
    """

    name = "zlib"
    _RAW = b"\x00"
    _DEFLATE = b"\x01"

    def __init__(self, level: int = 1, window_bits: int = 12) -> None:
        if not 0 <= level <= 9:
            raise ValueError(f"zlib level must be 0-9, got {level}")
        if not 9 <= window_bits <= 15:
            raise ValueError(
                f"zlib window_bits must be 9-15, got {window_bits}"
            )
        self.level = level
        self.window_bits = window_bits
        self._local = threading.local()

    def _squeezer(self) -> "zlib._Compress":
        local = self._local
        try:
            squeezer: "zlib._Compress" = local.squeezer
        except AttributeError:
            squeezer = local.squeezer = zlib.compressobj(
                self.level, zlib.DEFLATED, -self.window_bits
            )
        return squeezer

    def compress(self, data: Buffer) -> CompressedChunk:  # repro-lint: hot-path
        return self._compress(data)[0]

    def _compress(self, data: Buffer) -> Tuple[CompressedChunk, int]:  # repro-lint: hot-path
        """The chunk, and how many of its bytes went through C deflate."""
        size = len(data)
        if not size:
            raise ValueError("cannot compress an empty chunk")
        raw = data if type(data) is bytes else bytes(data)  # repro-lint: copy-ok one 0.3 us memcpy per 4 KiB saves 2 us of strided view reads
        runs = _probe(raw, 1 << self.window_bits)
        fed = sum(end - start for start, end, stored in runs if not stored)
        if fed:
            payload = self._emit(raw, runs)
            if len(payload) <= size:
                return CompressedChunk(
                    payload=payload, logical_size=size, stored_size=len(payload)
                ), fed
        return raw_escape(data, size), fed

    def compress_many(
        self, buffers: Sequence[Buffer]
    ) -> List[CompressedChunk]:  # repro-lint: hot-path
        """:meth:`Compressor.compress_many` plus the batch's routing,
        published once per batch: ``codec.zlib.chosen.{deflate,mixed,raw}``
        counters, and on the span the bytes that skipped (``stored``) and
        reached (``deflated``) C."""
        with _trace.span("compress." + self.name, chunks=len(buffers)) as live:
            chosen = {"deflate": 0, "mixed": 0, "raw": 0}
            chunks = []
            logical = deflated = 0
            for data in buffers:
                chunk, fed = self._compress(data)
                chunks.append(chunk)
                logical += chunk.logical_size
                deflated += fed
                chosen[
                    "raw" if chunk.prefix
                    else "deflate" if fed == chunk.logical_size else "mixed"
                ] += 1
            counter = _metrics.get_registry().counter
            for route, count in chosen.items():
                if count:
                    counter("codec.zlib.chosen." + route).inc(count)
            if live is not None:
                live.tag(stored=logical - deflated, deflated=deflated)
            return chunks

    def _emit(self, raw: bytes, runs: List[Tuple[int, int, bool]]) -> bytes:  # repro-lint: hot-path
        """The tagged stream for ``raw`` cut into ``runs``."""
        squeezer = self._squeezer()
        view = memoryview(raw)
        parts = [self._DEFLATE]
        for start, end, stored in runs:
            if stored:  # 00 LEN ~LEN + the bytes, at most 65 535 a block
                for at in range(start, end, _STORED_MAX):
                    length = min(_STORED_MAX, end - at)
                    parts.append(_stored_header(0, length, length ^ 0xFFFF))
                    parts.append(view[at:at + length])
            else:
                parts.append(squeezer.compress(view[start:end]))
                parts.append(squeezer.flush(zlib.Z_FULL_FLUSH))
        # One join builds the final tagged container form, so
        # materialize() is a no-op for the deflate branch.
        return b"".join(parts)


def raw_escape(data: Buffer, size: int) -> CompressedChunk:  # repro-lint: hot-path
    """The shared store-uncompressed escape: tag 0x00 and a zero-copy
    reference to the caller's buffer; the container boundary takes the
    defensive copy."""
    raw = data if type(data) is bytes else memoryview(data)
    return CompressedChunk(
        payload=raw, logical_size=size, stored_size=size, prefix=ZlibCompressor._RAW
    )


class ModeledCompressor(Compressor):
    """Size-modelled compression for large performance sweeps.

    The payload is kept verbatim (reads stay correct) while the reported
    stored size is ``logical_size * ratio``, clamped to at least one
    byte.  ``ratio`` is the *compressed fraction*: the paper's "50%
    compression ratio" stores half the bytes, i.e. ``ratio=0.5``.

    Modelled chunks carry the registry's ``0x04`` codec tag like every
    real codec, so they flow through the same tag-dispatched read path
    and mixed-codec containers (a modelled sweep followed by a real
    write, or vice versa) read back correctly.  The tag byte is *not*
    added to ``stored_size`` — the stored size is the model's output,
    not an on-disk measurement.
    """

    name = "modeled"
    _MODELED = b"\x04"

    def __init__(self, ratio: float = 0.5) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        self.ratio = ratio

    def compress(self, data: Buffer) -> CompressedChunk:  # repro-lint: hot-path
        if not data:
            raise ValueError("cannot compress an empty chunk")
        stored = max(1, min(len(data), round(len(data) * self.ratio)))
        payload = data if type(data) is bytes else memoryview(data)
        return CompressedChunk(
            payload=payload,
            logical_size=len(data),
            stored_size=stored,
            prefix=self._MODELED,
        )


def compression_ratio(
    logical_bytes: int, stored_bytes: int, *, empty: Optional[float] = None
) -> float:
    """Stored fraction of the logical bytes (lower is better).

    Returns ``empty`` (default: raises) when nothing was written.
    """
    if logical_bytes <= 0:
        if empty is None:
            raise ValueError("no logical bytes written")
        return empty
    return stored_bytes / logical_bytes
