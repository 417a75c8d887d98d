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

Hot-path discipline (DESIGN.md §5.4): a fresh ``CompressedChunk`` may
hold a :class:`memoryview` of the *caller's* buffer — the incompressible
escape path stores the original chunk by reference instead of copying
it.  The view is only valid until the source buffer changes, so the
container boundary calls :meth:`CompressedChunk.materialize` to take
its one defensive copy; everything upstream (hash, DEFLATE, size
accounting) runs on the view.
"""

from __future__ import annotations

import threading
import zlib
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from ..obs import trace as _trace

if TYPE_CHECKING:  # pragma: no cover
    from ..parallel import StagePool

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
        self,
        buffers: Sequence[Buffer],
        pool: Optional["StagePool"] = None,
    ) -> List[CompressedChunk]:  # repro-lint: hot-path
        """Compress a batch (the FPGA DEFLATE engine takes batches, §5.2).

        With a parallel :class:`~repro.parallel.StagePool` the batch
        fans out across its worker threads (``zlib`` releases the GIL).
        Results are in input order either way.

        The batch runs under a ``compress.<name>`` trace span, so when
        tracing is enabled each codec's stage time lands in its own
        ``compress.<name>.ns`` histogram; disabled, the span is the
        shared no-op (one dict lookup per batch).
        """
        with _trace.span("compress." + self.name, chunks=len(buffers)):
            if pool is None:
                return [self.compress(data) for data in buffers]
            return pool.map(self.compress, buffers)


class ZlibCompressor(Compressor):
    """Real DEFLATE compression via :mod:`zlib`.

    Incompressible chunks whose DEFLATE output exceeds the original are
    stored raw (the standard "store uncompressed" escape every real
    system implements), so ``stored_size <= logical_size`` always holds.
    The raw escape stores a *view* of the caller's buffer — no copy is
    taken until the container boundary materializes the chunk.

    Two hot-path measures keep ``deflate`` setup off the per-chunk bill
    (it otherwise costs more than the compression itself on 4-KB
    inputs):

    * ``window_bits`` sizes the DEFLATE window to 4 KB (``wbits=12``) —
      a 4-KB chunk can never back-reference further, so the compressed
      length is identical to the 32-KB default while ``deflateInit``
      skips most of its window and hash-table setup.
    * Each thread keeps one *reused* raw-deflate ``compressobj``; every
      chunk is emitted as complete deflate blocks terminated by a
      ``Z_FULL_FLUSH``, which resets the dictionary so the output is
      byte-identical whether the state is fresh or reused.  That makes
      chunks self-contained (decompressible independently) and keeps
      serial and thread-pool runs byte-identical.

    The stored form is raw deflate (no zlib header/checksum) behind the
    ``_DEFLATE`` tag byte.
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
        size = len(data)
        if not size:
            raise ValueError("cannot compress an empty chunk")
        squeezer = self._squeezer()
        # One join builds the final tagged container form, so
        # materialize() is a no-op for the deflate branch.
        payload = b"".join(
            (self._DEFLATE, squeezer.compress(data),
             squeezer.flush(zlib.Z_FULL_FLUSH))
        )
        if len(payload) <= size:
            return CompressedChunk(
                payload=payload,
                logical_size=size,
                stored_size=min(len(payload), size),
            )
        # Incompressible: keep a zero-copy reference to the caller's
        # buffer; the container boundary takes the defensive copy.
        raw = data if type(data) is bytes else memoryview(data)
        return CompressedChunk(
            payload=raw,
            logical_size=size,
            stored_size=size,
            prefix=self._RAW,
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
