"""The codec plugin registry: pluggable compression behind one tag byte.

The paper treats compression as a swappable engine behind a fixed
chunk-in/record-out contract (§2.1, §5.2.2: a dedicated FPGA DEFLATE
core today, anything with the same interface tomorrow).  This module is
that contract rendered as a plugin API:

* A codec is an *encoder*: it implements the
  :class:`~repro.datared.compression.Compressor` interface (aliased
  :data:`Codec` here) and stamps its output with a **1-byte on-disk
  tag** — the first byte of every container payload.  Tags are
  allocated once, below, and never reused; a container may therefore mix
  chunks from different codecs and still read back correctly after any
  reconfiguration.
* :func:`decode_chunk` / :func:`decode_many` are the only decoder: they
  dispatch on that tag, independent of whichever codec is currently
  configured for writes, and turn every way a stored payload can have
  rotted into one typed :class:`~repro.errors.ChunkDecodeError`.
* :func:`register_codec` / :func:`create_codec` name the write-side
  choices; :func:`register_decoder` claims a tag for a third-party
  codec's decoder (a bound method, when decoding needs out-of-band
  state such as a dictionary).

Tag allocation (DESIGN.md §5.6):

======  ==========  ====================================================
Tag     Codec       Body
======  ==========  ====================================================
0x00    raw         the chunk verbatim (every codec's incompressible
                    escape — shared, so any reader can decode it)
0x01    zlib        raw DEFLATE stream (no zlib header/checksum)
0x02    (retired)   reserved forever: once zstd frames
0x03    (retired)   reserved forever: once lz4 blocks
0x04    modeled     the chunk verbatim; ``stored_size`` is modelled
======  ==========  ====================================================

Every codec honours the zero-copy discipline (DESIGN.md §5.4): the
incompressible escape stores a *view* of the caller's buffer, and the
single sanctioned copy happens at the container boundary via
:meth:`~repro.datared.compression.CompressedChunk.materialize`.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List, Sequence

from ..errors import ChunkDecodeError
from .compression import (
    Buffer,
    CompressedChunk,
    Compressor,
    ModeledCompressor,
    ZlibCompressor,
    raw_escape,
)

__all__ = [
    "Codec",
    "TAG_RAW",
    "TAG_DEFLATE",
    "TAG_MODELED",
    "RawCodec",
    "register_codec",
    "register_decoder",
    "create_codec",
    "codec_names",
    "decode_chunk",
    "decode_many",
]

#: The plugin interface every codec implements.  An alias, not a copy:
#: :class:`~repro.datared.compression.Compressor` *is* the contract.
Codec = Compressor

# -- tag allocation (append-only; never renumber a shipped tag) -------------
TAG_RAW = 0x00
TAG_DEFLATE = 0x01
TAG_MODELED = 0x04

#: Tags codecs this repo no longer carries once wrote.  Never
#: reallocated: a container that still holds such a chunk must fail with
#: the codec's name, not be misread by whatever claimed the tag next.
_RETIRED_TAGS = {0x02: "zstd", 0x03: "lz4"}

# The zlib codec predates the registry; its private tag bytes are the
# on-disk format every pre-registry container used, so the allocation
# table above must agree with them byte-for-byte.
assert ZlibCompressor._RAW == bytes([TAG_RAW])
assert ZlibCompressor._DEFLATE == bytes([TAG_DEFLATE])


def _body(chunk: CompressedChunk) -> Buffer:  # repro-lint: hot-path
    """A chunk's bytes after its tag, without copying."""
    if chunk.prefix:
        return chunk.payload
    return memoryview(chunk.payload)[1:]


# -- per-tag decoders --------------------------------------------------------


def _decode_verbatim(chunk: CompressedChunk) -> bytes:  # repro-lint: hot-path
    return bytes(_body(chunk))  # repro-lint: copy-ok reads return owned bytes


def _decode_deflate(chunk: CompressedChunk) -> bytes:  # repro-lint: hot-path
    # A full 32-KB window decodes any raw-deflate stream compressed with
    # a smaller one, so the reader needs no codec parameters.  Output is
    # capped at logical_size + 1 so corrupt input cannot balloon memory.
    inflater = zlib.decompressobj(-15)
    return inflater.decompress(_body(chunk), chunk.logical_size + 1)


#: Tag byte -> decoder.  Reads dispatch here regardless of the codec
#: currently configured for writes, which is what makes mixed-codec
#: containers (and reconfiguration without rewrite) safe.
_DECODERS: Dict[int, Callable[[CompressedChunk], bytes]] = {
    TAG_RAW: _decode_verbatim,
    TAG_DEFLATE: _decode_deflate,
    TAG_MODELED: _decode_verbatim,
}


def register_decoder(
    tag: int,
    decode: Callable[[CompressedChunk], bytes],
    *,
    replace: bool = False,
) -> None:
    """Claim ``tag`` for ``decode`` (third-party codecs register here).

    Tags are a shared on-disk namespace: claiming an allocated or
    retired tag without ``replace=True`` is an error, because two
    meanings for one tag is stored data whose reading depends on import
    order.  ``decode`` returns the chunk's bytes; :func:`decode_chunk`
    checks their length and types whatever it raises.
    """
    if not 0 <= tag <= 0xFF:
        raise ValueError(f"codec tag must fit one byte, got {tag}")
    if not replace and (tag in _DECODERS or tag in _RETIRED_TAGS):
        raise ValueError(f"codec tag 0x{tag:02x} is already allocated")
    _DECODERS[tag] = decode


def decode_chunk(chunk: CompressedChunk) -> bytes:  # repro-lint: hot-path
    """Decode one chunk by its codec tag — the only decoder there is.

    A fresh chunk's ``prefix`` carries the tag; a chunk read back from a
    container carries it as the first payload byte.  An unknown or
    retired tag, a body its decoder cannot parse and a body that decodes
    to the wrong length are all the same fault — the stored bytes are
    not what was written — and raise
    :class:`~repro.errors.ChunkDecodeError`.
    """
    if chunk.prefix:
        tag = chunk.prefix[0]
    elif len(chunk.payload):
        tag = chunk.payload[0]
    else:
        raise ChunkDecodeError("empty stored payload: no codec tag")
    decoder = _DECODERS.get(tag)
    if decoder is None:
        retired = _RETIRED_TAGS.get(tag)
        raise ChunkDecodeError(
            f"unknown codec tag 0x{tag:02x}" if retired is None else
            f"codec tag 0x{tag:02x} belongs to the retired {retired!r} "
            "codec; no decoder is registered for it"
        )
    try:
        data = decoder(chunk)
    except Exception as exc:  # a registered decoder is third-party code
        raise ChunkDecodeError(
            f"tag 0x{tag:02x} body does not decode: {exc}"
        ) from exc
    if len(data) != chunk.logical_size:
        raise ChunkDecodeError(
            f"tag 0x{tag:02x} body decoded to {len(data)} bytes, "
            f"expected {chunk.logical_size}"
        )
    return data


def decode_many(chunks: Sequence[CompressedChunk]) -> List[bytes]:  # repro-lint: hot-path
    """Tag-dispatched batch decode, in input order: the batched twin of
    :func:`decode_chunk`, and the one the engine's read path calls."""
    return [decode_chunk(chunk) for chunk in chunks]


# -- codec implementations ---------------------------------------------------


class RawCodec(Compressor):
    """Store chunks verbatim (tag 0x00): compression disabled.

    The measurement control for codec sweeps.  ``stored_size`` equals
    ``logical_size``, exactly like every codec's raw escape.
    """

    name = "raw"

    def compress(self, data: Buffer) -> CompressedChunk:  # repro-lint: hot-path
        size = len(data)
        if not size:
            raise ValueError("cannot compress an empty chunk")
        return raw_escape(data, size)


# -- the registry ------------------------------------------------------------

_CODECS: Dict[str, Callable[..., Compressor]] = {}


def register_codec(
    name: str,
    factory: Callable[..., Compressor],
    *,
    replace: bool = False,
) -> None:
    """Register ``factory`` under ``name``."""
    if not name:
        raise ValueError("codec name must be non-empty")
    if not replace and name in _CODECS:
        raise ValueError(f"codec {name!r} is already registered")
    _CODECS[name] = factory


def codec_names() -> List[str]:
    """Every registered codec name."""
    return sorted(_CODECS)


def create_codec(name: str, **params: object) -> Compressor:
    """Build the codec registered as ``name`` with ``params``
    (``ValueError`` for an unknown name)."""
    factory = _CODECS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown codec {name!r}; registered: {', '.join(codec_names())}"
        )
    return factory(**params)


register_codec("zlib", ZlibCompressor)
register_codec("raw", RawCodec)
register_codec("modeled", ModeledCompressor)
