"""Data chunking (paper §2.1.1 and §3.1).

FIDR uses *fixed-size small chunking* (4 KB) because variable-size chunking
is computationally expensive and large chunking causes read-modify-write
(RMW) amplification.  This module provides:

* :class:`FixedChunker` — split client writes into aligned fixed-size
  chunks (the FIDR configuration uses 4 KB).
* :class:`LargeChunkAssembler` — the large-chunking pipeline the paper
  simulates for Figure 3: 4-KB client writes are staged in a request
  buffer; forming an aligned large chunk requires fetching the missing
  4-KB blocks from the SSDs, deduplicating at the large granularity, and
  writing the whole large chunk back if unique.

Addresses: an *LBA* is a logical block address in 4-KB units.  Chunk
boundaries are aligned multiples of the chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

#: Anything the chunker accepts as a write payload (zero-copy friendly).
Buffer = Union[bytes, bytearray, memoryview]

__all__ = [
    "BLOCK_SIZE",
    "LBA_LIMIT",
    "Chunk",
    "FixedChunker",
    "RmwStats",
    "LargeChunkAssembler",
]

#: The unit of client addressing: 4 KB, matching the paper's trace blocks.
BLOCK_SIZE = 4096

#: One past the last LBA a 64-bit wire field (§6.2) can name.
LBA_LIMIT = 1 << 64


class Chunk:
    """A fixed-size piece of client data.

    A ``__slots__`` value class rather than a frozen dataclass: one is
    built per 4-KB chunk on the write path, and frozen-dataclass
    construction (``object.__setattr__`` per field) costs ~5x a plain
    ``__init__`` (measured on the ``chunk`` stage).

    Attributes
    ----------
    lba:
        Logical block address of the chunk's first 4-KB block.
    data:
        Chunk payload; always exactly ``chunk_size`` bytes (writes shorter
        than a chunk are zero-padded by the chunker, mirroring a storage
        system's sector semantics).  On the hot path this is a
        :class:`memoryview` *slice of the caller's payload*, not a copy
        (DESIGN.md §5.4): hashing and compression consume the buffer
        protocol directly, and bytes materialize only at the container
        boundary.  Views compare by value, so equality against ``bytes``
        behaves as before.
    """

    __slots__ = ("lba", "data")

    def __init__(self, lba: int, data: Union[bytes, memoryview]) -> None:
        self.lba = lba
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Chunk):
            return NotImplemented
        return self.lba == other.lba and self.data == other.data

    def __repr__(self) -> str:
        return f"Chunk(lba={self.lba}, data=<{len(self.data)} bytes>)"

    def tobytes(self) -> bytes:
        """The payload as real ``bytes`` (copies when data is a view)."""
        data = self.data
        return data if isinstance(data, bytes) else bytes(data)  # repro-lint: copy-ok explicit materialization helper


class FixedChunker:
    """Split (lba, payload) writes into aligned fixed-size chunks.

    ``chunk_size`` must be a positive multiple of :data:`BLOCK_SIZE`.
    Writes must start on a chunk boundary relative to their LBA (the
    storage protocol in §6.2 presents block-aligned requests); payloads
    that do not fill the final chunk are zero-padded.
    """

    def __init__(self, chunk_size: int = BLOCK_SIZE) -> None:
        if chunk_size <= 0 or chunk_size % BLOCK_SIZE != 0:
            raise ValueError(
                f"chunk_size must be a positive multiple of {BLOCK_SIZE}, "
                f"got {chunk_size}"
            )
        self.chunk_size = chunk_size
        self.blocks_per_chunk = chunk_size // BLOCK_SIZE

    def split(self, lba: int, payload: Buffer) -> List[Chunk]:  # repro-lint: hot-path
        """Split ``payload`` written at ``lba`` into aligned chunks.

        Zero-copy: each chunk's ``data`` is a :class:`memoryview` slice
        of ``payload``; only a short final chunk is materialized (it
        must be zero-padded to ``chunk_size``).  The caller must keep
        ``payload`` unmodified until the chunks have been consumed —
        the engine materializes them at container-append time, within
        the same write call (DESIGN.md §5.4).
        """
        if lba < 0:
            raise ValueError(f"negative LBA: {lba}")
        self.check_extent_end(lba, -(-len(payload) // self.chunk_size))
        if lba % self.blocks_per_chunk != 0:
            raise ValueError(
                f"write at LBA {lba} is not aligned to "
                f"{self.blocks_per_chunk}-block chunks"
            )
        if not payload:
            return []
        chunk_size = self.chunk_size
        if len(payload) == chunk_size:  # one chunk as it came; a view is not wrapped again
            return [Chunk(
                lba, payload if type(payload) is memoryview else memoryview(payload)
            )]
        view = memoryview(payload)
        chunks: List[Chunk] = []
        for offset in range(0, len(view), chunk_size):
            piece: Union[bytes, memoryview] = view[offset : offset + chunk_size]
            if len(piece) < chunk_size:
                # Tail chunk: pad to a full chunk (sector semantics).
                piece = bytes(piece) + b"\x00" * (chunk_size - len(piece))  # repro-lint: copy-ok zero-padding requires a new buffer
            chunks.append(Chunk(lba + offset // BLOCK_SIZE, piece))
        return chunks

    def check_extent_end(self, lba: int, num_chunks: int) -> None:
        """Refuse an extent whose last chunk's LBA is at or past
        :data:`LBA_LIMIT`, before anything of it is staged or read."""
        if lba + (num_chunks - 1) * self.blocks_per_chunk >= LBA_LIMIT:
            raise ValueError(
                f"{num_chunks} chunks at LBA {lba} run past the 64-bit "
                "LBA space"
            )

    def chunk_lba(self, block_lba: int) -> int:
        """The aligned chunk LBA containing a 4-KB block address."""
        return block_lba - (block_lba % self.blocks_per_chunk)


@dataclass
class RmwStats:
    """IO accounting for the large-chunking study (Figure 3).

    All counts are in 4-KB block units so chunk sizes compare directly.
    """

    client_blocks: int = 0  #: 4-KB blocks the client actually wrote
    fill_reads: int = 0  #: blocks fetched from SSD to complete a chunk
    dedup_hits: int = 0  #: chunks eliminated as duplicates
    chunk_writes: int = 0  #: blocks written back for unique chunks

    @property
    def total_io_blocks(self) -> int:
        """All SSD traffic (reads for fills + writes of unique chunks)."""
        return self.fill_reads + self.chunk_writes

    def amplification(self, baseline: "RmwStats") -> float:
        """IO increase relative to another configuration's traffic."""
        if baseline.total_io_blocks == 0:
            raise ValueError("baseline performed no IO")
        return self.total_io_blocks / baseline.total_io_blocks


class LargeChunkAssembler:
    """Simulate deduplication with large chunking over a 4-KB write trace.

    The pipeline follows §3.1: writes accumulate in a request buffer
    (default 4 MB = 1024 blocks); when the buffer fills, each touched
    aligned large-chunk extent is assembled.  Blocks of the extent that
    are not in the buffer must be *read* from the SSD (the RMW penalty).
    The assembled chunk is deduplicated by its combined content identity;
    unique chunks are written back whole.

    Content is tracked per 4-KB block via integer *content ids* (the
    workload layer assigns them); a large chunk's identity is the tuple of
    its block contents, so large chunking mechanically loses duplicate
    detection when neighbouring blocks differ — the second effect the
    paper describes.
    """

    def __init__(
        self, chunk_size: int = BLOCK_SIZE, buffer_blocks: int = 1024
    ) -> None:
        if chunk_size <= 0 or chunk_size % BLOCK_SIZE != 0:
            raise ValueError("chunk_size must be a multiple of 4 KB")
        if buffer_blocks < 1:
            raise ValueError("buffer must hold at least one block")
        self.blocks_per_chunk = chunk_size // BLOCK_SIZE
        self.buffer_blocks = buffer_blocks
        self.stats = RmwStats()
        # Stored state: per-block content id currently on "disk" and the
        # set of stored chunk signatures for dedup.
        self._disk: Dict[int, int] = {}
        self._stored_signatures: Dict[Tuple[int, ...], int] = {}
        self._buffer: Dict[int, int] = {}

    def write_block(self, lba: int, content_id: int) -> None:
        """Stage one 4-KB client write; flushes when the buffer fills."""
        if lba < 0:
            raise ValueError(f"negative LBA: {lba}")
        self._buffer[lba] = content_id
        self.stats.client_blocks += 1
        if len(self._buffer) >= self.buffer_blocks:
            self.flush()

    def flush(self) -> None:
        """Assemble and deduplicate every extent touched by the buffer."""
        if not self._buffer:
            return
        extents: Dict[int, Dict[int, int]] = {}
        for lba, content in self._buffer.items():
            base = lba - (lba % self.blocks_per_chunk)
            extents.setdefault(base, {})[lba] = content
        self._buffer.clear()

        for base, written in sorted(extents.items()):
            signature = self._assemble(base, written)
            if signature in self._stored_signatures:
                self.stats.dedup_hits += 1
                # Duplicate: logical remap only, no data IO.
                continue
            self._stored_signatures[signature] = base
            self.stats.chunk_writes += self.blocks_per_chunk
            for offset, content in enumerate(signature):
                self._disk[base + offset] = content

    def _assemble(self, base: int, written: Dict[int, int]) -> Tuple[int, ...]:
        """Build the chunk's content signature, fetching missing blocks."""
        signature: List[int] = []
        for lba in range(base, base + self.blocks_per_chunk):
            if lba in written:
                signature.append(written[lba])
            else:
                # Read-modify-write: the block must come from the SSD.
                self.stats.fill_reads += 1
                signature.append(self._disk.get(lba, 0))
        return tuple(signature)

    def run_trace(self, trace: Sequence[Tuple[int, int]]) -> RmwStats:
        """Process a whole trace of ``(lba, content_id)`` writes."""
        for lba, content_id in trace:
            self.write_block(lba, content_id)
        self.flush()
        return self.stats

    @property
    def dedup_ratio(self) -> float:
        """Fraction of assembled chunks removed by deduplication."""
        total_chunks = (
            self.stats.dedup_hits
            + self.stats.chunk_writes // self.blocks_per_chunk
        )
        if total_chunks == 0:
            return 0.0
        return self.stats.dedup_hits / total_chunks
