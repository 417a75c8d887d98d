"""Content-defined (variable-size) chunking (paper §2.1.1).

The paper chooses fixed 4-KB chunking "due to high computational
overheads of variable sized chunking", citing systems that offload CDC
to GPUs/FPGAs [9, 28].  This module supplies the alternative so the
trade-off is measurable in this codebase: :class:`GearChunker` is
Gear-hash CDC (the rolling-hash family those accelerators implement).
A chunk boundary falls where the rolling hash's low bits hit zero, so
boundaries follow *content* and survive insertions/deletions that shift
byte offsets.  ``experiments.ext_cdc`` counts the dedup it buys.

The ``bytes_scanned`` counter captures CDC's cost honestly: every input
byte passes through the rolling hash, which is exactly the
"computational overhead" the paper avoids by fixing the chunk size.
"""

from __future__ import annotations

import random
from typing import List

__all__ = ["GearChunker"]


def _gear_table(seed: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(64) for _ in range(256)]


class GearChunker:
    """Gear-hash content-defined chunker.

    ``avg_size`` must be a power of two; the boundary mask keeps
    ``log2(avg_size)`` hash bits, giving a geometric chunk-length
    distribution with that mean, clamped to ``[min_size, max_size]``.
    """

    def __init__(
        self,
        min_size: int = 1024,
        avg_size: int = 4096,
        max_size: int = 16384,
        seed: int = 0x9E3779B9,
    ) -> None:
        if not (0 < min_size <= avg_size <= max_size):
            raise ValueError("need 0 < min <= avg <= max")
        if avg_size & (avg_size - 1):
            raise ValueError("avg_size must be a power of two")
        self.min_size = min_size
        self.avg_size = avg_size
        self.max_size = max_size
        self._gear = _gear_table(seed)
        self._mask = avg_size - 1
        #: Rolling-hash work performed, in input bytes (the CDC cost).
        self.bytes_scanned = 0

    def split(self, payload: bytes) -> List[bytes]:
        """Split ``payload`` at content-defined boundaries."""
        if not payload:
            return []
        chunks: List[bytes] = []
        start = 0
        length = len(payload)
        gear = self._gear
        mask = self._mask
        while start < length:
            end = min(start + self.max_size, length)
            cut = end
            hash_value = 0
            position = start + self.min_size
            if position >= end:
                cut = end
            else:
                # Warm the hash over the skipped minimum region's tail.
                for index in range(max(start, position - 16), position):
                    hash_value = ((hash_value << 1) + gear[payload[index]]) & (
                        (1 << 64) - 1
                    )
                for index in range(position, end):
                    hash_value = ((hash_value << 1) + gear[payload[index]]) & (
                        (1 << 64) - 1
                    )
                    if hash_value & mask == 0:
                        cut = index + 1
                        break
            self.bytes_scanned += cut - start
            chunks.append(payload[start:cut])
            start = cut
        return chunks

