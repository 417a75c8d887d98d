"""The entropy gate's distinct-byte count against the ``set`` it
replaced: same runs from :func:`_probe`, same bytes out of
``ZlibCompressor.compress``, on ASCII, constant, random and mixed
chunks."""

import random
from typing import List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.datared import compression
from repro.datared.compression import _RESCUE, _SAMPLES, _SEGMENT, ZlibCompressor


def set_probe(raw: bytes, window: int) -> List[Tuple[int, int, bool]]:
    """``_probe`` as it counted distinct sample bytes with a ``set``."""
    size = len(raw)
    if raw.isascii():
        return [(0, size, False)]
    last = max(size // _SEGMENT - 1, 0) * _SEGMENT
    runs: List[Tuple[int, int, bool]] = []
    begin = 0
    verdict: Optional[bool] = None
    for start in range(0, last + 1, _SEGMENT):
        end = start + _SEGMENT if start != last else size
        sample = raw[start:end:(end - start) // _SAMPLES or 1]
        stored = len(set(sample)) * 5 >= len(sample) * 4 and not (
            start
            and raw.find(
                raw[start:start + _RESCUE],
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


@st.composite
def _segment(draw):
    """A stretch of chunk content of one kind."""
    kind = draw(st.sampled_from(["ascii", "constant", "random", "alphabet"]))
    size = draw(st.integers(1, 2048))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    if kind == "ascii":
        return bytes(rng.randrange(32, 127) for _ in range(size))
    if kind == "constant":
        return bytes([draw(st.integers(0, 255))]) * size
    if kind == "random":
        return rng.randbytes(size)
    # A small alphabet: fewer distinct bytes than the line needs.
    alphabet = rng.randbytes(draw(st.integers(1, 80)))
    return bytes(rng.choice(alphabet) for _ in range(size))


@st.composite
def _chunk(draw):
    """Mostly 4-KiB chunks of mixed content; sometimes other sizes."""
    content = b"".join(draw(st.lists(_segment(), min_size=1, max_size=6)))
    size = draw(st.one_of(st.just(4096), st.integers(1, 9000)))
    return (content * (1 + size // len(content)))[:size]


@settings(max_examples=300, deadline=None)
@given(_chunk(), st.sampled_from([1 << 9, 1 << 12, 1 << 15]))
def test_probe_counts_like_the_set(raw, window):
    assert compression._probe(raw, window) == set_probe(raw, window)


@settings(max_examples=150, deadline=None)
@given(_chunk())
def test_compressed_bytes_are_the_sets(raw):
    codec = ZlibCompressor()
    counted = codec.compress(raw).materialize()
    original = compression._probe
    compression._probe = set_probe
    try:
        reference = codec.compress(raw).materialize()
    finally:
        compression._probe = original
    assert counted == reference
