"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.datared.compression import ModeledCompressor
from repro.sim.core import Simulator
from repro.workloads.content import ContentFactory


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xFEED)


@pytest.fixture
def engine_passes(monkeypatch) -> list:
    """The chunk count of every ``DedupEngine.read_many`` pass the test
    makes, in order (``clear()`` it once the set-up is done)."""
    from repro.datared.dedup import DedupEngine

    passes: list = []
    read_many = DedupEngine.read_many

    def counted(self, lbas):
        passes.append(len(lbas))
        return read_many(self, lbas)

    monkeypatch.setattr(DedupEngine, "read_many", counted)
    return passes


@pytest.fixture
def content() -> ContentFactory:
    return ContentFactory()


@pytest.fixture
def fast_compressor() -> ModeledCompressor:
    """Size-modelled compressor for tests that don't exercise DEFLATE."""
    return ModeledCompressor(0.5)


def make_chunk(rng: random.Random, size: int = 4096) -> bytes:
    """A random (incompressible) chunk."""
    return rng.randbytes(size)


def make_compressible_chunk(rng: random.Random, size: int = 4096,
                            fraction: float = 0.5) -> bytes:
    """A chunk whose tail is a repeating pattern."""
    head = rng.randbytes(int(size * fraction))
    return head + b"\x00" * (size - len(head))
