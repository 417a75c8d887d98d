"""DESIGN.md §5.4's record rule: a record built per op or per chunk on
the served path is a tuple or a ``__slots__`` class, never a dataclass
(frozen-dataclass construction costs ~3x a plain ``__init__``) and never
an object with an instance ``__dict__``."""

import dataclasses

import pytest

from repro.datared.chunking import Chunk
from repro.datared.compression import CompressedChunk
from repro.datared.container import Placement
from repro.datared.dedup import ChunkOutcome
from repro.hw.nic import BufferedWrite
from repro.net.protocol import Frame

PER_OP_RECORDS = [Frame, BufferedWrite, Chunk, CompressedChunk, ChunkOutcome, Placement]


@pytest.mark.parametrize("record", PER_OP_RECORDS, ids=lambda cls: cls.__name__)
def test_per_op_records_are_tuples_or_slotted(record):
    assert not dataclasses.is_dataclass(record)
    assert issubclass(record, tuple) or "__slots__" in vars(record)
    assert record.__dictoffset__ == 0, f"{record.__name__} instances carry a __dict__"
