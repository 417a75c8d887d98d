"""The storage stack has one owner thread, the one that built it
(DESIGN.md §5.3).  A call from any other thread raises
:class:`~repro.errors.ThreadOwnershipError` before it touches state, so
the owner finds the stack exactly as it left it."""

from __future__ import annotations

import copy
import threading

import pytest

from repro.analysis.invariants import check_engine, check_system
from repro.datared.compression import ModeledCompressor
from repro.datared.dedup import DedupEngine
from repro.datared.journal import MetadataJournal
from repro.errors import ErrorCode, ReproError, ThreadOwnershipError, error_code_for
from repro.systems.config import SystemConfig
from repro.systems.server import StorageServer, SystemKind

from ..ledgers import ledger_view

CHUNK = 4096


def raised_on_foreign_thread(call):
    """What ``call()`` raised on a thread of its own (None: nothing)."""
    outcome = []

    def run():
        try:
            call()
        except Exception as error:
            outcome.append(error)
        else:
            outcome.append(None)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(10)
    assert not worker.is_alive(), "the foreign call did not finish"
    return outcome[0]


def assert_all_refused(calls):
    for name, call in calls.items():
        error = raised_on_foreign_thread(call)
        assert isinstance(error, ThreadOwnershipError), (name, error)


def test_the_error_is_typed():
    assert issubclass(ThreadOwnershipError, ReproError)
    assert issubclass(ThreadOwnershipError, RuntimeError)
    assert error_code_for(ThreadOwnershipError("x")) == ErrorCode.INTERNAL


def test_every_engine_entry_point_refuses_a_foreign_thread():
    engine = DedupEngine(num_buckets=64, journal=MetadataJournal())
    data = [bytes([n + 1]) * CHUNK for n in range(4)]
    engine.write_many(list(enumerate(data)))
    engine.create_snapshot("base")
    engine.write(0, b"\xff" * CHUNK)  # the snapshot keeps data[0] live
    engine.flush()
    before = engine.stats_snapshot(), engine.snapshots()

    assert_all_refused({
        "write_many": lambda: engine.write_many([(8, data[1])]),
        "write": lambda: engine.write(8, data[1]),
        "read_many": lambda: engine.read_many([0]),
        "read": lambda: engine.read(0),
        "trim": lambda: engine.trim(1),
        "flush": engine.flush,
        "collect_garbage": lambda: engine.collect_garbage(0.0),
        "checkpoint": engine.checkpoint,
        "close": engine.close,
        "create_snapshot": lambda: engine.create_snapshot("other"),
        "delete_snapshot": lambda: engine.delete_snapshot("base"),
        "snapshots": engine.snapshots,
        "read_snapshot": lambda: engine.read_snapshot("base", 0),
    })

    assert check_engine(engine) == []
    assert (engine.stats_snapshot(), engine.snapshots()) == before
    assert engine.read_many(range(4)).pieces == [b"\xff" * CHUNK] + data[1:]
    assert engine.read_snapshot("base", 0).data == data[0]
    engine.close()


@pytest.mark.parametrize("kind", [SystemKind.FIDR, SystemKind.BASELINE])
def test_every_system_entry_point_refuses_a_foreign_thread(kind):
    storage = StorageServer.build(
        kind, num_buckets=1024, cache_lines=64,
        compressor=ModeledCompressor(0.5), config=SystemConfig(batch_chunks=4),
    )
    system = storage.system
    data = [bytes([n + 1]) * CHUNK for n in range(6)]
    for lba, chunk in enumerate(data):
        system.write(lba, chunk)
    system.create_snapshot("base")
    system.write(0, b"\xee" * CHUNK)  # staged: a foreign call must not drain it

    def state():
        return (
            copy.deepcopy(ledger_view(storage)), system.logical_write_bytes,
            system.logical_read_bytes, len(system._pending), system.snapshots(),
        )

    before = state()
    assert_all_refused({
        "write": lambda: system.write(8, data[1]),
        "flush": system.flush,
        "trim": lambda: system.trim(1),
        "read_extents": lambda: system.read_extents([(0, 1), (1, 2)]),
        "read": lambda: system.read(0),
        "create_snapshot": lambda: system.create_snapshot("other"),
        "delete_snapshot": lambda: system.delete_snapshot("base"),
        "snapshots": system.snapshots,
        "read_snapshot": lambda: system.read_snapshot("base", 0),
        "close": system.close,
    })

    assert check_system(system) == []
    assert state() == before
    assert system.read_extents([(lba, 1) for lba in range(6)]) == (
        [b"\xee" * CHUNK] + data[1:]
    )
    assert system.read_snapshot("base", 0) == data[0]
    storage.close()
