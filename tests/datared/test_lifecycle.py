"""Engine lifecycle API: flush()/close()/context managers (DESIGN.md §5.9).

The contract is uniform across layers — ``DedupEngine``,
``ReductionSystem`` and ``StorageServer`` all expose ``flush()`` (batch
boundary: seal + fence), idempotent ``close()`` (shutdown barrier), and
work as context managers.
"""

import pytest

from repro.datared.compression import ModeledCompressor
from repro.datared.dedup import DedupEngine
from repro.datared.journal import MetadataJournal, RecordKind
from repro.systems import FidrSystem
from repro.systems.config import DurabilityPolicy, SystemConfig
from repro.systems.factory import build_engine
from repro.systems.server import StorageServer

CHUNK = 4096

DURABLE = SystemConfig(durability=DurabilityPolicy(journal=True))


def test_engine_close_is_idempotent(rng):
    engine = DedupEngine(
        num_buckets=256,
        compressor=ModeledCompressor(0.5),
        journal=MetadataJournal(),
    )
    engine.write(0, rng.randbytes(CHUNK))
    engine.close()
    size = engine.journal.size_bytes
    engine.close()
    engine.close()
    assert engine.journal.size_bytes == size


def test_engine_close_seals_open_container(rng):
    engine = DedupEngine(num_buckets=256, compressor=ModeledCompressor(0.5))
    engine.write(0, rng.randbytes(CHUNK))
    assert engine.containers.sealed_count == 0
    engine.close()
    assert engine.containers.sealed_count == 1


def test_engine_context_manager_closes(rng):
    with DedupEngine(
        num_buckets=256, compressor=ModeledCompressor(0.5)
    ) as engine:
        engine.write(0, rng.randbytes(CHUNK))
    assert engine.containers.sealed_count == 1


def test_engine_flush_fences_the_journal(rng):
    engine = DedupEngine(
        num_buckets=256,
        compressor=ModeledCompressor(0.5),
        journal=MetadataJournal(),
    )
    engine.write(0, rng.randbytes(CHUNK))
    engine.flush()
    records, clean = MetadataJournal.decode(engine.journal.to_bytes())
    assert clean
    assert records[-1].kind == RecordKind.COMMIT
    assert engine.journal.staged_bytes == 0


def test_system_context_manager(rng):
    with FidrSystem(config=DURABLE, num_buckets=512) as system:
        system.write(0, rng.randbytes(CHUNK))
        system.flush()
        journal = system.engine.journal
        assert journal is not None and journal.commits >= 1
    system.close()  # idempotent


def test_server_context_manager(rng):
    with StorageServer(FidrSystem(config=DURABLE, num_buckets=512)) as server:
        server.write(0, rng.randbytes(CHUNK))
        server.flush()
    server.close()  # idempotent


def test_close_survives_exception_path(rng):
    engine = build_engine(DURABLE, num_buckets=512)
    with pytest.raises(RuntimeError):
        with engine:
            engine.write(0, rng.randbytes(CHUNK))
            raise RuntimeError("client blew up")
    # The final fence still landed on the exception path.
    records, clean = MetadataJournal.decode(engine.journal.to_bytes())
    assert clean
    assert records[-1].kind == RecordKind.COMMIT
