"""System-level differential: ``parallelism=N`` must be invisible.

The engine-level grid (``tests/datared/test_parallel.py``) proves the
batched path returns identical bytes and reports.  This file closes the
loop at the system layer: every *device-ledger charge* — CPU cycles per
task, DRAM bytes per path, PCIe bytes per endpoint, table/data-SSD IO,
table-cache events — must match between a serial system and a parallel
one fed the same workload, because the whole point of the design is
that threading changes wall-clock time and nothing else.
"""

import random

import pytest

from repro.analysis.invariants import check_system
from repro.datared.compression import ZlibCompressor
from repro.datared.dedup import READ_FANOUT_MIN_CHUNKS
from repro.systems.config import SystemConfig
from repro.systems.server import StorageServer, SystemKind

CHUNK = 4096


def run_workload(kind: SystemKind, parallelism: int):
    storage = StorageServer.build(
        kind,
        num_buckets=2048,
        cache_lines=128,
        compressor=ZlibCompressor(),
        config=SystemConfig(parallelism=parallelism, batch_chunks=16),
    )
    rng = random.Random(0xD1FF)
    pool = [
        rng.randbytes(CHUNK // 2) + bytes(CHUNK // 2) for _ in range(5)
    ]
    read_back = []
    with storage:
        for step in range(120):
            lba = rng.randrange(32)
            if rng.random() < 0.4:
                storage.write(lba, pool[rng.randrange(len(pool))])
            else:
                storage.write(
                    lba, rng.randbytes(CHUNK // 2) + bytes(CHUNK // 2)
                )
            if step % 10 == 9:
                read_back.append(storage.read(rng.randrange(32), 1))
        storage.flush()
        for lba in range(32):
            read_back.append(storage.read(lba, 1))
    return storage, read_back


def ledger_view(storage: StorageServer):
    """Every charge the system made, as comparable plain data."""
    system = storage.system
    return {
        "cpu": dict(system.cpu._cycles),
        "memory": {
            path: (traffic.bytes_read, traffic.bytes_written)
            for path, traffic in system.memory._paths.items()
        },
        "pcie": [
            (device.name, device.bytes_in, device.bytes_out)
            for device in system.pcie.devices()
        ],
        "table_ssd": system.table_array.stats,
        "data_ssd": system.data_array.stats,
        "cache": system.table_cache.stats,
        "reduction": system.engine.stats,
        "tree_searches": system.table_cache.index.searches,
        "tree_updates": system.table_cache.index.updates,
    }


@pytest.mark.parametrize("kind", [SystemKind.FIDR, SystemKind.BASELINE])
def test_parallelism_leaves_every_ledger_untouched(kind):
    serial_storage, serial_reads = run_workload(kind, parallelism=1)
    parallel_storage, parallel_reads = run_workload(kind, parallelism=4)
    try:
        assert serial_reads == parallel_reads
        serial_view = ledger_view(serial_storage)
        parallel_view = ledger_view(parallel_storage)
        for key in serial_view:
            assert serial_view[key] == parallel_view[key], key
        assert parallel_storage.system.engine.plan_fallback_compressions == 0
        assert parallel_storage.system.engine.plan_wasted_compressions == 0
        assert check_system(serial_storage.system) == []
        assert check_system(parallel_storage.system) == []
    finally:
        parallel_storage.system.pool.shutdown()


#: One row, so the test keeps the id the suite has always printed.
@pytest.mark.parametrize("workers", [pytest.param(2, id="thread")])
def test_a_served_read_past_the_fanout_threshold_is_invisible(workers):
    """One batched read reaches ``READ_FANOUT_MIN_CHUNKS`` through the
    system layer, so ``parallelism=workers`` decompresses a served read on the
    pool: same bytes, same ledgers as the serial system."""
    chunks = READ_FANOUT_MIN_CHUNKS + 32
    rng = random.Random(0xFA17)
    payload = b"".join(
        rng.randbytes(CHUNK // 2) + bytes(CHUNK // 2) for _ in range(chunks)
    )

    def serve(parallelism):
        storage = StorageServer.build(
            SystemKind.FIDR,
            num_buckets=2048,
            cache_lines=128,
            compressor=ZlibCompressor(),
            config=SystemConfig(parallelism=parallelism, batch_chunks=16),
        )
        with storage:
            storage.write(0, payload)
            storage.flush()
            slices = storage.system.pool._slices_dispatched
            dispatched = slices.value
            data = storage.read(0, chunks)
            fanned = slices.value > dispatched
        return storage, data, fanned

    serial_storage, serial_data, serial_fanned = serve(1)
    parallel_storage, parallel_data, parallel_fanned = serve(workers)
    assert serial_data == parallel_data == payload
    assert parallel_fanned and not serial_fanned
    serial_view = ledger_view(serial_storage)
    parallel_view = ledger_view(parallel_storage)
    for key in serial_view:
        assert serial_view[key] == parallel_view[key], key
    assert check_system(parallel_storage.system) == []
