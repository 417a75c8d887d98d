"""Race-detector stress harness (an ISSUE acceptance criterion).

Drives a watched :class:`~repro.datared.dedup.DedupEngine` and a full
:class:`~repro.systems` stack with up to 8 concurrent client threads
mixing ``write_many``, single writes, reads, flushes, and garbage
collection, and asserts the detector stays silent — then proves the
same detector *does* fire when the lock discipline is deliberately
bypassed, so "silent" means "clean", not "blind".

The ``detector`` fixture arms the race detector around each test and
disarms and clears it afterwards (the CI analysis job also runs this
file under ``REPRO_RACE_DETECT=1``)."""

from __future__ import annotations

import json
import random
import threading

import pytest

from repro.analysis import racecheck
from repro.analysis.invariants import check_engine, check_system
from repro.datared.chunking import BLOCK_SIZE
from repro.datared.dedup import DedupEngine
from repro.datared.hashing import fingerprint

CHUNK = 4096
BLOCKS = CHUNK // BLOCK_SIZE
PARALLELISM = 8
OPS_PER_THREAD = 48


@pytest.fixture
def detector():
    racecheck.reset()
    racecheck.enable()
    yield racecheck
    racecheck.disable()
    racecheck.reset()


def shared_payloads(seed: int, count: int = 6):
    rng = random.Random(seed)
    return [
        rng.randbytes(CHUNK // 2) + bytes(CHUNK // 2) for _ in range(count)
    ]


def test_stress_engine_is_race_free_at_parallelism_8(detector, tmp_path):
    # read_cache_chunks puts the decompressed-read LRU (and its
    # invalidation on overwrite/GC) under the same contention.
    engine = DedupEngine(num_buckets=2048, read_cache_chunks=64)
    detector.watch_engine(engine)
    payloads = shared_payloads(0xACE)  # shared → cross-thread dedup hits
    barrier = threading.Barrier(PARALLELISM)
    errors = []

    def client(index: int) -> None:
        rng = random.Random(index)
        region = index * 64 * BLOCKS  # own LBA region; shared content
        written = {}
        try:
            barrier.wait()
            for step in range(OPS_PER_THREAD):
                slot = region + rng.randrange(16) * BLOCKS
                data = payloads[rng.randrange(len(payloads))]
                if step % 5 == 4:  # batched entry point
                    engine.write_many([(slot, data)])
                else:
                    engine.write(slot, data)
                written[slot] = data
                if step % 7 == 6:
                    check = rng.choice(sorted(written))
                    if engine.read(check).data != written[check]:
                        errors.append(f"thread {index}: stale read")
                if index == 0 and step % 16 == 15:
                    engine.flush()
                if index == 1 and step % 16 == 15:
                    engine.collect_garbage(0.3)
        except Exception as error:  # surfaced after join
            errors.append(f"thread {index}: {error!r}")

    threads = [
        threading.Thread(target=client, args=(index,), name=f"client-{index}")
        for index in range(PARALLELISM)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert errors == []
    races = detector.reports()
    assert races == [], "\n".join(race.describe() for race in races)
    engine.flush()
    assert check_engine(engine) == []

    # The JSON artifact CI uploads is valid and empty on a clean run.
    artifact = tmp_path / "races.json"
    detector.dump_json(str(artifact))
    assert json.loads(artifact.read_text()) == {"version": 1, "races": []}


def test_stress_full_system_is_race_free(detector):
    from repro.datared.compression import ZlibCompressor
    from repro.systems.config import SystemConfig
    from repro.systems.server import StorageServer, SystemKind

    storage = StorageServer.build(
        SystemKind.FIDR,
        num_buckets=1024,
        cache_lines=64,
        compressor=ZlibCompressor(),
        config=SystemConfig(batch_chunks=8),
    )
    system = storage.system
    detector.watch_engine(system.engine)
    detector.watch_system(system)
    payloads = shared_payloads(0xBEE)
    barrier = threading.Barrier(4)
    errors = []

    def client(index: int) -> None:
        rng = random.Random(index)
        region = index * 64
        try:
            barrier.wait()
            for step in range(32):
                storage.write(
                    region + rng.randrange(16),
                    payloads[rng.randrange(len(payloads))],
                )
                if step % 8 == 7:
                    storage.read(region + rng.randrange(16), 1)
        except Exception as error:
            errors.append(f"thread {index}: {error!r}")

    threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    storage.flush()

    assert errors == []
    races = detector.reports()
    assert races == [], "\n".join(race.describe() for race in races)
    assert check_system(system) == []


def test_detector_flags_a_seeded_lock_bypass(detector):
    """Negative control: the same harness with the discipline broken.

    ``_write_many_locked`` is the engine's internals *without* the lock;
    calling it from two threads must produce disjoint-lockset reports
    even when the calls never physically overlap — Eraser checks the
    discipline, not the interleaving luck of one run."""
    engine = DedupEngine(num_buckets=512)
    detector.watch_engine(engine)
    payloads = shared_payloads(0xDAD)

    def bypass(region: int) -> None:
        requests = [
            (region + slot * BLOCKS, payloads[slot % len(payloads)])
            for slot in range(4)
        ]
        digests = [fingerprint(data) for _, data in requests]
        engine._write_many_locked(requests, digests)

    bypass(0)  # main thread, no lock held
    worker = threading.Thread(target=bypass, args=(1024 * BLOCKS,))
    worker.start()
    worker.join()

    races = detector.reports()
    assert races, "deliberate lock bypass must be flagged"
    racy_objects = {race.object_name for race in races}
    # The engine's core shared structures are among the flagged objects.
    assert "engine.pbn_map" in racy_objects
    assert "engine.stats" in racy_objects
