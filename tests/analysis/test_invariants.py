"""Tests for the ledger/index conservation checker.

The checker must pass on healthy engines and systems through every
lifecycle phase (mid-stream, post-flush, post-GC) and must *fail* on
seeded corruption of each family of law it asserts — otherwise a green
check proves nothing."""

from __future__ import annotations

import random

import pytest

from repro.analysis.invariants import (
    InvariantViolation,
    check_engine,
    check_system,
)
from repro.datared.chunking import BLOCK_SIZE
from repro.datared.dedup import DedupEngine
from repro.datared.hashing import FINGERPRINT_SIZE

CHUNK = 4096
BLOCKS = CHUNK // BLOCK_SIZE


def exercised_engine(seed: int = 7) -> DedupEngine:
    rng = random.Random(seed)
    engine = DedupEngine(num_buckets=512)
    payloads = [
        rng.randbytes(CHUNK // 2) + bytes(CHUNK // 2) for _ in range(5)
    ]
    for _ in range(150):  # duplicates and overwrites in a small region
        engine.write(
            rng.randrange(24) * BLOCKS, payloads[rng.randrange(len(payloads))]
        )
    return engine


def overwritten_fidr():
    """A journaled FIDR system after four overwrite passes of a 96-chunk
    region, each sealed by a flush: three whole containers have died,
    and bucket pages have emptied."""
    from repro.systems.config import DurabilityPolicy, SystemConfig
    from repro.systems.server import StorageServer, SystemKind

    storage = StorageServer.build(
        SystemKind.FIDR, num_buckets=64, cache_lines=8,
        config=SystemConfig(durability=DurabilityPolicy(journal=True)),
    )
    for stamp in range(4):
        for lba in range(96):
            storage.write(lba, (stamp << 16 | lba).to_bytes(4, "big") * 1024)
        storage.flush()
    system = storage.system
    dead = [
        container for container in system.engine.containers._containers.values()
        if not container.live_bytes
    ]
    assert len(dead) == 3 and all(container.sealed for container in dead)
    assert check_system(system) == []
    return system, dead[0]


class TestHealthyStates:
    def test_fresh_engine_is_clean(self):
        assert check_engine(DedupEngine(num_buckets=64)) == []

    def test_exercised_engine_is_clean_through_lifecycle(self):
        engine = exercised_engine()
        assert check_engine(engine) == []  # mid-stream, container open
        engine.flush()
        assert check_engine(engine) == []
        engine.collect_garbage(0.2)
        assert check_engine(engine) == []

    @pytest.mark.parametrize("kind_name", ["FIDR", "BASELINE"])
    def test_systems_are_clean_with_pending_writes(self, kind_name):
        from repro.systems.config import SystemConfig
        from repro.systems.server import StorageServer, SystemKind

        storage = StorageServer.build(
            SystemKind[kind_name],
            num_buckets=512,
            cache_lines=64,
            config=SystemConfig(batch_chunks=8),
        )
        rng = random.Random(3)
        for _ in range(20):  # 20 % 8 != 0: leaves a partial pending batch
            storage.write(rng.randrange(16), rng.randbytes(CHUNK))
        assert check_system(storage.system) == []  # staged bytes accounted
        storage.flush()
        assert check_system(storage.system) == []


class TestSeededCorruption:
    def test_reverse_index_corruption_is_caught(self):
        engine = exercised_engine()
        engine.pbn_map._by_fingerprint.clear()
        with pytest.raises(InvariantViolation, match="fingerprint index"):
            check_engine(engine)

    def test_digest_column_corruption_is_caught(self):
        """One PBN's digest column entry zeroed behind the engine's
        back: the mirror and the table still hold its fingerprint, the
        column no longer names it."""
        engine = exercised_engine()
        pbn = next(engine.pbn_map.pbns())
        start = pbn * FINGERPRINT_SIZE
        engine.pbn_map._digests[start : start + FINGERPRINT_SIZE] = bytes(
            FINGERPRINT_SIZE
        )
        violations = check_engine(engine, raise_on_violation=False)
        assert (
            f"fingerprint index maps PBN {pbn}'s digest column entry to None"
            in violations
        )

    def test_placement_list_corruption_is_caught(self):
        engine = exercised_engine()
        pbn = next(engine.pbn_map.pbns())
        record = engine.pbn_map.get(pbn)
        container_id, offset = record.container_id, record.offset
        engine.pbn_map.forget_container(container_id)
        violations = check_engine(engine, raise_on_violation=False)
        assert (
            f"placement index maps PBN {pbn}'s placement "
            f"({container_id}, {offset}) to None" in violations
        )

    def test_stats_corruption_is_caught(self):
        engine = exercised_engine()
        engine.stats.logical_bytes += 1
        violations = check_engine(engine, raise_on_violation=False)
        assert any("logical_bytes" in violation for violation in violations)

    def test_dangling_lba_mapping_is_caught(self):
        engine = exercised_engine()
        engine.lba_map.set(10_000 * BLOCKS, 999_999)  # PBN that never existed
        violations = check_engine(engine, raise_on_violation=False)
        assert any("dead PBN" in violation for violation in violations)

    def test_refcount_drift_is_caught(self):
        engine = exercised_engine()
        pbn, _ = next(iter(engine.pbn_map.records()))
        engine.pbn_map.ref(pbn)  # refcount no longer matches the LBA map
        violations = check_engine(engine, raise_on_violation=False)
        assert any("refcount" in violation for violation in violations)

    def test_table_population_drift_is_caught(self):
        engine = exercised_engine()
        record = next(iter(engine.pbn_map.records()))[1]
        engine.table.remove(record.fingerprint)
        violations = check_engine(engine, raise_on_violation=False)
        assert any("entry count" in violation for violation in violations)

    @pytest.mark.parametrize("where", ["engine", "FIDR"])
    def test_table_losing_a_digest_is_caught(self, where):
        """A digest removed from its bucket page behind the engine's
        back: the entry count and the fingerprint mirror still agree,
        only the table itself no longer resolves the record."""
        if where == "engine":
            engine = exercised_engine()
            pages = engine.table.store
        else:
            from repro.systems.config import SystemConfig
            from repro.systems.server import StorageServer, SystemKind

            storage = StorageServer.build(
                SystemKind.FIDR, num_buckets=512, cache_lines=64,
                config=SystemConfig(batch_chunks=8),
            )
            for index in range(40):
                storage.write(index % 30, bytes([index]) * CHUNK)
            storage.system.flush()
            engine = storage.system.engine
            pages = storage.system.table_cache.pages
        pbn, record = next(iter(engine.pbn_map.records()))
        home = engine.table._home(record.fingerprint)
        page = pages.load_packed(home)
        assert page.remove(record.fingerprint)
        expected = [f"Hash-PBN table maps PBN {pbn}'s fingerprint to None"]
        if not page.entry_count:  # the digest was the page's only entry
            expected.insert(0, f"page store holds an empty page for bucket {home}")
        violations = check_engine(engine, raise_on_violation=False)
        assert violations == expected

    def test_stored_empty_page_is_caught(self):
        from repro.datared.hash_pbn import PackedBucket

        system, _ = overwritten_fidr()
        pages = system.table_cache.pages
        bucket = next(b for b in range(64) if b not in pages._pages)
        pages._pages[bucket] = PackedBucket.empty()
        assert check_system(system, raise_on_violation=False) == [
            f"page store holds an empty page for bucket {bucket}"
        ]

    def test_dead_container_keeping_its_tables_is_caught(self):
        """The leak itself: a payload dict that held chunks and had them
        all deleted keeps its table, though its length reads 0."""
        system, dead = overwritten_fidr()
        emptied = dict.fromkeys(range(64))
        for offset in range(64):
            del emptied[offset]
        dead._payloads = emptied
        assert check_system(system, raise_on_violation=False) == [
            f"fully-dead container {dead.container_id} still holds "
            "per-chunk tables"
        ]

    def test_pbn_list_of_a_dead_container_is_caught(self):
        system, dead = overwritten_fidr()
        system.engine.pbn_map._place(0, dead.container_id)
        assert check_system(system, raise_on_violation=False) == [
            f"PBN list kept for container {dead.container_id}, which holds "
            "no live chunk"
        ]

    def test_system_front_door_drift_is_caught(self):
        from repro.systems.server import StorageServer, SystemKind

        storage = StorageServer.build(SystemKind.BASELINE, num_buckets=256)
        storage.write(0, bytes(CHUNK))
        storage.system.logical_write_bytes += 1
        with pytest.raises(InvariantViolation, match="logical_write_bytes"):
            check_system(storage.system)

    def test_table_cache_residency_drift_is_caught(self):
        from repro.systems.server import StorageServer, SystemKind

        storage = StorageServer.build(SystemKind.FIDR, num_buckets=256, cache_lines=16)
        storage.write(0, bytes(CHUNK))
        storage.flush()
        assert check_system(storage.system) == []
        storage.system.table_cache._dirty.add(10_000)  # dirty, never resident
        with pytest.raises(InvariantViolation, match="table cache: dirty buckets"):
            check_system(storage.system)

    def test_violation_message_lists_every_law_broken(self):
        engine = exercised_engine()
        engine.pbn_map._by_fingerprint.clear()
        engine.stats.logical_bytes += 1
        try:
            check_engine(engine)
        except InvariantViolation as error:
            message = str(error)
            assert "invariant violation(s)" in message
            assert "fingerprint index" in message
            assert "logical_bytes" in message
        else:  # pragma: no cover
            pytest.fail("corruption not detected")
