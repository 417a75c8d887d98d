"""``SystemConfig.shards`` threading through the R009 engine factory.

``build_engine`` is the one place the serving layer may construct an
engine: ``shards=1`` (the default) must build the exact plain
:class:`~repro.datared.dedup.DedupEngine` the pre-sharding systems
built, and ``shards >= 2`` must build a
:class:`~repro.datared.sharded.ShardedDedupEngine` that the full
system stack (staging batches, accounting, invariants) drives without
knowing the difference.
"""

import copy

import pytest

from repro.analysis.invariants import check_sharded_engine, check_system
from repro.datared.dedup import DedupEngine
from repro.datared.journal import RecoveryImage
from repro.datared.sharded import ShardedDedupEngine
from repro.systems import FidrSystem
from repro.systems.config import DurabilityPolicy, SystemConfig
from repro.systems.factory import build_engine

CHUNK = 4096

DURABLE = SystemConfig(durability=DurabilityPolicy(journal=True))


def _image_of(engine):
    return RecoveryImage(
        journal=engine.journal.to_bytes(),
        containers=copy.deepcopy(engine.containers),
    )


class TestBuildEngine:
    def test_default_config_builds_plain_engine(self):
        engine = build_engine(SystemConfig(), num_buckets=256)
        assert type(engine) is DedupEngine

    def test_sharded_config_builds_sharded_engine(self):
        engine = build_engine(SystemConfig(shards=4), num_buckets=256)
        try:
            assert type(engine) is ShardedDedupEngine
            assert engine.num_shards == 4
            assert len(engine.shards) == 4
            assert all(
                type(shard) is DedupEngine for shard in engine.shards
            )
        finally:
            engine.close()

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            build_engine(SystemConfig(shards=0))

    def test_config_knobs_reach_every_shard(self):
        config = SystemConfig(shards=2, read_cache_chunks=8)
        engine = build_engine(config, num_buckets=128)
        try:
            for shard in engine.shards:
                assert shard.chunker.chunk_size == config.chunk_size
        finally:
            engine.close()


class TestSystemWithShards:
    def test_fidr_system_runs_on_a_sharded_engine(self, rng):
        system = FidrSystem(
            num_buckets=512,
            config=SystemConfig(shards=2, batch_chunks=4),
        )
        try:
            assert isinstance(system.engine, ShardedDedupEngine)
            payloads = {}
            step = system.engine.chunker.blocks_per_chunk
            for index in range(12):
                data = rng.randbytes(CHUNK)
                system.write(index * step, data)
                payloads[index * step] = data
            system.flush()
            for lba, data in payloads.items():
                assert system.read(lba, 1) == data
            # Front-door vs engine accounting and the cluster ledger
            # both hold (check_system dispatches to the sharded checks).
            assert check_system(system) == []
        finally:
            system.engine.close()

    def test_fidr_system_default_stays_unsharded(self):
        system = FidrSystem(num_buckets=512)
        assert type(system.engine) is DedupEngine


class TestDurabilityPolicy:
    def test_default_config_has_no_journal(self):
        engine = build_engine(SystemConfig(), num_buckets=256)
        assert engine.journal is None

    def test_policy_arms_journal_and_cadence(self):
        config = SystemConfig(
            durability=DurabilityPolicy(
                journal=True, checkpoint_every_commits=3
            )
        )
        with build_engine(config, num_buckets=256) as engine:
            assert engine.journal is not None
            assert engine.journal.checkpoint_every_commits == 3

    def test_sharded_policy_arms_one_journal_per_shard(self):
        config = SystemConfig(
            shards=2, durability=DurabilityPolicy(journal=True)
        )
        with build_engine(config, num_buckets=256) as engine:
            journals = [shard.journal for shard in engine.shards]
            assert all(journal is not None for journal in journals)
            assert len({id(journal) for journal in journals}) == 2


class TestRecoveryThroughFactory:
    def test_plain_recovery_preserves_reads(self, rng):
        state = {}
        with build_engine(DURABLE, num_buckets=512) as engine:
            for index in range(16):
                data = rng.randbytes(CHUNK)
                engine.write(index, data)
                state[index] = data
            image = _image_of(engine)
        recovered = build_engine(
            DURABLE, num_buckets=512, recover_from=image
        )
        with recovered:
            assert recovered.recovery is not None
            assert recovered.recovery.clean
            for lba, data in state.items():
                assert recovered.read(lba, 1).data == data
            # The recovered journal continues the durable history.
            assert recovered.journal.size_bytes >= len(image.journal)

    def test_sharded_recovery_is_shard_parallel(self, rng):
        config = SystemConfig(
            shards=2, durability=DurabilityPolicy(journal=True)
        )
        state = {}
        with build_engine(config, num_buckets=512) as engine:
            for index in range(24):
                data = rng.randbytes(CHUNK)
                engine.write(index, data)
                state[index] = data
            images = [_image_of(shard) for shard in engine.shards]
        recovered = build_engine(config, num_buckets=512, recover_from=images)
        with recovered:
            assert all(report.clean for report in recovered.recovery)
            assert recovered.recovery_lba_conflicts == 0
            assert recovered.recovery_snapshots_dropped == 0
            for lba, data in state.items():
                assert recovered.read(lba, 1).data == data
            assert check_sharded_engine(recovered) == []

    def test_plain_config_rejects_image_sequence(self):
        with pytest.raises(ValueError, match="one RecoveryImage"):
            build_engine(DURABLE, recover_from=[])

    def test_sharded_config_rejects_single_image(self, rng):
        config = SystemConfig(
            shards=2, durability=DurabilityPolicy(journal=True)
        )
        with build_engine(DURABLE, num_buckets=256) as donor:
            donor.write(0, rng.randbytes(CHUNK))
            image = _image_of(donor)
        with pytest.raises(ValueError, match="RecoveryImages"):
            build_engine(config, num_buckets=256, recover_from=image)

    def test_sharded_config_rejects_wrong_image_count(self, rng):
        config = SystemConfig(
            shards=3, durability=DurabilityPolicy(journal=True)
        )
        with build_engine(DURABLE, num_buckets=256) as donor:
            donor.write(0, rng.randbytes(CHUNK))
            image = _image_of(donor)
        with pytest.raises(ValueError, match="got 2"):
            build_engine(
                config, num_buckets=256, recover_from=[image, image]
            )
