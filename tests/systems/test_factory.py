"""``SystemConfig`` threading through the R009 engine factory.

``build_engine`` is the one place the serving layer may construct an
engine: it must build a plain :class:`~repro.datared.dedup.DedupEngine`,
arm the journal its durability policy asks for, and rebuild one from a
crash :class:`~repro.datared.journal.RecoveryImage`.
"""

import copy

from repro.datared.dedup import DedupEngine
from repro.datared.journal import RecoveryImage
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
