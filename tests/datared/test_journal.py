"""Tests for group-commit journaling, checkpoints, and crash recovery."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.datared.compression import ModeledCompressor
from repro.datared.dedup import DedupEngine
from repro.datared.hash_pbn import HashPbnTable
from repro.datared.lba_map import LbaMap, PbnMap
from repro.datared.journal import (
    CheckpointState,
    MetadataJournal,
    RecordKind,
    RecoveryImage,
    recover_into,
    replay_journal,
)
from repro.errors import JournalCorruptError

CHUNK = 4096


def journaled_engine(checkpoint_every=None):
    journal = MetadataJournal(checkpoint_every_commits=checkpoint_every)
    engine = DedupEngine(
        table=HashPbnTable(1024),
        compressor=ModeledCompressor(0.5),
        journal=journal,
    )
    return engine, journal


def state_of(next_pbn, chunks=(), mappings=(), snapshots=(),
             stats=(0, 0, 0, 0, 0, 0)):
    """A :class:`CheckpointState` over maps holding ``chunks`` —
    ``(pbn, digest, container, offset, stored, refcount)`` — and
    ``mappings`` — ``(lba, pbn)``."""
    pbn_map, lba_map = PbnMap(), LbaMap()
    for pbn, digest, container, offset, stored, refcount in chunks:
        pbn_map.add(pbn, container, offset, stored, digest, refcount)
    for lba, pbn in mappings:
        lba_map.set(lba, pbn)
    return CheckpointState(
        next_pbn=next_pbn,
        pbn_columns=pbn_map.columns(),
        lba_pages=lba_map.page_images(),
        snapshots=list(snapshots),
        stats=stats,
    )


def fresh_engine(containers):
    return DedupEngine(
        table=HashPbnTable(1024),
        compressor=ModeledCompressor(0.5),
        containers=copy.deepcopy(containers),
    )


def recover(journal, engine, image=None):
    recovered = fresh_engine(engine.containers)
    report = recover_into(
        recovered, journal.to_bytes() if image is None else image
    )
    return recovered, report


class TestGroupCommit:
    def test_staged_records_are_not_durable(self):
        journal = MetadataJournal()
        journal.on_map(1, 1)
        assert journal.to_bytes() == b""
        assert journal.staged_bytes > 0

    def test_commit_fences_the_batch(self):
        journal = MetadataJournal()
        journal.on_map(1, 1)
        journal.on_map(2, 2)
        appended = journal.commit()
        assert appended == journal.size_bytes
        assert journal.staged_bytes == 0
        records, clean = MetadataJournal.decode(journal.to_bytes())
        assert clean
        assert [r.kind for r in records] == [
            RecordKind.MAP, RecordKind.MAP, RecordKind.COMMIT,
        ]

    def test_empty_commit_is_free(self):
        journal = MetadataJournal()
        assert journal.commit() == 0
        assert journal.to_bytes() == b""
        assert journal.commits == 0

    def test_engine_commits_once_per_call(self, rng):
        engine, journal = journaled_engine()
        engine.write_many(
            [(i * 8, rng.randbytes(CHUNK)) for i in range(4)]
        )
        assert journal.commits == 1
        assert journal.staged_bytes == 0
        records, clean = MetadataJournal.decode(journal.to_bytes())
        assert clean and records[-1].kind == RecordKind.COMMIT

    def test_on_durable_reports_stable_prefix(self, rng):
        journal = MetadataJournal()
        seen = []
        journal.on_durable = lambda image, stable: seen.append(
            (len(image), stable)
        )
        journal.on_map(1, 1)
        journal.commit()
        journal.on_map(2, 2)
        journal.commit()
        assert len(seen) == 2
        assert seen[0][1] == 0
        assert seen[1][1] == seen[0][0]  # old durable length


class TestJournalFraming:
    def test_empty_decodes_clean(self):
        records, clean = MetadataJournal.decode(b"")
        assert records == [] and clean

    def test_records_roundtrip(self):
        journal = MetadataJournal()
        digest = b"\xab" * 32
        journal.on_new_chunk(7, digest, 2, 64, 2048, 4096)
        journal.on_map(100, 7)
        journal.on_free(3)
        journal.commit()
        records, clean = MetadataJournal.decode(journal.to_bytes())
        assert clean
        assert [r.kind for r in records] == [
            RecordKind.NEW_CHUNK, RecordKind.MAP, RecordKind.FREE,
            RecordKind.COMMIT,
        ]
        new_chunk = records[0]
        assert (new_chunk.pbn, new_chunk.digest, new_chunk.container_id,
                new_chunk.offset, new_chunk.stored_size,
                new_chunk.logical_size) == (7, digest, 2, 64, 2048, 4096)
        assert (records[1].lba, records[1].pbn) == (100, 7)

    def test_torn_tail_returns_prefix(self):
        journal = MetadataJournal()
        journal.on_map(1, 1)
        journal.commit()
        journal.on_map(2, 2)
        journal.commit()
        image = journal.to_bytes()
        records, clean = MetadataJournal.decode(image[:-3])
        assert not clean
        assert len(records) == 3  # MAP, COMMIT, MAP survive framing

    def test_bitflip_detected(self):
        journal = MetadataJournal()
        journal.on_map(1, 1)
        journal.commit()
        image = bytearray(journal.to_bytes())
        image[7] ^= 0x01  # corrupt the payload
        records, clean = MetadataJournal.decode(bytes(image))
        assert not clean
        assert records == []

    def test_header_bitflip_detected(self):
        journal = MetadataJournal()
        journal.on_map(1, 1)
        journal.commit()
        image = bytearray(journal.to_bytes())
        image[0] ^= 0x04  # flip the record *kind* — CRC must catch it
        records, clean = MetadataJournal.decode(bytes(image))
        assert not clean
        assert records == []

    def test_frame_spans_walk(self):
        journal = MetadataJournal()
        journal.on_map(1, 1)
        journal.on_unmap(2)
        journal.commit()
        spans = MetadataJournal.frame_spans(journal.to_bytes())
        assert [kind for kind, _s, _e in spans] == [
            RecordKind.MAP, RecordKind.UNMAP, RecordKind.COMMIT,
        ]
        assert spans[0][1] == 0
        assert all(a[2] == b[1] for a, b in zip(spans, spans[1:]))
        assert spans[-1][2] == journal.size_bytes

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 400))
    def test_any_truncation_yields_valid_prefix(self, cut):
        journal = MetadataJournal()
        for i in range(10):
            journal.on_new_chunk(i, bytes([i]) * 32, 0, i, 100, CHUNK)
            journal.on_map(i, i)
            journal.commit()
        image = journal.to_bytes()
        records, _ = MetadataJournal.decode(image[: min(cut, len(image))])
        # Prefix property: records decode in exactly the written order.
        cycle = [RecordKind.NEW_CHUNK, RecordKind.MAP, RecordKind.COMMIT]
        for position, record in enumerate(records):
            assert record.kind == cycle[position % 3]


class TestCheckpoint:
    def test_state_roundtrip(self):
        state = state_of(
            17,
            chunks=[(3, b"\x11" * 32, 0, 2, 900, 2)],
            mappings=[(8, 3), (16, 3), (2**40, 3)],
            snapshots=[("snap-a", [(8, 3)])],
            stats=(8192, 4096, 900, 0, 1, 1),
        )
        assert CheckpointState.decode(state.encode()) == state

    def test_decode_rejects_trailing_bytes(self):
        state = state_of(1)
        with pytest.raises(JournalCorruptError):
            CheckpointState.decode(state.encode() + b"\x00")

    def test_decode_rejects_truncation(self):
        state = state_of(2, chunks=[(1, b"\x22" * 32, 0, 0, 10, 1)])
        with pytest.raises(JournalCorruptError):
            CheckpointState.decode(state.encode()[:-4])

    def test_checkpoint_requires_empty_stage(self):
        journal = MetadataJournal()
        journal.on_map(1, 1)
        with pytest.raises(ValueError, match="commit first"):
            journal.write_checkpoint(state_of(0))

    def test_truncation_is_lazy(self, rng):
        engine, journal = journaled_engine()
        engine.write(0, rng.randbytes(CHUNK))
        before = journal.size_bytes
        engine.checkpoint()
        # The superseded prefix is still there: a crash tearing the
        # checkpoint record must find the old log intact ahead of it.
        assert journal.size_bytes > before
        engine.write(8, rng.randbytes(CHUNK))
        # ... and the next commit cut it.
        records, clean = MetadataJournal.decode(journal.to_bytes())
        assert clean
        assert records[0].kind == RecordKind.CHECKPOINT

    def test_cadence_checkpoints_automatically(self, rng):
        engine, journal = journaled_engine(checkpoint_every=2)
        for i in range(5):
            engine.write(i * 8, rng.randbytes(CHUNK))
        assert journal.checkpoints >= 2

    def test_recovery_from_checkpoint_plus_tail(self, rng):
        engine, journal = journaled_engine()
        state = {}
        for i in range(6):
            data = rng.randbytes(CHUNK)
            engine.write(i * 8, data)
            state[i * 8] = data
        engine.checkpoint()
        tail = rng.randbytes(CHUNK)
        engine.write(0, tail)
        state[0] = tail
        recovered, report = recover(journal, engine)
        assert report.clean and report.from_checkpoint
        for lba, data in state.items():
            assert recovered.read(lba, 1).data == data


class TestRecovery:
    def test_full_recovery_preserves_reads(self, rng):
        engine, journal = journaled_engine()
        state = {}
        pool = [rng.randbytes(CHUNK) for _ in range(20)]
        for _ in range(200):
            lba = rng.randrange(60) * 8
            data = (
                pool[rng.randrange(20)]
                if rng.random() < 0.5
                else rng.randbytes(CHUNK)
            )
            engine.write(lba, data)
            state[lba] = data
        recovered, report = recover(journal, engine)
        assert report.clean
        for lba, data in state.items():
            assert recovered.read(lba, 1).data == data

    def test_recovered_metadata_matches(self, rng):
        engine, journal = journaled_engine()
        data = rng.randbytes(CHUNK)
        engine.write(0, data)
        engine.write(8, data)  # duplicate
        engine.write(0, rng.randbytes(CHUNK))  # overwrite (chunk shared)
        recovered, _report = recover(journal, engine)
        assert len(recovered.lba_map) == len(engine.lba_map)
        assert len(recovered.pbn_map) == len(engine.pbn_map)
        for lba, pbn in engine.lba_map.items():
            assert recovered.lba_map.get(lba) == pbn
        for pbn, record in engine.pbn_map.records():
            assert recovered.pbn_map.get(pbn).refcount == record.refcount

    def test_recovery_restores_dedup_identity(self, rng):
        """New writes of previously stored content still deduplicate."""
        engine, journal = journaled_engine()
        data = rng.randbytes(CHUNK)
        engine.write(0, data)
        recovered, _report = recover(journal, engine)
        report = recovered.write(8, data)
        assert report.duplicate_chunks == 1

    def test_recovery_restores_allocator(self, rng):
        """PBNs freed before the crash are reusable after recovery."""
        engine, journal = journaled_engine()
        engine.write(0, rng.randbytes(CHUNK))
        engine.write(0, rng.randbytes(CHUNK))  # frees the first PBN
        recovered, _report = recover(journal, engine)
        report = recovered.write(8, rng.randbytes(CHUNK))
        assert report.chunks[0].pbn not in (
            pbn for lba, pbn in recovered.lba_map.items() if lba != 8
        )
        assert recovered.read(0, 1).data is not None

    def test_torn_batch_rolls_back_whole(self, rng):
        engine, journal = journaled_engine()
        first = rng.randbytes(CHUNK)
        engine.write(0, first)
        cut = journal.size_bytes  # crash point: after the first fence
        engine.write(8, rng.randbytes(CHUNK))
        image = journal.to_bytes()[: cut + 5]  # tear mid-record
        recovered, report = recover(journal, engine, image=image)
        assert not report.clean
        # The torn frame never parses, so nothing well-framed is
        # discarded — but the batch's orphaned placement is reclaimed.
        assert report.orphans_reclaimed == 1
        assert recovered.read(0, 1).data == first
        assert recovered.lba_map.get(8) is None  # lost, but cleanly

    def test_unfenced_records_replay_nothing(self):
        journal = MetadataJournal()
        journal.on_new_chunk(1, b"\x01" * 32, 0, 0, 100, CHUNK)
        journal.on_map(8, 1)
        journal.commit()
        image = journal.to_bytes()
        # Cut the COMMIT fence off: nothing before it was acknowledged.
        fence_start = MetadataJournal.frame_spans(image)[-1][1]
        engine = DedupEngine(num_buckets=256)
        report = replay_journal(engine, image[:fence_start])
        assert not report.clean
        assert report.records_replayed == 0
        assert report.records_discarded == 2
        assert len(engine.lba_map) == 0

    def test_snapshots_survive_recovery(self, rng):
        engine, journal = journaled_engine()
        old = rng.randbytes(CHUNK)
        engine.write(0, old)
        engine.create_snapshot("pin")
        engine.write(0, rng.randbytes(CHUNK))  # CoW: old chunk stays
        recovered, report = recover(journal, engine)
        assert report.clean
        assert recovered.snapshots() == ["pin"]
        assert recovered.read_snapshot("pin", 0).data == old

    def test_recovered_journal_is_seeded(self, rng):
        """An armed journal continues the durable history seamlessly."""
        engine, journal = journaled_engine()
        data = rng.randbytes(CHUNK)
        engine.write(0, data)
        image = journal.to_bytes()
        recovered = DedupEngine(
            table=HashPbnTable(1024),
            compressor=ModeledCompressor(0.5),
            containers=copy.deepcopy(engine.containers),
            journal=MetadataJournal(),
        )
        recover_into(recovered, image)
        assert recovered.journal.to_bytes() == image
        # Second-generation crash: keep writing, recover again.
        more = rng.randbytes(CHUNK)
        recovered.write(8, more)
        second, report = recover(recovered.journal, recovered)
        assert report.clean
        assert second.read(0, 1).data == data
        assert second.read(8, 1).data == more

    def test_unjournaled_engine_pays_nothing(self, rng):
        engine = DedupEngine(num_buckets=256, compressor=ModeledCompressor(0.5))
        assert engine.journal is None
        engine.write(0, rng.randbytes(CHUNK))  # no journal calls, no error

    def test_journal_size_scales_with_mutations(self, rng):
        engine, journal = journaled_engine()
        engine.write(0, rng.randbytes(CHUNK))
        small = journal.size_bytes
        for lba in range(8, 8 * 20, 8):
            engine.write(lba, rng.randbytes(CHUNK))
        assert journal.size_bytes > 10 * small / 2


class TestCorruptionIsTyped:
    """A semantically impossible *committed* prefix raises, never guesses."""

    def _replay(self, journal):
        engine = DedupEngine(num_buckets=256)
        return replay_journal(engine, journal.to_bytes())

    def test_duplicate_new_chunk_raises(self):
        journal = MetadataJournal()
        journal.on_new_chunk(1, b"\x01" * 32, 0, 0, 100, CHUNK)
        journal.on_new_chunk(2, b"\x01" * 32, 0, 1, 100, CHUNK)
        journal.commit()
        with pytest.raises(JournalCorruptError, match="duplicate NEW_CHUNK"):
            self._replay(journal)

    def test_placement_too_wide_for_its_column_raises(self):
        journal = MetadataJournal()
        journal.on_new_chunk(1, b"\x01" * 32, 2**40, 0, 100, CHUNK)
        journal.commit()
        with pytest.raises(JournalCorruptError, match="cannot be replayed"):
            self._replay(journal)

    def test_map_to_unplaced_pbn_raises(self):
        journal = MetadataJournal()
        journal.on_map(8, 42)
        journal.commit()
        with pytest.raises(JournalCorruptError, match="never placed"):
            self._replay(journal)

    def test_repoint_of_unplaced_pbn_raises(self):
        journal = MetadataJournal()
        journal.on_repoint(42, 1, 0)
        journal.commit()
        with pytest.raises(JournalCorruptError, match="never placed"):
            self._replay(journal)

    def test_placement_absent_from_containers_raises(self):
        # CRC-valid journal claiming a chunk the data SSDs don't hold:
        # serving it would be a silent wrong answer, so recovery refuses.
        journal = MetadataJournal()
        journal.on_new_chunk(1, b"\x01" * 32, 0, 0, 100, CHUNK)
        journal.on_map(8, 1)
        journal.commit()
        engine = DedupEngine(num_buckets=256)
        with pytest.raises(JournalCorruptError, match="holds no chunk"):
            recover_into(engine, journal.to_bytes())

    def test_snapshot_delete_of_unknown_raises(self):
        journal = MetadataJournal()
        journal.on_snapshot_delete("ghost")
        journal.commit()
        with pytest.raises(JournalCorruptError, match="unknown snapshot"):
            self._replay(journal)

    def test_snapshot_create_of_existing_raises(self):
        journal = MetadataJournal()
        journal.on_snapshot_create("twice")
        journal.on_snapshot_create("twice")
        journal.commit()
        with pytest.raises(JournalCorruptError, match="existing snapshot"):
            self._replay(journal)


class TestRecoverThroughFactory:
    def test_factory_recovers_with_the_callers_compressor(self, rng):
        """A hand-built journaled engine's image recovers through the
        sanctioned path, ``build_engine(cfg, recover_from=...)``, with
        the compressor the caller supplies (what the removed
        ``recover_engine`` shim was last used for)."""
        from repro.systems.config import SystemConfig
        from repro.systems.factory import build_engine

        engine, journal = journaled_engine()
        data = rng.randbytes(CHUNK)
        engine.write(0, data)
        image = RecoveryImage(
            journal=journal.to_bytes(),
            containers=copy.deepcopy(engine.containers),
        )
        with build_engine(
            SystemConfig(),
            num_buckets=1024,
            compressor=ModeledCompressor(0.5),
            recover_from=image,
        ) as recovered:
            assert recovered.recovery is not None and recovered.recovery.clean
            assert recovered.read(0, 1).data == data


class TestFuzzRecovery:
    """Hypothesis: mangled images recover consistently or raise typed.

    Each workload captures a container-store image at every group-commit
    fence via the journal's ``on_durable`` hook (before that commit's
    deferred frees apply) — exactly the surviving disk state a crash at
    that fence would leave, which is what recovery runs against.
    """

    def _workload(self, seed):
        import random as _random

        rng = _random.Random(seed)
        engine, journal = journaled_engine()
        captures = {0: copy.deepcopy(engine.containers)}
        journal.on_durable = lambda image, stable: captures.__setitem__(
            len(image), copy.deepcopy(engine.containers)
        )
        fences = [(0, {})]  # (durable size, acknowledged state)
        state = {}
        for _ in range(10):
            lba = rng.randrange(8) * 8
            if rng.random() < 0.2 and state:
                engine.trim(lba)
                state.pop(lba, None)
            else:
                data = rng.randbytes(CHUNK)
                engine.write(lba, data)
                state[lba] = data
            fences.append((journal.size_bytes, dict(state)))
        return engine, journal, fences, captures

    def _recover_at(self, captures, fence_size, image):
        recovered = fresh_engine(captures[fence_size])
        report = recover_into(recovered, image)
        return recovered, report

    def _assert_state(self, recovered, expected):
        assert {lba for lba, _ in recovered.lba_map.items()} == set(expected)
        for lba, data in expected.items():
            assert recovered.read(lba, 1).data == data

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), cut=st.integers(0, 4000))
    def test_torn_tail_recovers_the_last_fence_state(self, seed, cut):
        _engine, journal, fences, captures = self._workload(seed)
        image = journal.to_bytes()
        cut = min(cut, len(image))
        size, expected = [(s, st) for s, st in fences if s <= cut][-1]
        recovered, report = self._recover_at(captures, size, image[:cut])
        assert report.durable_bytes == size
        # Clean exactly when the cut is a fence boundary: nothing framed
        # or fenced was lost.
        assert report.clean == (cut == size)
        self._assert_state(recovered, expected)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        position=st.integers(0, 3999),
        bit=st.integers(0, 7),
    )
    def test_bitflip_recovers_the_preceding_fence(self, seed, position, bit):
        _engine, journal, fences, captures = self._workload(seed)
        image = bytearray(journal.to_bytes())
        position = position % len(image)
        image[position] ^= 1 << bit
        # CRC32 catches any single-bit flip, so recovery lands on the
        # last fence before the flipped byte's frame — an acknowledged
        # state, never a mash.
        spans = MetadataJournal.frame_spans(journal.to_bytes())
        frame_start = max(s for _kind, s, _e in spans if s <= position)
        size, expected = [
            (s, st) for s, st in fences if s <= frame_start
        ][-1]
        recovered, report = self._recover_at(captures, size, bytes(image))
        assert not report.clean
        assert report.durable_bytes == size
        self._assert_state(recovered, expected)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), which=st.integers(0, 200))
    def test_duplicated_record_is_refused_typed(self, seed, which):
        _engine, journal, _fences, captures = self._workload(seed)
        image = journal.to_bytes()
        spans = MetadataJournal.frame_spans(image)
        _kind, start, end = spans[which % len(spans)]
        # Re-append one committed frame plus a copy of the final fence:
        # every byte CRC-checks, but the history never happened.  The
        # copied fence's commit sequence regresses, so replay refuses
        # with the typed error instead of serving a fabricated state
        # (PBN reuse could otherwise point an LBA at another LBA's
        # bytes — a silent wrong answer).
        fence_start, fence_end = spans[-1][1], spans[-1][2]
        mangled = image + image[start:end] + image[fence_start:fence_end]
        with pytest.raises(JournalCorruptError):
            self._recover_at(captures, len(image), mangled)
