"""Tests for the end-to-end dedup engine (write/read/reclaim/GC)."""

import copy
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.invariants import check_engine
from repro.datared.compression import ModeledCompressor, ZlibCompressor
from repro.datared.dedup import DedupEngine
from repro.datared.hash_pbn import BUCKET_CAPACITY
from repro.datared.journal import MetadataJournal, recover_into
from repro.errors import CapacityError


def fresh_engine(**kwargs) -> DedupEngine:
    kwargs.setdefault("num_buckets", 256)
    return DedupEngine(**kwargs)


CHUNK = 4096


class TestWritePath:
    def test_unique_then_duplicate(self, rng):
        engine = fresh_engine()
        data = rng.randbytes(CHUNK)
        first = engine.write(0, data)
        second = engine.write(1, data)
        assert first.chunks[0].duplicate is False
        assert second.chunks[0].duplicate is True
        assert second.chunks[0].pbn == first.chunks[0].pbn
        assert engine.stats.dedup_ratio == 0.5

    def test_multi_chunk_write(self, rng):
        engine = fresh_engine()
        payload = rng.randbytes(CHUNK) * 2  # two identical chunks
        report = engine.write(0, payload)
        assert report.unique_chunks == 1
        assert report.duplicate_chunks == 1
        assert report.logical_bytes == 2 * CHUNK

    def test_compression_reduces_stored(self, rng):
        engine = fresh_engine(compressor=ZlibCompressor())
        data = rng.randbytes(CHUNK // 2) + b"\x00" * (CHUNK // 2)
        report = engine.write(0, data)
        assert 0 < report.stored_bytes < CHUNK

    def test_duplicate_stores_nothing(self, rng):
        engine = fresh_engine()
        data = rng.randbytes(CHUNK)
        engine.write(0, data)
        report = engine.write(8, data)
        assert report.stored_bytes == 0

    def test_overwrite_releases_old_chunk(self, rng):
        engine = fresh_engine()
        engine.write(0, rng.randbytes(CHUNK))
        report = engine.write(0, rng.randbytes(CHUNK))
        assert report.reclaimed_chunks == 1
        assert engine.stats.reclaimed_stored_bytes > 0

    def test_overwrite_with_same_content_is_stable(self, rng):
        engine = fresh_engine()
        data = rng.randbytes(CHUNK)
        engine.write(0, data)
        report = engine.write(0, data)
        assert report.duplicate_chunks == 1
        assert report.reclaimed_chunks == 0
        assert engine.read(0, 1).data == data

    def test_shared_chunk_survives_one_release(self, rng):
        engine = fresh_engine()
        data = rng.randbytes(CHUNK)
        engine.write(0, data)
        engine.write(8, data)  # second reference
        engine.write(0, rng.randbytes(CHUNK))  # drop first reference
        assert engine.read(8, 1).data == data

    def test_last_release_retires_fingerprint(self, rng):
        engine = fresh_engine()
        data = rng.randbytes(CHUNK)
        engine.write(0, data)
        engine.write(0, rng.randbytes(CHUNK))
        # Content is gone: rewriting it is unique again.
        report = engine.write(16, data)
        assert report.unique_chunks == 1


class TestReadPath:
    def test_roundtrip(self, rng):
        engine = fresh_engine()
        data = rng.randbytes(2 * CHUNK)
        engine.write(0, data)
        assert engine.read(0, 2).data == data

    def test_holes_read_zero(self):
        engine = fresh_engine()
        report = engine.read(0, 2)
        assert report.data == b"\x00" * (2 * CHUNK)
        assert report.unmapped_chunks == 2

    def test_stored_bytes_read_accounted(self, rng):
        engine = fresh_engine(compressor=ModeledCompressor(0.5))
        engine.write(0, rng.randbytes(CHUNK))
        report = engine.read(0, 1)
        assert report.stored_bytes_read == CHUNK // 2

    def test_validation(self):
        engine = fresh_engine()
        with pytest.raises(ValueError):
            engine.read(0, 0)

    def test_read_after_many_overwrites(self, rng):
        engine = fresh_engine()
        latest = {}
        for _ in range(60):
            lba = rng.randrange(0, 8)
            data = rng.randbytes(CHUNK)
            engine.write(lba, data)
            latest[lba] = data
        for lba, data in latest.items():
            assert engine.read(lba, 1).data == data

    def test_stored_bytes_survive_source_buffer_mutation(self, rng):
        """The incompressible path stores a *view* of the caller's write
        buffer (DESIGN.md §5.4); the container's append must take its
        defensive copy before ``write`` returns, or a caller reusing its
        buffer would corrupt stored data."""
        engine = fresh_engine()
        source = bytearray(rng.randbytes(CHUNK))  # incompressible
        original = bytes(source)
        engine.write(0, source)
        source[:] = b"\xa5" * CHUNK  # caller reuses the buffer
        assert engine.read(0, 1).data == original

    def test_stored_views_survive_batched_write_buffer_reuse(self, rng):
        """Same guarantee for ``write_many``: every chunk is a zero-copy
        slice of one batch buffer, and none may alias it after return."""
        engine = fresh_engine()
        source = bytearray(
            rng.randbytes(CHUNK) + rng.randbytes(CHUNK // 2) + bytes(CHUNK // 2)
        )
        original = bytes(source)
        engine.write_many([(0, source)])
        source[:] = b"\x5a" * len(source)
        assert engine.read(0, 2).data == original


class TestStats:
    def test_reduction_factor(self, rng):
        engine = fresh_engine(compressor=ModeledCompressor(0.5))
        data = rng.randbytes(CHUNK)
        engine.write(0, data)
        engine.write(8, data)
        # 2 logical chunks, 0.5 stored -> 4x reduction.
        assert engine.stats.reduction_factor == pytest.approx(4.0)

    def test_compression_ratio_uses_cumulative_stored(self, rng):
        engine = fresh_engine(compressor=ModeledCompressor(0.5))
        engine.write(0, rng.randbytes(CHUNK))
        engine.write(0, rng.randbytes(CHUNK))  # overwrite (reclaims)
        assert engine.stats.compression_ratio == pytest.approx(0.5)
        assert engine.stats.live_stored_bytes == CHUNK // 2


class TestGarbageCollection:
    def test_collect_compacts_dead_containers(self, rng):
        from repro.datared.container import ContainerStore

        engine = DedupEngine(
            num_buckets=256,
            compressor=ModeledCompressor(1.0),
            containers=ContainerStore(container_size=16 * 1024),
        )
        # Fill a few containers, then overwrite most LBAs to create garbage.
        originals = {lba: rng.randbytes(CHUNK) for lba in range(0, 8 * 8, 8)}
        for lba, data in originals.items():
            engine.write(lba, data)
        engine.flush()
        survivors = {}
        for lba in list(originals)[:-2]:
            data = rng.randbytes(CHUNK)
            engine.write(lba, data)
            survivors[lba] = data
        for lba in list(originals)[-2:]:
            survivors[lba] = originals[lba]
        engine.flush()
        reclaimed = engine.collect_garbage(threshold=0.5)
        assert reclaimed > 0
        for lba, data in survivors.items():
            assert engine.read(lba, 1).data == data

    def test_collect_noop_when_clean(self, rng):
        engine = fresh_engine()
        engine.write(0, rng.randbytes(CHUNK))
        engine.flush()
        assert engine.collect_garbage() == 0


class TestGcIndexedPlacement:
    """Collection resolves placements through the PbnMap's incremental
    reverse index — never by rescanning the whole PBN population."""

    @staticmethod
    def engine_with_garbage(rng, *, cold_chunks=0):
        """An engine whose first post-cold container is 6/8 dead.

        16-KB containers and a 0.5 compressor hold exactly 8 chunks per
        container, so ``cold_chunks`` (a multiple of 8) seals whole
        containers of untouched live data before the garbage pattern.
        """
        from repro.datared.container import ContainerStore

        engine = DedupEngine(
            num_buckets=256,
            compressor=ModeledCompressor(0.5),
            containers=ContainerStore(container_size=16 * 1024),
        )
        for i in range(cold_chunks):
            engine.write(1000 + i * 8, rng.randbytes(CHUNK))
        victims = {lba: rng.randbytes(CHUNK) for lba in range(0, 8 * 8, 8)}
        for lba, data in victims.items():
            engine.write(lba, data)
        engine.flush()
        survivors = dict(list(victims.items())[-2:])
        for lba in list(victims)[:-2]:
            data = rng.randbytes(CHUNK)
            engine.write(lba, data)
            survivors[lba] = data
        engine.flush()
        return engine, survivors

    def test_collect_never_rescans_pbn_records(self, rng, monkeypatch):
        engine, survivors = self.engine_with_garbage(rng)

        def boom(*args, **kwargs):
            raise AssertionError("collect_garbage rescanned the PBN map")

        monkeypatch.setattr(engine.pbn_map, "records", boom)
        assert engine.collect_garbage(threshold=0.5) > 0
        for lba, data in survivors.items():
            assert engine.read(lba, 1).data == data

    def test_gc_work_independent_of_pbn_population(self, rng, monkeypatch):
        """Same garbage, 10x the live PBNs: identical index lookups."""
        lookups = {}
        for label, cold in (("small", 0), ("large", 80)):
            engine, survivors = self.engine_with_garbage(
                rng, cold_chunks=cold
            )
            calls = []
            original = engine.pbn_map.owners

            def counted(container_id, original=original, calls=calls):
                found = original(container_id)
                calls.extend(found.values())
                return found

            monkeypatch.setattr(engine.pbn_map, "owners", counted)
            assert engine.collect_garbage(threshold=0.5) > 0
            lookups[label] = len(calls)
            for lba, data in survivors.items():
                assert engine.read(lba, 1).data == data
        assert lookups["small"] == lookups["large"]
        # Exactly the victims' live chunks get resolved (one offset map
        # per victim container): the 2 never-overwritten survivors in
        # the 6/8-dead container.
        assert lookups["small"] == 2


class TestPropertyRoundtrip:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 8)),
        min_size=1, max_size=60,
    ))
    def test_engine_matches_dict_model(self, writes):
        """Writes of content-id-derived chunks; reads must match a dict."""
        engine = fresh_engine(compressor=ModeledCompressor(0.5))
        model = {}
        base_rng = random.Random(42)
        pool = [base_rng.randbytes(CHUNK) for _ in range(9)]
        for lba, content_id in writes:
            data = pool[content_id]
            engine.write(lba, data)
            model[lba] = data
        for lba, data in model.items():
            assert engine.read(lba, 1).data == data
        # Dedup invariant: stored uniques never exceed distinct contents.
        assert engine.stats.unique_chunks <= len(pool) + len(model)


class TestFullIndexRefusal:
    """A full Hash-PBN table is a typed, clean refusal: the chunk that
    does not fit raises ``CapacityError`` and mutates nothing."""

    @staticmethod
    def _fill(engine, rng):
        """One unique chunk per bucket slot; returns {lba: data}."""
        written = {}
        for lba in range(BUCKET_CAPACITY * engine.table.num_buckets):
            written[lba] = rng.randbytes(CHUNK)
            engine.write(lba, written[lba])
        assert engine.table.is_full
        return written

    @pytest.mark.parametrize("journaled", [False, True])
    def test_refused_unique_mutates_nothing(self, rng, journaled):
        journal = MetadataJournal() if journaled else None
        engine = DedupEngine(
            num_buckets=1, compressor=ModeledCompressor(0.5), journal=journal
        )
        written = self._fill(engine, rng)
        before = copy.copy(engine.stats)
        placements = sorted(engine.containers.live_placements())
        image = journal.to_bytes() if journal is not None else None

        with pytest.raises(CapacityError, match="full"):
            engine.write(500, rng.randbytes(CHUNK))  # the 108th unique

        assert engine.stats == before
        assert engine.table.entry_count == len(written)
        assert sorted(engine.containers.live_placements()) == placements
        assert engine.lba_map.get(500) is None
        if journal is not None:
            assert journal.to_bytes()[: len(image)] == image
        assert check_engine(engine) == []
        for lba, data in written.items():
            assert engine.read(lba).data == data
        # Duplicates need no index slot, so they still succeed.
        report = engine.write(600, written[5])
        assert report.duplicate_chunks == 1
        assert engine.read(600).data == written[5]
        assert check_engine(engine) == []

    def test_earlier_chunks_of_the_batch_stay_applied(self, rng):
        """Per-chunk atomicity, as in a split write."""
        journal = MetadataJournal()
        engine = DedupEngine(
            num_buckets=1, compressor=ModeledCompressor(0.5), journal=journal
        )
        written = self._fill(engine, rng)
        # Overwriting LBA 0 with a duplicate of LBA 1 retires LBA 0's
        # chunk (room for one), the next unique takes that room, and
        # the one after that is refused.
        fits, refused = rng.randbytes(CHUNK), rng.randbytes(CHUNK)
        with pytest.raises(CapacityError):
            engine.write_many(
                [(0, written[1]), (700, fits), (701, refused)]
            )
        written[0] = written[1]
        written[700] = fits
        assert engine.lba_map.get(701) is None
        assert check_engine(engine) == []
        for lba, data in written.items():
            assert engine.read(lba).data == data
        # The applied prefix was fenced and its deferred free drained:
        # a crash now recovers exactly the state the engine serves.
        assert engine._pending_releases == []
        recovered = DedupEngine(
            num_buckets=1,
            compressor=ModeledCompressor(0.5),
            containers=copy.deepcopy(engine.containers),
        )
        assert recover_into(recovered, journal.to_bytes()).clean
        for lba, data in written.items():
            assert recovered.read(lba).data == data
