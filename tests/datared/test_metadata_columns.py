"""Differential tests of the column-backed metadata maps.

:class:`~repro.datared.lba_map.PbnMap` (PBN-indexed columns) and
:class:`~repro.datared.lba_map.LbaMap` (paged 8-byte slots) against the
dict-of-records models in :mod:`tests.datared.reference`, and a
checkpoint round trip of an engine whose metadata exercises every
column: reused PBNs, a snapshot's pins and a chunk GC repointed.
"""

from __future__ import annotations

import copy
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.invariants import check_engine
from repro.datared.compression import ModeledCompressor
from repro.datared.container import ContainerStore
from repro.datared.dedup import DedupEngine
from repro.datared.hash_pbn import HashPbnTable
from repro.datared.journal import MetadataJournal, RecordKind, recover_into
from repro.datared.lba_map import LBA_PAGE_SLOTS, LbaMap, PbnAllocator, PbnMap

from .reference import ReferenceLbaMap, ReferencePbnMap

CHUNK = 4096

#: A small pool, so a fingerprint is retired and placed again.
DIGESTS = [bytes([index]) * 32 for index in range(10)]


def vars_of(record):
    return (
        record.container_id, record.offset, record.stored_size,
        record.fingerprint, record.refcount,
    )


def _same_pbn_maps(columns: PbnMap, model: ReferencePbnMap, next_pbn: int,
                   containers: int) -> None:
    assert len(columns) == len(model)
    assert columns.live_stored_bytes == model.live_stored_bytes
    assert list(columns.pbns()) == sorted(model.records)
    for pbn in range(next_pbn + 2):
        assert (pbn in columns) == (pbn in model.records)
        if pbn in model.records:
            record = model.records[pbn]
            assert vars_of(columns.get(pbn)) == vars_of(record)
            assert columns.placements([pbn, None]) == [
                (record.container_id, record.offset, record.stored_size), None
            ]
        else:
            with pytest.raises(KeyError):
                columns.get(pbn)
            with pytest.raises(KeyError):
                columns.placements([pbn])
    for digest in DIGESTS:
        assert columns.find_by_fingerprint(digest) == model.find_by_fingerprint(digest)
    for container_id in range(containers + 1):
        assert columns.owners(container_id) == model.owners(container_id)


class TestPbnMapDifferential:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["add", "add", "ref", "unref", "unref", "repoint"]),
            st.integers(0, 1 << 16),
        ),
        max_size=100,
    ))
    def test_matches_dict_of_records(self, ops):
        columns, model = PbnMap(), ReferencePbnMap()
        allocator = PbnAllocator()
        placements = itertools.count()

        def place():
            # Every placement is new: a container takes six, offsets grow.
            n = next(placements)
            return n // 6, (n % 6) * 3

        for op, pick in ops:
            live = sorted(model.records)
            if op == "add":
                in_use = {record.fingerprint for record in model.records.values()}
                unused = [digest for digest in DIGESTS if digest not in in_use]
                if not unused:
                    continue
                pbn = allocator.allocate()  # a freed PBN first
                container_id, offset = place()
                chunk = (pbn, container_id, offset, 1 + pick % 4000,
                         unused[pick % len(unused)])
                columns.add(*chunk)
                model.add(*chunk)
            elif live:
                pbn = live[pick % len(live)]
                if op == "ref":
                    assert columns.ref(pbn) == model.ref(pbn)
                elif op == "unref":
                    dead = model.unref(pbn)
                    assert columns.unref(pbn) == dead
                    if dead is not None:
                        allocator.free(pbn)
                        with pytest.raises(KeyError):
                            columns.ref(pbn)
                else:
                    container_id, offset = place()
                    columns.repoint(pbn, container_id, offset)
                    model.repoint(pbn, container_id, offset)
            _same_pbn_maps(columns, model, allocator.next_pbn,
                           next(placements) // 6)
        rebuilt = PbnMap.from_columns(columns.columns())
        _same_pbn_maps(rebuilt, model, allocator.next_pbn, next(placements) // 6)

    def test_sparse_add_grows_the_columns(self):
        columns = PbnMap()
        columns.add(5, 2, 7, 100, DIGESTS[0])
        assert list(columns.pbns()) == [5]
        assert all(pbn not in columns for pbn in range(5))
        columns.add(0, 2, 9, 50, DIGESTS[1])
        assert columns.owners(2) == {7: 5, 9: 0}
        assert columns.live_stored_bytes == 150

    def test_rejects_what_a_column_cannot_hold(self):
        columns = PbnMap()
        with pytest.raises(ValueError):
            columns.add(0, 0, 0, 0, DIGESTS[0])  # stored size 0 means free
        with pytest.raises(ValueError):
            columns.add(0, 0, 0, 10, b"short")
        with pytest.raises(ValueError):
            columns.add(-1, 0, 0, 10, DIGESTS[0])
        assert len(columns) == 0


LBAS = st.sampled_from(
    [0, 1, 511, 512, 513, 1023, 1024, 2**40, 2**40 + 1]
) | st.integers(0, 3 * LBA_PAGE_SLOTS)


class TestLbaMapDifferential:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["set", "set", "unmap"]), LBAS,
                  st.integers(0, (1 << 48) - 1)),
        max_size=80,
    ))
    def test_matches_dict(self, ops):
        paged, model = LbaMap(), ReferenceLbaMap()
        touched = set()
        for op, lba, pbn in ops:
            touched.add(lba)
            if op == "set":
                assert paged.set(lba, pbn) == model.set(lba, pbn)
            else:
                assert paged.unmap(lba) == model.unmap(lba)
            assert len(paged) == len(model)
        for lba in touched | {lba + 1 for lba in touched}:
            assert paged.get(lba) == model.get(lba)
            assert (lba in paged) == (model.get(lba) is not None)
        assert list(paged.items()) == model.items()  # ascending LBA
        rebuilt = LbaMap.from_page_images(paged.page_images())
        assert list(rebuilt.items()) == model.items()
        assert len(rebuilt) == len(model)
        assert paged.metadata_bytes == 6 * len(model)


def _journaled_engine():
    # Sixteen 2-KiB stored chunks per container, so one overwrite pass
    # leaves a sealed container mostly garbage.
    journal = MetadataJournal()
    engine = DedupEngine(
        table=HashPbnTable(1024),
        compressor=ModeledCompressor(0.5),
        containers=ContainerStore(container_size=16 * CHUNK // 2),
        journal=journal,
    )
    return engine, journal


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_restored_engine_reads_back_identically(self, seed):
        rng = random.Random(seed)
        engine, journal = _journaled_engine()
        pool = [rng.randbytes(CHUNK) for _ in range(4)]
        for lba in range(16):
            engine.write(lba, rng.randbytes(CHUNK))
        engine.flush()  # container 0 sealed, PBNs 0..15
        for lba in range(12):  # frees PBNs the next uniques reuse
            engine.write(lba, rng.randbytes(CHUNK))
        engine.write(20, pool[0])
        engine.write(21, pool[0])  # a duplicate: refcount 2
        engine.create_snapshot("before-gc")
        engine.write(13, rng.randbytes(CHUNK))  # pinned by the snapshot
        engine.flush()
        assert engine.collect_garbage(threshold=0.5) >= 1  # repoints
        engine.trim(14)
        engine.write(2**40, pool[1])  # a sparse LBA page
        reused = [pbn for pbn in engine.pbn_map.pbns() if pbn < 16]
        assert reused and engine.stats.gc_bytes_moved > 0
        check_engine(engine)

        engine.checkpoint()
        image = journal.to_bytes()
        records, clean = MetadataJournal.decode(image)
        assert clean and records[-1].kind == RecordKind.CHECKPOINT
        recovered = DedupEngine(
            table=HashPbnTable(1024),
            compressor=ModeledCompressor(0.5),
            containers=copy.deepcopy(engine.containers),
        )
        report = recover_into(recovered, image)
        assert report.from_checkpoint and report.orphans_reclaimed == 0
        check_engine(recovered)

        assert list(recovered.pbn_map.records()) != []
        assert [
            (pbn, vars_of(record)) for pbn, record in recovered.pbn_map.records()
        ] == [(pbn, vars_of(record)) for pbn, record in engine.pbn_map.records()]
        assert list(recovered.lba_map.items()) == list(engine.lba_map.items())
        assert recovered.allocator.next_pbn == engine.allocator.next_pbn
        assert recovered.allocator.allocated == engine.allocator.allocated
        lbas = sorted({lba for lba, _ in engine.lba_map.items()} | {14, 99})
        assert recovered.read_many(lbas).pieces == engine.read_many(lbas).pieces
        for lba in range(22):
            assert (
                recovered.read_snapshot("before-gc", lba).data
                == engine.read_snapshot("before-gc", lba).data
            )
        # Dedup identity survives: the pool chunk is found, not stored.
        assert recovered.write(30, pool[0]).chunks[0].duplicate
        check_engine(recovered)

