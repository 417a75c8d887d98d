"""Tests for the LBA→PBN store as a paged map: mappings that span pages.

:class:`~repro.datared.lba_map.LbaMap` keeps its slots in 4-KiB pages of
512; these cases put the addresses on separate, far-apart pages so a
slot or count that leaks between pages shows.
"""

from repro.datared.compression import ModeledCompressor
from repro.datared.dedup import DedupEngine
from repro.datared.lba_map import LBA_PAGE_SLOTS, LbaMap

#: One LBA on each of three pages, none of them adjacent.
SPREAD = (3, 7 * LBA_PAGE_SLOTS + 1, 1000 * LBA_PAGE_SLOTS + LBA_PAGE_SLOTS - 1)


class TestBasics:
    def test_set_get(self):
        store = LbaMap()
        for pbn, lba in enumerate(SPREAD):
            assert store.set(lba, pbn) is None
        for pbn, lba in enumerate(SPREAD):
            assert store.get(lba) == pbn
        assert store.get(SPREAD[1] + 1) is None
        assert len(store) == len(SPREAD)

    def test_remap_returns_previous(self):
        store = LbaMap()
        for pbn, lba in enumerate(SPREAD):
            store.set(lba, pbn)
        assert store.set(SPREAD[2], 50) == 2
        assert store.get(SPREAD[2]) == 50
        assert store.get(SPREAD[0]) == 0
        assert len(store) == len(SPREAD)

    def test_unmap(self):
        store = LbaMap()
        for pbn, lba in enumerate(SPREAD):
            store.set(lba, pbn)
        assert store.unmap(SPREAD[1]) == 1
        assert store.unmap(SPREAD[1]) is None
        assert store.unmap(SPREAD[1] + LBA_PAGE_SLOTS) is None
        assert store.get(SPREAD[2]) == 2
        assert len(store) == len(SPREAD) - 1

    def test_items(self):
        store = LbaMap()
        for pbn, lba in reversed(list(enumerate(SPREAD))):
            store.set(lba, pbn)
        assert list(store.items()) == [(lba, pbn) for pbn, lba in enumerate(SPREAD)]


class TestEngineIntegration:
    def test_overwrite_reclaim_still_works(self, rng):
        engine = DedupEngine(num_buckets=512, compressor=ModeledCompressor(0.5))
        lba = 5 * LBA_PAGE_SLOTS + 7
        engine.write(lba, rng.randbytes(4096))
        report = engine.write(lba, rng.randbytes(4096))
        assert report.reclaimed_chunks == 1
        assert engine.lba_map.get(lba) is not None
        assert len(engine.lba_map) == 1
