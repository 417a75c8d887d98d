"""Tests for the two-level LBA-PBA mapping and reference counting."""

import pytest

from repro.datared.lba_map import (
    LBA_PAGE_SLOTS,
    LBA_PBN_ENTRY_SIZE,
    PBN_PBA_ENTRY_SIZE,
    LbaMap,
    PbnAllocator,
    PbnMap,
    PbnRecord,
    mapping_bytes_for_capacity,
)


def record(container=0, offset=0, size=100, refcount=1) -> PbnRecord:
    return PbnRecord(
        container_id=container,
        offset=offset,
        stored_size=size,
        fingerprint=b"\x01" * 32,
        refcount=refcount,
    )


def add(pbn_map, pbn, size=100, fingerprint=b"\x01" * 32):
    pbn_map.add(pbn, 0, 0, size, fingerprint)


class TestLbaMap:
    def test_slots_per_page(self):
        # One 4-KiB page of 8-byte slots; the ledger still charges 6 B.
        assert LBA_PAGE_SLOTS == 4096 // 8 == 512

    def test_get_unmapped(self):
        assert LbaMap().get(0) is None
        assert 0 not in LbaMap()

    def test_pbn_zero_is_representable(self):
        lba_map = LbaMap()
        lba_map.set(0, 0)
        assert lba_map.get(0) == 0
        assert lba_map.unmap(0) == 0
        assert len(lba_map) == 0

    def test_cross_page_addresses(self):
        lba_map = LbaMap()
        lbas = [0, LBA_PAGE_SLOTS - 1, LBA_PAGE_SLOTS, 5 * LBA_PAGE_SLOTS + 7]
        for index, lba in enumerate(lbas):
            lba_map.set(lba, index)
        for index, lba in enumerate(lbas):
            assert lba_map.get(lba) == index
        assert len(lba_map) == len(lbas)

    def test_validation(self):
        lba_map = LbaMap()
        with pytest.raises(ValueError):
            lba_map.set(-1, 0)
        with pytest.raises(ValueError):
            lba_map.set(0, -1)
        assert len(lba_map) == 0

    def test_set_get(self):
        lba_map = LbaMap()
        assert lba_map.set(10, 5) is None
        assert lba_map.get(10) == 5
        assert 10 in lba_map

    def test_remap_returns_previous(self):
        lba_map = LbaMap()
        lba_map.set(10, 5)
        assert lba_map.set(10, 7) == 5
        assert lba_map.get(10) == 7

    def test_unmap(self):
        lba_map = LbaMap()
        lba_map.set(1, 2)
        assert lba_map.unmap(1) == 2
        assert lba_map.get(1) is None
        assert lba_map.unmap(1) is None

    def test_metadata_bytes(self):
        lba_map = LbaMap()
        for i in range(10):
            lba_map.set(i, i)
        assert lba_map.metadata_bytes == 10 * LBA_PBN_ENTRY_SIZE

    def test_items_iterates_all(self):
        lba_map = LbaMap()
        lba_map.set(1, 10)
        lba_map.set(2, 20)
        assert dict(lba_map.items()) == {1: 10, 2: 20}


class TestPbnAllocator:
    def test_sequential(self):
        allocator = PbnAllocator()
        assert [allocator.allocate() for _ in range(3)] == [0, 1, 2]

    def test_free_reuse(self):
        allocator = PbnAllocator()
        first = allocator.allocate()
        allocator.allocate()
        allocator.free(first)
        assert allocator.allocate() == first

    def test_free_unallocated_rejected(self):
        allocator = PbnAllocator()
        with pytest.raises(ValueError):
            allocator.free(0)

    def test_allocated_count(self):
        allocator = PbnAllocator()
        a = allocator.allocate()
        allocator.allocate()
        allocator.free(a)
        assert allocator.allocated == 1


    def test_restore_frees_every_pbn_without_a_chunk(self):
        live = PbnMap()
        add(live, 1, fingerprint=b"\x01" * 32)
        add(live, 3, fingerprint=b"\x03" * 32)
        allocator = PbnAllocator()
        allocator.restore(5, live)
        assert allocator.next_pbn == 5 and allocator.allocated == 2
        assert sorted(allocator.allocate() for _ in range(3)) == [0, 2, 4]
        with pytest.raises(ValueError):
            PbnAllocator().restore(3, live)  # PBN 3 is past the cursor


class TestPbnMap:
    def test_add_get(self):
        pbn_map = PbnMap()
        add(pbn_map, 1)
        assert pbn_map.get(1).stored_size == 100

    def test_duplicate_add_rejected(self):
        pbn_map = PbnMap()
        add(pbn_map, 1)
        with pytest.raises(ValueError):
            add(pbn_map, 1)

    def test_missing_get_raises(self):
        with pytest.raises(KeyError):
            PbnMap().get(9)

    def test_ref_unref_lifecycle(self):
        pbn_map = PbnMap()
        add(pbn_map, 1)
        assert pbn_map.ref(1) == 2
        assert pbn_map.unref(1) is None  # still one reference
        dead = pbn_map.unref(1)
        assert dead == (0, 0, 100, b"\x01" * 32)
        assert 1 not in pbn_map

    def test_unref_dead_rejected(self):
        pbn_map = PbnMap()
        add(pbn_map, 1)
        pbn_map.unref(1)
        with pytest.raises(KeyError):
            pbn_map.unref(1)

    def test_live_stored_bytes(self):
        pbn_map = PbnMap()
        add(pbn_map, 1, size=100, fingerprint=b"\x01" * 32)
        add(pbn_map, 2, size=250, fingerprint=b"\x02" * 32)
        assert pbn_map.live_stored_bytes == 350

    def test_metadata_bytes(self):
        pbn_map = PbnMap()
        add(pbn_map, 1)
        assert pbn_map.metadata_bytes == PBN_PBA_ENTRY_SIZE

    def test_records_iteration(self):
        pbn_map = PbnMap()
        add(pbn_map, 3)
        assert [pbn for pbn, _ in pbn_map.records()] == [3]


class TestPbnRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            record(refcount=-1)
        with pytest.raises(ValueError):
            record(size=0)


class TestSizing:
    def test_mapping_is_multi_tb_at_pb_scale(self):
        # §2.1.4: the LBA-PBA table is multi-TB for PB-scale storage.
        size = mapping_bytes_for_capacity(10**15)
        assert size > 2e12

    def test_validation(self):
        with pytest.raises(ValueError):
            mapping_bytes_for_capacity(-1)
