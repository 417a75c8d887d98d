"""Tests for the NVMe SSD models."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.datared.hash_pbn import (
    BUCKET_SIZE,
    EMPTY_PAGE,
    ENTRY_SIZE,
    HashPbnTable,
    PackedBucket,
)
from repro.datared.hashing import fingerprint
from repro.hw.specs import SAMSUNG_970_PRO, SsdSpec
from repro.hw.ssd import IoStats, NvmeSsd, SsdArray, SsdBucketStore

#: One bucket op; keys 0-149 overfill the 107-entry page when inserted.
BUCKET_OP = st.tuples(
    st.sampled_from(["insert", "insert", "remove", "update", "overflow"]),
    st.integers(0, 149),
)


class TestNvmeSsd:
    def test_write_read_roundtrip(self):
        ssd = NvmeSsd()
        ssd.write_block(5, b"hello")
        assert ssd.read_block(5) == b"hello"

    def test_missing_read_raises(self):
        with pytest.raises(KeyError):
            NvmeSsd().read_block(1)

    def test_io_stats(self):
        ssd = NvmeSsd()
        ssd.write_block(1, b"abc")
        ssd.read_block(1)
        assert ssd.stats.write_ops == 1
        assert ssd.stats.read_ops == 1
        assert ssd.stats.bytes_written == 3
        assert ssd.stats.bytes_read == 3

    def test_overwrite_replaces_capacity_use(self):
        ssd = NvmeSsd()
        ssd.write_block(1, b"x" * 100)
        ssd.write_block(1, b"y" * 60)
        assert ssd.bytes_stored == 60

    def test_capacity_enforced(self):
        tiny = SsdSpec(
            name="tiny", capacity=100, read_bw=1e9, write_bw=1e9,
            read_iops=1e5, write_iops=1e5,
            read_latency_s=1e-5, write_latency_s=1e-5,
        )
        ssd = NvmeSsd(spec=tiny)
        ssd.write_block(0, b"x" * 100)
        with pytest.raises(RuntimeError):
            ssd.write_block(1, b"y")

    def test_sized_block_keeps_data_and_counts_size(self):
        ssd = NvmeSsd()
        ssd.write_block(1, b"ab", size=10)
        assert ssd.bytes_stored == 10
        assert ssd.read_block(1) == b"ab"
        assert ssd.stats == IoStats(read_ops=1, write_ops=1, bytes_read=10, bytes_written=10)
        assert 1 in ssd and 2 not in ssd
        ssd.trim(1)
        assert ssd.bytes_stored == 0
        with pytest.raises(ValueError):
            ssd.write_block(1, b"abc", size=2)

    def test_trim_releases_space(self):
        ssd = NvmeSsd()
        ssd.write_block(1, b"x" * 50)
        ssd.trim(1)
        assert ssd.bytes_stored == 0

    def test_accounting_only_io(self):
        ssd = NvmeSsd()
        ssd.account_read(1000, ops=2)
        ssd.account_write(500)
        assert ssd.stats.read_ops == 2
        assert ssd.stats.bytes_read == 1000
        assert ssd.stats.bytes_written == 500

    def test_service_times(self):
        ssd = NvmeSsd(spec=SAMSUNG_970_PRO)
        read_time = ssd.read_service_time(3.5e9)  # one second of transfer
        assert read_time == pytest.approx(1.0 + 80e-6)

    def test_utilization_projection(self):
        ssd = NvmeSsd(spec=SAMSUNG_970_PRO)
        ssd.account_read(3.5e9)
        # Reading 3.5 GB per 1 GB of client data at 1 GB/s client rate
        # saturates the 3.5 GB/s drive.
        assert ssd.utilization(1e9, 1e9) == pytest.approx(1.0)

    def test_validation(self):
        ssd = NvmeSsd()
        with pytest.raises(ValueError):
            ssd.write_block(-1, b"x")
        with pytest.raises(ValueError):
            ssd.write_block(0, b"")


class TestSsdArray:
    def test_round_robin_striping(self):
        array = SsdArray(2)
        array.write_block(0, b"even")
        array.write_block(1, b"odd")
        assert array.drives[0].stats.write_ops == 1
        assert array.drives[1].stats.write_ops == 1
        assert array.read_block(0) == b"even"
        assert array.read_block(1) == b"odd"

    def test_combined_stats(self):
        array = SsdArray(3)
        for address in range(6):
            array.write_block(address, b"x")
        assert array.stats.write_ops == 6

    def test_aggregate_bandwidth(self):
        array = SsdArray(4, spec=SAMSUNG_970_PRO)
        assert array.read_bw == pytest.approx(4 * 3.5e9)
        assert len(array) == 4

    def test_at_least_one(self):
        with pytest.raises(ValueError):
            SsdArray(0)


class TestSsdBucketStore:
    def test_unwritten_bucket_reads_empty(self):
        array = SsdArray(2)
        store = SsdBucketStore(array)
        page = store.read_bucket(7)
        assert PackedBucket.from_page(page).entries == []
        assert page == store.load_packed(7).to_bytes() == EMPTY_PAGE
        assert array.stats == IoStats()  # a membership miss reads nothing

    def test_write_read(self):
        store = SsdBucketStore(SsdArray(2))
        bucket = PackedBucket.empty()
        bucket.insert(fingerprint(b"k"), 9)
        store.write_bucket(3, bucket.to_bytes())
        assert PackedBucket.from_page(store.read_bucket(3)).entries == bucket.entries

    def test_queue_owner_validated(self):
        with pytest.raises(ValueError):
            SsdBucketStore(SsdArray(1), queue_owner="gpu")

    def test_page_size_enforced(self):
        with pytest.raises(ValueError):
            SsdBucketStore(SsdArray(1)).write_bucket(0, b"small")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(BUCKET_OP, max_size=250))
    @example([("overflow", 0)])
    @example([("insert", 1), ("insert", 2), ("overflow", 0), ("remove", 1), ("remove", 2)])
    def test_compact_page_round_trips(self, ops):
        """A packed bucket is stored as its used bytes and rebuilt
        byte-identical, while every ledger counts a 4-KB page."""
        bucket = PackedBucket.empty()
        for op, key in ops:
            digest = key.to_bytes(32, "big")
            if op == "insert" and not bucket.is_full and bucket.lookup(digest) is None:
                bucket.insert(digest, key)
            elif op == "remove":
                bucket.remove(digest)
            elif op == "update":
                bucket.update(digest, key + 1)
            elif op == "overflow":
                bucket.overflowed = not bucket.overflowed
        page = bucket.to_bytes()
        array = SsdArray(2)
        store = SsdBucketStore(array)
        store.store_packed(5, bucket)
        held, size = array.drives[1]._blocks[5]
        assert (len(held), size) == (3 + ENTRY_SIZE * bucket.entry_count, BUCKET_SIZE)
        assert array.drives[1].bytes_stored == BUCKET_SIZE
        assert store.load_packed(5).to_bytes() == page
        assert store.read_bucket(5) == page
        assert array.stats == IoStats(
            read_ops=2, write_ops=1, bytes_read=2 * BUCKET_SIZE, bytes_written=BUCKET_SIZE
        )

    def test_full_table_over_ssd_array(self):
        store = SsdBucketStore(SsdArray(2))
        table = HashPbnTable(32, store=store)
        digests = [fingerprint(str(i).encode()) for i in range(200)]
        for position, digest in enumerate(digests):
            table.insert(digest, position)
        for position, digest in enumerate(digests):
            assert table.lookup(digest) == position
