"""Tests for the bucket-based Hash-PBN table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datared.hash_pbn import (
    BUCKET_CAPACITY,
    BUCKET_SIZE,
    ENTRY_SIZE,
    HashPbnTable,
    InMemoryBucketStore,
    buckets_for_capacity,
    table_bytes_for_capacity,
)
from repro.datared.hashing import fingerprint
from repro.errors import CapacityError

from .reference import Bucket


def digest_of(i: int) -> bytes:
    return fingerprint(str(i).encode())


class TestBucket:
    def test_capacity_is_107(self):
        # 4096-byte page, 3-byte header, 38-byte entries (§2.1.3).
        assert BUCKET_CAPACITY == (BUCKET_SIZE - 3) // ENTRY_SIZE == 107

    def test_insert_lookup_remove(self):
        bucket = Bucket()
        bucket.insert(digest_of(1), 11)
        assert bucket.lookup(digest_of(1)) == 11
        assert bucket.lookup(digest_of(2)) is None
        assert bucket.remove(digest_of(1))
        assert not bucket.remove(digest_of(1))

    def test_full_bucket_rejects_insert(self):
        bucket = Bucket()
        for i in range(BUCKET_CAPACITY):
            bucket.insert(digest_of(i), i)
        assert bucket.is_full
        with pytest.raises(ValueError):
            bucket.insert(digest_of(9999), 0)

    def test_serialization_roundtrip(self):
        bucket = Bucket(overflowed=True)
        for i in range(20):
            bucket.insert(digest_of(i), i * 3)
        page = bucket.to_bytes()
        assert len(page) == BUCKET_SIZE
        restored = Bucket.from_bytes(page)
        assert restored.overflowed
        assert restored.entries == bucket.entries

    def test_empty_roundtrip(self):
        restored = Bucket.from_bytes(Bucket().to_bytes())
        assert restored.entries == []
        assert not restored.overflowed

    def test_bad_page_size_rejected(self):
        with pytest.raises(ValueError):
            Bucket.from_bytes(b"\x00" * 100)

    def test_corrupt_count_rejected(self):
        page = bytearray(Bucket().to_bytes())
        page[0:2] = (60000).to_bytes(2, "big")
        with pytest.raises(ValueError):
            Bucket.from_bytes(bytes(page))

    @given(st.lists(st.integers(0, 10_000), unique=True, min_size=0, max_size=50))
    def test_roundtrip_arbitrary_entries(self, keys):
        bucket = Bucket()
        for key in keys:
            bucket.insert(digest_of(key), key)
        assert Bucket.from_bytes(bucket.to_bytes()).entries == bucket.entries


class TestInMemoryBucketStore:
    def test_unwritten_reads_empty(self):
        store = InMemoryBucketStore()
        assert Bucket.from_bytes(store.read_bucket(5)).entries == []

    def test_write_read(self):
        store = InMemoryBucketStore()
        bucket = Bucket()
        bucket.insert(digest_of(1), 1)
        store.write_bucket(3, bucket.to_bytes())
        assert Bucket.from_bytes(store.read_bucket(3)).entries == bucket.entries

    def test_io_counted(self):
        store = InMemoryBucketStore()
        store.read_bucket(0)
        store.write_bucket(0, Bucket().to_bytes())
        assert store.reads == 1
        assert store.writes == 1

    def test_page_size_enforced(self):
        with pytest.raises(ValueError):
            InMemoryBucketStore().write_bucket(0, b"tiny")


class TestHashPbnTable:
    def test_lookup_insert(self):
        table = HashPbnTable(64)
        assert table.lookup(digest_of(1)) is None
        table.insert(digest_of(1), 100)
        assert table.lookup(digest_of(1)) == 100
        assert len(table) == 1

    def test_remove(self):
        table = HashPbnTable(64)
        table.insert(digest_of(1), 100)
        assert table.remove(digest_of(1))
        assert table.lookup(digest_of(1)) is None
        assert not table.remove(digest_of(1))
        assert len(table) == 0

    def test_update_repoints(self):
        table = HashPbnTable(64)
        table.insert(digest_of(1), 100)
        assert table.update(digest_of(1), 200)
        assert table.lookup(digest_of(1)) == 200
        assert not table.update(digest_of(2), 1)

    def test_overflow_probing(self):
        # Overfilling one bucket forces probing; entries stay findable.
        table = HashPbnTable(3)
        keys = list(range(2 * BUCKET_CAPACITY))
        for key in keys:
            table.insert(digest_of(key), key)
        for key in keys:
            assert table.lookup(digest_of(key)) == key

    def test_remove_after_overflow_stays_correct(self):
        table = HashPbnTable(2)
        keys = list(range(2 * BUCKET_CAPACITY))
        for key in keys:
            table.insert(digest_of(key), key)
        for key in keys[::2]:
            assert table.remove(digest_of(key))
        for key in keys[1::2]:
            assert table.lookup(digest_of(key)) == key
        for key in keys[::2]:
            assert table.lookup(digest_of(key)) is None

    def test_full_table_raises(self):
        table = HashPbnTable(1)
        for i in range(BUCKET_CAPACITY):
            table.insert(digest_of(i), i)
        assert table.is_full
        with pytest.raises(CapacityError):
            table.insert(digest_of(99999), 0)
        # Still a working table: everything resident resolves and a
        # removal makes room again.
        assert table.lookup(digest_of(0)) == 0
        assert table.remove(digest_of(0))
        assert not table.is_full
        table.insert(digest_of(99999), 7)
        assert table.lookup(digest_of(99999)) == 7

    def test_pbn_validation(self):
        table = HashPbnTable(4)
        with pytest.raises(ValueError):
            table.insert(digest_of(1), -1)
        with pytest.raises(ValueError):
            table.insert(b"short", 1)

    def test_load_factor(self):
        table = HashPbnTable(4)
        for i in range(10):
            table.insert(digest_of(i), i)
        assert table.load_factor == pytest.approx(10 / (4 * BUCKET_CAPACITY))

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["insert", "remove", "lookup"]),
                      st.integers(0, 40)),
            max_size=120,
        )
    )
    def test_matches_dict_model(self, operations):
        table = HashPbnTable(8)
        model = {}
        for op, key in operations:
            digest = digest_of(key)
            if op == "insert":
                if digest not in {digest_of(k) for k in model}:
                    if key not in model:
                        table.insert(digest, key)
                        model[key] = key
            elif op == "remove":
                assert table.remove(digest) == (key in model)
                model.pop(key, None)
            else:
                assert table.lookup(digest) == model.get(key)
        assert len(table) == len(model)


class TestSizing:
    def test_petabyte_table_size_matches_paper(self):
        # §2.1.3: ~9.5 TB of table for 1 PB of unique 4-KB chunks.
        size = table_bytes_for_capacity(10**15)
        assert 9.0e12 < size < 9.6e12

    def test_buckets_for_capacity_respects_load_factor(self):
        buckets = buckets_for_capacity(10**9, load_factor=0.5)
        chunks = 10**9 // 4096
        assert buckets * BUCKET_CAPACITY * 0.5 >= chunks

    def test_validation(self):
        with pytest.raises(ValueError):
            table_bytes_for_capacity(-1)
        with pytest.raises(ValueError):
            buckets_for_capacity(10**9, load_factor=0.0)
