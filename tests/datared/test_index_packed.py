"""Packed-index differential and property suite (DESIGN.md §5.8).

Proves the index claims the rest of the stack relies on:

* :class:`PackedBucket` is **byte-identical** to the decoded reference
  :class:`~tests.datared.reference.Bucket` after any operation history
  (the on-disk format never changed);
* the sticky per-bucket overflow bit keeps every lookup/remove correct
  across random insert/delete/overflow-probe histories, in the packed
  table and the reference table alike, probing the same buckets;
* :meth:`HashPbnTable.lookup_many` returns exactly what per-call
  lookups would.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datared.hash_pbn import (
    BUCKET_CAPACITY,
    BUCKET_SIZE,
    HashPbnTable,
    PackedBucket,
)
from repro.datared.hashing import fingerprint
from repro.errors import BucketFullError, CapacityError, ErrorCode, error_code_for

from .reference import Bucket, InterposingStore, ReferenceTable


def digest_of(i: int) -> bytes:
    return fingerprint(str(i).encode())


#: A random bucket-level operation: (op, key, pbn).
_BUCKET_OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "remove", "update", "lookup"]),
        st.integers(0, 30),
        st.integers(0, 2**48 - 1),
    ),
    max_size=150,
)


class TestPackedBucket:
    def test_empty_page_is_legacy_empty_page(self):
        assert PackedBucket.empty().to_bytes() == Bucket().to_bytes()

    def test_insert_lookup_remove_update(self):
        bucket = PackedBucket.empty()
        bucket.insert(digest_of(1), 11)
        assert bucket.lookup(digest_of(1)) == 11
        assert bucket.lookup(digest_of(2)) is None
        assert bucket.update(digest_of(1), 42)
        assert bucket.lookup(digest_of(1)) == 42
        assert not bucket.update(digest_of(2), 1)
        assert bucket.remove(digest_of(1))
        assert not bucket.remove(digest_of(1))
        assert bucket.entry_count == 0

    def test_full_bucket_raises_typed_error(self):
        bucket = PackedBucket.empty()
        for i in range(BUCKET_CAPACITY):
            bucket.insert(digest_of(i), i)
        assert bucket.is_full
        with pytest.raises(BucketFullError):
            bucket.insert(digest_of(9999), 0)

    def test_digest_length_enforced(self):
        # A wrong-length slice assignment would silently resize the
        # backing page; both insert and lookup must reject it instead.
        bucket = PackedBucket.empty()
        with pytest.raises(ValueError):
            bucket.insert(b"short", 1)
        with pytest.raises(ValueError):
            bucket.lookup(b"short")
        assert len(bucket.buf) == 3  # a compact page: its header alone

    def test_overflow_flag_roundtrip(self):
        bucket = PackedBucket.empty()
        assert not bucket.overflowed
        bucket.overflowed = True
        assert bucket.overflowed
        assert Bucket.from_bytes(bucket.to_bytes()).overflowed
        bucket.overflowed = False
        assert not bucket.overflowed

    def test_from_page_validates(self):
        with pytest.raises(ValueError):
            PackedBucket.from_page(b"\x00" * 100)
        page = bytearray(BUCKET_SIZE)
        page[0:2] = (60000).to_bytes(2, "big")
        with pytest.raises(ValueError):
            PackedBucket.from_page(bytes(page))

    def test_misaligned_fingerprint_match_skipped(self):
        # Craft two entries whose concatenation contains the probe
        # digest at a non-entry offset: the aligned scan must not be
        # fooled by it.
        bucket = PackedBucket.empty()
        needle = bytes(range(32))
        # Entry 0's trailing bytes + entry 1's leading bytes spell the
        # needle across the 38-byte boundary.
        first = b"\xaa" * 26 + needle[:6]
        pbn_bytes = needle[6:12]
        second = needle[12:] + b"\xbb" * 12
        bucket.insert(first, int.from_bytes(pbn_bytes, "big"))
        bucket.insert(second, 7)
        assert bucket.lookup(needle) is None
        assert bucket.lookup(first) == int.from_bytes(pbn_bytes, "big")
        assert bucket.lookup(second) == 7

    @settings(max_examples=50, deadline=None)
    @given(_BUCKET_OPS)
    def test_differential_vs_legacy_bucket(self, operations):
        """Any op history leaves packed and legacy pages byte-identical."""
        legacy = Bucket()
        packed = PackedBucket.empty()
        for op, key, pbn in operations:
            digest = digest_of(key)
            if op == "insert":
                if legacy.lookup(digest) is None and not legacy.is_full:
                    legacy.insert(digest, pbn)
                    packed.insert(digest, pbn)
            elif op == "remove":
                assert legacy.remove(digest) == packed.remove(digest)
            elif op == "update":
                assert legacy.update(digest, pbn) == packed.update(digest, pbn)
            else:
                assert legacy.lookup(digest) == packed.lookup(digest)
            assert legacy.to_bytes() == packed.to_bytes()
            assert legacy.entries == packed.entries
            assert legacy.entry_count == packed.entry_count


#: A random table-level operation over a keyspace wide enough that a
#: 2-bucket table regularly overflows a home bucket (hypothesis then
#: exercises probing, sticky bits, and removal through chains).
_TABLE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "remove", "update", "lookup"]),
        st.integers(0, 200),
    ),
    max_size=300,
)


def _pages(table) -> list:
    return [table.store.read_bucket(i) for i in range(table.num_buckets)]


class TestPackedVsLegacyTable:
    @settings(max_examples=30, deadline=None)
    @given(_TABLE_OPS)
    def test_random_histories_differential(self, operations):
        """Packed and reference tables agree on results AND stored bytes.

        Covers the sticky-overflow-bit property: histories that
        overfill a home bucket force probe chains; deletions then empty
        buckets mid-chain without clearing the bit, and every
        subsequent lookup/remove must still resolve identically in
        both representations (and against the dict model).  The packed
        table runs twice: over its own store (native packed pages) and
        over an interposing byte-page store; both probe the same
        buckets as the reference.
        """
        packed = HashPbnTable(2)
        interposed = HashPbnTable(2, store=InterposingStore())
        legacy = ReferenceTable(2)
        tables = (packed, interposed, legacy)
        model = {}
        for op, key in operations:
            digest = digest_of(key)
            if op == "insert":
                if key not in model and len(model) < 2 * BUCKET_CAPACITY:
                    for table in tables:
                        table.insert(digest, key)
                    model[key] = key
            elif op == "remove":
                removed = {table.remove(digest) for table in tables}
                assert removed == {key in model}
                model.pop(key, None)
            elif op == "update":
                updated = {table.update(digest, key + 1) for table in tables}
                assert updated == {key in model}
                if key in model:
                    model[key] = key + 1
            else:
                hits = {table.lookup(digest) for table in tables}
                assert hits == {model.get(key)}
        assert len(packed) == len(interposed) == len(legacy) == len(model)
        assert packed.probe_count == interposed.probe_count == legacy.probe_count
        assert _pages(packed) == _pages(interposed) == _pages(legacy)

    def test_sticky_overflow_survives_emptying(self):
        """The overflow bit outlives the entries that set it.

        Fill a 2-bucket table past one bucket's capacity, then remove
        every entry that *lives in* the overflowed home bucket: the
        bucket is empty but its sticky bit must keep lookups probing
        past it to the spilled entries — in both representations.
        """
        for table in (
            HashPbnTable(2),
            HashPbnTable(2, store=InterposingStore()),
            ReferenceTable(2),
        ):
            keys = list(range(2 * BUCKET_CAPACITY))
            for key in keys:
                table.insert(digest_of(key), key)
            # Both buckets are full; both carry the overflow bit only
            # if an insert actually probed past them.
            flags = [
                Bucket.from_bytes(table.store.read_bucket(i)).overflowed
                for i in range(2)
            ]
            assert any(flags)
            overflowed_home = flags.index(True)
            victims = [
                key for key in keys
                if table._home(digest_of(key)) == overflowed_home
            ]
            spilled = [key for key in keys if key not in set(victims)]
            for key in victims:
                assert table.remove(digest_of(key))
            assert Bucket.from_bytes(
                table.store.read_bucket(overflowed_home)
            ).overflowed
            for key in spilled:
                assert table.lookup(digest_of(key)) == key


class TestLookupMany:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 120), max_size=80),
        st.lists(st.integers(0, 240), max_size=60),
    )
    def test_matches_per_call_lookup(self, inserted, probed):
        table = HashPbnTable(4)
        for key in set(inserted):
            table.insert(digest_of(key), key)
        batch = [digest_of(key) for key in probed]
        assert table.lookup_many(batch) == [
            table.lookup(digest) for digest in batch
        ]

    def test_empty_batch(self):
        assert HashPbnTable(4).lookup_many([]) == []


class TestBucketFullErrorMapping:
    def test_legacy_bucket_raises_typed_error(self):
        bucket = Bucket()
        for i in range(BUCKET_CAPACITY):
            bucket.insert(digest_of(i), i)
        with pytest.raises(BucketFullError):
            bucket.insert(digest_of(9999), 0)

    def test_stays_a_value_error_and_capacity_error(self):
        # Regression: pre-PR-9 callers caught bare ValueError.
        with pytest.raises(ValueError):
            raise BucketFullError("full")
        assert issubclass(BucketFullError, CapacityError)

    def test_wire_code_is_capacity(self):
        assert error_code_for(BucketFullError("full")) is ErrorCode.CAPACITY
