"""Packed-index differential and property suite (DESIGN.md §5.8).

Proves the three PR-9 index claims the rest of the stack now relies on:

* :class:`PackedBucket` is **byte-identical** to the decoded reference
  :class:`~tests.datared.reference.Bucket` after any operation history
  (the on-disk format never changed);
* the sticky per-bucket overflow bit keeps every lookup/remove correct
  across random insert/delete/overflow-probe histories, in the packed
  table and the reference table alike;
* the :class:`NegativeFilter` never produces a false negative, and
  :meth:`HashPbnTable.lookup_many` returns exactly what per-call
  lookups would.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datared.hash_pbn import (
    BUCKET_CAPACITY,
    BUCKET_SIZE,
    ArenaBucketStore,
    HashPbnTable,
    NegativeFilter,
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
        table runs twice: over its private store (negative filter
        armed, native packed pages) and over an interposing byte-page
        store (no filter — the probe sequence must then match the
        reference bucket for bucket).
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
        assert interposed.probe_count == legacy.probe_count
        # The filter elides probes, never adds them.
        assert packed.probe_count <= legacy.probe_count
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

    def test_arena_store_differential(self):
        """Arena-backed packed table matches the reference table."""
        arena = HashPbnTable(4, store=ArenaBucketStore(4))
        legacy = ReferenceTable(4)
        keys = list(range(150))
        for key in keys:
            arena.insert(digest_of(key), key)
            legacy.insert(digest_of(key), key)
        for key in keys[::3]:
            assert arena.remove(digest_of(key))
            assert legacy.remove(digest_of(key))
        for key in keys:
            assert arena.lookup(digest_of(key)) == legacy.lookup(digest_of(key))
        assert _pages(arena) == _pages(legacy)


class TestArenaBucketStore:
    def test_zero_copy_mutation_persists(self):
        store = ArenaBucketStore(4)
        bucket = store.load_packed(2)
        bucket.insert(digest_of(1), 5)
        # No store_packed call: the cursor IS the arena page.
        assert store.load_packed(2).lookup(digest_of(1)) == 5
        assert Bucket.from_bytes(store.read_bucket(2)).entries == [
            (digest_of(1), 5)
        ]

    def test_foreign_page_copied_in(self):
        store = ArenaBucketStore(2)
        foreign = PackedBucket.empty()
        foreign.insert(digest_of(7), 9)
        store.store_packed(1, foreign)
        assert store.load_packed(1).lookup(digest_of(7)) == 9

    def test_bounds_checked(self):
        store = ArenaBucketStore(2)
        with pytest.raises(IndexError):
            store.read_bucket(2)
        with pytest.raises(IndexError):
            store.load_packed(-1)

    def test_io_counted(self):
        store = ArenaBucketStore(2)
        store.load_packed(0)
        store.store_packed(0, store.load_packed(0))
        store.read_bucket(1)
        store.write_bucket(1, bytes(BUCKET_SIZE))
        assert store.reads == 3
        assert store.writes == 2


class TestNegativeFilter:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 60)), max_size=200
        ),
        st.booleans(),
    )
    def test_no_false_negatives(self, operations, dense):
        """A digest whose prefix is resident always answers "maybe"."""
        nf = NegativeFilter(4, dense=dense)
        model = {}  # (home, prefix) -> count
        for is_add, key in operations:
            digest = digest_of(key)
            home = key % 4
            slot = (home, digest[:2])
            if is_add:
                nf.add(home, digest)
                model[slot] = model.get(slot, 0) + 1
            else:
                nf.discard(home, digest)
                if model.get(slot, 0) > 0:
                    model[slot] -= 1
            for (h, prefix), count in model.items():
                if count > 0:
                    probe = prefix + digest_of(0)[:30]
                    assert nf.might_contain(h, probe)

    def test_absent_prefix_filters(self):
        nf = NegativeFilter(2)
        nf.add(0, digest_of(1))
        other = digest_of(2)
        assume_differs = other[:2] != digest_of(1)[:2]
        if assume_differs:
            assert not nf.might_contain(0, other)
        assert not nf.might_contain(1, digest_of(1))

    def test_dense_saturation_is_sticky(self):
        nf = NegativeFilter(1, dense=True)
        for i in range(BUCKET_CAPACITY + 1):
            nf.add(0, digest_of(i))
        # Saturated: everything answers "maybe", discards are no-ops.
        assert nf.might_contain(0, digest_of(12345))
        nf.discard(0, digest_of(0))
        assert nf.might_contain(0, digest_of(0))
        assert nf.might_contain(0, digest_of(54321))

    def test_table_results_identical_with_filter(self):
        with_filter = HashPbnTable(8)
        without = HashPbnTable(8, store=InterposingStore())
        assert with_filter.filter is not None and without.filter is None
        for key in range(120):
            with_filter.insert(digest_of(key), key)
            without.insert(digest_of(key), key)
        for key in range(90):
            assert with_filter.remove(digest_of(key)) == without.remove(
                digest_of(key)
            )
        for key in range(200):
            assert with_filter.lookup(digest_of(key)) == without.lookup(
                digest_of(key)
            )
        assert with_filter.filter_hits > 0
        # The filter elides probes, never adds them.
        assert with_filter.probe_count <= without.probe_count


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

    def test_intra_batch_dedupe_counted(self):
        table = HashPbnTable(4)
        table.insert(digest_of(1), 1)
        batch = [digest_of(1)] * 5 + [digest_of(2)] * 3
        assert table.lookup_many(batch) == [1] * 5 + [None] * 3
        assert table.saved_batch_lookups == 6  # 8 digests, 2 unique

    def test_bucket_loaded_once_per_batch(self):
        # Many digests landing in the same bucket cost one store read.
        store = InterposingStore()  # no filter: every lookup probes
        table = HashPbnTable(1, store=store)
        for key in range(10):
            table.insert(digest_of(key), key)
        reads_before = store.reads
        table.lookup_many([digest_of(key) for key in range(10)])
        assert store.reads == reads_before + 1

    def test_arena_store_batch(self):
        table = HashPbnTable(4, store=ArenaBucketStore(4))
        for key in range(50):
            table.insert(digest_of(key), key)
        batch = [digest_of(key) for key in range(100)]
        assert table.lookup_many(batch) == [
            key if key < 50 else None for key in range(100)
        ]
        assert table.filter_hits > 0


class TestAutoRules:
    def test_private_stores_arm_filter(self):
        assert HashPbnTable(4).filter is not None
        assert HashPbnTable(4, store=ArenaBucketStore(4)).filter is not None
        assert HashPbnTable(4, store=ArenaBucketStore(4)).filter.dense

    def test_interposing_store_disarms_filter(self):
        table = HashPbnTable(4, store=InterposingStore())
        assert table.filter is None
        assert not table.private_store


class TestEngineBatchedResolve:
    def test_intra_batch_dedupe_surfaces_in_stats(self):
        from repro.datared.dedup import DedupEngine

        engine = DedupEngine(num_buckets=64)
        assert engine.table.private_store  # → one lookup_many per batch
        step = engine.chunker.blocks_per_chunk
        payload = b"\xcd" * 4096
        engine.write_many([(i * step, payload) for i in range(8)])
        snap = engine.stats_snapshot()
        # Eight identical digests resolve as one table probe + seven
        # saved lookups, and the absent-digest probe was a filter hit.
        assert snap.index_saved_lookups == 7
        assert snap.index_filter_hits >= 1
        assert snap.index_probes >= 1
        assert snap.duplicate_chunks == 7
        assert snap.unique_chunks == 1

    def test_batched_resolve_off_for_interposing_store(self):
        from repro.datared.dedup import DedupEngine

        store = InterposingStore()
        engine = DedupEngine(table=HashPbnTable(64, store=store))
        assert not engine.table.private_store
        step = engine.chunker.blocks_per_chunk
        engine.write_many([(i * step, b"\xab" * 4096) for i in range(4)])
        snap = engine.stats_snapshot()
        assert snap.index_saved_lookups == 0
        assert snap.index_filter_hits == 0
        assert snap.duplicate_chunks == 3
        # One probe per chunk reached the store: the access pattern an
        # accounting store is calibrated against.
        assert snap.index_probes >= 4 and store.reads == snap.index_probes


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
