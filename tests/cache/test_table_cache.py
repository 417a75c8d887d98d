"""Tests for the table cache (write-back LRU over table SSDs)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.policy import PartitionedLru
from repro.cache.table_cache import BTreeIndex, HwTreeIndex, TableCache
from repro.datared.hash_pbn import (
    BUCKET_CAPACITY,
    BucketStore,
    HashPbnTable,
    InMemoryBucketStore,
    PackedBucket,
)
from repro.datared.hashing import fingerprint
from repro.hw.ssd import SsdArray, SsdBucketStore


def page_with(value: int) -> bytes:
    bucket = PackedBucket.empty()
    bucket.insert(fingerprint(str(value).encode()), value)
    return bucket.to_bytes()


def make_cache(lines=4, index=None, batch=2):
    backing = InMemoryBucketStore()
    cache = TableCache(backing, capacity_lines=lines, index=index,
                       eviction_batch=batch)
    return backing, cache


class TestHitMiss:
    def test_first_read_misses_then_hits(self):
        _, cache = make_cache()
        cache.read_bucket(1)
        assert cache.stats.misses == 1
        # A different bucket in between defeats the warm-access memo.
        cache.read_bucket(2)
        cache.read_bucket(1)
        assert cache.stats.hits == 1
        assert cache.stats.fetches == 2

    def test_warm_reaccess_is_free(self):
        _, cache = make_cache()
        cache.read_bucket(1)
        scans_before = cache.stats.content_scans
        bytes_before = cache.stats.host_bytes_read
        cache.read_bucket(1)  # same bucket, back to back
        assert cache.stats.warm_hits == 1
        assert cache.stats.content_scans == scans_before
        assert cache.stats.host_bytes_read == bytes_before

    def test_hit_rate_counts_warm_reads(self):
        _, cache = make_cache()
        cache.read_bucket(1)  # miss
        cache.read_bucket(1)  # warm
        assert cache.stats.accesses == 2
        assert cache.stats.hit_rate == pytest.approx(0.5)


class TestWriteBack:
    def test_write_through_read(self):
        backing, cache = make_cache()
        page = page_with(7)
        cache.write_bucket(3, page)
        assert cache.read_bucket(3) == page

    def test_dirty_flushes_on_eviction(self):
        backing, cache = make_cache(lines=2, batch=1)
        cache.write_bucket(1, page_with(1))
        cache.write_bucket(2, page_with(2))
        assert backing.writes == 0  # write-back: nothing flushed yet
        cache.write_bucket(3, page_with(3))  # evicts bucket 1
        assert backing.writes == 1
        assert cache.stats.flushes == 1
        assert PackedBucket.from_page(backing.read_bucket(1)).entries

    def test_clean_eviction_skips_flush(self):
        backing, cache = make_cache(lines=2, batch=1)
        cache.read_bucket(1)
        cache.read_bucket(2)
        cache.read_bucket(3)  # evicts 1, which is clean
        assert cache.stats.flushes == 0
        assert cache.stats.evictions == 1

    def test_flush_all(self):
        backing, cache = make_cache()
        cache.write_bucket(1, page_with(1))
        cache.write_bucket(2, page_with(2))
        assert cache.flush_all() == 2
        assert backing.writes == 2
        assert cache.flush_all() == 0  # now clean

    def test_in_place_write_charges_a_cache_line(self):
        _, cache = make_cache()
        cache.read_bucket(1)
        written_before = cache.stats.host_bytes_written
        cache.write_bucket(1, page_with(9))  # warm in-place update
        delta = cache.stats.host_bytes_written - written_before
        assert delta == TableCache.IN_PLACE_WRITE_BYTES

    def test_page_size_enforced(self):
        _, cache = make_cache()
        with pytest.raises(ValueError):
            cache.write_bucket(0, b"small")


class TestEviction:
    def test_lru_victim_selection(self):
        _, cache = make_cache(lines=2, batch=1)
        cache.read_bucket(1)
        cache.read_bucket(2)
        cache.read_bucket(1)  # 2 is now coldest
        cache.read_bucket(3)
        assert cache.index.search(2) is None
        assert cache.index.search(1) is not None

    def test_batched_eviction(self):
        _, cache = make_cache(lines=4, batch=4)
        for bucket in range(1, 5):
            cache.read_bucket(bucket)
        cache.read_bucket(5)
        assert cache.stats.evictions == 4
        assert cache.resident_lines == 1  # all 4 evicted, #5 installed

    def test_invariants_hold_through_churn(self):
        _, cache = make_cache(lines=8, batch=2)
        for step in range(200):
            bucket = (step * 7) % 40
            if step % 3:
                cache.read_bucket(bucket)
            else:
                cache.write_bucket(bucket, page_with(bucket))
        cache.check_invariants()

    def test_validation(self):
        backing = InMemoryBucketStore()
        with pytest.raises(ValueError):
            TableCache(backing, capacity_lines=0)
        with pytest.raises(ValueError):
            TableCache(backing, capacity_lines=2, eviction_batch=3)


class TestIndexes:
    def test_btree_index_counts_visits(self):
        index = BTreeIndex()
        _, cache = make_cache(lines=4, index=index)
        for bucket in range(4):
            cache.read_bucket(bucket)
        assert index.searches >= 4
        assert index.node_visits > 0

    def test_hwtree_index_behaves_identically(self):
        results = []
        for index in (BTreeIndex(), HwTreeIndex()):
            _, cache = make_cache(lines=4, index=index, batch=2)
            trace = [(step * 5) % 23 for step in range(150)]
            for bucket in trace:
                cache.read_bucket(bucket)
            results.append((cache.stats.hits, cache.stats.misses,
                            cache.stats.evictions))
            cache.check_invariants()
        assert results[0] == results[1]


class TestWithHashPbnTable:
    def test_cached_table_is_transparent(self):
        backing, cache = make_cache(lines=8, batch=2)
        table = HashPbnTable(64, store=cache)
        digests = [fingerprint(str(i).encode()) for i in range(300)]
        for position, digest in enumerate(digests):
            assert table.lookup(digest) is None
            table.insert(digest, position)
        cache.flush_all()
        for position, digest in enumerate(digests):
            assert table.lookup(digest) == position
        cache.check_invariants()

    def test_dirty_data_survives_eviction_pressure(self):
        backing, cache = make_cache(lines=2, batch=1)
        table = HashPbnTable(32, store=cache)
        digests = [fingerprint(str(i).encode()) for i in range(100)]
        for position, digest in enumerate(digests):
            table.insert(digest, position)
        # Plenty of evictions happened; every entry must still resolve.
        assert cache.stats.evictions > 0
        for position, digest in enumerate(digests):
            assert table.lookup(digest) == position


#: 16 buckets; key ``k``'s digest is ``k`` in 32 big-endian bytes, so it
#: homes to bucket ``k % 16``.  The prefill touches every bucket (twice
#: the cache's 8 lines) and puts more than a page of keys in bucket 0,
#: whose overflow chain runs into bucket 1.
BUCKETS = 16
CHAIN = [BUCKETS * n for n in range(BUCKET_CAPACITY + 12)]
PREFILL = [("insert", key) for key in list(range(1, BUCKETS)) + CHAIN]
KEY = st.one_of(st.sampled_from(CHAIN), st.integers(0, 4000))
OP = st.tuples(st.sampled_from(["lookup", "insert", "remove", "update", "tenant"]), KEY)


def replay(table, ops, lru=None):
    """Run ``PREFILL + ops`` through ``table`` against a dict model;
    returns every answer the table gave."""
    model, answers = {}, []
    for step, (op, key) in enumerate(PREFILL + ops):
        digest = key.to_bytes(32, "big")
        if op == "lookup":
            answers.append(table.lookup(digest))
            assert answers[-1] == model.get(key)
        elif op == "insert" and key not in model:
            table.insert(digest, step)
            model[key] = step
        elif op == "remove":
            answers.append(table.remove(digest))
            model.pop(key, None)
        elif op == "update":
            answers.append(table.update(digest, step))
            if key in model:
                model[key] = step
        elif op == "tenant" and lru is not None:
            lru.set_active("ab"[key % 2])
    return answers


def drive(index, ops, batch, partitioned):
    """Run ``PREFILL + ops`` through a Hash-PBN table on a cache over
    ``index``; return everything the ledgers and the backing store saw."""
    lru = PartitionedLru({"a": 2.0, "b": 1.0}, default_tenant="a") if partitioned else None
    backing = InMemoryBucketStore()
    cache = TableCache(backing, capacity_lines=8, index=index, eviction_batch=batch, lru=lru)
    answers = replay(HashPbnTable(BUCKETS, store=cache), ops, lru)
    cache.flush_all()
    cache.check_invariants()
    # As bytes: the backing holds packed pages, which compare by identity.
    pages = {bucket: backing.read_bucket(bucket) for bucket in backing._pages}
    return answers, cache.stats, index.searches, index.updates, pages


class TestCountedIndexDifferential:
    """The counted HW index against the walked B+-tree: lines resolve
    through the cache's own map either way, so every observable the
    ledgers or the table SSDs see must agree."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(OP, max_size=150), st.sampled_from([1, 8]), st.booleans())
    def test_walked_and_counted_indexes_agree(self, ops, batch, partitioned):
        walked = drive(BTreeIndex(order=3), ops, batch, partitioned)
        counted = drive(HwTreeIndex(), ops, batch, partitioned)
        assert counted == walked
        assert walked[1].evictions > 0 and walked[2] > 0


class BytePagesOnly(BucketStore):
    """Forwards only the byte-page methods, so a table over it takes
    the inherited ``load_packed``/``store_packed`` defaults: one page
    copy in and one out per access, lines held as bytes."""

    def __init__(self, inner):
        self.inner = inner

    def read_bucket(self, index):
        return self.inner.read_bucket(index)

    def write_bucket(self, index, page):
        self.inner.write_bucket(index, page)


def ledgers(ops, batch, byte_pages):
    """Run ``PREFILL + ops`` through a table on a cache over table SSDs,
    packed or through :class:`BytePagesOnly`; return every ledger."""
    array = SsdArray(2)
    backing = SsdBucketStore(array, queue_owner="engine")
    cache = TableCache(backing, capacity_lines=8, index=HwTreeIndex(), eviction_batch=batch)
    store = BytePagesOnly(cache) if byte_pages else cache
    answers = replay(HashPbnTable(BUCKETS, store=store), ops)
    cache.flush_all()
    cache.check_invariants()
    seen = (
        answers, cache.stats, cache.index.searches, cache.index.updates,
        array.stats, [drive.bytes_stored for drive in array.drives],
    )
    return seen + ([backing.read_bucket(bucket) for bucket in range(BUCKETS)],)


class TestPackedLedgerIdentity:
    """Packed lines and compact table-SSD blocks change what is resident,
    never what is counted: the same history leaves the same cache stats,
    index counts, table-SSD IO and stored bytes, and the same pages, as
    the byte-page path."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(OP, max_size=150), st.sampled_from([1, 8]))
    def test_packed_and_byte_page_stacks_agree(self, ops, batch):
        packed = ledgers(ops, batch, byte_pages=False)
        paged = ledgers(ops, batch, byte_pages=True)
        assert packed == paged
        assert packed[1].evictions > 0 and packed[4].write_ops > 0

    def test_lines_hold_the_form_they_were_handed(self):
        backing, cache = make_cache(lines=2, batch=1)
        cache.write_bucket(1, page_with(1))
        packed = cache.load_packed(1)  # converts the byte line in place
        assert cache.load_packed(1) is packed
        assert cache.read_bucket(1) == page_with(1)
        packed.insert(fingerprint(b"more"), 2)
        cache.store_packed(1, packed)
        cache.write_bucket(2, page_with(2))
        cache.write_bucket(3, page_with(3))  # evicts 1, a packed line
        assert backing.load_packed(1) is packed
        assert cache.read_bucket(2) == page_with(2)
