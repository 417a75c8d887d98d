"""Tests for the table cache (a write-back LRU residency model over one
page store, with the table SSDs as its IO ledger)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cache.policy import PartitionedLru
from repro.cache.table_cache import BTreeIndex, HwTreeIndex, TableCache
from repro.datared.hash_pbn import (
    BUCKET_CAPACITY,
    BUCKET_SIZE,
    HashPbnTable,
    InMemoryBucketStore,
    PackedBucket,
)
from repro.datared.hashing import fingerprint
from repro.hw.ssd import IoStats, SsdArray

from ..datared.reference import ReferenceTable
from .reference import MovingPageCache, ReferenceTableSsd


def page_with(value: int) -> bytes:
    bucket = PackedBucket.empty()
    bucket.insert(fingerprint(str(value).encode()), value)
    return bucket.to_bytes()


def make_cache(lines=4, index=None, batch=2):
    """A cache over an in-memory page store; returns the table-SSD
    ledger it counts on, and the cache."""
    ledger = SsdArray(2)
    cache = TableCache(InMemoryBucketStore(), capacity_lines=lines, index=index,
                       eviction_batch=batch, ledger=ledger)
    return ledger, cache


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
        _, cache = make_cache()
        page = page_with(7)
        cache.write_bucket(3, page)
        assert cache.read_bucket(3) == page

    def test_dirty_flushes_on_eviction(self):
        ledger, cache = make_cache(lines=2, batch=1)
        cache.write_bucket(1, page_with(1))
        cache.write_bucket(2, page_with(2))
        assert ledger.stats == IoStats()  # write-back: nothing flushed yet
        cache.write_bucket(3, page_with(3))  # evicts bucket 1
        cache.replay()  # the ledger settles at the batch's fence
        assert ledger.stats == IoStats(write_ops=1, bytes_written=BUCKET_SIZE)
        assert cache.stats.flushes == 1
        assert 1 in ledger and ledger.drives[1].bytes_stored == BUCKET_SIZE
        # Fetching the flushed bucket again reads its 4-KB block.
        assert cache.read_bucket(1) == page_with(1)
        cache.replay()
        assert ledger.stats.read_ops == 1

    def test_clean_eviction_skips_flush(self):
        backing, cache = make_cache(lines=2, batch=1)
        cache.read_bucket(1)
        cache.read_bucket(2)
        cache.read_bucket(3)  # evicts 1, which is clean
        assert cache.stats.flushes == 0
        assert cache.stats.evictions == 1

    def test_flush_all(self):
        ledger, cache = make_cache()
        cache.write_bucket(1, page_with(1))
        cache.write_bucket(2, page_with(2))
        assert cache.flush_all() == 2
        assert ledger.stats.write_ops == 2
        assert cache.flush_all() == 0  # now clean
        assert ledger.stats.write_ops == 2

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
        cache.replay()
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
        cache.replay()
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
        _, cache = make_cache(lines=8, batch=2)
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
        _, cache = make_cache(lines=2, batch=1)
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
    pages = InMemoryBucketStore()
    cache = TableCache(pages, capacity_lines=8, index=index, eviction_batch=batch, lru=lru)
    answers = replay(HashPbnTable(BUCKETS, store=cache), ops, lru)
    cache.flush_all()
    cache.check_invariants()
    # As bytes: the store holds packed pages, which compare by identity.
    pages = {bucket: pages.read_bucket(bucket) for bucket in pages._pages}
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


#: A step of the ledger-identity history: a table op on a key (as in
#: ``OP``), a drain that removes every live key homing to one bucket —
#: emptying its page, or leaving bucket 0 only its overflow flag — or a
#: read or write of one of the byte pages that share the cache with the
#: table, past its buckets (pages no bucket encodes).
BYTE_PAGES = 4
STEP = st.one_of(
    st.tuples(st.sampled_from(["lookup", "insert", "insert", "remove", "update"]), KEY),
    st.tuples(st.just("drain"), st.integers(0, BUCKETS - 1)),
    st.tuples(st.sampled_from(["read page", "write page"]), st.integers(0, BYTE_PAGES - 1)),
)
#: Every history ends by draining bucket 0, whose page then holds only
#: its overflow flag, and probing a chain key through it again.
EPILOGUE = [("drain", 0), ("insert", CHAIN[-1]), ("lookup", CHAIN[-1]), ("lookup", CHAIN[0])]


class TestLedgerIdentity:
    """The residency model over one page store against the reference
    table on the cache whose lines hold moving copies of the pages
    (``tests/datared/reference.py``, ``tests/cache/reference.py``): one
    history — including buckets emptied and pages dropped from the page
    store — leaves equal answers and equal ledgers after every step and
    after ``flush_all``, and no empty page in the store."""

    @staticmethod
    def ledgers(cache, table, ssd_stats, ssd_stored):
        index = cache.index
        return (
            cache.stats, index.searches, index.updates,
            getattr(index, "node_visits", 0), table.probe_count, ssd_stats, ssd_stored,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(STEP, max_size=150),
        st.sampled_from([BTreeIndex, HwTreeIndex]),
        st.integers(4, 8),
        st.integers(1, 4),
    )
    def test_residency_model_matches_moving_pages(self, steps, index, lines, batch):
        ssd = ReferenceTableSsd(drives=2)
        reference = MovingPageCache(ssd, lines, index(), batch)
        ledger = SsdArray(2)
        pages = InMemoryBucketStore()
        cache = TableCache(pages, capacity_lines=lines, index=index(),
                           eviction_batch=batch, ledger=ledger)
        old, new = ReferenceTable(BUCKETS, store=reference), HashPbnTable(BUCKETS, store=cache)
        live = set()

        def seen():
            cache.replay()  # the drives' ledgers are read before cache.stats
            stored = [drive.bytes_stored for drive in ledger.drives]
            assert self.ledgers(cache, new, [d.stats for d in ledger.drives], stored) == (
                self.ledgers(reference, old, ssd.stats, ssd.bytes_stored)
            )
            assert pages.empty_pages() == []
            cache.check_invariants()

        for step, (op, key) in enumerate(PREFILL + steps + EPILOGUE):
            digest = key.to_bytes(32, "big")
            if op in ("lookup", "insert"):
                found = old.lookup(digest)
                assert new.lookup(digest) == found
                if op == "insert" and found is None:
                    old.insert(digest, step)
                    new.insert(digest, step)
                    live.add(key)
            elif op == "remove":
                assert new.remove(digest) == old.remove(digest)
                live.discard(key)
            elif op == "update":
                assert new.update(digest, step) == old.update(digest, step)
            elif op == "drain":
                for gone in sorted(k for k in live if k % BUCKETS == key):
                    gone_digest = gone.to_bytes(32, "big")
                    assert new.remove(gone_digest) and old.remove(gone_digest)
                    live.discard(gone)
                if key == 0:  # the prefill overflowed bucket 0: its flag keeps a home
                    assert pages.load_packed(0).overflowed
            elif op == "read page":
                page = BUCKETS + key
                assert cache.read_bucket(page) == reference.read_bucket(page)
            else:
                content = step.to_bytes(8, "big") * (BUCKET_SIZE // 8)
                cache.write_bucket(BUCKETS + key, content)
                reference.write_bucket(BUCKETS + key, content)
            seen()
        assert cache.flush_all() == reference.flush_all()
        seen()


class TestReplayDifferential:
    """The residency model is a replay of the access trace (DESIGN.md
    §5.8): one history through two caches, one replayed after every
    step and one only where a random-length run ends (and where a
    tenant switch settles it), leaves equal answers and equal ledgers
    at every run's end — counted or walked index, eviction batches of
    1 to 8, plain or partitioned LRU.  A scan reads eight fresh byte
    pages in a row, so one tenant's scan can push out another's lines."""

    @staticmethod
    def ledgers(cache, table, ledger):
        index = cache.index
        return (
            cache.stats, index.searches, index.updates,
            getattr(index, "node_visits", 0), table.probe_count,
            [drive.stats for drive in ledger.drives],
            [drive.bytes_stored for drive in ledger.drives],
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.one_of(STEP, st.tuples(st.sampled_from(["tenant", "scan"]), st.integers(0, 1))),
                 max_size=150),
        st.lists(st.integers(1, 24), min_size=1, max_size=20),
        st.sampled_from([BTreeIndex, HwTreeIndex]),
        st.integers(1, 8),
        st.booleans(),
    )
    @example(  # tenant b scans over a's lines, then a reads its own again
        [("tenant", 1), ("scan", 0), ("tenant", 0), ("lookup", 1), ("lookup", 2)],
        [1000], HwTreeIndex, 1, True,
    )
    def test_replay_per_run_matches_replay_per_step(self, steps, runs, index, batch, partitioned):
        def build():
            lru = PartitionedLru({"a": 2.0, "b": 1.0}, default_tenant="a") if partitioned else None
            ledger = SsdArray(2)
            cache = TableCache(InMemoryBucketStore(), capacity_lines=8, index=index(),
                               eviction_batch=batch, lru=lru, ledger=ledger)
            return HashPbnTable(BUCKETS, store=cache), cache, ledger, lru

        def apply(table, cache, lru, op, key, step):
            """One step on one stack; returns the answers it gave."""
            digest = key.to_bytes(32, "big")
            if op in ("lookup", "insert"):
                found = table.lookup(digest)
                if op == "insert" and found is None:
                    table.insert(digest, step)
                return [found]
            if op == "remove":
                return [table.remove(digest)]
            if op == "update":
                return [table.update(digest, step)]
            if op == "drain":
                return [table.remove(gone.to_bytes(32, "big"))
                        for gone in sorted(k for k in live if k % BUCKETS == key)]
            if op == "read page":
                return [cache.read_bucket(BUCKETS + key)]
            if op == "write page":
                cache.write_bucket(BUCKETS + key, step.to_bytes(8, "big") * (BUCKET_SIZE // 8))
            elif op == "scan":
                return [cache.read_bucket(page) for page in range(64 + 8 * key, 72 + 8 * key)]
            elif op == "tenant" and lru is not None:
                lru.set_active("ab"[key])
            return []

        stepped, stepped_cache, stepped_ledger, stepped_lru = build()
        batched, batched_cache, batched_ledger, batched_lru = build()
        history = PREFILL + steps + EPILOGUE
        ends, position = set(), 0
        while position < len(history):
            position += runs[len(ends) % len(runs)]
            ends.add(min(position, len(history)) - 1)
        live = set()
        for step, (op, key) in enumerate(history):
            assert apply(stepped, stepped_cache, stepped_lru, op, key, step) == (
                apply(batched, batched_cache, batched_lru, op, key, step)
            )
            stepped_cache.replay()
            if op == "insert":
                live.add(key)
            elif op == "remove":
                live.discard(key)
            elif op == "drain":
                live = {k for k in live if k % BUCKETS != key}
            if step in ends:
                assert self.ledgers(stepped_cache, stepped, stepped_ledger) == (
                    self.ledgers(batched_cache, batched, batched_ledger)
                )
        assert stepped_cache.flush_all() == batched_cache.flush_all()
        stepped_cache.check_invariants()
        batched_cache.check_invariants()
        assert self.ledgers(stepped_cache, stepped, stepped_ledger) == (
            self.ledgers(batched_cache, batched, batched_ledger)
        )
