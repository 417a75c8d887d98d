"""Tests for the stage-split parallel data path.

Covers the :class:`~repro.parallel.StagePool` fan-out primitive, the
pool-aware ``fingerprint_many``, the incrementally-maintained
``WriteReport`` aggregates, and — the load-bearing property of the whole
design — the differential guarantee that the batched parallel write/read
path is *indistinguishable* from the serial per-chunk path: same bytes,
same reports, same :class:`~repro.datared.dedup.ReductionStats`.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.analysis.invariants import check_engine
from repro.datared.chunking import BLOCK_SIZE
from repro.datared.compression import ZlibCompressor
from repro.datared.dedup import (
    ChunkOutcome,
    DedupEngine,
    WriteOptions,
    WriteReport,
)
from repro.datared.hash_pbn import HashPbnTable
from repro.datared.hashing import fingerprint, fingerprint_many
from repro.parallel import StagePool

from .reference import InterposingStore

CHUNK = 4096
BLOCKS = CHUNK // BLOCK_SIZE  #: LBA step between adjacent chunk slots


class TestStagePool:
    def test_serial_pool_has_no_threads(self):
        pool = StagePool(1)
        assert not pool.is_parallel
        main = threading.current_thread().name
        names = pool.map(lambda _: threading.current_thread().name, range(64))
        assert set(names) == {main}

    def test_parallelism_clamped_to_one(self):
        assert not StagePool(0).is_parallel
        assert not StagePool(-3).is_parallel

    def test_order_preserved_and_complete(self):
        with StagePool(4) as pool:
            items = list(range(1000))
            assert pool.map(lambda x: x * 2, items) == [x * 2 for x in items]

    def test_parallel_map_matches_serial_map(self):
        rng = random.Random(7)
        chunks = [rng.randbytes(CHUNK) for _ in range(100)]
        with StagePool(4) as pool:
            assert pool.map(fingerprint, chunks) == [
                fingerprint(c) for c in chunks
            ]

    def test_small_batches_run_inline(self):
        """Below ``min_slice_items`` items-per-slice there is nothing to
        amortize the dispatch over, so the map must not hit the pool."""
        with StagePool(8, min_slice_items=8) as pool:
            main = threading.current_thread().name
            names = pool.map(
                lambda _: threading.current_thread().name, range(8)
            )
            assert set(names) == {main}

    def test_large_batches_use_worker_threads(self):
        with StagePool(4) as pool:
            main = threading.current_thread().name
            names = set(
                pool.map(lambda _: threading.current_thread().name, range(256))
            )
            assert main not in names
            assert all(name.startswith("repro-stage") for name in names)

    def test_exceptions_propagate(self):
        with StagePool(2) as pool:
            with pytest.raises(ZeroDivisionError):
                pool.map(lambda x: 1 // (x - 50), range(100))

    def test_shutdown_is_idempotent(self):
        pool = StagePool(2)
        pool.shutdown()
        pool.shutdown()
        assert not pool.is_parallel
        # A shut-down pool still maps, just inline.
        assert pool.map(lambda x: x + 1, range(20)) == list(range(1, 21))

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            StagePool(2, slices_per_worker=0)
        with pytest.raises(ValueError):
            StagePool(2, min_slice_items=0)
        # Workers are threads; there is no backend to pick.
        with pytest.raises(TypeError):
            StagePool(2, backend="process")

    def test_min_batch_runs_inline(self):
        """Batches below ``min_batch`` stay on the calling thread even
        on a wide pool — the read path's small-batch guard."""
        with StagePool(8) as pool:
            main = threading.current_thread().name
            names = pool.map(
                lambda _: threading.current_thread().name,
                range(64),
                min_batch=128,
            )
            assert set(names) == {main}
            # At or above the threshold the pool takes over again.
            names = set(
                pool.map(
                    lambda _: threading.current_thread().name,
                    range(128),
                    min_batch=128,
                )
            )
            assert main not in names


class TestFingerprintMany:
    def test_matches_singles(self, rng):
        chunks = [rng.randbytes(CHUNK) for _ in range(32)]
        assert fingerprint_many(chunks) == [fingerprint(c) for c in chunks]

    def test_pool_routing_is_equivalent(self, rng):
        chunks = [rng.randbytes(CHUNK) for _ in range(200)]
        with StagePool(4) as pool:
            assert fingerprint_many(chunks, pool=pool) == fingerprint_many(
                chunks
            )


class TestWriteReportAggregates:
    @staticmethod
    def outcome(lba, duplicate, stored):
        return ChunkOutcome(
            lba=lba,
            pbn=lba + 100,
            duplicate=duplicate,
            logical_size=CHUNK,
            stored_size=stored,
        )

    def test_add_maintains_totals(self):
        report = WriteReport()
        report.add(self.outcome(0, False, 2000))
        report.add(self.outcome(8, True, 0))
        report.add(self.outcome(16, False, 1500))
        assert report.logical_bytes == 3 * CHUNK
        assert report.stored_bytes == 3500
        assert report.unique_chunks == 2
        assert report.duplicate_chunks == 1

    def test_post_init_tallies_presupplied_chunks(self):
        outcomes = [self.outcome(0, False, 1000), self.outcome(8, True, 0)]
        report = WriteReport(chunks=list(outcomes))
        assert report.logical_bytes == 2 * CHUNK
        assert report.stored_bytes == 1000
        assert report.unique_chunks == 1
        assert report.duplicate_chunks == 1

    def test_aggregates_match_recompute(self, rng):
        report = WriteReport()
        for i in range(50):
            report.add(
                self.outcome(
                    i * 8, rng.random() < 0.4, rng.randrange(500, 4000)
                )
            )
        assert report.logical_bytes == sum(
            o.logical_size for o in report.chunks
        )
        assert report.stored_bytes == sum(
            o.stored_size for o in report.chunks
        )
        assert report.unique_chunks == sum(
            1 for o in report.chunks if not o.duplicate
        )


# -- differential: parallel batched path vs. serial per-chunk path ------------


def make_request_stream(
    rng: random.Random,
    *,
    dedup_fraction: float,
    zero_fill: int,
    num_requests: int = 72,
    region_chunks: int = 24,
):
    """(lba, payload) request stream with tunable duplicate rate and
    compressibility.  LBAs revisit a small region, so later requests
    overwrite earlier ones — including across any batching boundary the
    batched engine uses."""

    def payload() -> bytes:
        return rng.randbytes(CHUNK - zero_fill) + bytes(zero_fill)

    pool = [payload() for _ in range(6)]
    requests = []
    for _ in range(num_requests):
        lba = rng.randrange(region_chunks) * BLOCKS
        if rng.random() < dedup_fraction:
            data = pool[rng.randrange(len(pool))]
        else:
            data = payload()
        requests.append((lba, data))
    return requests


def reports_equal(left: WriteReport, right: WriteReport) -> bool:
    return (
        left.chunks == right.chunks
        and left.containers_sealed == right.containers_sealed
        and left.logical_bytes == right.logical_bytes
        and left.stored_bytes == right.stored_bytes
        and left.unique_chunks == right.unique_chunks
        and left.duplicate_chunks == right.duplicate_chunks
    )


@pytest.mark.parametrize("dedup_fraction", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("zero_fill", [0, CHUNK // 2, CHUNK - 64])
@pytest.mark.parametrize("batch_size", [7, 16])
def test_write_many_is_indistinguishable_from_serial(
    dedup_fraction, zero_fill, batch_size
):
    """The grid: dedup fraction x compressibility x batch size.  An odd
    batch size (7) guarantees overwrites straddle batch boundaries."""
    rng = random.Random(hash((dedup_fraction, zero_fill, batch_size)) & 0xFFFF)
    requests = make_request_stream(
        rng, dedup_fraction=dedup_fraction, zero_fill=zero_fill
    )

    serial = DedupEngine(num_buckets=512, compressor=ZlibCompressor())
    serial_reports = [serial.write(lba, data) for lba, data in requests]

    with StagePool(4) as pool:
        batched = DedupEngine(
            num_buckets=512, compressor=ZlibCompressor(), pool=pool
        )
        batched_reports = []
        for start in range(0, len(requests), batch_size):
            batched_reports.extend(
                batched.write_many(requests[start : start + batch_size])
            )

    assert len(serial_reports) == len(batched_reports)
    for left, right in zip(serial_reports, batched_reports):
        assert reports_equal(left, right)
    assert serial.stats == batched.stats
    assert serial.table.entry_count == batched.table.entry_count

    # Planner never diverged from execution on any grid cell.
    assert batched.plan_fallback_compressions == 0
    assert batched.plan_wasted_compressions == 0

    # Both engines obey every ledger/index conservation law.
    assert check_engine(serial) == []
    assert check_engine(batched) == []

    # Byte-identical read-back, through both engines' read paths.
    for chunk_index in range(24):
        lba = chunk_index * BLOCKS
        assert serial.read(lba).data == batched.read(lba).data
    # And the batched multi-chunk (parallel-decompress) read agrees.
    assert (
        batched.read(0, 24).data
        == b"".join(serial.read(i * BLOCKS).data for i in range(24))
    )

    # Index-path differential on the same grid cell: an engine whose
    # table sits over an interposing store (no negative filter, one
    # table lookup per chunk — the configuration the table cache runs)
    # must be byte- and ledger-identical to the filtered, batch-resolved
    # engine above — including every stored 4-KB table page.  (Page
    # identity against the decoded reference bucket is pinned at table
    # level by test_index_packed.TestPackedVsLegacyTable.)
    legacy = DedupEngine(
        table=HashPbnTable(512, store=InterposingStore()),
        compressor=ZlibCompressor(),
    )
    assert not legacy.table.private_store
    legacy_reports = []
    for start in range(0, len(requests), batch_size):
        legacy_reports.extend(
            legacy.write_many(requests[start : start + batch_size])
        )
    for left, right in zip(batched_reports, legacy_reports):
        assert reports_equal(left, right)
    assert legacy.stats == batched.stats
    assert legacy.table.entry_count == batched.table.entry_count
    for index in range(512):
        assert (
            legacy.table.store.read_bucket(index)
            == batched.table.store.read_bucket(index)
        )
    assert check_engine(legacy) == []
    assert legacy.read(0, 24).data == batched.read(0, 24).data


def test_write_many_intra_batch_retire_then_rewrite():
    """The planner corner: one batch both releases the last reference to
    a fingerprint and then writes that same content again.  The serial
    walk stores it anew; the plan must predict that, not call it a
    duplicate of the retired PBN."""
    data_x = bytes([1]) * CHUNK
    data_y = bytes([2]) * CHUNK

    serial = DedupEngine(num_buckets=64)
    batched = DedupEngine(num_buckets=64, pool=StagePool(2))
    try:
        for engine, writer in (
            (serial, lambda reqs: [engine.write(*r) for r in reqs]),
            (batched, lambda reqs: engine.write_many(reqs)),
        ):
            writer([(0, data_x)])  # lone reference to X
            # One batch: retire X (overwrite LBA 0), then write X again.
            writer([(0, data_y), (BLOCKS, data_x)])
        assert serial.stats == batched.stats
        assert serial.read(0).data == batched.read(0).data
        assert serial.read(BLOCKS).data == batched.read(BLOCKS).data
        assert batched.plan_fallback_compressions == 0
        assert batched.plan_wasted_compressions == 0
    finally:
        batched.pool.shutdown()


def test_write_many_with_precomputed_digests(rng):
    """The NIC-offload entry point: callers may hand digests in."""
    requests = [
        (i * BLOCKS, rng.randbytes(CHUNK)) for i in range(8)
    ]
    digests = [fingerprint(data) for _, data in requests]

    plain = DedupEngine(num_buckets=64)
    offloaded = DedupEngine(num_buckets=64)
    plain_reports = plain.write_many(requests)
    offload_reports = offloaded.write_many(
        requests, WriteOptions(digests=digests)
    )
    for left, right in zip(plain_reports, offload_reports):
        assert left.chunks == right.chunks
    assert plain.stats == offloaded.stats

    with pytest.raises(ValueError):
        offloaded.write_many(requests, WriteOptions(digests=digests[:-1]))
