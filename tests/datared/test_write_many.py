"""Tests for the batched write path.

Covers the incrementally-maintained ``WriteReport`` aggregates and —
the load-bearing property of the stage-split design — the differential
guarantee that a batched :meth:`~repro.datared.dedup.DedupEngine.write_many`
is *indistinguishable* from one ``write`` per chunk: same bytes, same
reports, same :class:`~repro.datared.dedup.EngineStats`.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.invariants import check_engine
from repro.datared.chunking import BLOCK_SIZE
from repro.datared.compression import ZlibCompressor
from repro.datared.dedup import (
    ChunkOutcome,
    DedupEngine,
    WriteReport,
)
from repro.datared.hashing import fingerprint

CHUNK = 4096
BLOCKS = CHUNK // BLOCK_SIZE  #: LBA step between adjacent chunk slots


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


# -- differential: batched path vs. per-chunk path ----------------------------


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

    hot = [payload() for _ in range(6)]
    requests = []
    for _ in range(num_requests):
        lba = rng.randrange(region_chunks) * BLOCKS
        if rng.random() < dedup_fraction:
            data = hot[rng.randrange(len(hot))]
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
def test_write_many_matches_per_chunk_writes(
    dedup_fraction, zero_fill, batch_size
):
    """The grid: dedup fraction x compressibility x batch size.  An odd
    batch size (7) guarantees overwrites straddle batch boundaries."""
    rng = random.Random(hash((dedup_fraction, zero_fill, batch_size)) & 0xFFFF)
    requests = make_request_stream(
        rng, dedup_fraction=dedup_fraction, zero_fill=zero_fill
    )

    single = DedupEngine(num_buckets=512, compressor=ZlibCompressor())
    single_reports = [single.write(lba, data) for lba, data in requests]

    batched = DedupEngine(num_buckets=512, compressor=ZlibCompressor())
    batched_reports = []
    for start in range(0, len(requests), batch_size):
        batched_reports.extend(
            batched.write_many(requests[start : start + batch_size])
        )

    assert len(single_reports) == len(batched_reports)
    for left, right in zip(single_reports, batched_reports):
        assert reports_equal(left, right)
    assert single.stats == batched.stats
    assert single.table.entry_count == batched.table.entry_count

    # Planner never diverged from execution on any grid cell.
    assert batched.stats.plan_fallback_compressions == 0
    assert batched.stats.plan_wasted_compressions == 0

    # Both engines obey every ledger/index conservation law.
    assert check_engine(single) == []
    assert check_engine(batched) == []

    # Byte-identical read-back, through both engines' read paths.
    for chunk_index in range(24):
        lba = chunk_index * BLOCKS
        assert single.read(lba).data == batched.read(lba).data
    # And the batched multi-chunk (one decode pass) read agrees.
    assert (
        batched.read(0, 24).data
        == b"".join(single.read(i * BLOCKS).data for i in range(24))
    )


def test_write_many_intra_batch_retire_then_rewrite():
    """The planner corner: one batch both releases the last reference to
    a fingerprint and then writes that same content again.  The
    per-chunk walk stores it anew; the plan must predict that, not call
    it a duplicate of the retired PBN."""
    data_x = bytes([1]) * CHUNK
    data_y = bytes([2]) * CHUNK

    single = DedupEngine(num_buckets=64)
    batched = DedupEngine(num_buckets=64)
    for engine, writer in (
        (single, lambda reqs: [single.write(*r) for r in reqs]),
        (batched, batched.write_many),
    ):
        writer([(0, data_x)])  # lone reference to X
        # One batch: retire X (overwrite LBA 0), then write X again.
        writer([(0, data_y), (BLOCKS, data_x)])
    assert single.stats == batched.stats
    assert single.read(0).data == batched.read(0).data
    assert single.read(BLOCKS).data == batched.read(BLOCKS).data
    assert batched.stats.plan_fallback_compressions == 0
    assert batched.stats.plan_wasted_compressions == 0


def test_write_many_with_precomputed_digests(rng):
    """The NIC-offload entry point: callers may hand digests in."""
    requests = [
        (i * BLOCKS, rng.randbytes(CHUNK)) for i in range(8)
    ]
    digests = [fingerprint(data) for _, data in requests]

    plain = DedupEngine(num_buckets=64)
    offloaded = DedupEngine(num_buckets=64)
    plain_reports = plain.write_many(requests)
    offload_reports = offloaded.write_many(requests, digests=digests)
    for left, right in zip(plain_reports, offload_reports):
        assert left.chunks == right.chunks
    assert plain.stats == offloaded.stats

    with pytest.raises(ValueError):
        offloaded.write_many(requests, digests=digests[:-1])
