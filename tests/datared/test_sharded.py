"""Differential and invariant tests for the fingerprint-sharded engine.

The load-bearing guarantees (DESIGN.md §5.7):

* ``shards=1`` runs the full scatter path yet is *identical* to the
  plain engine — bytes, per-request reports (down to PBNs), stats
  snapshot, container ledger.
* ``shards>=2`` converges to the same live state at every batch
  boundary: identical bytes, identical ``logical_bytes``, identical
  unique+duplicate total, identical ``live_stored_bytes``.  Cumulative
  counters may differ (cross-shard trims defer releases to batch end,
  so a chunk the plain engine retires mid-batch can still dedup in a
  shard), which is exactly why the equality set here is the live one.
* The shard-selection invariant: every live record lives on the shard
  its digest selects — verified by ``check_sharded_engine``.
"""

import pytest

from repro.analysis.invariants import (
    InvariantViolation,
    check_engine,
    check_sharded_engine,
)
from repro.datared import ShardedDedupEngine, shard_for_digest
from repro.datared.dedup import DedupEngine, WriteOptions
from repro.errors import ErrorCode, ReproError, ShardError, error_code_for

CHUNK = 4096


def fresh_pair(num_shards, **kwargs):
    kwargs.setdefault("num_buckets", 256)
    return (
        DedupEngine(**kwargs),
        ShardedDedupEngine(num_shards, **kwargs),
    )


def make_batches(rng, num_batches, batch_chunks, dup_fraction, compressible):
    """Chunk batches mixing fresh and pooled (duplicate) content."""
    def fresh():
        if rng.random() < compressible:
            return rng.randbytes(CHUNK // 2) + bytes(CHUNK // 2)
        return rng.randbytes(CHUNK)

    pool = [fresh() for _ in range(6)]
    batches = []
    for _ in range(num_batches):
        chunk_batch = []
        for _ in range(batch_chunks):
            if rng.random() < dup_fraction:
                chunk_batch.append(pool[rng.randrange(len(pool))])
            else:
                chunk_batch.append(fresh())
        batches.append(chunk_batch)
    return batches


def write_batches(engine, batches, rng=None, overwrite_fraction=0.0):
    """Drive batches through ``write_many``; returns all reports.

    With ``overwrite_fraction`` some requests rewrite an already-used
    LBA instead of a fresh one, exercising cross-shard moves.
    """
    step = engine.chunker.blocks_per_chunk
    reports = []
    next_lba = 0
    used = []
    for batch in batches:
        requests = []
        for data in batch:
            if used and rng is not None and rng.random() < overwrite_fraction:
                lba = used[rng.randrange(len(used))]
            else:
                lba = next_lba
                next_lba += step
                used.append(lba)
            requests.append((lba, data))
        reports.extend(engine.write_many(requests))
    return reports, used


def payload_for_shard(rng, engine, target):
    """Random chunk whose digest routes to shard ``target``."""
    while True:
        data = rng.randbytes(CHUNK)
        digest = engine.fingerprinter.digest(data)
        if shard_for_digest(digest, engine.num_shards) == target:
            return data


class TestShardForDigest:
    def test_single_shard_is_always_zero(self, rng):
        for _ in range(64):
            assert shard_for_digest(rng.randbytes(32), 1) == 0

    def test_in_range_and_deterministic(self, rng):
        for num_shards in (2, 3, 4, 7):
            for _ in range(128):
                digest = rng.randbytes(32)
                first = shard_for_digest(digest, num_shards)
                assert 0 <= first < num_shards
                assert shard_for_digest(digest, num_shards) == first

    def test_all_shards_reachable(self, rng):
        hit = {shard_for_digest(rng.randbytes(32), 4) for _ in range(512)}
        assert hit == {0, 1, 2, 3}

    def test_prefix_ranges_are_contiguous(self):
        # The range partition: digests sorted by 8-byte prefix map to
        # monotonically non-decreasing shard indexes.
        digests = sorted(
            (bytes([a, b]) + bytes(30))
            for a in range(0, 256, 17)
            for b in range(0, 256, 29)
        )
        owners = [shard_for_digest(digest, 5) for digest in digests]
        assert owners == sorted(owners)


class TestShardsOneIdentity:
    """shards=1 through the full scatter path == the plain engine."""

    def test_reports_bytes_and_ledgers_match(self, rng):
        plain, sharded = fresh_pair(1)
        batches = make_batches(
            rng, num_batches=5, batch_chunks=12,
            dup_fraction=0.4, compressible=0.5,
        )
        seed = rng.random()
        import random as _random
        plain_reports, lbas = write_batches(
            plain, batches, rng=_random.Random(seed), overwrite_fraction=0.2
        )
        sharded_reports, _ = write_batches(
            sharded, batches, rng=_random.Random(seed), overwrite_fraction=0.2
        )
        assert plain_reports == sharded_reports
        for lba in lbas:
            assert sharded.read(lba, 1) == plain.read(lba, 1)
        assert sharded.stats_snapshot() == plain.stats_snapshot()
        assert (
            sharded.shards[0].containers.live_bytes
            == plain.containers.live_bytes
        )
        check_engine(plain)
        check_sharded_engine(sharded)
        sharded.close()

    def test_trim_matches(self, rng):
        plain, sharded = fresh_pair(1)
        data = rng.randbytes(CHUNK)
        for engine in (plain, sharded):
            engine.write(0, data)
            engine.write(8, data)
        assert plain.trim(0) == sharded.trim(0)
        assert plain.trim(0) == sharded.trim(0)  # double trim: no-op
        assert sharded.read(0, 1).data == plain.read(0, 1).data == bytes(CHUNK)
        assert sharded.stats_snapshot() == plain.stats_snapshot()
        sharded.close()

    def test_flush_and_collect_garbage_match(self, rng):
        plain, sharded = fresh_pair(1)
        for engine in (plain, sharded):
            step = engine.chunker.blocks_per_chunk
            for index in range(24):
                engine.write(index * step, rng.randbytes(CHUNK))
        rewrites = [
            (index * plain.chunker.blocks_per_chunk, rng.randbytes(CHUNK))
            for index in range(20)
        ]
        for engine in (plain, sharded):
            engine.write_many(rewrites)
            engine.flush()
        assert plain.collect_garbage() == sharded.collect_garbage()
        assert sharded.stats_snapshot() == plain.stats_snapshot()
        sharded.close()


@pytest.mark.parametrize("dup_fraction", [0.0, 0.5])
@pytest.mark.parametrize("compressible", [0.0, 1.0])
@pytest.mark.parametrize("batch_chunks", [1, 7, 16])
class TestShardsFourGrid:
    """dedup x compressibility x batch-boundary grid at shards=4.

    Live state must converge at every batch boundary even though
    cumulative counters may legitimately diverge (module docstring).
    """

    def test_live_state_converges_each_batch(
        self, rng, dup_fraction, compressible, batch_chunks
    ):
        plain, sharded = fresh_pair(4)
        batches = make_batches(
            rng, num_batches=4, batch_chunks=batch_chunks,
            dup_fraction=dup_fraction, compressible=compressible,
        )
        step = plain.chunker.blocks_per_chunk
        next_lba = 0
        used = []
        for batch in batches:
            requests = []
            for data in batch:
                # Every third chunk overwrites an existing LBA once
                # some exist — the cross-shard move exerciser.
                if used and len(requests) % 3 == 2:
                    lba = used[len(requests) % len(used)]
                else:
                    lba = next_lba
                    next_lba += step
                    used.append(lba)
                requests.append((lba, data))
            plain.write_many(requests)
            sharded.write_many(requests)
            # -- batch boundary: live state must have converged --
            plain_snap = plain.stats_snapshot()
            sharded_snap = sharded.stats_snapshot()
            assert sharded_snap.logical_bytes == plain_snap.logical_bytes
            assert (
                sharded_snap.unique_chunks + sharded_snap.duplicate_chunks
                == plain_snap.unique_chunks + plain_snap.duplicate_chunks
            )
            assert (
                sharded_snap.live_stored_bytes
                == plain_snap.live_stored_bytes
            )
            for lba in used:
                assert sharded.read(lba, 1).data == plain.read(lba, 1).data
            check_engine(plain)
            check_sharded_engine(sharded)
        sharded.close()


class TestSingleWriteRoutesThroughShards:
    """Satellite: single-chunk write/read shares the batched shard
    selection — one code path, so the two can never diverge."""

    def test_write_equals_write_many(self, rng):
        solo = ShardedDedupEngine(4, num_buckets=256)
        batched = ShardedDedupEngine(4, num_buckets=256)
        payloads = [rng.randbytes(CHUNK) for _ in range(8)]
        step = solo.chunker.blocks_per_chunk
        for index, data in enumerate(payloads):
            report = solo.write(index * step, data)
            twin = batched.write_many([(index * step, data)])[0]
            assert report == twin
        assert solo.stats_snapshot() == batched.stats_snapshot()
        assert solo._lba_shard == batched._lba_shard
        solo.close()
        batched.close()

    def test_single_write_lands_on_digest_shard(self, rng):
        engine = ShardedDedupEngine(4, num_buckets=256)
        for target in range(4):
            data = payload_for_shard(rng, engine, target)
            lba = target * engine.chunker.blocks_per_chunk
            engine.write(lba, data)
            assert engine._lba_shard[lba] == target
            with engine.shards[target].lock:
                assert lba in dict(engine.shards[target].lba_map.items())
            assert engine.read(lba, 1).data == data
        check_sharded_engine(engine)
        engine.close()

    def test_write_options_digests_respected(self, rng):
        engine = ShardedDedupEngine(4, num_buckets=256)
        data = rng.randbytes(CHUNK)
        digest = engine.fingerprinter.digest(data)
        engine.write(0, data, options=WriteOptions(digests=[digest]))
        owner = shard_for_digest(digest, 4)
        assert engine._lba_shard[0] == owner
        check_sharded_engine(engine)
        engine.close()


class TestCrossShardMoves:
    def test_overwrite_moves_lba_between_shards(self, rng):
        engine = ShardedDedupEngine(4, num_buckets=256)
        first = payload_for_shard(rng, engine, 1)
        second = payload_for_shard(rng, engine, 3)
        engine.write(0, first)
        assert engine._lba_shard[0] == 1
        report = engine.write(0, second)
        assert engine._lba_shard[0] == 3
        assert report.reclaimed_chunks == 1  # shard 1's mapping retired
        assert engine.read(0, 1).data == second
        with engine.shards[1].lock:
            assert 0 not in dict(engine.shards[1].lba_map.items())
        check_sharded_engine(engine)
        engine.close()

    def test_same_lba_twice_in_one_batch_last_writer_wins(self, rng):
        engine = ShardedDedupEngine(4, num_buckets=256)
        first = payload_for_shard(rng, engine, 0)
        second = payload_for_shard(rng, engine, 2)
        engine.write_many([(0, first), (0, second)])
        assert engine._lba_shard[0] == 2
        assert engine.read(0, 1).data == second
        check_sharded_engine(engine)
        engine.close()

    def test_multi_chunk_requests_fold_in_order_and_credit_the_last_writer(
        self, rng
    ):
        """Two 2-chunk requests overlapping on one LBA that a third shard
        held: each report lists its chunks in payload order, and both the
        in-batch overwrite and the stale shard's trim are on the account
        of the request that wrote the LBA last."""
        engine = ShardedDedupEngine(4, num_buckets=256)
        step = engine.chunker.blocks_per_chunk
        engine.write(step, payload_for_shard(rng, engine, 0))
        pieces = [payload_for_shard(rng, engine, owner) for owner in (2, 1, 3, 2)]
        first, second = engine.write_many(
            [(0, pieces[0] + pieces[1]), (step, pieces[2] + pieces[3])]
        )
        assert [outcome.lba for outcome in first.chunks] == [0, step]
        assert [outcome.lba for outcome in second.chunks] == [step, 2 * step]
        assert (first.logical_bytes, second.unique_chunks) == (2 * CHUNK, 2)
        assert (first.reclaimed_chunks, second.reclaimed_chunks) == (0, 2)
        assert [engine._lba_shard[lba] for lba in (0, step, 2 * step)] == [2, 3, 2]
        assert engine.read(0, 3).data == pieces[0] + pieces[2] + pieces[3]
        check_sharded_engine(engine)
        engine.close()

    def test_global_dedup_across_shards(self, rng):
        # The same content at N LBAs is stored exactly once cluster-wide
        # because content routing sends every copy to one shard.
        engine = ShardedDedupEngine(4, num_buckets=256)
        data = rng.randbytes(CHUNK)
        step = engine.chunker.blocks_per_chunk
        engine.write_many([(index * step, data) for index in range(10)])
        snap = engine.stats_snapshot()
        assert snap.unique_chunks == 1
        assert snap.duplicate_chunks == 9
        owner = shard_for_digest(engine.fingerprinter.digest(data), 4)
        owners = {engine._lba_shard[index * step] for index in range(10)}
        assert owners == {owner}
        check_sharded_engine(engine)
        engine.close()

    def test_trim_unmaps_and_reclaims(self, rng):
        engine = ShardedDedupEngine(4, num_buckets=256)
        data = rng.randbytes(CHUNK)
        engine.write(0, data)
        report = engine.trim(0)
        assert report.reclaimed_chunks == 1
        assert 0 not in engine._lba_shard
        assert engine.read(0, 1).data == bytes(CHUNK)
        assert engine.trim(0).reclaimed_chunks == 0
        check_sharded_engine(engine)
        engine.close()


class TestShardFaults:
    """Satellite: a failing shard surfaces a typed error while the
    healthy shards' ledgers stay conserved."""

    def _failing_engine(self, rng, broken=2):
        engine = ShardedDedupEngine(4, num_buckets=256)
        original = engine.shards[broken]._write_many_locked

        def boom(requests, digests):
            raise RuntimeError("injected shard fault")

        engine.shards[broken]._write_many_locked = boom
        return engine, original

    def test_typed_shard_error_with_indexes(self, rng):
        engine, _ = self._failing_engine(rng, broken=2)
        doomed = payload_for_shard(rng, engine, 2)
        healthy = payload_for_shard(rng, engine, 0)
        with pytest.raises(ShardError) as excinfo:
            engine.write_many([(0, healthy), (8, doomed)])
        assert excinfo.value.shard_indexes == (2,)
        assert isinstance(excinfo.value, ReproError)
        assert error_code_for(excinfo.value) is ErrorCode.SHARD_FAILED
        engine.close()

    def test_healthy_shards_stay_conserved(self, rng):
        engine, original = self._failing_engine(rng, broken=2)
        healthy = [payload_for_shard(rng, engine, index) for index in (0, 1, 3)]
        doomed = payload_for_shard(rng, engine, 2)
        step = engine.chunker.blocks_per_chunk
        requests = [(index * step, data) for index, data in enumerate(healthy)]
        requests.append((3 * step, doomed))
        with pytest.raises(ShardError):
            engine.write_many(requests)
        # The injected failure must not have corrupted any ledger: the
        # healthy shards committed their chunks, the broken shard's
        # ledger is untouched, and the cluster invariants all hold.
        check_sharded_engine(engine)
        for index in range(3):
            assert engine.read(index * step, 1).data == healthy[index]
        # The broken shard heals and the cluster keeps working.
        engine.shards[2]._write_many_locked = original
        engine.write(3 * step, doomed)
        assert engine.read(3 * step, 1).data == doomed
        check_sharded_engine(engine)
        engine.close()


class TestStatsAggregation:
    def test_snapshot_is_sum_of_shards(self, rng):
        engine = ShardedDedupEngine(4, num_buckets=256)
        batches = make_batches(
            rng, num_batches=3, batch_chunks=10,
            dup_fraction=0.5, compressible=0.5,
        )
        write_batches(engine, batches)
        merged = engine.stats_snapshot()
        per_shard = engine.shard_snapshots()
        for name in (
            "logical_bytes", "unique_logical_bytes", "stored_bytes",
            "reclaimed_stored_bytes", "duplicate_chunks", "unique_chunks",
            "containers_sealed",
        ):
            assert getattr(merged, name) == sum(
                getattr(snap, name) for snap in per_shard
            )
        engine.close()

    def test_per_shard_gauges_published(self, rng):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        engine = ShardedDedupEngine(2, num_buckets=256, registry=registry)
        engine.write(0, rng.randbytes(CHUNK))
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["engine.shards"] == 2
        for index in range(2):
            assert f"engine.shard.{index}.logical_bytes" in snapshot["gauges"]
        total = sum(
            snapshot["gauges"][f"engine.shard.{index}.logical_bytes"]
            for index in range(2)
        )
        assert total == snapshot["gauges"]["engine.logical_bytes"] == CHUNK
        engine.close()


class TestInvariantChecker:
    def test_detects_misrouted_record(self, rng):
        # Plant a record on the wrong shard by writing it directly into
        # a shard engine, bypassing the router.
        engine = ShardedDedupEngine(2, num_buckets=256)
        data = payload_for_shard(rng, engine, 0)
        engine.shards[1].write(0, data)
        violations = check_sharded_engine(engine, raise_on_violation=False)
        assert any("shard-selection" in item for item in violations)
        with pytest.raises(InvariantViolation):
            check_sharded_engine(engine)
        engine.close()

    def test_detects_directory_drift(self, rng):
        engine = ShardedDedupEngine(2, num_buckets=256)
        engine.write(0, rng.randbytes(CHUNK))
        engine._lba_shard[12345] = 1
        violations = check_sharded_engine(engine, raise_on_violation=False)
        assert any("12345" in item for item in violations)
        engine.close()
