"""The write-call surface: the one per-call write option is the
keyword ``digests=`` on ``write``/``write_many``, and
EngineStats/stats_snapshot give a consistent typed view of the ledgers
plus the registry publication."""

from __future__ import annotations

from repro.datared.compression import ModeledCompressor
from repro.datared.dedup import DedupEngine, EngineStats
from repro.datared.hashing import fingerprint
from repro.obs.metrics import MetricsRegistry

CHUNK = 4096


def make_engine(**kwargs) -> DedupEngine:
    kwargs.setdefault("num_buckets", 1 << 10)
    kwargs.setdefault("compressor", ModeledCompressor(0.5))
    return DedupEngine(**kwargs)


def requests_for(count: int):
    requests = []
    step = 0
    for index in range(count):
        requests.append((step, bytes([index % 5]) * CHUNK))
        step += CHUNK // 512
    return requests


class TestWriteOptions:
    def test_digests_path_matches_engine_hashing(self):
        plain = make_engine()
        offloaded = make_engine()
        requests = requests_for(12)
        digests = [fingerprint(payload) for _, payload in requests]

        plain_reports = plain.write_many(requests)
        offload_reports = offloaded.write_many(requests, digests=digests)
        assert offload_reports == plain_reports
        assert offloaded.stats_snapshot() == plain.stats_snapshot()
        for lba, payload in requests:
            assert offloaded.read(lba, 1).data == payload

    def test_single_write_accepts_digest_options(self):
        engine = make_engine()
        payload = b"z" * CHUNK
        report = engine.write(0, payload, digests=[fingerprint(payload)])
        assert report.logical_bytes == CHUNK
        assert engine.read(0, 1).data == payload


class TestEngineStats:
    def test_snapshot_mirrors_the_ledgers(self):
        engine = make_engine()
        engine.write_many(requests_for(10))
        engine.flush()
        snap = engine.stats_snapshot()
        assert isinstance(snap, EngineStats)
        assert snap.logical_bytes == engine.stats.logical_bytes
        assert snap.unique_chunks == engine.stats.unique_chunks
        assert snap.duplicate_chunks == engine.stats.duplicate_chunks
        assert snap.containers_sealed == engine.containers.sealed_count
        assert snap.live_stored_bytes == (
            snap.stored_bytes - snap.reclaimed_stored_bytes
        )
        assert snap.dedup_ratio == engine.stats.dedup_ratio
        assert snap.compression_ratio == engine.stats.compression_ratio

    def test_snapshot_is_a_value_not_a_view(self):
        engine = make_engine()
        engine.write(0, b"v" * CHUNK)
        before = engine.stats_snapshot()
        engine.write(8, b"w" * CHUNK)
        assert engine.stats_snapshot().logical_bytes == 2 * CHUNK
        assert before.logical_bytes == CHUNK

    def test_engine_publishes_gauges_into_injected_registry(self):
        registry = MetricsRegistry()
        engine = make_engine(registry=registry)
        engine.write_many(requests_for(8))
        engine.flush()
        gauges = registry.snapshot()["gauges"]
        assert gauges["engine.logical_bytes"] == 8 * CHUNK
        assert gauges["engine.unique_chunks"] == 5
        assert gauges["engine.duplicate_chunks"] == 3
        assert gauges["engine.containers_sealed"] == 1
        assert 0.0 <= gauges["engine.dedup_ratio"] <= 1.0
        # The published factor is always finite (the collector clamps
        # the stored-nothing corner so the snapshot stays strict-JSON);
        # keep the engine referenced so its weak collector stays alive.
        import math
        fresh_registry = MetricsRegistry()
        fresh_engine = make_engine(registry=fresh_registry)
        fresh = fresh_registry.snapshot()["gauges"]
        assert math.isfinite(fresh["engine.reduction_factor"])
        del fresh_engine

    def test_published_gauge_set_is_pinned(self):
        """After a fixed write/overwrite/read/GC history, the engine
        publishes exactly these ``engine.*``/``index.*`` gauges of
        ``repro.stats/v1`` with exactly these values — the names
        ``bench/loadgen.py`` and ``repro.obs top`` read among them."""
        registry = MetricsRegistry()
        engine = make_engine(registry=registry, read_cache_chunks=4)
        engine.containers.container_size = 4 * CHUNK
        engine.write_many([(lba, bytes([lba % 5]) * CHUNK) for lba in range(12)])
        engine.write_many(
            [(lba, bytes([100 + lba]) * CHUNK) for lba in range(0, 12, 2)]
        )
        engine.write_many([(lba, bytes([200 + lba]) * CHUNK) for lba in range(20, 28)])
        engine.write_many([(lba, bytes([lba % 5]) * CHUNK) for lba in range(20, 26)])
        # A plan that compresses a duplicate and misses a unique.
        engine._plan_batch = lambda chunks, digests: [0]
        engine.write_many([(30, bytes([0]) * CHUNK), (31, bytes([250]) * CHUNK)])
        del engine._plan_batch
        engine.read(0, 6)
        engine.read(2, 6)
        engine.flush()
        assert engine.collect_garbage(threshold=0.3) == 1
        gauges = {
            name: value
            for name, value in registry.snapshot()["gauges"].items()
            if name.startswith(("engine.", "index."))
        }
        assert gauges == {
            "engine.compression_ratio": 0.5,
            "engine.containers_sealed": 3,
            "engine.dedup_ratio": 14 / 34,
            "engine.duplicate_chunks": 14,
            "engine.gc.bytes_moved": 6144,
            "engine.gc.containers_reclaimed": 1,
            "engine.live_stored_bytes": 28672,
            "engine.logical_bytes": 139264,
            "engine.plan.fallback_compressions": 1,
            "engine.plan.wasted_compressions": 1,
            "engine.read_cache.hits": 4,
            "engine.read_cache.misses": 8,
            "engine.reclaimed_stored_bytes": 12288,
            "engine.reduction_factor": 139264 / 40960,
            "engine.stored_bytes": 40960,
            "engine.unique_chunks": 20,
            "engine.unique_logical_bytes": 81920,
            "index.probes": 60,
        }
