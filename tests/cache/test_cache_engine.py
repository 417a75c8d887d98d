"""Tests for the Cache HW-Engine timing model (Figure 13)."""

import pytest

from repro.cache.cache_engine import CacheEngineConfig, CacheEngineModel


class TestAnalytic:
    def test_window_scaling_until_commit_binds(self):
        model = CacheEngineModel()
        t1 = model.analytic_throughput(0.19, window=1).throughput
        t2 = model.analytic_throughput(0.19, window=2).throughput
        t4 = model.analytic_throughput(0.19, window=4).throughput
        assert t1 < t2 <= t4
        # Near-linear 1 -> 2 (latency-bound), sublinear 2 -> 4 (commit port).
        assert t2 / t1 == pytest.approx(2.0, rel=0.05)
        assert t4 / t2 < 2.0

    def test_high_hit_rate_saturates_board_dram(self):
        model = CacheEngineModel()
        result = model.analytic_throughput(0.10, window=4)
        assert result.bottleneck == "board_dram"

    def test_zero_miss_rate_has_no_update_cap(self):
        result = CacheEngineModel().analytic_throughput(0.0, window=1)
        assert "update_path" not in result.caps
        assert result.bottleneck in ("board_dram", "search_pipeline")

    def test_table_ssd_cap(self):
        config = CacheEngineConfig(table_ssd_read_bw=2e9)
        result = CacheEngineModel(config).analytic_throughput(0.19, window=4)
        assert result.caps["table_ssd"] == pytest.approx(2e9 / 0.19)
        assert result.bottleneck == "table_ssd"

    def test_miss_rate_validation(self):
        model = CacheEngineModel()
        with pytest.raises(ValueError):
            model.analytic_throughput(1.5)
        with pytest.raises(ValueError):
            model.analytic_throughput(0.5, window=0)

    def test_paper_figure13_anchor_points(self):
        """Write-M-like (19% miss): ~27 GB/s single, ~64-67 GB/s multi;
        Write-H-like (10% miss): ~51 single, DRAM-capped ~128 multi."""
        model = CacheEngineModel()
        wm1 = model.analytic_throughput(0.19, 1).throughput / 1e9
        wm4 = model.analytic_throughput(0.19, 4).throughput / 1e9
        wh1 = model.analytic_throughput(0.10, 1).throughput / 1e9
        wh4 = model.analytic_throughput(0.10, 4).throughput / 1e9
        assert wm1 == pytest.approx(27.1, rel=0.05)
        assert wm4 == pytest.approx(63.8, rel=0.10)
        assert wh1 == pytest.approx(54.0, rel=0.07)
        assert wh4 == pytest.approx(127.0, rel=0.05)


class TestSimulation:
    def test_sim_tracks_analytic(self):
        # The queueing sim sits a little below the ideal closed form
        # (DRAM serialization adds latency the analytic caps ignore),
        # especially at the DRAM-bound point.
        model = CacheEngineModel()
        for miss, window in ((0.19, 1), (0.19, 4), (0.10, 4)):
            analytic = model.analytic_throughput(miss, window).throughput
            simulated = model.simulate(
                20_000, miss, window=window, seed=1
            ).throughput_bytes_per_s
            assert simulated <= analytic * 1.02
            assert simulated == pytest.approx(analytic, rel=0.20)

    def test_crash_rate_low_with_many_leaves(self):
        result = CacheEngineModel().simulate(
            20_000, 0.19, window=4, num_leaves=100_000, seed=2
        )
        assert result.crash_rate < 0.001  # the paper's <0.1% claim

    def test_crash_rate_rises_with_few_leaves(self):
        model = CacheEngineModel()
        sparse = model.simulate(10_000, 0.19, window=4, num_leaves=100_000, seed=3)
        dense = model.simulate(10_000, 0.19, window=4, num_leaves=50, seed=3)
        assert dense.crash_rate > sparse.crash_rate

    def test_single_window_never_crashes(self):
        result = CacheEngineModel().simulate(5_000, 0.3, window=1, seed=4)
        assert result.crashes == 0

    def test_one_slot_never_speculates_on_a_dense_tree(self):
        """With one slot an update only ever waits for that slot, so
        neighbouring leaves crash nothing, and the wait is the same
        latency-bound timing a sparse tree gives."""
        model = CacheEngineModel()
        dense = model.simulate(10_000, 0.47, window=1, num_leaves=50, seed=3)
        sparse = model.simulate(10_000, 0.47, window=1, num_leaves=100_000, seed=3)
        assert dense.crashes == 0 and dense.crash_rate == 0.0
        assert dense.updates == pytest.approx(sparse.updates, rel=0.05)
        assert dense.throughput_bytes_per_s == pytest.approx(
            sparse.throughput_bytes_per_s, rel=0.05
        )

    def test_updates_counted(self):
        result = CacheEngineModel().simulate(10_000, 0.2, window=2, seed=5)
        # ~2 updates per miss on ~20% of requests.
        assert result.updates == pytest.approx(4000, rel=0.15)

    def test_validation(self):
        model = CacheEngineModel()
        with pytest.raises(ValueError):
            model.simulate(0, 0.1)
        with pytest.raises(ValueError):
            CacheEngineModel(
                CacheEngineConfig(updates_per_miss=1.5)
            ).simulate(10, 0.1)
