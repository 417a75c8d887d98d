"""Tests for the discrete-event write-pipeline simulation."""

import pytest

from repro.analysis.throughput import solve_throughput
from repro.experiments import SMOKE_SCALE, get_report
from repro.systems.pipeline_sim import simulate_write_pipeline


@pytest.fixture(scope="module")
def reports():
    return {
        "baseline": get_report("baseline", "write-h", SMOKE_SCALE, server="target"),
        "fidr": get_report("fidr", "write-h", SMOKE_SCALE, server="target"),
    }


class TestSaturation:
    def test_saturated_throughput_matches_solver(self, reports):
        """The DES must agree with the closed-form ceiling at saturation
        (the whole point of the cross-validation)."""
        for flavour, kwargs in (
            ("baseline", dict()),
            ("fidr", dict(use_cache_engine=True, tree_window=4)),
        ):
            solved = solve_throughput(reports[flavour], **kwargs)
            result = simulate_write_pipeline(
                reports[flavour], outstanding=16, num_batches=300, **kwargs
            )
            assert result.throughput_bytes_per_s == pytest.approx(
                solved.throughput, rel=0.05
            )
            assert result.bottleneck == solved.bottleneck

    def test_fidr_outperforms_baseline(self, reports):
        base = simulate_write_pipeline(reports["baseline"], outstanding=16)
        fidr = simulate_write_pipeline(
            reports["fidr"], outstanding=16,
            use_cache_engine=True, tree_window=4,
        )
        assert fidr.throughput_bytes_per_s > 2 * base.throughput_bytes_per_s


class TestLoadCurve:
    def test_throughput_monotone_in_window(self, reports):
        values = [
            simulate_write_pipeline(
                reports["fidr"], outstanding=window, num_batches=200
            ).throughput_bytes_per_s
            for window in (1, 2, 8)
        ]
        assert values[0] < values[1] <= values[2] * 1.01

    def test_latency_grows_past_saturation(self, reports):
        shallow = simulate_write_pipeline(
            reports["fidr"], outstanding=2, num_batches=200
        )
        deep = simulate_write_pipeline(
            reports["fidr"], outstanding=32, num_batches=200
        )
        assert deep.mean_batch_latency_s > 3 * shallow.mean_batch_latency_s

    def test_single_batch_latency_is_sum_of_stages(self, reports):
        result = simulate_write_pipeline(
            reports["fidr"], outstanding=1, num_batches=50
        )
        # At window 1 there is no queueing: latency is pure service time,
        # identical for every batch.
        assert result.mean_batch_latency_s == pytest.approx(
            result.p99ish_batch_latency_s, rel=1e-6
        )


class TestAccounting:
    def test_all_batches_complete(self, reports):
        result = simulate_write_pipeline(
            reports["baseline"], outstanding=4, num_batches=123
        )
        assert result.batches == 123

    def test_bottleneck_utilization_saturates(self, reports):
        result = simulate_write_pipeline(
            reports["baseline"], outstanding=16, num_batches=300
        )
        assert result.stage_utilization[result.bottleneck] > 0.95

    def test_validation(self, reports):
        with pytest.raises(ValueError):
            simulate_write_pipeline(reports["fidr"], outstanding=0)
        with pytest.raises(ValueError):
            simulate_write_pipeline(reports["fidr"], num_batches=0)

