"""Tests for the SystemReport projection surface."""

import pytest

from repro.experiments import SMOKE_SCALE, get_report
from repro.systems.accounting import CpuTask, FIG5B_GROUPS


@pytest.fixture(scope="module")
def report():
    return get_report("baseline", "write-h", SMOKE_SCALE)


class TestProjections:
    def test_memory_demand_linear_in_throughput(self, report):
        at_10 = report.memory_bw_demand(10e9)
        at_20 = report.memory_bw_demand(20e9)
        assert at_20 == pytest.approx(2 * at_10)

    def test_cores_linear_in_throughput(self, report):
        assert report.cores_required(20e9) == pytest.approx(
            2 * report.cores_required(10e9)
        )

    def test_utilization_consistent_with_demand(self, report):
        throughput = 10e9
        assert report.memory_utilization(throughput) == pytest.approx(
            report.memory_bw_demand(throughput) / report.server.dram.peak_bw
        )

    def test_max_throughputs_invert_demands(self, report):
        at_cap = report.max_throughput_memory()
        assert report.memory_bw_demand(at_cap) == pytest.approx(
            report.server.dram.peak_bw
        )
        cpu_cap = report.max_throughput_cpu()
        assert report.cores_required(cpu_cap) == pytest.approx(
            report.server.cpu.cores
        )

    def test_breakdowns_are_distributions(self, report):
        for breakdown in (report.memory_breakdown(), report.cpu_breakdown()):
            assert sum(breakdown.values()) == pytest.approx(1.0)
            assert all(share >= 0 for share in breakdown.values())

    def test_group_breakdown_covers_everything(self, report):
        groups = report.cpu_group_breakdown()
        assert sum(groups.values()) == pytest.approx(1.0)
        assert set(groups) <= {"memory/IO management", "other"}

    def test_table2_subset(self, report):
        subset = report.table2_breakdown()
        full = report.cpu_breakdown()
        for task, share in subset.items():
            assert full[task] == share

    def test_logical_bytes_sum(self, report):
        assert report.logical_bytes == (
            report.logical_write_bytes + report.logical_read_bytes
        )


class TestGroupMap:
    def test_every_task_constant_is_grouped(self):
        task_constants = {
            value for name, value in vars(CpuTask).items()
            if not name.startswith("_") and isinstance(value, str)
        }
        assert task_constants <= set(FIG5B_GROUPS) | {CpuTask.CONTENT_UPDATE,
                                                      CpuTask.DEVICE_MANAGER,
                                                      CpuTask.CONTENT,
                                                      CpuTask.LBA_MAP,
                                                      CpuTask.DATA_SSD,
                                                      CpuTask.NETWORK}

