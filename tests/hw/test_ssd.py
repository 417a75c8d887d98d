"""Tests for the NVMe SSD models."""

import pytest

from repro.errors import CapacityError, ErrorCode, error_code_for
from repro.hw.specs import SAMSUNG_970_PRO, SsdSpec
from repro.hw.ssd import BLOCK_SIZE, NvmeSsd, SsdArray


class TestNvmeSsd:
    def test_write_read_roundtrip(self):
        """A written block reads back as one counted block IO; no bytes
        are kept."""
        ssd = NvmeSsd()
        ssd.write_block(5)
        assert 5 in ssd and 4 not in ssd
        assert ssd.read_block(5) is None

    def test_missing_read_raises(self):
        with pytest.raises(KeyError):
            NvmeSsd().read_block(1)

    def test_io_stats(self):
        ssd = NvmeSsd()
        ssd.write_block(1)
        ssd.read_block(1)
        assert ssd.stats.write_ops == 1
        assert ssd.stats.read_ops == 1
        assert ssd.stats.bytes_written == BLOCK_SIZE
        assert ssd.stats.bytes_read == BLOCK_SIZE

    def test_overwrite_replaces_capacity_use(self):
        """Rewriting a block replaces it: the IO is counted, the stored
        bytes are not."""
        ssd = NvmeSsd()
        ssd.write_block(1)
        ssd.write_block(1)
        assert ssd.bytes_stored == BLOCK_SIZE
        assert ssd.written_blocks == 1
        assert ssd.stats.write_ops == 2

    def test_capacity_enforced(self):
        tiny = SsdSpec(
            name="tiny", capacity=2 * BLOCK_SIZE, read_bw=1e9, write_bw=1e9,
            read_iops=1e5, write_iops=1e5,
            read_latency_s=1e-5, write_latency_s=1e-5,
        )
        ssd = NvmeSsd(spec=tiny)
        ssd.write_block(0)
        ssd.write_block(1)
        ssd.write_block(1)  # a rewrite needs no new space
        with pytest.raises(CapacityError):
            ssd.write_block(2)
        assert 2 not in ssd and ssd.bytes_stored == 2 * BLOCK_SIZE

    def test_full_drive_answers_capacity_on_the_wire(self):
        """A full drive's refusal is typed, so a client would be told
        ``CAPACITY``, not a generic failure."""
        tiny = SsdSpec(
            name="tiny", capacity=BLOCK_SIZE, read_bw=1e9, write_bw=1e9,
            read_iops=1e5, write_iops=1e5,
            read_latency_s=1e-5, write_latency_s=1e-5,
        )
        ssd = NvmeSsd(spec=tiny, name="table-ssd")
        ssd.write_block(0)
        with pytest.raises(CapacityError, match="table-ssd: capacity exceeded") as refused:
            ssd.write_block(1)
        assert error_code_for(refused.value) is ErrorCode.CAPACITY

    def test_accounting_only_io(self):
        ssd = NvmeSsd()
        ssd.account_read(1000, ops=2)
        ssd.account_write(500)
        assert ssd.stats.read_ops == 2
        assert ssd.stats.bytes_read == 1000
        assert ssd.stats.bytes_written == 500

    def test_service_times(self):
        ssd = NvmeSsd(spec=SAMSUNG_970_PRO)
        read_time = ssd.read_service_time(3.5e9)  # one second of transfer
        assert read_time == pytest.approx(1.0 + 80e-6)

    def test_utilization_projection(self):
        ssd = NvmeSsd(spec=SAMSUNG_970_PRO)
        ssd.account_read(3.5e9)
        # Reading 3.5 GB per 1 GB of client data at 1 GB/s client rate
        # saturates the 3.5 GB/s drive.
        assert ssd.utilization(1e9, 1e9) == pytest.approx(1.0)

    def test_validation(self):
        ssd = NvmeSsd()
        with pytest.raises(ValueError):
            ssd.write_block(-1)
        assert -1 not in ssd


class TestSsdArray:
    def test_round_robin_striping(self):
        """Array block ``a`` is block ``a // count`` of drive
        ``a % count``, so each drive's written map covers its share."""
        array = SsdArray(2)
        array.write_block(0)
        array.write_block(5)
        assert array.drives[0].stats.write_ops == 1
        assert array.drives[1].stats.write_ops == 1
        assert 0 in array.drives[0] and 2 in array.drives[1]
        assert 5 in array and 1 not in array
        array.fetch_block(5)
        assert array.drives[1].stats.read_ops == 1
        array.fetch_block(1)  # never written: no IO
        array.fetch_block(-2)
        assert array.stats.read_ops == 1

    def test_combined_stats(self):
        array = SsdArray(3)
        for address in range(6):
            array.write_block(address)
        assert array.stats.write_ops == 6
        assert [drive.written_blocks for drive in array.drives] == [2, 2, 2]

    def test_aggregate_bandwidth(self):
        array = SsdArray(4, spec=SAMSUNG_970_PRO)
        assert array.read_bw == pytest.approx(4 * 3.5e9)
        assert len(array) == 4

    def test_at_least_one(self):
        with pytest.raises(ValueError):
            SsdArray(0)
