"""Tests for the NIC models."""

import pytest

from repro.datared.hashing import fingerprint
from repro.hw.nic import BaselineNic, FidrNic
from repro.hw.specs import NicSpec


class TestBaselineNic:
    def test_receive_charges_pcie(self):
        nic = BaselineNic()
        nic.receive(1000)
        assert nic.traffic.network_rx == 1000
        assert nic.traffic.pcie_to_host == 1000

    def test_send(self):
        nic = BaselineNic()
        nic.send(400)
        assert nic.traffic.network_tx == 400
        assert nic.traffic.pcie_from_host == 400


class TestFidrNicWritePath:
    def test_buffer_and_hash(self, rng):
        nic = FidrNic()
        data = rng.randbytes(4096)
        nic.buffer_write(5, data)
        assert nic.pending_chunks() == 1
        assert nic.buffered_bytes == 4096
        assert nic.traffic.hashed_bytes == 4096
        staged = nic.ship_digests(1)
        assert staged[0].digest == fingerprint(data)

    def test_digests_only_cross_pcie(self, rng):
        nic = FidrNic()
        for lba in range(4):
            nic.buffer_write(lba, rng.randbytes(4096))
        before = nic.traffic.pcie_to_host
        nic.ship_digests(4)
        assert nic.traffic.pcie_to_host - before == 4 * 32

    def test_overwrite_in_buffer_replaces(self, rng):
        nic = FidrNic()
        nic.buffer_write(1, rng.randbytes(4096))
        newer = rng.randbytes(4096)
        nic.buffer_write(1, newer)
        assert nic.pending_chunks() == 1
        assert nic.lookup_read(1) == newer

    def test_buffer_capacity_enforced(self, rng):
        small = NicSpec(name="small", network_bw=1e9, buffer_capacity=8192,
                        hash_bw=1e9)
        nic = FidrNic(small)
        nic.buffer_write(0, rng.randbytes(4096))
        nic.buffer_write(1, rng.randbytes(4096))
        with pytest.raises(OverflowError):
            nic.buffer_write(2, rng.randbytes(4096))

    def test_schedule_unique_filters(self, rng):
        nic = FidrNic()
        for lba in range(3):
            nic.buffer_write(lba, rng.randbytes(4096))
        staged = nic.ship_digests(3)
        flags = [(staged[0], True), (staged[1], False), (staged[2], True)]
        unique = nic.schedule_unique(flags)
        assert [entry.lba for entry in unique] == [0, 2]
        assert nic.pending_chunks() == 0
        assert nic.buffered_bytes == 0

    def test_empty_chunk_rejected(self):
        with pytest.raises(ValueError):
            FidrNic().buffer_write(0, b"")


class TestFidrNicReadPath:
    def test_buffer_hit_serves_locally(self, rng):
        nic = FidrNic()
        data = rng.randbytes(4096)
        nic.buffer_write(9, data)
        assert nic.lookup_read(9) == data
        assert nic.read_buffer_hits == 1
        assert nic.traffic.network_tx == 4096

    def test_miss_counts(self):
        nic = FidrNic()
        assert nic.lookup_read(1) is None
        assert nic.read_buffer_misses == 1

    def test_send_read_data(self):
        nic = FidrNic()
        nic.send_read_data(4096)
        assert nic.traffic.network_tx == 4096
        assert nic.traffic.pcie_from_host == 4096

