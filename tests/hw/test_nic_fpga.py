"""Tests for the NIC and FPGA engine models."""

import pytest

from repro.datared.codecs import decode_chunk
from repro.datared.compression import ModeledCompressor, ZlibCompressor
from repro.datared.hashing import fingerprint
from repro.hw.fpga import CompressionEngine, DecompressionEngine, HashAccelerator
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


class TestHashAccelerator:
    def test_batch_hashing(self, rng):
        accel = HashAccelerator(hash_bw=8e9)
        chunks = [rng.randbytes(4096) for _ in range(3)]
        digests = accel.hash_batch(chunks)
        assert digests == [fingerprint(c) for c in chunks]
        assert accel.chunks_hashed == 3
        assert accel.traffic.payload_processed == 3 * 4096

    def test_timing(self):
        accel = HashAccelerator(hash_bw=8e9)
        assert accel.hashing_time(8e9) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HashAccelerator(hash_bw=0)


class TestCompressionEngine:
    def test_batch_threshold_signals(self, rng):
        engine = CompressionEngine(
            compressor=ModeledCompressor(0.5), batch_threshold=4096
        )
        _, ready = engine.compress_chunk(rng.randbytes(4096))  # 2 KB stored
        assert not ready
        _, ready = engine.compress_chunk(rng.randbytes(4096))  # 4 KB total
        assert ready
        batch = engine.take_batch()
        assert len(batch) == 2
        assert engine.pending_bytes == 0
        assert engine.batches_completed == 1

    def test_real_compression_roundtrip(self):
        engine = CompressionEngine(compressor=ZlibCompressor())
        data = b"abc" * 1400
        chunk, _ = engine.compress_chunk(data)
        assert decode_chunk(chunk) == data

    def test_traffic_accounting(self, rng):
        engine = CompressionEngine(compressor=ModeledCompressor(0.5))
        engine.compress_chunk(rng.randbytes(4096))
        assert engine.traffic.pcie_in == 4096
        assert engine.traffic.board_dram == 4096 + 2048

    def test_timing(self):
        engine = CompressionEngine(compress_bw=12.8e9)
        assert engine.compression_time(12.8e9) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CompressionEngine(batch_threshold=0)


class TestDecompressionEngine:
    def test_roundtrip_and_accounting(self):
        compressor = ZlibCompressor()
        engine = DecompressionEngine()
        data = b"xyz" * 1400
        compressed = compressor.compress(data)
        assert engine.decompress_chunk(compressed) == data
        assert engine.chunks_decompressed == 1
        assert engine.traffic.pcie_in == compressed.stored_size
        assert engine.traffic.pcie_out == len(data)
