"""Edge cases in the write/read flow orchestration.

These pin down the hairiest interactions: same-LBA overwrites racing a
batch in flight, the predictor's correction pass, and the FIDR NIC's
buffer semantics across batch boundaries.
"""

import random
from types import SimpleNamespace

import pytest

from repro.datared.chunking import Chunk
from repro.datared.compression import ModeledCompressor
from repro.hw.nic import FidrNic
from repro.systems.accounting import CpuTask, MemPath
from repro.systems.baseline import BaselineSystem
from repro.systems.config import SystemConfig
from repro.systems.fidr import FidrSystem

from ..ledgers import ledger_view

CHUNK = 4096


def tiny_batches(cls, batch=4, **kwargs):
    """A system with a small batch so tests cross batch boundaries."""
    kwargs.setdefault("num_buckets", 1024)
    kwargs.setdefault("cache_lines", 64)
    kwargs.setdefault("compressor", ModeledCompressor(0.5))
    return cls(config=SystemConfig(batch_chunks=batch), **kwargs)


class TestSameLbaChurn:
    @pytest.mark.parametrize("cls", [BaselineSystem, FidrSystem])
    def test_rapid_overwrites_within_a_batch(self, cls, rng):
        system = tiny_batches(cls, batch=8)
        final = None
        for _ in range(20):
            final = rng.randbytes(CHUNK)
            system.write(0, final)
        system.flush()
        assert system.read(0, 1) == final

    def test_fidr_nic_buffer_overwrite_mid_batch(self, rng):
        """The NIC dedups same-LBA writes in its buffer; the staged batch
        list can therefore reference an entry the buffer replaced."""
        system = tiny_batches(FidrSystem, batch=4)
        first = rng.randbytes(CHUNK)
        second = rng.randbytes(CHUNK)
        system.write(0, first)
        system.write(0, second)  # overwrites in NIC buffer
        system.write(8, rng.randbytes(CHUNK))
        system.write(16, rng.randbytes(CHUNK))  # 4 pending -> batch fires
        system.flush()
        assert system.read(0, 1) == second

    @pytest.mark.parametrize("cls", [BaselineSystem, FidrSystem])
    def test_interleaved_read_write_consistency(self, cls, rng):
        system = tiny_batches(cls, batch=6)
        history = {}
        for step in range(60):
            lba = (step * 8) % 32
            data = rng.randbytes(CHUNK)
            system.write(lba, data)
            history[lba] = data
            probe = (step * 16) % 32
            expected = history.get(probe, b"\x00" * CHUNK)
            assert system.read(probe, 1) == expected


class TestPredictorCorrections:
    def test_false_duplicates_trigger_correction_traffic(self, rng):
        """Bloom aliasing predicts some fresh chunks duplicate; the
        baseline must re-ship them to the FPGA (extra host<->FPGA
        bytes beyond one pass of the data)."""
        from repro.systems.predictor import UniqueChunkPredictor

        system = tiny_batches(BaselineSystem, batch=8)
        # A predictor small enough to alias heavily.
        system.predictor = UniqueChunkPredictor(num_bits=256, num_hashes=2)
        for lba in range(0, 8 * 40, 8):
            system.write(lba, rng.randbytes(CHUNK))
        system.flush()
        stats = system.predictor.stats
        assert stats.false_duplicate > 0
        fpga = system.memory.path_traffic(MemPath.FPGA)
        # Reads toward the FPGA exceed one pass of the logical stream.
        assert fpga.bytes_read > system.logical_write_bytes

    def test_accurate_predictor_avoids_corrections(self, rng):
        system = tiny_batches(BaselineSystem, batch=8)
        data = rng.randbytes(CHUNK)
        for lba in range(0, 8 * 20, 8):
            system.write(lba, data)  # one unique, rest duplicates
        system.flush()
        stats = system.predictor.stats
        assert stats.accuracy > 0.9


class TestBatchBoundaries:
    @pytest.mark.parametrize("cls", [BaselineSystem, FidrSystem])
    def test_flush_handles_partial_batch(self, cls, rng):
        system = tiny_batches(cls, batch=64)
        data = rng.randbytes(CHUNK)
        system.write(0, data)  # far below the batch threshold
        system.flush()
        assert system.read(0, 1) == data
        assert system.engine.stats.unique_chunks == 1

    @pytest.mark.parametrize("cls", [BaselineSystem, FidrSystem])
    def test_large_write_spans_batches(self, cls, rng):
        system = tiny_batches(cls, batch=4)
        payload = rng.randbytes(10 * CHUNK)  # 10 chunks > 2 batches
        system.write(0, payload)
        system.flush()
        assert system.read(0, 10) == payload

    def test_fidr_overwrite_straddling_batch_stays_readable(self, rng):
        """Regression: an older write to LBA X lands in batch N while its
        overwrite is still pending for batch N+1.  Processing batch N
        used to pop X's NIC-buffer entry (which by then held the *new*
        data), so a read in the window between the batches fell through
        to the stale on-SSD mapping."""
        batch = 4
        system = tiny_batches(FidrSystem, batch=batch)
        old, new = rng.randbytes(CHUNK), rng.randbytes(CHUNK)
        system.write(5, old)
        for index in range(batch - 2):  # leave pending one short of full
            system.write(100 + index, rng.randbytes(CHUNK))
        # A two-chunk write at LBAs 4-5: chunk @4 completes batch 1
        # (which contains the old @5), chunk @5 stays pending.
        system.write(4, rng.randbytes(CHUNK) + new)
        assert system.read(5, 1) == new  # served from the NIC buffer
        system.flush()
        assert system.read(5, 1) == new  # and after the batch commits

    def test_fidr_pending_count_tracks_nic(self, rng):
        system = tiny_batches(FidrSystem, batch=8)
        for lba in range(0, 8 * 5, 8):
            system.write(lba, rng.randbytes(CHUNK))
        assert system.nic.pending_chunks() == 5
        system.flush()
        assert system.nic.pending_chunks() == 0


class TestReadMixedAccounting:
    def test_fidr_read_misses_charge_nvme_stack(self, rng):
        system = tiny_batches(FidrSystem, batch=4)
        data = rng.randbytes(CHUNK)
        system.write(0, data)
        system.flush()
        before = system.cpu.tasks().get(CpuTask.DATA_SSD, 0.0)
        system.read(0, 1)
        after = system.cpu.tasks().get(CpuTask.DATA_SSD, 0.0)
        assert after > before  # §7.5: read stack stays on the CPU

    def test_fidr_nic_buffer_read_is_free_of_host_work(self, rng):
        system = tiny_batches(FidrSystem, batch=64)
        data = rng.randbytes(CHUNK)
        system.write(0, data)  # still buffered
        cycles_before = system.cpu.total_cycles
        assert system.read(0, 1) == data
        assert system.cpu.total_cycles == cycles_before


class _CopyingNic(FidrNic):
    """Buffers a ``bytes`` copy of every payload, so no staged entry is
    ever the chunk's own object and every ownership check in
    ``FidrSystem._process_batch`` has to resolve by byte comparison."""

    def buffer_write(self, lba, data):
        super().buffer_write(lba, bytes(data))


def _rewrite_scenario(copying_nic):
    """Same-LBA rewrites, identical and different content, inside one
    batch and straddling a batch boundary; returns every observable."""
    rng = random.Random(0x5AFE)
    system = tiny_batches(FidrSystem, batch=4)
    if copying_nic:
        system.nic = _CopyingNic(
            system.server.nic, fingerprinter=system.engine.fingerprinter
        )

    def fresh():
        return rng.randbytes(CHUNK)

    same, old, new = fresh(), fresh(), fresh()
    reads = []

    # Batch 1 holds both writes of each pair.
    system.write(0, same)
    system.write(0, bytes(bytearray(same)))  # equal bytes, another object
    system.write(1, old)
    system.write(1, new)
    reads.append(system.read(0, 2))
    assert reads[-1] == same + new

    # Batch 2 takes the older write of each pair; the three-chunk write
    # at LBA 15 completes it with its first chunk and leaves the two
    # rewrites pending (and NIC-buffered) for batch 3.
    keep, old17, new17 = fresh(), fresh(), fresh()
    system.write(16, keep)
    system.write(17, old17)
    system.write(32, fresh())
    system.write(15, fresh() + bytes(bytearray(keep)) + new17)
    assert len(system._pending) == 2
    reads.append(system.read(16, 2))  # between the two batches
    assert reads[-1] == keep + new17  # the newest acked bytes

    system.flush()
    reads.append(system.read(0, 2) + system.read(15, 3))
    assert reads[-1][3 * CHUNK:] == keep + new17
    view = ledger_view(SimpleNamespace(system=system))
    view["nic"] = (
        system.nic.traffic,
        system.nic.read_buffer_hits,
        system.nic.read_buffer_misses,
        system.nic.buffered_bytes,
    )
    view["engine"] = system.engine.stats_snapshot()
    view["pcie_p2p"] = system.report().pcie.p2p_bytes
    return reads, view


class TestSupersedeCheckReadsNoPayload:
    def test_identity_and_byte_comparison_agree_on_every_ledger(self):
        """The host decides whose buffer entry it is by identity (the NIC
        stores the caller's object); a NIC that stores copies forces the
        byte comparison instead.  Device ledgers, NIC traffic, engine
        stats and every read must not be able to tell the two apart."""
        by_identity, identity_view = _rewrite_scenario(copying_nic=False)
        by_bytes, bytes_view = _rewrite_scenario(copying_nic=True)
        assert by_identity == by_bytes
        for key in identity_view:
            assert identity_view[key] == bytes_view[key], key

    def test_own_entries_resolve_without_a_payload_compare(self, rng):
        """Every entry that is the chunk's own object short-circuits:
        a payload type that cannot be compared proves no compare ran."""

        class Opaque(bytes):
            def __eq__(self, other):
                raise AssertionError("host compared payload bytes")

            __ne__ = __eq__
            __hash__ = bytes.__hash__

        system = tiny_batches(FidrSystem, batch=4)
        chunks = [Chunk(lba, Opaque(rng.randbytes(CHUNK))) for lba in range(4)]
        for chunk in chunks:
            system._enqueue(chunk)
        system._process_batch(chunks)
        assert system.nic.pending_chunks() == 0
        assert system.engine.stats.unique_chunks == 4
