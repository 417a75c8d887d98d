"""Tests for the end-to-end baseline and FIDR systems."""

import dataclasses
import random

import pytest

from repro.cache.btree import BPlusTree
from repro.cache.table_cache import BTreeIndex
from repro.datared.compression import ModeledCompressor
from repro.systems.accounting import CpuTask, MemPath
from repro.systems.baseline import BaselineSystem
from repro.systems.fidr import FidrSystem

CHUNK = 4096


def small(cls, **kwargs):
    kwargs.setdefault("num_buckets", 1024)
    kwargs.setdefault("cache_lines", 64)
    kwargs.setdefault("compressor", ModeledCompressor(0.5))
    return cls(**kwargs)


def fill(system, rng, num_chunks=200, space=400):
    """Write a half-duplicate stream; returns {lba: expected bytes}.

    Half the writes reuse a small hot pool (duplicates), half are fresh
    random content — enough distinct buckets to exercise cache misses,
    fetches and flushes on the 64-line caches the tests use.
    """
    expected = {}
    pool = [rng.randbytes(CHUNK) for _ in range(40)]
    for _ in range(num_chunks):
        lba = rng.randrange(space)
        if rng.random() < 0.5:
            data = pool[rng.randrange(len(pool))]
        else:
            data = rng.randbytes(CHUNK)
        system.write(lba, data)
        expected[lba] = data
    return expected


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("cls", [BaselineSystem, FidrSystem])
    def test_write_read_roundtrip(self, cls, rng):
        system = small(cls)
        expected = fill(system, rng)
        system.flush()
        for lba, data in expected.items():
            assert system.read(lba, 1) == data

    @pytest.mark.parametrize("cls", [BaselineSystem, FidrSystem])
    def test_read_your_own_buffered_write(self, cls, rng):
        """Reads must observe writes still staged in a batch buffer."""
        system = small(cls)
        data = rng.randbytes(CHUNK)
        system.write(7, data)  # far below the 64-chunk batch threshold
        assert system.read(7, 1) == data

    def test_both_systems_reduce_identically(self, rng):
        state = rng.getstate()
        base = small(BaselineSystem)
        fill(base, rng)
        base.flush()
        rng.setstate(state)
        fidr = small(FidrSystem)
        fill(fidr, rng)
        fidr.flush()
        assert base.engine.stats.dedup_ratio == fidr.engine.stats.dedup_ratio
        assert base.engine.stats.stored_bytes == fidr.engine.stats.stored_bytes

    @pytest.mark.parametrize("cls", [BaselineSystem, FidrSystem])
    def test_unwritten_reads_zero(self, cls):
        system = small(cls)
        assert system.read(0, 1) == b"\x00" * CHUNK

    @pytest.mark.parametrize("cls", [BaselineSystem, FidrSystem])
    def test_unaligned_read_rejected(self, cls):
        with pytest.raises(ValueError):
            small(cls).read(0, 0)


class TestBaselineAccounting:
    def test_every_table1_path_charged(self, rng):
        system = small(BaselineSystem)
        fill(system, rng)
        system.flush()
        system.read(0, 1)
        paths = system.memory.paths()
        for path in (MemPath.NIC_HOST, MemPath.PREDICTION, MemPath.FPGA,
                     MemPath.TABLE_CACHE, MemPath.DATA_SSD):
            assert paths[path].total > 0, path

    def test_predictor_and_table_tasks_charged(self, rng):
        system = small(BaselineSystem)
        fill(system, rng)
        system.flush()
        tasks = system.cpu.tasks()
        for task in (CpuTask.PREDICTOR, CpuTask.TREE, CpuTask.TABLE_SSD,
                     CpuTask.CONTENT, CpuTask.SCHEDULER):
            assert tasks.get(task, 0) > 0, task

    def test_no_p2p_traffic(self, rng):
        system = small(BaselineSystem)
        fill(system, rng)
        system.flush()
        assert system.pcie.p2p_bytes == 0

    def test_predictor_accuracy_reported(self, rng):
        system = small(BaselineSystem)
        fill(system, rng)
        system.flush()
        report = system.report()
        assert report.predictor_accuracy is not None
        assert report.predictor_accuracy > 0.8


class TestFidrAccounting:
    def test_client_data_never_crosses_host_dram(self, rng):
        system = small(FidrSystem)
        fill(system, rng, num_chunks=256)
        system.flush()
        paths = system.memory.paths()
        assert MemPath.NIC_HOST not in paths
        assert MemPath.PREDICTION not in paths
        assert MemPath.FPGA not in paths

    def test_no_predictor_or_tree_cpu(self, rng):
        system = small(FidrSystem)
        fill(system, rng, num_chunks=256)
        system.flush()
        tasks = system.cpu.tasks()
        assert CpuTask.PREDICTOR not in tasks
        assert CpuTask.TREE not in tasks
        assert CpuTask.TABLE_SSD not in tasks
        assert tasks[CpuTask.CONTENT] > 0  # content scans stay host-side

    def test_write_path_is_peer_to_peer(self, rng):
        system = small(FidrSystem)
        fill(system, rng, num_chunks=256)
        system.flush()
        assert system.pcie.p2p_bytes > 0
        comp = system.pcie.device("compression-engine")
        assert comp.bytes_in > 0  # NIC -> engine, P2P
        ssd = system.pcie.device("data-ssd")
        assert ssd.bytes_in > 0  # engine -> SSD, P2P

    def test_fidr_dram_traffic_below_baseline(self, rng):
        state = rng.getstate()
        base = small(BaselineSystem)
        fill(base, rng, num_chunks=300)
        base.flush()
        rng.setstate(state)
        fidr = small(FidrSystem)
        fill(fidr, rng, num_chunks=300)
        fidr.flush()
        base_amp = base.report().memory_amplification()
        fidr_amp = fidr.report().memory_amplification()
        assert fidr_amp < 0.6 * base_amp

    def test_nic_buffer_serves_reads_before_flush(self, rng):
        system = small(FidrSystem)
        data = rng.randbytes(CHUNK)
        system.write(3, data)
        assert system.read(3, 1) == data
        assert system.nic.read_buffer_hits == 1

    def test_read_path_decompression_is_p2p(self, rng):
        system = small(FidrSystem)
        data = rng.randbytes(CHUNK)
        system.write(3, data)
        system.flush()
        assert system.read(3, 1) == data
        decomp = system.pcie.device("decompression-engine")
        assert decomp.bytes_in > 0
        assert decomp.bytes_out > 0

    def test_engine_tree_updates_reported(self, rng):
        system = small(FidrSystem)
        fill(system, rng, num_chunks=256)
        system.flush()
        report = system.report()
        assert report.engine_tree_updates > 0
        assert report.tree_node_visits == 0  # host never walks the tree

    def test_served_index_walks_no_tree(self, monkeypatch):
        """A write / overwrite / trim / read trace through FIDR makes no
        ``BPlusTree._find_leaf`` call, and every batch's ``CacheDelta``
        equals that of the same system with a walked ``BTreeIndex``
        swapped in — node visits aside."""
        find_leaf, descents = BPlusTree._find_leaf, []

        def counted(tree, key):
            descents.append(key)
            return find_leaf(tree, key)

        monkeypatch.setattr(BPlusTree, "_find_leaf", counted)

        def run(walked):
            rng, deltas, descents[:] = random.Random(5), [], []
            system = small(FidrSystem)
            if walked:
                system.table_cache.index = BTreeIndex()
            charge = system._charge_table_cache
            system._charge_table_cache = lambda delta: (deltas.append(delta), charge(delta))
            with system:
                fill(system, rng, num_chunks=300, space=120)  # overwrites
                system.trim(0, 8)
                fill(system, rng, num_chunks=100, space=120)
                system.flush()
                reads = [system.read(lba, 1) for lba in range(120)]
                index = system.table_cache.index
                counts = (index.searches, index.updates, system.table_cache.stats)
            novisits = [dataclasses.replace(d, tree_node_visits=0) for d in deltas]
            return novisits, counts, reads, len(descents)

        counted_run, walked_run = run(walked=False), run(walked=True)
        assert counted_run[3] == 0 and walked_run[3] > 0
        assert counted_run[:3] == walked_run[:3]
        assert len(counted_run[0]) >= 6 and counted_run[1][1] > 0


class TestSoftwareCacheVariant:
    def test_sw_cache_charges_host_tree_work(self, rng):
        system = small(FidrSystem, hw_cache_engine=False)
        fill(system, rng, num_chunks=256)
        system.flush()
        tasks = system.cpu.tasks()
        assert tasks.get(CpuTask.TREE, 0) > 0
        assert tasks.get(CpuTask.TABLE_SSD, 0) > 0
        # But the NIC/P2P ideas still apply: no predictor, no NIC buffering
        # in host memory.
        assert CpuTask.PREDICTOR not in tasks
        assert MemPath.NIC_HOST not in system.memory.paths()

    def test_sw_variant_still_functionally_correct(self, rng):
        system = small(FidrSystem, hw_cache_engine=False)
        expected = fill(system, rng)
        system.flush()
        for lba, data in list(expected.items())[:50]:
            assert system.read(lba, 1) == data
