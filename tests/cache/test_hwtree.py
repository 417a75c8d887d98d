"""Tests for the speculative concurrent HW tree (Algorithms 1-2)."""

import random

import pytest

from repro.cache.btree import BPlusTree
from repro.cache.hwtree import SpeculativeTreeEngine, TreeOp


class TestTreeOp:
    def test_validation(self):
        with pytest.raises(ValueError):
            TreeOp("upsert", 1, 1)
        with pytest.raises(ValueError):
            TreeOp("insert", 1)  # missing value
        TreeOp("delete", 1)  # deletes need no value


class TestSequentialEquivalence:
    """The speculative engine must produce the same final tree as
    sequential application, for any window."""

    @pytest.mark.parametrize("window", [1, 2, 4, 8])
    def test_disjoint_key_inserts(self, window):
        rng = random.Random(window)
        keys = rng.sample(range(1_000_000), 3000)
        engine = SpeculativeTreeEngine(window=window)
        engine.execute([TreeOp("insert", key, key * 2) for key in keys])
        assert len(engine.tree) == len(keys)
        for key in keys[:200]:
            assert engine.search(key) == key * 2
        engine.tree.check_invariants()

    @pytest.mark.parametrize("window", [1, 4])
    def test_mixed_inserts_deletes(self, window):
        rng = random.Random(9)
        keys = rng.sample(range(100_000), 2000)
        engine = SpeculativeTreeEngine(window=window)
        engine.execute([TreeOp("insert", key, key) for key in keys])
        victims = keys[:1000]
        engine.execute([TreeOp("delete", key) for key in victims])
        for key in victims[:100]:
            assert engine.search(key) is None
        for key in keys[1000:1100]:
            assert engine.search(key) == key
        assert len(engine.tree) == 1000
        engine.tree.check_invariants()

    def test_results_report_applied_flag(self):
        # Results come back in *commit* order (crashed ops replay later),
        # so match them up by op identity.
        engine = SpeculativeTreeEngine(window=2)
        ops = [
            TreeOp("insert", 1, "x"),
            TreeOp("delete", 1),
            TreeOp("delete", 42),  # absent
        ]
        results = {id(r.op): r.applied for r in engine.execute(ops)}
        assert results[id(ops[0])] is True  # insert applied
        assert results[id(ops[1])] is True  # delete of present key
        assert results[id(ops[2])] is False  # delete of absent key

    def test_commit_order_preserved_for_same_key(self):
        # Same-key ops conflict at the leaf, so speculation serializes
        # them in order: insert then delete leaves the key absent.
        engine = SpeculativeTreeEngine(window=4)
        engine.execute(
            [TreeOp("insert", 7, "v")] + [TreeOp("insert", k, k) for k in range(100, 140)]
        )
        engine.execute(
            [TreeOp("delete", 7)] + [TreeOp("insert", 7, "again")]
        )
        assert engine.search(7) == "again"


class TestSpeculation:
    def test_single_window_never_crashes(self):
        rng = random.Random(2)
        engine = SpeculativeTreeEngine(window=1)
        engine.execute(
            [TreeOp("insert", k, k) for k in rng.sample(range(10_000), 2000)]
        )
        assert engine.crash_count == 0
        assert engine.crash_rate == 0.0

    def test_wide_window_crash_rate_is_low(self):
        """The paper's claim: with random keys and a deep tree,
        mis-speculation is rare (<0.1% in their workloads)."""
        rng = random.Random(3)
        engine = SpeculativeTreeEngine(window=4)
        keys = rng.sample(range(5_000_000), 20_000)
        engine.execute([TreeOp("insert", key, key) for key in keys])
        mix = [TreeOp("delete", key) for key in keys[:4000]]
        mix += [TreeOp("insert", key + 5_000_000, 1) for key in keys[:4000]]
        rng.shuffle(mix)
        engine.execute(mix)
        assert engine.crash_rate < 0.05
        engine.tree.check_invariants()

    def test_crashes_replay_to_completion(self):
        # Dense sequential keys maximize leaf sharing -> many conflicts,
        # but every op must still commit exactly once.
        engine = SpeculativeTreeEngine(window=4)
        ops = [TreeOp("insert", key, key) for key in range(500)]
        results = engine.execute(ops)
        assert len(results) == 500
        assert engine.commit_count == 500
        assert len(engine.tree) == 500

    def test_replay_counts_reported(self):
        engine = SpeculativeTreeEngine(window=4)
        results = engine.execute([TreeOp("insert", k, k) for k in range(300)])
        total_replays = sum(r.replays for r in results)
        assert total_replays == engine.crash_count

    def test_spec_set_drains(self):
        engine = SpeculativeTreeEngine(window=4)
        engine.execute([TreeOp("insert", k, k) for k in range(100)])
        assert not engine._spec_nodes  # all claims released at commit

    def test_window_validation(self):
        with pytest.raises(ValueError):
            SpeculativeTreeEngine(window=0)

    def test_searches_never_conflict(self):
        engine = SpeculativeTreeEngine(window=4)
        engine.execute([TreeOp("insert", k, k) for k in range(50)])
        crash_before = engine.crash_count
        for key in range(50):
            assert engine.search(key) == key
        assert engine.crash_count == crash_before

    def test_custom_tree_injected(self):
        tree = BPlusTree(order=3)
        engine = SpeculativeTreeEngine(tree=tree, window=2)
        engine.execute([TreeOp("insert", 1, 1)])
        assert tree.search(1) == 1

