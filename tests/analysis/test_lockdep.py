"""Runtime lock-order validator (``repro.sync`` lockdep) unit tests.

Covers the ISSUE-8 satellite surface: the ``release()`` ordering
regression (non-owner release and failed non-blocking acquire must not
corrupt the held set), reentrant re-acquire recording no self edge,
the zero-overhead-when-unset guarantee, and the validator's three
violation kinds (cycle, rank inversion, unranked class) — including
the seeded order-inversion the acceptance criteria require runtime
lockdep to flag.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import sync
from repro.sync import (
    LOCK_ORDER,
    DisciplinedLock,
    held_locks,
    lockdep_edges,
    lockdep_violations,
)


@pytest.fixture
def lockdep():
    was_on = sync.lockdep_enabled()
    sync.enable_lockdep()
    sync.reset_lockdep()
    yield sync
    sync.reset_lockdep()
    if not was_on:
        sync.disable_lockdep()


@pytest.fixture
def disarmed():
    was_on = sync.lockdep_enabled()
    sync.disable_lockdep()
    yield sync
    if was_on:
        sync.enable_lockdep()


def run_in_thread(function):
    worker = threading.Thread(target=function, name="lockdep-worker")
    worker.start()
    worker.join()


class TestReleaseOrdering:
    """The PR-8 satellite: held-set mutation only after a successful
    underlying release."""

    def test_non_owner_release_raises_without_corrupting_held_set(self):
        lock = DisciplinedLock("owner-lock", rank=1000)
        failure = {}

        def release_unowned():
            try:
                lock.release()
            except RuntimeError as error:
                failure["error"] = error
            failure["held_after"] = lock in held_locks()

        with lock:
            run_in_thread(release_unowned)
            # The non-owner got the RuntimeError and its held set was
            # never touched...
            assert isinstance(failure["error"], RuntimeError)
            assert failure["held_after"] is False
            # ...and the owner's bookkeeping survived intact.
            assert lock.held_by_me()
        assert not lock.held_by_me()

    def test_over_release_by_owner_leaves_held_set_consistent(self):
        lock = DisciplinedLock("over-release", rank=1000)
        lock.acquire()
        lock.release()
        with pytest.raises(RuntimeError):
            lock.release()
        # The failed second release must not have resurrected or
        # corrupted an entry.
        assert not lock.held_by_me()
        # The lock still works normally afterwards.
        with lock:
            assert lock.held_by_me()

    def test_failed_nonblocking_acquire_does_not_enter_held_set(self):
        lock = DisciplinedLock("contended", rank=1000)
        result = {}

        def try_acquire():
            result["acquired"] = lock.acquire(blocking=False)
            result["held"] = lock.held_by_me()

        with lock:
            run_in_thread(try_acquire)
        assert result["acquired"] is False
        assert result["held"] is False
        # And a later successful acquire from that state is clean.
        run_in_thread(lambda: (lock.acquire(blocking=False), lock.release()))


class TestRecorder:
    def test_nested_acquire_records_edge(self, lockdep):
        outer = DisciplinedLock("edge-outer", rank=1)
        inner = DisciplinedLock("edge-inner", rank=2)
        with outer:
            with inner:
                pass
        assert lockdep_edges()["edge-outer"]["edge-inner"] == 1
        assert lockdep_violations() == []

    def test_reentrant_reacquire_records_no_edge(self, lockdep):
        lock = DisciplinedLock("reentrant", rank=1)
        with lock:
            with lock:  # same object: never reaches the recorder
                pass
        assert "reentrant" not in lockdep_edges()
        assert lockdep_violations() == []

    def test_rank_inversion_is_flagged(self, lockdep):
        low = DisciplinedLock("inv-low", rank=10)
        high = DisciplinedLock("inv-high", rank=20)
        with high:
            with low:  # seeded order inversion
                pass
        kinds = [v.kind for v in lockdep_violations()]
        assert kinds == ["rank"]
        violation = lockdep_violations()[0]
        assert violation.acquired == "inv-low"
        assert "inv-high" in violation.held
        assert "strictly increasing" in violation.message

    def test_opposite_orders_close_a_cycle(self, lockdep):
        # Unranked-style cycle: use equal ranks so the rank check cannot
        # fire first... equal ranks ARE a rank violation, so use ranked
        # locks acquired in opposite orders across two edges with a
        # third class in between: a -> b, b -> a.
        a = DisciplinedLock("cyc-a", rank=None)
        b = DisciplinedLock("cyc-b", rank=None)
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        kinds = {v.kind for v in lockdep_violations()}
        # Both classes are unranked (flagged once each) and the second
        # nesting closes the a -> b -> a cycle.
        assert "cycle" in kinds
        cycle = next(v for v in lockdep_violations() if v.kind == "cycle")
        assert "cyc-a" in cycle.message and "cyc-b" in cycle.message

    def test_same_class_two_instances_is_flagged(self, lockdep):
        first = DisciplinedLock("twin", rank=5)
        second = DisciplinedLock("twin", rank=5)
        with first:
            with second:
                pass
        kinds = [v.kind for v in lockdep_violations()]
        assert kinds == ["cycle"]
        assert "same-class nesting" in lockdep_violations()[0].message

    def test_unranked_lock_is_flagged_once(self, lockdep):
        mystery = DisciplinedLock("mystery")
        assert mystery.rank is None
        with mystery:
            pass
        with mystery:
            pass
        kinds = [v.kind for v in lockdep_violations()]
        assert kinds == ["unranked"]
        assert "LOCK_ORDER" in lockdep_violations()[0].message

    def test_violations_deduplicate_per_edge(self, lockdep):
        low = DisciplinedLock("dup-low", rank=1)
        high = DisciplinedLock("dup-high", rank=2)
        for _ in range(5):
            with high:
                with low:
                    pass
        assert len(lockdep_violations()) == 1
        assert lockdep_edges()["dup-high"]["dup-low"] == 5

    def test_declared_lock_order_resolves_ranks(self, lockdep):
        outer = DisciplinedLock("fixture-outer", rank=10)
        engine = DisciplinedLock("dedup-engine")
        assert engine.rank == LOCK_ORDER["dedup-engine"]
        with outer:
            with engine:
                pass
        assert lockdep_violations() == []

    def test_dump_json_round_trips(self, lockdep, tmp_path):
        outer = DisciplinedLock("dump-outer", rank=1)
        inner = DisciplinedLock("dump-inner", rank=2)
        with outer:
            with inner:
                pass
        path = tmp_path / "lockdep.json"
        sync.lockdep_dump_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["tool"] == "lockdep"
        assert {
            "held": "dump-outer",
            "acquired": "dump-inner",
            "count": 1,
        } in payload["edges"]
        assert payload["violations"] == []


class TestDisarmed:
    def test_disarmed_records_nothing(self, disarmed):
        outer = DisciplinedLock("off-outer", rank=2)
        inner = DisciplinedLock("off-inner", rank=1)
        with outer:
            with inner:  # would be a rank inversion if armed
                pass
        assert lockdep_edges() == {}
        assert lockdep_violations() == []

    def test_enable_after_the_fact_sees_only_new_edges(self, disarmed):
        outer = DisciplinedLock("late-outer", rank=1)
        inner = DisciplinedLock("late-inner", rank=2)
        with outer:
            with inner:
                pass
        sync.enable_lockdep()
        try:
            assert lockdep_edges() == {}
            with outer:
                with inner:
                    pass
            assert lockdep_edges()["late-outer"]["late-inner"] == 1
        finally:
            sync.disable_lockdep()

    def test_disarmed_acquire_overhead_is_negligible(self, disarmed):
        """The zero-cost-when-unset guarantee (like the race detector):
        a disarmed acquire pays one module-global load + ``is not
        None``.  Bound the disarmed/armed-shape difference loosely —
        this is a smoke gate against accidental always-on
        instrumentation, not a microbenchmark."""
        lock = DisciplinedLock("overhead", rank=1)
        iterations = 20_000

        def timed() -> float:
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                for _ in range(iterations):
                    lock.acquire()
                    lock.release()
                best = min(best, time.perf_counter() - start)
            return best

        disarmed_time = timed()
        sync.enable_lockdep()
        try:
            armed_time = timed()
        finally:
            sync.disable_lockdep()
            sync.reset_lockdep()
        # Disarmed must not be slower than armed by more than noise —
        # i.e. the disarmed path really skips the recorder.  (Armed
        # pays a dict lookup + branch per outermost acquire; allow the
        # comparison plenty of jitter headroom on a loaded runner.)
        assert disarmed_time < armed_time * 3 + 0.05
