"""Concurrent-caller regression tests for the engine lock.

The engine's entry points serialize on one reentrant
:class:`~repro.sync.DisciplinedLock`, so N threads hammering the same
engine must produce *exact* aggregate ledgers — the kind of numbers
that lost updates corrupt silently.  These tests assert the exact
totals; before the lock existed they failed flakily under load."""

from __future__ import annotations

import threading

import pytest

from repro.analysis.invariants import check_engine
from repro.datared.chunking import BLOCK_SIZE
from repro.datared.dedup import DedupEngine
from repro.sync import DisciplinedLock, held_locks

CHUNK = 4096
BLOCKS = CHUNK // BLOCK_SIZE
THREADS = 8
WRITES_PER_THREAD = 60


def test_engine_lock_is_a_disciplined_rlock():
    engine = DedupEngine(num_buckets=64)
    assert isinstance(engine.lock, DisciplinedLock)
    with engine.lock:  # reentrant: the engine's own entry points nest
        engine.write(0, bytes(CHUNK))


def test_concurrent_writers_keep_exact_ledgers():
    engine = DedupEngine(num_buckets=4096)
    barrier = threading.Barrier(THREADS)

    def writer(index: int) -> None:
        barrier.wait()
        base = index * WRITES_PER_THREAD * BLOCKS
        for step in range(WRITES_PER_THREAD):
            # Unique per-thread content: every write stores a new chunk.
            payload = index.to_bytes(2, "big") + step.to_bytes(2, "big")
            engine.write(base + step * BLOCKS, payload.ljust(CHUNK, b"\0"))

    threads = [
        threading.Thread(target=writer, args=(index,))
        for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    total = THREADS * WRITES_PER_THREAD
    assert engine.stats.logical_bytes == total * CHUNK
    assert engine.stats.unique_chunks == total
    assert engine.stats.duplicate_chunks == 0
    assert len(engine.lba_map) == total
    assert check_engine(engine) == []


def test_concurrent_duplicate_writers_dedup_exactly():
    engine = DedupEngine(num_buckets=1024)
    barrier = threading.Barrier(THREADS)
    shared = bytes(range(256)) * (CHUNK // 256)  # same content everywhere

    def writer(index: int) -> None:
        barrier.wait()
        base = index * WRITES_PER_THREAD * BLOCKS
        for step in range(WRITES_PER_THREAD):
            engine.write(base + step * BLOCKS, shared)

    threads = [
        threading.Thread(target=writer, args=(index,))
        for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    total = THREADS * WRITES_PER_THREAD
    # Exactly one stored copy; every other write was a dedup hit.
    assert engine.stats.unique_chunks == 1
    assert engine.stats.duplicate_chunks == total - 1
    assert check_engine(engine) == []


def test_concurrent_read_write_flush_mix_stays_consistent():
    engine = DedupEngine(num_buckets=1024)
    barrier = threading.Barrier(4)
    errors = []

    def churn(index: int) -> None:
        try:
            barrier.wait()
            base = index * 64 * BLOCKS
            payload = bytes([index]) * CHUNK
            for step in range(40):
                engine.write(base + (step % 8) * BLOCKS, payload)
                assert engine.read(base + (step % 8) * BLOCKS).data == payload
                if step % 10 == 9:
                    engine.flush()
                    engine.collect_garbage(0.3)
        except Exception as error:
            errors.append(repr(error))

    threads = [threading.Thread(target=churn, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert check_engine(engine) == []


def run_in_thread(function):
    worker = threading.Thread(target=function, name="lock-worker")
    worker.start()
    worker.join()


class TestReleaseOrdering:
    """The held set changes only after the underlying lock operation
    succeeded, so a failed release or acquire leaves it intact."""

    def test_non_owner_release_raises_without_corrupting_held_set(self):
        lock = DisciplinedLock("owner-lock")
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
        lock = DisciplinedLock("over-release")
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
        lock = DisciplinedLock("contended")
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
