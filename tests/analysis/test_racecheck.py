"""Unit tests for the Eraser-style lock-set race detector.

Covers the state machine (synthetic seeded race detected, disciplined
code clean), method-granularity tracking, raise-on-race mode, unwatch,
and — an acceptance criterion — that the detector costs *nothing* when
disabled: no wrapper class, no metadata, ``type(obj)`` unchanged."""

from __future__ import annotations

import json
import threading

import pytest

from repro.analysis import racecheck
from repro.analysis.racecheck import METHODS_FIELD, RaceError
from repro.sync import DisciplinedLock, held_locks


class Counter:
    def __init__(self):
        self.value = 0

    def bump(self):
        self.value += 1

    def peek(self):
        return self.value


@pytest.fixture
def detector():
    """Enable the detector for one test, restoring global state after."""
    racecheck.reset()
    racecheck.enable()
    yield racecheck
    racecheck.set_raise_on_race(False)
    racecheck.disable()
    racecheck.reset()


def run_in_thread(function):
    worker = threading.Thread(target=function, name="racecheck-worker")
    worker.start()
    worker.join()


class TestLockDiscipline:
    def test_disciplined_lock_tracks_held_set(self):
        lock = DisciplinedLock("test-lock")
        assert not lock.held_by_me()
        assert lock not in held_locks()
        with lock:
            assert lock.held_by_me()
            assert lock in held_locks()
            with lock:  # reentrant: still held after inner exit
                pass
            assert lock in held_locks()
        assert lock not in held_locks()

    def test_held_set_is_per_thread(self):
        lock = DisciplinedLock("test-lock")
        observed = {}

        def peek():
            observed["held"] = lock in held_locks()

        with lock:
            run_in_thread(peek)
        assert observed["held"] is False


class TestDetector:
    def test_seeded_unlocked_race_is_detected(self, detector):
        counter = detector.watch(Counter(), name="counter")
        counter.bump()  # main thread, no locks
        run_in_thread(counter.bump)  # second thread, no locks

        races = detector.reports()
        assert races, "seeded race must be detected"
        assert races[0].object_name == "counter"
        assert races[0].field == "value"
        assert races[0].first_thread != races[0].second_thread
        assert "race on counter.value" in races[0].describe()

    def test_lock_disciplined_counter_is_clean(self, detector):
        lock = DisciplinedLock("counter-lock")
        counter = detector.watch(Counter(), name="counter")

        def locked_bumps():
            for _ in range(100):
                with lock:
                    counter.bump()

        threads = [
            threading.Thread(target=locked_bumps) for _ in range(4)
        ]
        with lock:
            counter.bump()  # main thread participates too
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert detector.reports() == []
        assert counter.value == 401  # and no update was lost

    def test_single_thread_never_races(self, detector):
        counter = detector.watch(Counter(), name="counter")
        for _ in range(50):
            counter.bump()
        assert detector.reports() == []

    def test_method_calls_are_tracked_at_object_granularity(self, detector):
        class Table:
            def __init__(self):
                self._items = {}

            def insert(self, key, value):
                self._items[key] = value

            def get(self, key):
                return self._items.get(key)

        table = detector.watch(Table(), name="table", mutators={"insert"})
        table.insert(1, "a")
        run_in_thread(lambda: table.insert(2, "b"))

        races = detector.reports()
        assert [race.field for race in races] == [METHODS_FIELD]

    def test_reads_alone_never_race(self, detector):
        counter = detector.watch(Counter(), name="counter")
        counter.bump()  # single writer...
        run_in_thread(counter.peek)  # ...other threads only read
        run_in_thread(counter.peek)
        assert detector.reports() == []

    def test_raise_on_race(self, detector):
        detector.set_raise_on_race(True)
        counter = detector.watch(Counter(), name="counter")
        counter.bump()
        failure = {}

        def racy():
            try:
                counter.bump()
            except RaceError as error:
                failure["error"] = error

        run_in_thread(racy)
        assert isinstance(failure.get("error"), RaceError)

    def test_each_field_reported_once(self, detector):
        counter = detector.watch(Counter(), name="counter")
        counter.bump()
        run_in_thread(counter.bump)
        run_in_thread(counter.bump)
        assert len(detector.reports()) == 1

    def test_unwatch_restores_class(self, detector):
        counter = detector.watch(Counter(), name="counter")
        assert type(counter).__name__ == "WatchedCounter"
        detector.unwatch(counter)
        assert type(counter) is Counter
        counter.bump()
        run_in_thread(counter.bump)
        assert detector.reports() == []

    def test_dump_json(self, detector, tmp_path):
        counter = detector.watch(Counter(), name="counter")
        counter.bump()
        run_in_thread(counter.bump)
        artifact = tmp_path / "races.json"
        detector.dump_json(str(artifact))
        payload = json.loads(artifact.read_text())
        assert payload["version"] == 1
        assert payload["races"][0]["object"] == "counter"
        assert payload["races"][0]["field"] == "value"


class TestZeroOverheadWhenDisabled:
    def test_watch_is_identity_when_disabled(self):
        assert not racecheck.enabled()
        counter = Counter()
        watched = racecheck.watch(counter, name="counter")
        assert watched is counter
        assert type(counter) is Counter  # no wrapper class installed
        assert not hasattr(counter, "_racecheck_meta_")
        counter.bump()
        assert racecheck.reports() == []

    def test_watch_engine_is_noop_when_disabled(self):
        from repro.datared.dedup import DedupEngine

        engine = DedupEngine(num_buckets=64)
        racecheck.watch_engine(engine)
        assert type(engine) is DedupEngine
        assert type(engine.pbn_map).__name__ == "PbnMap"
