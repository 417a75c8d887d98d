"""Lock discipline primitives shared by the stack and its analysis tools.

The storage stack's concurrency contract (DESIGN.md §5.2) is enforced,
not assumed: the lock guarding shared metadata is a
:class:`DisciplinedLock`, which — besides being a plain reentrant lock —
registers itself in a per-thread *held set* on acquire and removes
itself on release.  Two consumers read that set:

* the repro-lint rule **R002** checks statically that fields annotated
  ``# guarded-by: <lock>`` are only mutated inside a ``with`` block on
  that lock (or in a helper annotated ``# repro-lint: holds <lock>``);
* the runtime race detector (:mod:`repro.analysis.racecheck`) records
  the held set on every access to a watched object and reports when two
  threads touch the same field with **disjoint** lock sets and at least
  one write — the classic Eraser lock-set algorithm.

The stack has one lock, ``DisciplinedLock("dedup-engine")`` — one per
engine, shared by the system that wraps it — so there is no acquisition
order to declare or check.

The held-set bookkeeping is two ``dict`` operations per acquire/release
pair on an uncontended ``RLock``; it is cheap enough to stay on in
production, which is what makes the race detector trustworthy — it
observes the real lock, not a shadow one.
"""

from __future__ import annotations

import threading
from types import TracebackType
from typing import Dict, FrozenSet, Optional, Type

__all__ = ["DisciplinedLock", "held_locks"]


class _HeldState(threading.local):
    """Per-thread map of held DisciplinedLocks to their entry counts."""

    def __init__(self) -> None:
        self.held: Dict["DisciplinedLock", int] = {}


_state = _HeldState()


def held_locks() -> FrozenSet["DisciplinedLock"]:
    """The :class:`DisciplinedLock`\\ s the calling thread holds now."""
    return frozenset(_state.held)


class DisciplinedLock:
    """A named reentrant lock that tracks which threads hold it.

    Use exactly like ``threading.RLock``::

        lock = DisciplinedLock("dedup-engine")
        with lock:
            ...  # held_locks() includes `lock` here

    Reentrant acquisition is counted, so the lock leaves the holder's
    held set only when the outermost ``with`` exits.
    """

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.RLock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            held = _state.held
            held[self] = held.get(self, 0) + 1
        return acquired

    def release(self) -> None:
        # Release the underlying lock *first*: a non-owner release
        # raises RuntimeError there, and mutating the held set before
        # that check would corrupt the caller thread's bookkeeping on
        # the way to the exception.
        self._lock.release()
        held = _state.held
        depth = held.get(self, 0)
        if depth <= 1:
            held.pop(self, None)
        else:
            held[self] = depth - 1

    def __enter__(self) -> "DisciplinedLock":
        self.acquire()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.release()

    def held_by_me(self) -> bool:
        """Whether the calling thread currently holds this lock."""
        return self in _state.held

    def __repr__(self) -> str:
        return f"DisciplinedLock({self.name!r})"
