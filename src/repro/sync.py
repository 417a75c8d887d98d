"""Lock discipline primitives shared by the stack and its analysis tools.

The storage stack's concurrency contract (DESIGN.md §5.2) is enforced,
not assumed: every lock guarding shared metadata is a
:class:`DisciplinedLock`, which — besides being a plain reentrant lock —
registers itself in a per-thread *held set* on acquire and removes
itself on release.  Three consumers read that set:

* the repro-lint rule **R002** checks statically that fields annotated
  ``# guarded-by: <lock>`` are only mutated inside a ``with`` block on
  that lock (or in a helper annotated ``# repro-lint: holds <lock>``);
* the runtime race detector (:mod:`repro.analysis.racecheck`) records
  the held set on every access to a watched object and reports when two
  threads touch the same field with **disjoint** lock sets and at least
  one write — the classic Eraser lock-set algorithm;
* the runtime **lockdep** validator (this module, modelled on the Linux
  kernel's lock validator) records, when armed, every *held-set →
  acquired* edge into a process-global order graph and reports cycles,
  declared-rank inversions, and unranked locks on the spot — one bad
  interleaving seen once proves the deadlock, no hang required.

Lock hierarchy
--------------
Locks are grouped into **lock classes** by name (every
``DisciplinedLock("dedup-engine")`` instance — one per engine — belongs
to the class ``dedup-engine``), and the classes carry a declared total
order in :data:`LOCK_ORDER` (DESIGN.md §5.8).  The stack declares one
class today:

    ``dedup-engine`` (20)

A thread may only acquire a lock of *higher* rank than every lock it
already holds; re-acquiring the same lock object (reentrancy) is always
fine.  The static twin of this check is ``repro.analysis.lockgraph``
plus repro-lint R011; the runtime twin is armed with ``REPRO_LOCKDEP=1``
(or :func:`enable_lockdep`) and costs one module-global load per
acquire when disarmed — proven by test, like the race detector.

The held-set bookkeeping is two ``dict`` operations per acquire/release
pair on an uncontended ``RLock``; it is cheap enough to stay on in
production, which is what makes the runtime detectors trustworthy —
they observe the real locks, not shadow ones.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from types import TracebackType
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Type

__all__ = [
    "LOCK_ORDER",
    "DisciplinedLock",
    "LockdepViolation",
    "disable_lockdep",
    "enable_lockdep",
    "held_locks",
    "lockdep_dump_json",
    "lockdep_edges",
    "lockdep_enabled",
    "lockdep_violations",
    "reset_lockdep",
]

#: The declared lock hierarchy: lock-class name → rank.  A thread may
#: only acquire a lock whose rank is strictly greater than the rank of
#: every DisciplinedLock it already holds (reentrant re-acquire of the
#: same object excepted).  Register every new lock class here — an
#: unregistered name constructs an *unranked* lock, which both
#: ``repro.analysis.lockgraph`` and repro-lint R011 flag.  Gaps in the
#: numbering are deliberate: future tiers (e.g. the durability
#: journal's lock) slot in without renumbering.
LOCK_ORDER: Dict[str, int] = {
    # A DedupEngine's metadata lock.  Guards the Hash-PBN table,
    # PBN/LBA maps, containers, and stats.
    "dedup-engine": 20,
}


class _HeldState(threading.local):
    """Per-thread map of held DisciplinedLocks to their entry counts."""

    def __init__(self) -> None:
        self.held: Dict["DisciplinedLock", int] = {}


_state = _HeldState()


def held_locks() -> FrozenSet["DisciplinedLock"]:
    """The :class:`DisciplinedLock`\\ s the calling thread holds now."""
    return frozenset(_state.held)


@dataclass(frozen=True)
class LockdepViolation:
    """One lock-order violation observed by the runtime validator."""

    kind: str  #: ``"cycle"`` | ``"rank"`` | ``"unranked"``
    acquired: str  #: lock class being acquired at the violation
    held: Tuple[str, ...]  #: lock classes the thread held at that moment
    message: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "acquired": self.acquired,
            "held": list(self.held),
            "message": self.message,
        }


class _LockDep:
    """Process-global observed lock-order graph (armed mode only).

    Nodes are lock classes (names); an edge ``A → B`` means some thread
    acquired a ``B`` lock while holding an ``A`` lock.  Each edge insert
    runs an incremental cycle check (is ``A`` reachable from ``B``?), a
    declared-rank check, and an unranked-class check, so a violation is
    reported at the first acquisition that proves it — the Linux
    lockdep property: one clean run of a bad order is enough.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: held-class → acquired-class → observation count.
        self._edges: Dict[str, Dict[str, int]] = {}
        self._violations: List[LockdepViolation] = []
        self._flagged_unranked: Set[str] = set()
        #: (held, acquired) pairs already reported, to keep one
        #: violation per bad edge rather than one per acquisition.
        self._flagged_edges: Set[Tuple[str, str]] = set()

    # -- recording ---------------------------------------------------------

    def record(
        self,
        held: Iterable["DisciplinedLock"],
        acquired: "DisciplinedLock",
    ) -> None:
        held_list = list(held)
        held_names = tuple(sorted(lock.name for lock in held_list))
        with self._lock:
            if (
                acquired.rank is None
                and acquired.name not in self._flagged_unranked
            ):
                self._flagged_unranked.add(acquired.name)
                self._violations.append(
                    LockdepViolation(
                        kind="unranked",
                        acquired=acquired.name,
                        held=held_names,
                        message=(
                            f"lock class {acquired.name!r} has no rank; "
                            "register it in repro.sync.LOCK_ORDER or pass "
                            "rank= explicitly"
                        ),
                    )
                )
            for other in held_list:
                self._record_edge(other, acquired, held_names)

    def _record_edge(
        self,
        held_lock: "DisciplinedLock",
        acquired: "DisciplinedLock",
        held_names: Tuple[str, ...],
    ) -> None:
        source, target = held_lock.name, acquired.name
        key = (source, target)
        targets = self._edges.setdefault(source, {})
        is_new = target not in targets
        targets[target] = targets.get(target, 0) + 1
        if key in self._flagged_edges:
            return
        if source == target:
            # Same class, different instance (reentrant re-acquire of
            # the same object never reaches the recorder): two threads
            # doing this in opposite instance orders would deadlock.
            self._flagged_edges.add(key)
            self._violations.append(
                LockdepViolation(
                    kind="cycle",
                    acquired=target,
                    held=held_names,
                    message=(
                        f"two locks of class {target!r} held at once; "
                        "same-class nesting has no defined instance order"
                    ),
                )
            )
            return
        if (
            held_lock.rank is not None
            and acquired.rank is not None
            and held_lock.rank >= acquired.rank
        ):
            self._flagged_edges.add(key)
            self._violations.append(
                LockdepViolation(
                    kind="rank",
                    acquired=target,
                    held=held_names,
                    message=(
                        f"acquired {target!r} (rank {acquired.rank}) while "
                        f"holding {source!r} (rank {held_lock.rank}); the "
                        "declared order requires strictly increasing ranks"
                    ),
                )
            )
            return
        if is_new:
            path = self._find_path(target, source)
            if path is not None:
                self._flagged_edges.add(key)
                chain = " -> ".join(path + [target])
                self._violations.append(
                    LockdepViolation(
                        kind="cycle",
                        acquired=target,
                        held=held_names,
                        message=(
                            f"acquiring {target!r} while holding {source!r} "
                            f"closes the lock-order cycle {chain}"
                        ),
                    )
                )

    def _find_path(self, start: str, goal: str) -> Optional[List[str]]:
        """DFS path ``start → … → goal`` in the observed edge graph."""
        stack: List[Tuple[str, List[str]]] = [(start, [start])]
        seen = {start}
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            for neighbor in self._edges.get(node, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append((neighbor, path + [neighbor]))
        return None

    # -- inspection --------------------------------------------------------

    def edges(self) -> Dict[str, Dict[str, int]]:
        with self._lock:
            return {
                source: dict(targets)
                for source, targets in self._edges.items()
            }

    def violations(self) -> List[LockdepViolation]:
        with self._lock:
            return list(self._violations)

    def clear(self) -> None:
        with self._lock:
            self._edges.clear()
            self._violations.clear()
            self._flagged_unranked.clear()
            self._flagged_edges.clear()


#: The armed validator, or ``None`` when lockdep is off.  Keeping the
#: disarmed representation at ``None`` (rather than a no-op object with
#: a method call) holds the disarmed acquire cost to one module-global
#: load plus an ``is not None`` test — the zero-overhead-when-unset
#: guarantee the overhead test pins.
_lockdep: Optional[_LockDep] = (
    _LockDep() if os.environ.get("REPRO_LOCKDEP") else None
)


def lockdep_enabled() -> bool:
    """Whether the runtime lock-order validator is armed."""
    return _lockdep is not None


def enable_lockdep() -> None:
    """Arm the validator (idempotent; keeps already-recorded edges)."""
    global _lockdep
    if _lockdep is None:
        _lockdep = _LockDep()


def disable_lockdep() -> None:
    """Disarm the validator and drop its graph."""
    global _lockdep
    _lockdep = None


def reset_lockdep() -> None:
    """Forget all recorded edges and violations (stays armed if armed)."""
    if _lockdep is not None:
        _lockdep.clear()


def lockdep_edges() -> Dict[str, Dict[str, int]]:
    """Observed ``held-class → acquired-class → count`` edges so far."""
    return _lockdep.edges() if _lockdep is not None else {}


def lockdep_violations() -> List[LockdepViolation]:
    """All lock-order violations observed since the last reset."""
    return _lockdep.violations() if _lockdep is not None else []


def lockdep_dump_json(path: str) -> None:
    """Write the observed order graph as a JSON artifact.

    ``python -m repro.analysis lockgraph --observed <path>`` merges
    these runtime edges with the static graph into one report.
    """
    payload = {
        "version": 1,
        "tool": "lockdep",
        "edges": [
            {"held": source, "acquired": target, "count": count}
            for source, targets in sorted(lockdep_edges().items())
            for target, count in sorted(targets.items())
        ],
        "violations": [v.as_dict() for v in lockdep_violations()],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)


class DisciplinedLock:
    """A named, ranked reentrant lock that tracks which threads hold it.

    Use exactly like ``threading.RLock``::

        lock = DisciplinedLock("dedup-engine")
        with lock:
            ...  # held_locks() includes `lock` here

    Reentrant acquisition is counted, so the lock leaves the holder's
    held set only when the outermost ``with`` exits.

    ``name`` doubles as the lock's *class* in the declared hierarchy:
    :attr:`rank` resolves from :data:`LOCK_ORDER` unless passed
    explicitly (tests and fixtures build ad-hoc hierarchies that way).
    A lock whose name is unregistered gets ``rank=None`` and is flagged
    by lockgraph/R011 and, when armed, by runtime lockdep.
    """

    def __init__(self, name: str, rank: Optional[int] = None):
        self.name = name
        self.rank = rank if rank is not None else LOCK_ORDER.get(name)
        self._lock = threading.RLock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            held = _state.held
            lockdep = _lockdep
            if lockdep is not None and self not in held:
                lockdep.record(held, self)
            held[self] = held.get(self, 0) + 1
        return acquired

    def release(self) -> None:
        # Release the underlying lock *first*: a non-owner release
        # raises RuntimeError there, and mutating the held set before
        # that check would corrupt the caller thread's bookkeeping on
        # the way to the exception (the PR-8 satellite regression).
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
        rank = f", rank={self.rank}" if self.rank is not None else ""
        return f"DisciplinedLock({self.name!r}{rank})"
