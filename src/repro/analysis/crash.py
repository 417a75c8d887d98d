"""Kill-at-random-offset crash harness for the durability tier.

Proves the recovery contract of DESIGN.md §5.9 by *actually crashing*:
run a workload against a journal-armed engine, capture the durable
journal image and the surviving container store at every group-commit
boundary (the ``on_durable`` hook fires before deferred container frees
apply — exactly the state a power cut would leave), then tear the
journal at every byte-offset class inside each appended batch —
mid-header, mid-payload, mid-CRC, on a record boundary short of the
fence, and at the full (fenced) length — recover through
:func:`repro.systems.factory.build_engine`, and assert:

* recovery never raises (truncation is a tear, not corruption) and
  reports ``clean`` exactly when the fence survived,
* every ledger/index invariant holds
  (:mod:`repro.analysis.invariants`),
* every *acknowledged* write reads back byte-identical — a torn batch
  rolls back whole, to the previous acknowledged state, and
* snapshots recover with their pinned contents intact.

Run ``python -m repro.analysis crash`` (``--smoke`` for the CI leg,
``--sweep`` to tear at every single byte offset).
"""

from __future__ import annotations

import argparse
import copy
import random
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..datared.container import ContainerStore
from ..datared.journal import MetadataJournal, RecoveryImage
from ..errors import JournalCorruptError
from ..systems.config import DurabilityPolicy, SystemConfig
from ..systems.factory import build_engine
from . import invariants

__all__ = [
    "CrashReport",
    "PlainCrashHarness",
    "main",
]

#: Every tear class the harness must exercise to pass (a run that never
#: tears mid-CRC has not tested the CRC check).
TEAR_CLASSES = (
    "mid-header",
    "mid-payload",
    "mid-crc",
    "record-boundary",
    "complete",
)


def classify_offset(image: bytes, offset: int) -> str:
    """Which framing region a tear at ``offset`` lands in."""
    if offset == len(image):
        return "complete"
    for _kind, start, end in MetadataJournal.frame_spans(image):
        if not start < offset <= end:
            continue
        if offset == end:
            return "record-boundary"
        if offset <= start + MetadataJournal.HEADER_SIZE:
            return "mid-header"
        if offset > end - MetadataJournal.CRC_SIZE:
            return "mid-crc"
        return "mid-payload"
    return "record-boundary"


def tear_offsets(
    image: bytes, stable: int, *, every_byte: bool = False
) -> List[int]:
    """Tear points inside the append region ``(stable, len(image)]``.

    Only offsets past ``stable`` are legitimate crash states: the prefix
    was already durable before this append, so a tear cannot reach into
    it.  ``every_byte`` sweeps all of them; the default picks one offset
    per framing class of every appended record plus the full length.
    """
    if every_byte:
        return list(range(stable + 1, len(image) + 1))
    offsets: Set[int] = {len(image)}
    for _kind, start, end in MetadataJournal.frame_spans(image):
        if start < stable:
            continue
        header_end = start + MetadataJournal.HEADER_SIZE
        crc_start = end - MetadataJournal.CRC_SIZE
        offsets.add(min(start + 2, len(image)))  # mid-header
        if crc_start > header_end:  # non-empty payload
            offsets.add(header_end + (crc_start - header_end + 1) // 2)
        offsets.add(end - 2)  # mid-crc
        if end < len(image):
            offsets.add(end)  # record boundary short of the fence
    return sorted(offset for offset in offsets if offset > stable)


@dataclass
class CrashPoint:
    """One durable instant: what a crash right here would leave behind."""

    image: bytes
    stable: int
    #: Container store as of this commit, deep-copied *before* the
    #: commit's deferred frees applied — chunk payloads always hit the
    #: containers before the metadata fence, frees only after it.
    containers: ContainerStore
    #: Acknowledged logical state (lba -> chunk payload) once the
    #: enclosing engine call returns; ``None`` until then.
    state: Optional[Dict[int, bytes]] = None
    snaps: Optional[Dict[str, Dict[int, bytes]]] = None


@dataclass
class TearFailure:
    scenario: str
    offset: int
    tear_class: str
    detail: str


@dataclass
class CrashReport:
    """Aggregate outcome of one harness run."""

    mode: str
    captures: int
    tears: int = 0
    classes: Dict[str, int] = field(default_factory=dict)
    failures: List[TearFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and all(
            self.classes.get(name, 0) > 0 for name in TEAR_CLASSES
        )

    def merge(self, other: "CrashReport") -> None:
        self.captures += other.captures
        self.tears += other.tears
        for name, count in other.classes.items():
            self.classes[name] = self.classes.get(name, 0) + count
        self.failures.extend(other.failures)

    def render(self) -> str:
        lines = [
            f"crash[{self.mode}]: {self.tears} tears across "
            f"{self.captures} durable points"
        ]
        for name in TEAR_CLASSES:
            count = self.classes.get(name, 0)
            mark = "ok" if count else "MISSING"
            lines.append(f"  {name:<16} {count:>5} tears  [{mark}]")
        for failure in self.failures[:20]:
            lines.append(
                f"  FAIL {failure.scenario} @{failure.offset} "
                f"({failure.tear_class}): {failure.detail}"
            )
        if len(self.failures) > 20:
            lines.append(f"  ... {len(self.failures) - 20} more failures")
        lines.append(
            f"crash[{self.mode}]: "
            + ("OK" if self.ok else f"{len(self.failures)} failure(s)")
        )
        return "\n".join(lines)


def _run_workload(engine, rng: random.Random, ops: int, tracker) -> None:
    """Drive one deterministic mixed workload against ``engine``.

    ``tracker`` is called after every engine call with a description of
    the acknowledged mutation; the harness uses it to pair journal
    captures with the logical state a client was acknowledged.
    """
    chunk_size = engine.chunker.chunk_size
    step = engine.chunker.blocks_per_chunk
    pool = [rng.randbytes(chunk_size) for _ in range(6)]
    lba_space = 24
    snap_counter = 0
    live_snaps: List[str] = []

    def payload() -> bytes:
        if rng.random() < 0.45:  # duplicates keep the dedup path hot
            return pool[rng.randrange(len(pool))]
        return rng.randbytes(chunk_size)

    for _ in range(ops):
        roll = rng.random()
        if roll < 0.50:
            lba = rng.randrange(lba_space) * step
            data = payload()
            engine.write(lba, data)
            tracker({lba: data})
        elif roll < 0.68:
            batch = {
                rng.randrange(lba_space) * step: payload()
                for _ in range(rng.randrange(2, 5))
            }
            engine.write_many(sorted(batch.items()))
            tracker(batch)
        elif roll < 0.78:
            lba = rng.randrange(lba_space) * step
            engine.trim(lba)
            tracker({lba: None})
        elif roll < 0.86:
            if live_snaps and rng.random() < 0.5:
                name = live_snaps.pop(rng.randrange(len(live_snaps)))
                engine.delete_snapshot(name)
                tracker(snap_delete=name)
            else:
                name = f"snap-{snap_counter}"
                snap_counter += 1
                engine.create_snapshot(name)
                live_snaps.append(name)
                tracker(snap_create=name)
        elif roll < 0.94:
            engine.collect_garbage(0.9)
            tracker({})
        else:
            engine.flush()
            tracker({})
    engine.flush()
    tracker({})


class PlainCrashHarness:
    """Exact-prefix crash testing of one journal-armed engine.

    Every tear must recover to *precisely* the acknowledged state at the
    last surviving fence — same mappings, same bytes, same snapshots.
    """

    def __init__(
        self,
        *,
        seed: int = 0xC4A5,
        checkpoint_every_commits: int = 5,
        num_buckets: int = 4096,
    ) -> None:
        self.config = SystemConfig(
            durability=DurabilityPolicy(
                journal=True,
                checkpoint_every_commits=checkpoint_every_commits,
            ),
        )
        self.num_buckets = num_buckets
        self.seed = seed
        self.engine = build_engine(self.config, num_buckets=num_buckets)
        assert self.engine.journal is not None
        self.engine.journal.on_durable = self._capture
        self.points: List[CrashPoint] = []
        self._unsealed = 0
        self._state: Dict[int, bytes] = {}
        self._snaps: Dict[str, Dict[int, bytes]] = {}

    def _capture(self, image: bytes, stable: int) -> None:
        # Fires inside commit()/write_checkpoint() under the engine
        # lock, before deferred frees touch the containers: this pair is
        # byte-for-byte what a crash at this instant leaves on disk.
        self.points.append(
            CrashPoint(
                image=image,
                stable=stable,
                containers=copy.deepcopy(self.engine.containers),
            )
        )
        self._unsealed += 1

    def _track(self, writes=None, snap_create=None, snap_delete=None):
        if writes:
            for lba, data in writes.items():
                if data is None:
                    self._state.pop(lba, None)
                else:
                    self._state[lba] = data
        if snap_create is not None:
            self._snaps[snap_create] = dict(self._state)
        if snap_delete is not None:
            self._snaps.pop(snap_delete, None)
        # Every capture the call emitted is acknowledged with this
        # state: an op's commit (and its cadence checkpoint) both fence
        # the same logical contents.
        for point in self.points[len(self.points) - self._unsealed :]:
            point.state = dict(self._state)
            point.snaps = {
                name: dict(pins) for name, pins in self._snaps.items()
            }
        self._unsealed = 0

    def run_workload(self, ops: int = 48) -> None:
        _run_workload(
            self.engine, random.Random(self.seed), ops, self._track
        )
        self.engine.close()

    def _expected(
        self, index: int, offset: int
    ) -> Tuple[Dict[int, bytes], Dict[str, Dict[int, bytes]]]:
        point = self.points[index]
        if offset == len(point.image):
            assert point.state is not None and point.snaps is not None
            return point.state, point.snaps
        if index == 0:
            return {}, {}
        previous = self.points[index - 1]
        assert previous.state is not None and previous.snaps is not None
        return previous.state, previous.snaps

    def verify_tear(self, index: int, offset: int) -> str:
        """Crash at ``offset`` into capture ``index``; '' when sound."""
        point = self.points[index]
        state, snaps = self._expected(index, offset)
        try:
            recovered = build_engine(
                self.config,
                num_buckets=self.num_buckets,
                recover_from=RecoveryImage(
                    journal=point.image[:offset],
                    containers=copy.deepcopy(point.containers),
                ),
            )
        except JournalCorruptError as error:
            return f"recovery refused a pure tear: {error}"
        with recovered:
            report = recovered.recovery
            assert report is not None
            want_clean = offset == len(point.image)
            if report.clean != want_clean:
                return (
                    f"clean={report.clean}, expected {want_clean} "
                    f"(durable_bytes={report.durable_bytes})"
                )
            violations = invariants.check_engine(
                recovered, raise_on_violation=False
            )
            if violations:
                return f"invariants: {violations[0]}"
            mapped = {lba for lba, _pbn in recovered.lba_map.items()}
            if mapped != set(state):
                return (
                    f"mapped LBAs {sorted(mapped)} != acknowledged "
                    f"{sorted(state)}"
                )
            for lba, data in state.items():
                if recovered.read(lba, 1).data != data:
                    return f"LBA {lba} is not byte-identical"
            if sorted(recovered.snapshots()) != sorted(snaps):
                return (
                    f"snapshots {recovered.snapshots()} != "
                    f"{sorted(snaps)}"
                )
            for name, pins in snaps.items():
                for lba, data in pins.items():
                    if recovered.read_snapshot(name, lba).data != data:
                        return f"snapshot {name!r} LBA {lba} diverged"
        return ""

    def verify(self, *, every_byte: bool = False) -> CrashReport:
        report = CrashReport(mode="plain", captures=len(self.points))
        for index, point in enumerate(self.points):
            for offset in tear_offsets(
                point.image, point.stable, every_byte=every_byte
            ):
                tear_class = classify_offset(point.image, offset)
                report.tears += 1
                report.classes[tear_class] = (
                    report.classes.get(tear_class, 0) + 1
                )
                detail = self.verify_tear(index, offset)
                if detail:
                    report.failures.append(
                        TearFailure(
                            scenario=f"capture {index}",
                            offset=offset,
                            tear_class=tear_class,
                            detail=detail,
                        )
                    )
        return report


def run(
    *,
    seed: int = 0xF1D8,
    ops: int = 48,
    every_byte: bool = False,
    rounds: int = 2,
) -> CrashReport:
    """Run the exact-prefix harness over ``rounds`` seeded workloads."""
    total = CrashReport(mode="plain", captures=0)
    for round_index in range(rounds):
        plain = PlainCrashHarness(seed=seed + round_index)
        plain.run_workload(ops=ops)
        total.merge(plain.verify(every_byte=every_byte))
    return total


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis crash",
        description="kill-at-random-offset crash/recovery harness",
    )
    parser.add_argument("--seed", type=lambda v: int(v, 0), default=0xF1D8)
    parser.add_argument(
        "--ops", type=int, default=48, help="workload ops per round"
    )
    parser.add_argument(
        "--rounds", type=int, default=2, help="independent workload rounds"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one short round (the CI leg)",
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help="tear at every byte offset instead of one per class",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    report = run(
        seed=args.seed,
        ops=24 if args.smoke else args.ops,
        every_byte=args.sweep,
        rounds=1 if args.smoke else args.rounds,
    )
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
