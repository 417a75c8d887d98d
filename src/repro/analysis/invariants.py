"""Cross-structure invariants of the data-reduction stack.

FIDR's evaluation is a byte/cycle *ledger*: savings emerge from removing
flow edges, so the numbers are only as trustworthy as the accounting.
This module asserts the conservation laws that must hold between the
engine's independent records of the same facts — the same discipline
full-system SSD simulators apply to make results credible:

* **Byte conservation** — every logical byte written is either unique
  (stored, possibly compressed) or removed by dedup;
  ``live_stored_bytes`` must agree between ``engine.stats``, the
  container store, and the sum of live PBN records.
* **Index consistency** — the :class:`~repro.datared.lba_map.PbnMap`'s
  columns and its incremental reverse indexes (fingerprint→PBN, each
  container's PBN list) must agree exactly: the live count, the
  fingerprint mirror and the Hash-PBN entry count are one number, each
  live PBN's digest column entry is its mirror key, and each live PBN
  is listed under its container at its own offset; every LBA mapping
  must point at a live PBN; reference counts must equal the number of LBAs referencing
  each PBN; every live record's fingerprint must resolve in the
  Hash-PBN table itself to its PBN, and the table's entry count must
  equal the live-chunk population.

``check_engine`` returns the list of violations (empty = healthy) or
raises :class:`InvariantViolation`; the differential, stateful and crash
suites call it, so a regression that silently corrupts stats or bytes
fails CI even when no test asserts the exact number it corrupted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..datared.hash_pbn import InMemoryBucketStore
from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from ..datared.dedup import DedupEngine
    from ..datared.hash_pbn import HashPbnTable
    from ..systems.base import ReductionSystem

__all__ = [
    "InvariantViolation",
    "check_engine",
    "check_system",
]


class InvariantViolation(ReproError):
    """A conservation law or index-consistency law does not hold."""


def _page_view(table: "HashPbnTable") -> "HashPbnTable":
    """A table over ``table``'s page store, past any table cache that
    interposes, so a check moves no residency, ledger or probe count."""
    from ..cache.table_cache import TableCache
    from ..datared.hash_pbn import HashPbnTable

    store = table.store
    if isinstance(store, TableCache):
        store = store.pages
    return HashPbnTable(table.num_buckets, store=store)


def _engine_violations(engine: "DedupEngine") -> List[str]:
    violations: List[str] = []
    stats = engine.stats
    chunk_size = engine.chunker.chunk_size

    # -- byte/chunk conservation ---------------------------------------------
    expected_logical = (stats.unique_chunks + stats.duplicate_chunks) * chunk_size
    if stats.logical_bytes != expected_logical:
        violations.append(
            f"logical_bytes {stats.logical_bytes} != "
            f"(unique {stats.unique_chunks} + duplicate "
            f"{stats.duplicate_chunks}) * chunk_size {chunk_size}"
        )
    if stats.unique_logical_bytes != stats.unique_chunks * chunk_size:
        violations.append(
            f"unique_logical_bytes {stats.unique_logical_bytes} != "
            f"unique_chunks {stats.unique_chunks} * chunk_size {chunk_size}"
        )
    dedup_saved = stats.logical_bytes - stats.unique_logical_bytes
    if dedup_saved != stats.duplicate_chunks * chunk_size:
        violations.append(
            f"dedup-saved bytes {dedup_saved} != duplicate_chunks "
            f"{stats.duplicate_chunks} * chunk_size {chunk_size}"
        )
    if stats.reclaimed_stored_bytes > stats.stored_bytes:
        violations.append(
            f"reclaimed_stored_bytes {stats.reclaimed_stored_bytes} exceeds "
            f"stored_bytes {stats.stored_bytes}"
        )

    # -- stored-byte agreement across structures ------------------------------
    live = stats.live_stored_bytes
    container_live = engine.containers.live_bytes
    record_live = engine.pbn_map.live_stored_bytes
    if live != container_live:
        violations.append(
            f"stats live_stored_bytes {live} != container live_bytes "
            f"{container_live}"
        )
    if live != record_live:
        violations.append(
            f"stats live_stored_bytes {live} != sum of PBN record sizes "
            f"{record_live}"
        )

    # -- forward/reverse index consistency ------------------------------------
    pbn_map = engine.pbn_map
    live_pbns = sum(1 for _ in pbn_map.pbns())
    if not live_pbns == len(pbn_map) == pbn_map.mirrored:
        violations.append(
            f"live PBN count: {live_pbns} in the columns, {len(pbn_map)} "
            f"counted, {pbn_map.mirrored} in the fingerprint index"
        )
    seen_fingerprints = set()
    seen_placements = set()
    owners: Dict[int, Dict[int, int]] = {}
    for pbn, record in pbn_map.records():
        if record.refcount <= 0:
            violations.append(f"live PBN {pbn} has refcount {record.refcount}")
        mirrored = pbn_map.find_by_fingerprint(record.fingerprint)
        if mirrored != pbn:
            violations.append(
                f"fingerprint index maps PBN {pbn}'s digest column entry "
                f"to {mirrored}"
            )
        if record.container_id not in owners:
            owners[record.container_id] = pbn_map.owners(record.container_id)
        placed = owners[record.container_id].get(record.offset)
        if placed != pbn:
            violations.append(
                f"placement index maps PBN {pbn}'s placement "
                f"({record.container_id}, {record.offset}) to {placed}"
            )
        if record.fingerprint in seen_fingerprints:
            violations.append(
                f"fingerprint of PBN {pbn} stored by multiple live records"
            )
        seen_fingerprints.add(record.fingerprint)
        placement = (record.container_id, record.offset)
        if placement in seen_placements:
            violations.append(f"placement {placement} owned by multiple PBNs")
        seen_placements.add(placement)

    # -- LBA map + snapshot pins vs. reference counts -------------------------
    # The refcount law (DESIGN.md §5.9): every reference on a live PBN
    # is either a mapped LBA or a snapshot pin, and nothing else.
    refcount_total = 0
    snapshot_pins = 0
    lba_refs: dict = {}
    for lba, pbn in engine.lba_map.items():
        if pbn not in engine.pbn_map:
            violations.append(f"LBA {lba} maps to dead PBN {pbn}")
            continue
        lba_refs[pbn] = lba_refs.get(pbn, 0) + 1
    for name, pins in engine._snapshots.items():
        snapshot_pins += len(pins)
        for lba, pbn in pins.items():
            if pbn not in engine.pbn_map:
                violations.append(
                    f"snapshot {name!r} pins dead PBN {pbn} (LBA {lba})"
                )
                continue
            lba_refs[pbn] = lba_refs.get(pbn, 0) + 1
    for pbn, record in pbn_map.records():
        refcount_total += record.refcount
        actual = lba_refs.get(pbn, 0)
        if record.refcount != actual:
            violations.append(
                f"PBN {pbn} refcount {record.refcount} != {actual} "
                "referencing LBAs + snapshot pins"
            )
    if refcount_total != len(engine.lba_map) + snapshot_pins:
        violations.append(
            f"sum of refcounts {refcount_total} != mapped LBAs "
            f"{len(engine.lba_map)} + snapshot pins {snapshot_pins}"
        )

    # -- durability tier at rest ----------------------------------------------
    # Every public op ends with a commit barrier, so between ops no
    # journal records may sit staged and no container frees deferred.
    if engine._pending_releases or engine._pending_drops:
        violations.append(
            f"{len(engine._pending_releases)} deferred container frees / "
            f"{len(engine._pending_drops)} deferred drops at rest"
        )
    if engine.journal is not None and engine.journal.staged_bytes:
        violations.append(
            f"journal holds {engine.journal.staged_bytes} staged bytes "
            "at rest (missing commit barrier)"
        )

    # -- memory follows live data (DESIGN.md §5.8, §5.9) ------------------------
    # A page that holds nothing has no home, a container with no live
    # chunk keeps only its counters, and no PBN list outlives the last
    # live chunk of its container.
    pages = _page_view(engine.table).store
    if isinstance(pages, InMemoryBucketStore):
        for bucket in pages.empty_pages():
            violations.append(f"page store holds an empty page for bucket {bucket}")
    for container in engine.containers._containers.values():
        if container.sealed and not container.live_bytes and container.holds_tables:
            violations.append(
                f"fully-dead container {container.container_id} still holds "
                "per-chunk tables"
            )
    for container_id in pbn_map.listed_containers():
        if not engine.containers.holds_live(container_id):
            violations.append(
                f"PBN list kept for container {container_id}, which holds "
                "no live chunk"
            )

    # -- Hash-PBN table vs. the live records -----------------------------------
    table = engine.table
    if table.entry_count != len(engine.pbn_map):
        violations.append(
            f"Hash-PBN entry count {table.entry_count} != live PBN records "
            f"{len(engine.pbn_map)}"
        )
    records = list(pbn_map.records())
    resolved = _page_view(table).lookup_many(
        [record.fingerprint for _, record in records]
    )
    for (pbn, _), found in zip(records, resolved):
        if found != pbn:
            violations.append(
                f"Hash-PBN table maps PBN {pbn}'s fingerprint to {found}"
            )
    return violations


def _raise_if(violations: List[str], raise_on_violation: bool) -> List[str]:
    if violations and raise_on_violation:
        raise InvariantViolation(
            f"{len(violations)} invariant violation(s):\n  "
            + "\n  ".join(violations)
        )
    return violations


def check_engine(
    engine: "DedupEngine", *, raise_on_violation: bool = True
) -> List[str]:
    """Verify all engine invariants; returns the violation list.

    Reads the engine's structures directly, without an owner check:
    call it between operations, from the owner thread or with the owner
    idle (DESIGN.md §5.3).  With ``raise_on_violation`` a non-empty list
    raises :class:`InvariantViolation` carrying every violation found.
    """
    return _raise_if(_engine_violations(engine), raise_on_violation)


def check_system(
    system: "ReductionSystem", *, raise_on_violation: bool = True
) -> List[str]:
    """Engine invariants plus the system layer's staging accounting
    and the table cache's residency model.

    ``logical_write_bytes`` counts client bytes at the front door while
    the engine's stats count processed bytes, so they must differ by
    exactly the bytes still staged in the pending batch.
    """
    engine = system.engine
    violations = _engine_violations(engine)
    processed = engine.stats.logical_bytes
    pending_bytes = sum(len(chunk.data) for chunk in system._pending)
    front_door = system.logical_write_bytes
    if front_door != processed + pending_bytes:
        violations.append(
            f"system logical_write_bytes {front_door} != engine "
            f"logical_bytes {processed} + pending {pending_bytes}"
        )
    violations += [
        f"table cache: {violation}"
        for violation in system.table_cache.check_invariants(raise_on_violation=False)
    ]
    return _raise_if(violations, raise_on_violation)
