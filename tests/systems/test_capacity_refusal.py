"""A full Hash-PBN table refuses a chunk cleanly, even one already acked
(DESIGN.md §5.8).

A system acks a write when it stages it; the engine only meets a chunk
when its batch drains.  When the table refuses a chunk there, the
engine keeps the chunks before it and the system drops the rest of the
batch from its staging buffer and from ``logical_write_bytes``, so the
ledgers still balance and FIDR's NIC buffer serves nothing the engine
does not hold.
"""

from __future__ import annotations

import itertools

import pytest

from repro.analysis.invariants import check_system
from repro.datared.hash_pbn import BUCKET_CAPACITY
from repro.errors import CapacityError
from repro.systems import BaselineSystem, FidrSystem

CHUNK = 4096


def _unique(lba):
    return lba.to_bytes(4, "big") * (CHUNK // 4)


def _fill_until_refused(system):
    """Write unique chunks at LBAs 0, 1, 2, … until a write raises;
    returns the LBA of the write that raised."""
    for lba in itertools.count():
        try:
            system.write(lba, _unique(lba))
        except CapacityError:
            return lba


def _one_bucket(cls):
    return cls(num_buckets=1, cache_lines=16)


@pytest.mark.parametrize("cls", [FidrSystem, BaselineSystem])
def test_refused_chunks_leave_staging_and_the_front_door(cls):
    system = _one_bucket(cls)
    batch = system.config.batch_chunks
    raised_at = _fill_until_refused(system)
    # The second batch drains on its last write; the table holds one
    # bucket, so its 108th chunk is refused and so are those after it.
    assert raised_at == 2 * batch - 1
    assert system.engine.table.entry_count == BUCKET_CAPACITY
    assert system.logical_write_bytes == BUCKET_CAPACITY * CHUNK
    assert check_system(system) == []
    for lba in range(raised_at + 1):
        expected = _unique(lba) if lba < BUCKET_CAPACITY else bytes(CHUNK)
        assert system.read(lba) == expected
    if cls is FidrSystem:
        assert system.nic.buffered_bytes == 0
    # The system keeps serving what needs no new index entry.
    system.write(raised_at + 1, _unique(0))
    system.flush()
    assert system.read(raised_at + 1) == _unique(0)
    assert check_system(system) == []


def test_both_architectures_read_alike_after_a_refusal():
    fidr, baseline = _one_bucket(FidrSystem), _one_bucket(BaselineSystem)
    raised_at = _fill_until_refused(fidr)
    assert _fill_until_refused(baseline) == raised_at
    lbas = range(raised_at + 8)
    assert [fidr.read(lba) for lba in lbas] == [
        baseline.read(lba) for lba in lbas
    ]


def test_a_newer_write_staged_behind_a_refused_batch_keeps_its_entry():
    """Only the refused batch's own NIC entries go: a newer write of
    one of its LBAs, staged behind it, stays buffered and readable
    until its own batch drains."""
    system = _one_bucket(FidrSystem)
    batch = system.config.batch_chunks
    for lba in range(2 * batch - 1):  # one batch drained, one staged
        system.write(lba, _unique(lba))
    newer = b"\x5a" * CHUNK + b"\xa5" * CHUNK
    # LBA 120's new copy fills the second batch, whose drain is
    # refused; LBA 121's new copy is staged behind it.
    with pytest.raises(CapacityError):
        system.write(120, newer)
    assert check_system(system) == []
    assert system.nic.buffered_bytes == CHUNK
    assert system.read(120) == bytes(CHUNK)
    assert system.read(121) == newer[CHUNK:]
    with pytest.raises(CapacityError):
        system.flush()
    assert check_system(system) == []
    assert system.nic.buffered_bytes == 0
    assert system.read(121) == bytes(CHUNK)
