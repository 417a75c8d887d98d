"""Tests for the NVMe queue-pair machinery."""

import pytest

from repro.hw.nvme import (
    NvmeCommand,
    NvmeController,
    NvmeOpcode,
    QueueFull,
    QueuePair,
    SubmissionQueue,
)
from repro.hw.ssd import NvmeSsd


class TestRing:
    def test_push_pop_fifo(self):
        ring = SubmissionQueue(4)
        for value in (1, 2, 3):
            ring.push(value)
        assert [ring.pop() for _ in range(3)] == [1, 2, 3]

    def test_full_raises(self):
        ring = SubmissionQueue(2)
        ring.push(1)
        ring.push(2)
        with pytest.raises(QueueFull):
            ring.push(3)

    def test_empty_pop_raises(self):
        with pytest.raises(IndexError):
            SubmissionQueue(2).pop()

    def test_wraparound_many_times(self):
        ring = SubmissionQueue(4)
        for round_number in range(25):
            for value in range(3):
                ring.push((round_number, value))
            for value in range(3):
                assert ring.pop() == (round_number, value)
        assert ring.is_empty

    def test_depth_validation(self):
        for bad in (0, 1, 3, 6):
            with pytest.raises(ValueError):
                SubmissionQueue(bad)

    def test_occupancy(self):
        ring = SubmissionQueue(4)
        ring.push(1)
        ring.push(2)
        assert ring.occupancy == 2
        ring.pop()
        assert ring.occupancy == 1


class TestCommand:
    def test_write_requires_data(self):
        with pytest.raises(ValueError):
            NvmeCommand(0, NvmeOpcode.WRITE, 0)

    def test_unknown_opcode(self):
        with pytest.raises(ValueError):
            NvmeCommand(0, "flush", 0)


class TestQueuePair:
    def test_submit_assigns_ids(self):
        pair = QueuePair(depth=8)
        first = pair.submit(NvmeOpcode.READ, 0)
        second = pair.submit(NvmeOpcode.READ, 1)
        assert second == first + 1
        assert pair.stats.submissions == 2

    def test_owner_validation(self):
        with pytest.raises(ValueError):
            QueuePair(owner="gpu")

    def test_backpressure(self):
        pair = QueuePair(depth=2)
        pair.submit(NvmeOpcode.READ, 0)
        pair.submit(NvmeOpcode.READ, 1)
        with pytest.raises(QueueFull):
            pair.submit(NvmeOpcode.READ, 2)


class TestController:
    def test_write_then_read_roundtrip(self):
        ssd = NvmeSsd()
        pair = QueuePair(depth=8)
        controller = NvmeController(ssd, pair)
        pair.submit(NvmeOpcode.WRITE, 5, b"payload")
        read_id = pair.submit(NvmeOpcode.READ, 5)
        assert controller.process() == 2
        completions = {c.command_id: c for c in pair.reap()}
        assert completions[read_id].data == b"payload"
        assert all(c.status == 0 for c in completions.values())

    def test_read_missing_fails_status(self):
        ssd = NvmeSsd()
        pair = QueuePair(depth=8)
        controller = NvmeController(ssd, pair)
        pair.submit(NvmeOpcode.READ, 99)
        controller.process()
        (completion,) = pair.reap()
        assert completion.status == 1

    def test_process_limit(self):
        ssd = NvmeSsd()
        pair = QueuePair(depth=16)
        controller = NvmeController(ssd, pair)
        for address in range(6):
            pair.submit(NvmeOpcode.WRITE, address, b"x")
        assert controller.process(limit=4) == 4
        assert controller.process() == 2
