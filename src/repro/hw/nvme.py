"""NVMe queue-pair machinery (paper §6.1).

The paper's implementation section is specific about queue placement:
data-SSD submission/completion queues stay in host memory ("similar to
default system"), while the *table* SSDs' queues move into the Cache
HW-Engine, because random 4-KB metadata IO through the host software
stack is what burns CPU (Table 2's 24.7%).

This module models that mechanism explicitly rather than as a cycle
constant: bounded submission/completion rings with head/tail doorbells,
a controller that consumes submissions and produces completions against
an :class:`~repro.hw.ssd.NvmeSsd`, and per-owner doorbell counters — the
mechanistic quantity behind the "who pays for the IO stack" accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .ssd import NvmeSsd

__all__ = [
    "NvmeOpcode",
    "NvmeCommand",
    "NvmeCompletion",
    "QueueFull",
    "SubmissionQueue",
    "CompletionQueue",
    "QueuePair",
    "NvmeController",
]


class NvmeOpcode:
    READ = "read"
    WRITE = "write"


class QueueFull(RuntimeError):
    """Submission with no free slot (the host must back off)."""


@dataclass(frozen=True)
class NvmeCommand:
    """One submission-queue entry."""

    command_id: int
    opcode: str
    address: int
    data: Optional[bytes] = None  # writes carry data

    def __post_init__(self):
        if self.opcode not in (NvmeOpcode.READ, NvmeOpcode.WRITE):
            raise ValueError(f"unknown opcode {self.opcode!r}")
        if self.opcode == NvmeOpcode.WRITE and self.data is None:
            raise ValueError("write commands carry data")


@dataclass(frozen=True)
class NvmeCompletion:
    """One completion-queue entry."""

    command_id: int
    status: int  # 0 = success
    data: Optional[bytes] = None  # reads return data


class _Ring:
    """A bounded ring with head/tail indexes (the NVMe queue shape)."""

    def __init__(self, depth: int):
        if depth < 2 or depth & (depth - 1):
            raise ValueError("queue depth must be a power of two >= 2")
        self.depth = depth
        self._slots: List = [None] * depth
        self.head = 0  # consumer index
        self.tail = 0  # producer index

    @property
    def occupancy(self) -> int:
        return (self.tail - self.head) % (2 * self.depth)

    @property
    def is_full(self) -> bool:
        return self.occupancy == self.depth

    @property
    def is_empty(self) -> bool:
        return self.occupancy == 0

    def push(self, item) -> None:
        if self.is_full:
            raise QueueFull("ring full")
        self._slots[self.tail % self.depth] = item
        self.tail = (self.tail + 1) % (2 * self.depth)

    def pop(self):
        if self.is_empty:
            raise IndexError("ring empty")
        item = self._slots[self.head % self.depth]
        self._slots[self.head % self.depth] = None
        self.head = (self.head + 1) % (2 * self.depth)
        return item


class SubmissionQueue(_Ring):
    pass


class CompletionQueue(_Ring):
    pass


@dataclass
class DoorbellStats:
    """Per-owner doorbell/ops accounting — who ran the IO stack."""

    submissions: int = 0
    completions_reaped: int = 0

    @property
    def total_interactions(self) -> int:
        return self.submissions + self.completions_reaped


class QueuePair:
    """One SQ/CQ pair with an owner ("host" or "engine", §6.1)."""

    def __init__(self, depth: int = 64, owner: str = "host"):
        if owner not in ("host", "engine"):
            raise ValueError("owner must be 'host' or 'engine'")
        self.sq = SubmissionQueue(depth)
        self.cq = CompletionQueue(depth)
        self.owner = owner
        self.stats = DoorbellStats()
        self._next_id = 0

    def submit(self, opcode: str, address: int,
               data: Optional[bytes] = None) -> int:
        """Ring the submission doorbell; returns the command id."""
        command = NvmeCommand(self._next_id, opcode, address, data)
        self.sq.push(command)  # raises QueueFull when saturated
        self._next_id += 1
        self.stats.submissions += 1
        return command.command_id

    def reap(self, limit: int = 64) -> List[NvmeCompletion]:
        """Consume up to ``limit`` completions."""
        completions: List[NvmeCompletion] = []
        while not self.cq.is_empty and len(completions) < limit:
            completions.append(self.cq.pop())
            self.stats.completions_reaped += 1
        return completions


class NvmeController:
    """The device side: drains submissions, executes, completes."""

    def __init__(self, ssd: NvmeSsd, pair: QueuePair):
        self.ssd = ssd
        self.pair = pair
        self.commands_executed = 0

    def process(self, limit: int = 64) -> int:
        """Execute up to ``limit`` queued commands; returns the count."""
        executed = 0
        while not self.pair.sq.is_empty and executed < limit:
            command = self.pair.sq.pop()
            if command.opcode == NvmeOpcode.WRITE:
                assert command.data is not None
                self.ssd.write_block(command.address, command.data)
                completion = NvmeCompletion(command.command_id, 0)
            else:
                try:
                    data = self.ssd.read_block(command.address)
                    completion = NvmeCompletion(command.command_id, 0, data)
                except KeyError:
                    completion = NvmeCompletion(command.command_id, 1)
            self.pair.cq.push(completion)
            executed += 1
        self.commands_executed += executed
        return executed
