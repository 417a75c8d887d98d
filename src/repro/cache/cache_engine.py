"""Timing model of the FIDR Cache HW-Engine (§5.5, §6.3, Figure 13).

The engine's throughput is governed by four mechanisms, each modelled
explicitly so Figure 13's regimes emerge rather than being tabulated:

1. **Search pipeline** — one lookup issues per clock; non-leaf levels sit
   in single-cycle on-chip memory (§6.3's 16-key leaf trick keeps all
   non-leaf levels on chip).
2. **Board-DRAM bandwidth** — only the leaf level lives in FPGA DRAM;
   every search reads one leaf node and every update writes one back.
   High-hit-rate workloads (Write-H) saturate here (~127 GB/s in the
   paper).
3. **Update concurrency window** — an update occupies a speculation slot
   for the full tree latency (on-chip levels + a DRAM leaf access).  With
   a single slot the engine is latency-bound (Write-M's 27.1 GB/s); the
   crash/replay optimization allows up to 4 slots.
4. **Commit serialization** — the crash/replay controller retires updates
   in order through a single tree-write port, which bounds the benefit of
   very large windows (Write-M saturates near 63.8 GB/s).

Misses additionally fetch the 4-KB bucket from a table SSD, which is the
dominant cap when table SSD bandwidth is small (Table 5's "All" column:
10 GB/s with a 2 GB/s table SSD).

Two entry points:

* :meth:`CacheEngineModel.analytic_throughput` — closed-form steady-state
  caps (fast; used by the system-level solver),
* :meth:`CacheEngineModel.simulate` — a queueing simulation that also
  measures the emergent crash/replay rate from actual leaf collisions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["CacheEngineConfig", "ThroughputBreakdown", "CycleSimResult", "CacheEngineModel"]


@dataclass(frozen=True)
class CacheEngineConfig:
    """Physical parameters of one Cache HW-Engine.

    Defaults are calibrated to the paper's prototype (VCU1525, §6.3):
    see DESIGN.md §4 for the fit points.
    """

    clock_hz: float = 250e6  #: FPGA fabric clock
    on_chip_levels: int = 8  #: tree levels in BRAM/URAM (1 cycle each)
    dram_latency_cycles: int = 92  #: leaf access round-trip in cycles
    commit_cycles: int = 40  #: in-order retire cost per update
    leaf_node_bytes: int = 512  #: 16-key leaf node line in board DRAM
    board_dram_bw: float = 19.2e9  #: one DDR4-2400 channel, bytes/s
    table_ssd_read_bw: Optional[float] = None  #: None = miss fetches uncapped
    chunk_size: int = 4096  #: data bytes represented by one request
    updates_per_miss: float = 2.0  #: insert fetched line + delete victim

    @property
    def update_latency_cycles(self) -> int:
        """Slot occupancy of one update: pipeline walk + DRAM leaf access."""
        return self.on_chip_levels + self.dram_latency_cycles


@dataclass
class ThroughputBreakdown:
    """Analytic caps in data-reduction bytes/s; the minimum binds."""

    caps: Dict[str, float]

    @property
    def throughput(self) -> float:
        return min(self.caps.values())

    @property
    def bottleneck(self) -> str:
        return min(self.caps, key=self.caps.get)


@dataclass
class CycleSimResult:
    """Outcome of the queueing simulation."""

    requests: int
    cycles: float
    throughput_bytes_per_s: float
    crashes: int
    updates: int

    @property
    def crash_rate(self) -> float:
        attempts = self.updates + self.crashes
        return self.crashes / attempts if attempts else 0.0


class CacheEngineModel:
    """Throughput model for one Cache HW-Engine instance."""

    def __init__(self, config: Optional[CacheEngineConfig] = None):
        self.config = config if config is not None else CacheEngineConfig()

    # -- analytic steady state ------------------------------------------------------
    def analytic_throughput(self, miss_rate: float, window: int = 4) -> ThroughputBreakdown:
        """Steady-state caps for a workload with the given table-cache
        miss rate and speculation window."""
        if not 0.0 <= miss_rate <= 1.0:
            raise ValueError(f"miss_rate must be in [0, 1], got {miss_rate}")
        if window < 1:
            raise ValueError("window must be >= 1")
        cfg = self.config
        updates_per_request = miss_rate * cfg.updates_per_miss

        caps: Dict[str, float] = {}
        # 1. Search pipeline: one request per clock.
        caps["search_pipeline"] = cfg.clock_hz * cfg.chunk_size
        # 2. Board DRAM: one leaf read per search + one leaf write per update.
        dram_bytes_per_request = cfg.leaf_node_bytes * (1.0 + updates_per_request)
        caps["board_dram"] = cfg.board_dram_bw / dram_bytes_per_request * cfg.chunk_size
        # 3/4. Update path: window-limited in-flight + in-order commit.
        if updates_per_request > 0:
            per_update_cycles = max(
                cfg.update_latency_cycles / window, cfg.commit_cycles
            )
            updates_per_second = cfg.clock_hz / per_update_cycles
            caps["update_path"] = (
                updates_per_second / updates_per_request * cfg.chunk_size
            )
        # 5. Table SSD: each miss fetches one 4-KB bucket.
        if cfg.table_ssd_read_bw is not None and miss_rate > 0:
            caps["table_ssd"] = cfg.table_ssd_read_bw / miss_rate
        return ThroughputBreakdown(caps=caps)

    # -- queueing simulation ------------------------------------------------------------
    def simulate(
        self,
        num_requests: int,
        miss_rate: float,
        window: int = 4,
        num_leaves: int = 100_000,
        seed: int = 0,
    ) -> CycleSimResult:
        """Request-by-request queueing simulation (times in cycles).

        Each request performs a pipelined search (serialized DRAM leaf
        read); misses spawn ``updates_per_miss`` updates that must grab a
        speculation slot, occupy it for the tree latency, and retire
        in-order through the commit port.  Two in-flight updates landing
        on the same (or adjacent) leaf crash the younger one, which
        replays after the older retires — the cost structure of
        Algorithms 1–2.  With ``window=1`` there is no speculation, so
        no crash: each update starts when the one slot frees.
        """
        if num_requests < 1:
            raise ValueError("need at least one request")
        cfg = self.config
        if cfg.updates_per_miss != int(cfg.updates_per_miss):
            raise ValueError("simulate() requires integral updates_per_miss")
        rng = random.Random(seed)
        cycles_per_leaf_access = cfg.leaf_node_bytes / (
            cfg.board_dram_bw / cfg.clock_hz
        )
        whole_updates = cfg.updates_per_miss
        table_ssd_cycles = 0.0
        if cfg.table_ssd_read_bw is not None:
            table_ssd_cycles = cfg.chunk_size / (
                cfg.table_ssd_read_bw / cfg.clock_hz
            )

        search_clock = 0.0  # search-pipeline issue port
        dram_clock = 0.0  # board-DRAM service completion
        ssd_clock = 0.0  # table-SSD read channel
        commit_clock = 0.0  # in-order commit port
        # Speculation slots: (free_at, leaf_id) per slot.
        slots: List[List[float]] = [[0.0, -1] for _ in range(window)]
        crashes = 0
        updates_done = 0
        finish = 0.0

        def dram_access(ready: float) -> float:
            nonlocal dram_clock
            start = max(ready, dram_clock)
            dram_clock = start + cycles_per_leaf_access
            return dram_clock

        for _ in range(num_requests):
            search_clock += 1.0  # one issue slot per clock
            ready = dram_access(search_clock)  # leaf read for the lookup
            finish = max(finish, ready)
            if rng.random() >= miss_rate:
                continue
            # Miss: fetch bucket from the table SSD, then run the updates.
            if table_ssd_cycles:
                ssd_clock = max(ssd_clock, ready) + table_ssd_cycles
                ready = ssd_clock
                finish = max(finish, ready)
            for _ in range(int(whole_updates)):
                leaf = rng.randrange(num_leaves)
                # Crash check against leaves claimed by busy slots
                # (adjacency: the neighbor leaf counts too).  A one-slot
                # engine never speculates: its update waits for the
                # slot, which is the replay's wait, and nothing crashes.
                while window > 1:
                    conflicting = [
                        slot for slot in slots
                        if slot[0] > ready and abs(slot[1] - leaf) <= 1
                    ]
                    if not conflicting:
                        break
                    crashes += 1
                    # Replay once the oldest conflicting update retires.
                    ready = min(slot[0] for slot in conflicting)
                # Claim the earliest-free slot.
                slot = min(slots, key=lambda entry: entry[0])
                start = max(ready, slot[0])
                start = dram_access(start)  # leaf write-back
                done = start + cfg.update_latency_cycles
                commit_clock = max(commit_clock + cfg.commit_cycles, done)
                slot[0] = commit_clock
                slot[1] = leaf
                updates_done += 1
                finish = max(finish, commit_clock)

        total_bytes = num_requests * cfg.chunk_size
        seconds = finish / cfg.clock_hz
        return CycleSimResult(
            requests=num_requests,
            cycles=finish,
            throughput_bytes_per_s=total_bytes / seconds if seconds else 0.0,
            crashes=crashes,
            updates=updates_done,
        )
