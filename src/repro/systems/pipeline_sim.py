"""Discrete-event simulation of the end-to-end write pipeline.

The Figure-14 solver computes each configuration's throughput as the
minimum of closed-form resource ceilings.  This module cross-validates
that with an actual *queueing* simulation: batches of chunks flow as
concurrent processes through shared-bandwidth resources (host DRAM, CPU,
PCIe root complex, Cache HW-Engine, data SSDs), each batch demanding
from every resource exactly what the measured
:class:`~repro.systems.accounting.SystemReport` says a batch costs in
that architecture.

Beyond validating the solver (they agree within a few percent at
saturation — asserted in the test suite), the simulation yields what a
closed form cannot: the latency-versus-load curve and per-stage
utilizations under partial load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..cache.cache_engine import CacheEngineConfig, CacheEngineModel
from ..sim.core import Simulator
from ..sim.resources import Resource
from ..sim.stats import StreamingSummary
from .accounting import SystemReport

__all__ = ["PipelineResult", "simulate_write_pipeline"]


class _StageServer:
    """A pipeline stage as a FIFO server: one batch in service at a
    time, service time = the batch's demand at the resource's full rate.

    (A fair-share pipe would let identical batches convoy through every
    stage in lockstep, hiding pipelining entirely; FIFO service is the
    standard pipeline abstraction and matches the solver's semantics —
    stage capacity = resource rate.)
    """

    def __init__(self, sim: Simulator, rate: float, name: str):
        self.sim = sim
        self.rate = rate
        self.name = name
        self._gate = Resource(sim, capacity=1)
        self.busy_time = 0.0

    def serve(self, demand: float):
        yield self._gate.acquire()
        service = demand / self.rate
        yield self.sim.timeout(service)
        self.busy_time += service
        self._gate.release()

    def utilization(self) -> float:
        return self.busy_time / self.sim.now if self.sim.now else 0.0


@dataclass
class PipelineResult:
    """Outcome of one pipeline simulation."""

    throughput_bytes_per_s: float
    mean_batch_latency_s: float
    p99ish_batch_latency_s: float  #: max observed (small samples)
    stage_utilization: Dict[str, float]
    batches: int
    outstanding: int

    @property
    def bottleneck(self) -> str:
        return max(self.stage_utilization, key=self.stage_utilization.get)


def simulate_write_pipeline(
    report: SystemReport,
    batch_chunks: int = 64,
    num_batches: int = 400,
    outstanding: int = 16,
    use_cache_engine: bool = False,
    tree_window: int = 4,
    engine_config: Optional[CacheEngineConfig] = None,
) -> PipelineResult:
    """Run ``num_batches`` write batches through the measured pipeline.

    ``outstanding`` bounds the batches in flight (the client's window);
    small windows show latency, large ones saturate the bottleneck.
    Stage demands are *per-client-byte intensities* taken from
    ``report``, so the simulation reflects whichever architecture and
    workload produced it.
    """
    if report.logical_write_bytes <= 0:
        raise ValueError("report covers no written bytes")
    if outstanding < 1 or num_batches < 1:
        raise ValueError("need at least one batch in flight")

    chunk_size = 4096
    batch_bytes = batch_chunks * chunk_size
    logical = report.logical_bytes

    # Per-client-byte intensities measured by the system run.
    dram_per_byte = report.memory.total_bytes / logical
    cpu_cycles_per_byte = report.cpu.total_cycles / logical
    root_per_byte = report.pcie.root_complex_bytes / logical
    stored_per_byte = report.reduction.stored_bytes / logical

    sim = Simulator()
    server = report.server
    pipes: Dict[str, _StageServer] = {
        "host_dram": _StageServer(sim, server.dram.peak_bw, "dram"),
        "host_cpu": _StageServer(
            sim, server.cpu.total_cycles_per_s, "cpu"
        ),
        "pcie_root": _StageServer(sim, server.socket_pcie_bw, "root"),
        "data_ssd": _StageServer(
            sim,
            server.data_ssd.write_bw * server.num_data_ssds,
            "ssd",
        ),
    }
    demands: Dict[str, float] = {
        "host_dram": dram_per_byte * batch_bytes,
        "host_cpu": cpu_cycles_per_byte * batch_bytes,
        "pcie_root": root_per_byte * batch_bytes,
        "data_ssd": stored_per_byte * batch_bytes,
    }
    if use_cache_engine:
        model = CacheEngineModel(
            engine_config if engine_config is not None else CacheEngineConfig()
        )
        chunks = report.logical_write_bytes / chunk_size
        miss_rate = (
            min(1.0, report.cache_stats.fetches / chunks) if chunks else 0.0
        )
        engine_rate = model.analytic_throughput(
            miss_rate, window=tree_window
        ).throughput
        pipes["cache_engine"] = _StageServer(sim, engine_rate, "engine")
        demands["cache_engine"] = float(batch_bytes)

    latencies = StreamingSummary()
    window = {"slots": outstanding, "waiters": []}
    completed = {"count": 0, "last_finish": 0.0}

    def batch_process():
        start = sim.now
        # Stages proceed in flow order; each is a fair-shared resource.
        for stage in ("pcie_root", "host_dram", "host_cpu",
                      "cache_engine", "data_ssd"):
            pipe = pipes.get(stage)
            if pipe is None:
                continue
            demand = demands[stage]
            if demand > 0:
                yield from pipe.serve(demand)
        latencies.add(sim.now - start)
        completed["count"] += 1
        completed["last_finish"] = sim.now
        window["slots"] += 1
        if window["waiters"]:
            window["waiters"].pop(0).succeed(None)

    def generator():
        for _ in range(num_batches):
            if window["slots"] == 0:
                gate = sim.event()
                window["waiters"].append(gate)
                yield gate
            window["slots"] -= 1
            sim.spawn(batch_process())
            yield sim.timeout(0.0)

    sim.spawn(generator())
    sim.run()

    elapsed = completed["last_finish"]
    total_bytes = completed["count"] * batch_bytes
    return PipelineResult(
        throughput_bytes_per_s=total_bytes / elapsed if elapsed else 0.0,
        mean_batch_latency_s=latencies.mean,
        p99ish_batch_latency_s=latencies.maximum,
        stage_utilization={
            name: pipe.utilization() for name, pipe in pipes.items()
        },
        batches=completed["count"],
        outstanding=outstanding,
    )

