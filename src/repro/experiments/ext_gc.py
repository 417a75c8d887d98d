"""Extension study: container garbage collection and SSD write
amplification.

The paper motivates data reduction partly through SSD lifetime ("an SSD
lifetime, which is limited by the number of writes to its flash cells",
§1) but does not evaluate the reclamation machinery a deduplicating
store needs: overwrites strand dead compressed chunks inside sealed
containers, and compaction re-writes the survivors — extra flash writes
that push back against reduction's savings.

This sweep runs an overwrite-heavy stream and varies the GC trigger
threshold (the garbage fraction at which a container is compacted),
measuring total flash writes per client byte — the end-to-end write
amplification — and residual dead space.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..analysis.report import format_table, pct
from ..datared.compression import ModeledCompressor
from ..datared.container import ContainerStore
from ..datared.dedup import DedupEngine
from .common import ExperimentResult

__all__ = ["run"]

CHUNK = 4096


def _churn(engine: DedupEngine, rng: random.Random, num_writes: int,
           address_space: int, gc_threshold: float, gc_period: int) -> Dict:
    """Overwrite-heavy stream with periodic GC; returns flash accounting."""
    gc_runs = 0
    for step in range(num_writes):
        lba = rng.randrange(address_space) * 8
        engine.write(lba, rng.randbytes(CHUNK))
        if gc_threshold < 1.0 and step % gc_period == gc_period - 1:
            if engine.collect_garbage(threshold=gc_threshold):
                gc_runs += 1
    engine.flush()
    stats = engine.stats
    gc_moved = stats.gc_bytes_moved
    flash_writes = stats.stored_bytes + gc_moved
    return {
        "logical": stats.logical_bytes,
        "flash_writes": flash_writes,
        "write_amp": flash_writes / stats.logical_bytes,
        "gc_moved": gc_moved,
        "gc_runs": gc_runs,
        "dead_fraction": (
            1 - engine.containers.live_bytes / engine.containers.total_bytes
            if engine.containers.total_bytes else 0.0
        ),
        "containers": engine.containers.container_count,
    }


def run(num_writes: int = 4000, address_space: int = 120, seed: int = 6) -> ExperimentResult:
    """GC threshold sweep under ~33x overwrite churn."""
    rows: List[List] = []
    series: Dict = {}
    for threshold in (1.0, 0.7, 0.5, 0.3):
        rng = random.Random(seed)
        engine = DedupEngine(
            num_buckets=1 << 13,
            compressor=ModeledCompressor(0.5),
            containers=ContainerStore(container_size=64 * 1024),
        )
        result = _churn(engine, rng, num_writes, address_space,
                        threshold, gc_period=200)
        series[threshold] = result
        label = "no GC" if threshold >= 1.0 else f"GC @ {pct(threshold)} dead"
        rows.append([
            label,
            f"{result['write_amp']:.3f}",
            pct(result["dead_fraction"]),
            f"{result['containers']:,}",
            result["gc_runs"],
        ])
    table = format_table(
        headers=["policy", "flash B per client B", "residual dead space",
                 "containers held", "GC runs"],
        rows=rows,
        title=(
            f"container GC under overwrite churn "
            f"({num_writes:,} writes over {address_space} hot LBAs)"
        ),
    )
    no_gc = series[1.0]
    aggressive = series[0.3]
    return ExperimentResult(
        name="Extension: container GC",
        headline=(
            f"aggressive GC trades {aggressive['write_amp'] / no_gc['write_amp']:.2f}x "
            f"the flash writes for {pct(no_gc['dead_fraction'])} → "
            f"{pct(aggressive['dead_fraction'])} residual dead space"
        ),
        tables=[table],
        data={"series": series},
    )
