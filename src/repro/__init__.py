"""FIDR reproduction: scalable fine-grain inline data reduction.

A from-scratch Python implementation of the storage system described in
*FIDR: A Scalable Storage System for Fine-Grain Inline Data Reduction
with Efficient Memory Handling* (Ajdari et al., MICRO-52, 2019), with a
mechanistic performance model replacing the FPGA/NIC prototype (see
DESIGN.md for the substitution rationale).

Top-level facade::

    from repro import StorageServer, SystemKind

    server = StorageServer.build(SystemKind.FIDR)
    server.write(lba=0, payload=b"..." * 1024)
    data = server.read(lba=0, num_chunks=1)

Subpackages
-----------
``repro.sim``
    Discrete-event simulation kernel.
``repro.hw``
    Device models: CPU, DRAM, PCIe (with peer-to-peer), NVMe SSDs,
    FPGA engines, the FIDR NIC, and an FPGA resource estimator.
``repro.datared``
    Functional data reduction: chunking, SHA-256 fingerprints,
    Hash-PBN / LBA-PBA tables, compression, containers, dedup engine.
``repro.cache``
    Table caching: software B+-tree, speculative HW tree (Algorithms
    1-2), the LRU table cache's residency model, Cache HW-Engine
    timing model.
``repro.systems``
    End-to-end baseline (CIDR-extended) and FIDR systems with full
    device accounting.
``repro.workloads``
    FIU-like trace synthesis and the paper's Table-3 workload recipe.
``repro.obs``
    Runtime observability: metrics registry, trace spans, the
    ``repro.stats/v1`` snapshot behind the STATS op and
    ``python -m repro.obs top`` (DESIGN.md §5.5).
``repro.analysis``
    Projection, bottleneck-throughput and cost models.
``repro.experiments``
    One module per paper table/figure.
"""

from .datared import DedupEngine, EngineStats
from .errors import AlignmentError, CapacityError, ProtocolError, ReproError
from .obs.metrics import MetricsRegistry, get_registry
from .systems import BaselineSystem, FidrSystem, StorageServer, SystemKind  # noqa: E501

__version__ = "1.0.0"

__all__ = [
    "AlignmentError",
    "BaselineSystem",
    "CapacityError",
    "DedupEngine",
    "EngineStats",
    "FidrSystem",
    "MetricsRegistry",
    "ProtocolError",
    "ReproError",
    "StorageServer",
    "SystemKind",
    "get_registry",
    "__version__",
]
