"""Table-cache subsystem: indexes, replacement machinery, and the
Cache HW-Engine models (paper §4.3, §5.5, §6.3)."""

from .btree import BPlusTree
from .cache_engine import (
    CacheEngineConfig,
    CacheEngineModel,
    CycleSimResult,
    ThroughputBreakdown,
)
from .hwtree import OpResult, SpeculativeTreeEngine, TreeOp
from .lru import LruList
from .policy import PartitionedLru
from .table_cache import BTreeIndex, CacheIndex, CacheStats, HwTreeIndex, TableCache

__all__ = [
    "BPlusTree",
    "BTreeIndex",
    "CacheEngineConfig",
    "CacheEngineModel",
    "CacheIndex",
    "CacheStats",
    "CycleSimResult",
    "HwTreeIndex",
    "LruList",
    "PartitionedLru",
    "OpResult",
    "SpeculativeTreeEngine",
    "TableCache",
    "ThroughputBreakdown",
    "TreeOp",
]
