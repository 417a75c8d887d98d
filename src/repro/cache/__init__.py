"""Table-cache subsystem: indexes, replacement machinery, and the
Cache HW-Engine's timing model (paper §4.3, §5.5, §6.3)."""

from .btree import BPlusTree
from .cache_engine import (
    CacheEngineConfig,
    CacheEngineModel,
    CycleSimResult,
    ThroughputBreakdown,
)
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
    "TableCache",
    "ThroughputBreakdown",
]
