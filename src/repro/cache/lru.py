"""LRU recency list for the table cache (paper §5.5).

The host software touches cached buckets, so the LRU list lives host-side;
the Cache HW-Engine "periodically receives batches of top LRU list items
for deletions".  :class:`LruList` supports exactly that protocol: O(1)
touch/insert/remove plus :meth:`evict_batch` returning the coldest *n*
keys in one shot.

Implemented over an :class:`~collections.OrderedDict` kept cold-to-hot,
with an optional pin set so in-flight cache lines cannot be evicted
underneath a scan.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Callable, Iterator, List, Optional, Set

__all__ = ["LruList"]


class LruList:
    """Recency ordering over hashable keys: hottest first, coldest last."""

    def __init__(self):
        self._order: OrderedDict = OrderedDict()  # coldest first
        self._pinned: Set = set()
        #: The owning cache's replay (see
        #: :attr:`~repro.cache.policy.PartitionedLru.settle`); recency
        #: alone orders these keys, so nothing here needs to call it.
        self.settle: Optional[Callable[[], None]] = None

    def touch(self, key) -> None:
        """Mark ``key`` most-recently-used, inserting it if new."""
        self._order[key] = None
        self._order.move_to_end(key)

    def remove(self, key) -> bool:
        """Drop ``key`` from the list; returns whether it was present."""
        if key not in self._order:
            return False
        del self._order[key]
        self._pinned.discard(key)
        return True

    def pin(self, key) -> None:
        """Protect ``key`` from eviction (line has IO in flight)."""
        if key not in self._order:
            raise KeyError(f"{key!r} not tracked")
        self._pinned.add(key)

    def unpin(self, key) -> None:
        self._pinned.discard(key)

    def _unpinned_cold_to_hot(self) -> Iterator:
        return (key for key in self._order if key not in self._pinned)

    def coldest(self) -> Optional[object]:
        """The least-recently-used unpinned key, or None."""
        return next(self._unpinned_cold_to_hot(), None)

    def evict_batch(self, count: int) -> List:
        """Remove and return up to ``count`` coldest unpinned keys.

        This is the batch the host ships to the Cache HW-Engine (§5.5):
        batching amortizes the host↔engine interaction.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        victims = list(islice(self._unpinned_cold_to_hot(), count))
        for key in victims:
            del self._order[key]
        return victims

    def __contains__(self, key) -> bool:
        return key in self._order

    def __len__(self) -> int:
        return len(self._order)

    def keys_hot_to_cold(self) -> Iterator:
        """All keys from most- to least-recently used (for tests and
        :meth:`~repro.cache.table_cache.TableCache.check_invariants`)."""
        return reversed(self._order)
