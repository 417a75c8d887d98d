"""Tenant-aware cache replacement (paper §8).

In multi-tenant or skewed deployments a plain LRU lets one scan-heavy
workload flush everyone's table-cache lines; the paper suggests "a
prioritized LRU policy that considers each workload's locality (similar
to [44])".  :class:`PartitionedLru` implements that idea as a weighted
partitioning:

* every cached line is attributed to the tenant whose request brought
  it in (``active_tenant`` is set by the request-dispatch layer),
* each tenant owns a *weighted share* of the cache; eviction always
  victimizes the tenant most over its share, LRU-within-tenant,
* tenants under their share are protected from other tenants' churn.

The class is API-compatible with :class:`~repro.cache.lru.LruList`, so
it drops into :class:`~repro.cache.table_cache.TableCache` unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from .lru import LruList

__all__ = ["PartitionedLru"]


class PartitionedLru:
    """Weighted per-tenant LRU partitions over one shared cache."""

    def __init__(self, weights: Dict[str, float], default_tenant: Optional[str] = None):
        if not weights:
            raise ValueError("need at least one tenant")
        if any(weight <= 0 for weight in weights.values()):
            raise ValueError("weights must be positive")
        total = sum(weights.values())
        self.weights = {tenant: weight / total for tenant, weight in weights.items()}
        self._partitions: Dict[str, LruList] = {
            tenant: LruList() for tenant in weights
        }
        self._owner: Dict = {}  # key -> tenant
        self.active_tenant = (
            default_tenant if default_tenant is not None else next(iter(weights))
        )
        self.evictions_by_tenant: Dict[str, int] = {t: 0 for t in weights}
        #: Replays the accesses the owning cache has traced but not yet
        #: touched (set by :class:`~repro.cache.table_cache.TableCache`),
        #: so a switch credits each of them to the tenant that made it.
        self.settle: Optional[Callable[[], None]] = None

    # -- tenancy -----------------------------------------------------------------
    def set_active(self, tenant: str) -> None:
        """Attribute subsequent touches to ``tenant``."""
        if tenant not in self._partitions:
            raise KeyError(f"unknown tenant {tenant!r}")
        if self.settle is not None:
            self.settle()
        self.active_tenant = tenant

    def tenant_of(self, key) -> Optional[str]:
        return self._owner.get(key)

    def tenant_size(self, tenant: str) -> int:
        return len(self._partitions[tenant])

    # -- LruList-compatible API ---------------------------------------------------------
    def touch(self, key) -> None:
        previous = self._owner.get(key)
        if previous is not None and previous != self.active_tenant:
            # Shared line re-touched by another tenant: reattribute.
            self._partitions[previous].remove(key)
        self._owner[key] = self.active_tenant
        self._partitions[self.active_tenant].touch(key)

    def remove(self, key) -> bool:
        tenant = self._owner.pop(key, None)
        if tenant is None:
            return False
        return self._partitions[tenant].remove(key)

    def pin(self, key) -> None:
        tenant = self._owner.get(key)
        if tenant is None:
            raise KeyError(f"{key!r} not tracked")
        self._partitions[tenant].pin(key)

    def unpin(self, key) -> None:
        tenant = self._owner.get(key)
        if tenant is not None:
            self._partitions[tenant].unpin(key)

    def coldest(self) -> Optional[object]:
        tenant = self._most_over_share()
        if tenant is None:
            return None
        return self._partitions[tenant].coldest()

    def evict_batch(self, count: int) -> List:
        """Evict up to ``count`` keys, always from the most-over-share
        tenant at each step."""
        if count < 0:
            raise ValueError("count must be non-negative")
        victims: List = []
        while len(victims) < count:
            tenant = self._most_over_share()
            if tenant is None:
                break
            taken = self._partitions[tenant].evict_batch(1)
            if not taken:
                break
            for key in taken:
                del self._owner[key]
                self.evictions_by_tenant[tenant] += 1
            victims.extend(taken)
        return victims

    def __contains__(self, key) -> bool:
        return key in self._owner

    def __len__(self) -> int:
        return len(self._owner)

    def keys_hot_to_cold(self) -> Iterator:
        """All keys (partition order is per-tenant; used by invariants)."""
        for partition in self._partitions.values():
            yield from partition.keys_hot_to_cold()

    # -- internals ---------------------------------------------------------------------
    def _most_over_share(self) -> Optional[str]:
        """The non-empty tenant with the largest occupancy overage."""
        total = len(self._owner)
        if total == 0:
            return None
        best_tenant, best_overage = None, None
        for tenant, partition in self._partitions.items():
            if len(partition) == 0:
                continue
            overage = len(partition) / total - self.weights[tenant]
            if best_overage is None or overage > best_overage:
                best_tenant, best_overage = tenant, overage
        return best_tenant
