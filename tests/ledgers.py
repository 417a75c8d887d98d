"""Shared test helper: a system's device ledgers as comparable data."""

from __future__ import annotations

from typing import Any, Dict

from repro.systems.server import StorageServer


def ledger_view(storage: StorageServer) -> Dict[str, Any]:
    """Every charge the system made, as comparable plain data."""
    system = storage.system
    return {
        "cpu": dict(system.cpu._cycles),
        "memory": {
            path: (traffic.bytes_read, traffic.bytes_written)
            for path, traffic in system.memory._paths.items()
        },
        "pcie": [
            (device.name, device.bytes_in, device.bytes_out)
            for device in system.pcie.devices()
        ],
        "table_ssd": system.table_array.stats,
        "data_ssd": system.data_array.stats,
        "cache": system.table_cache.stats,
        "reduction": system.engine.stats,
        "tree_searches": system.table_cache.index.searches,
        "tree_updates": system.table_cache.index.updates,
    }
