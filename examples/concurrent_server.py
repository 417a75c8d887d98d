#!/usr/bin/env python3
"""Scenario: one FIDR storage server, a fleet of concurrent clients.

The paper's server terminates many client links on its NIC protocol
engine and absorbs them through a bounded NIC buffer (§6.2, §7.6).
This example is that front-end in asyncio:

* an :class:`~repro.net.aserver.AsyncProtocolServer` wrapping a FIDR
  reduction stack, request queue bounded at 32 entries,
* twelve pipelined clients, each writing its own region in one
  ``asyncio.gather`` burst and reading it back in another — ``gather``
  over plain ``write``/``read`` coroutines is the whole driver,
* every read verified byte-exact, and the server's own
  queue/backpressure metrics scraped over the wire.

Run:  python examples/concurrent_server.py
"""

import asyncio
import random

from repro.datared.compression import ModeledCompressor
from repro.net.aserver import AsyncProtocolClient, AsyncProtocolServer
from repro.systems.server import StorageServer, SystemKind

CHUNK = 4096
CLIENTS = 12
OPS_PER_CLIENT = 20
CHUNKS_PER_OP = 2


async def client_session(server, index, pool):
    """Write a private LBA region, read it back, return verified reads."""
    rng = random.Random(2026 + index)
    base = index * OPS_PER_CLIENT * CHUNKS_PER_OP
    # Half the payloads come from a shared pool: dedup fodder.
    region = {
        base + op * CHUNKS_PER_OP: b"".join(
            rng.choice(pool) if rng.random() < 0.5 else rng.randbytes(CHUNK)
            for _ in range(CHUNKS_PER_OP)
        )
        for op in range(OPS_PER_CLIENT)
    }
    async with await AsyncProtocolClient.connect(
        server.host, server.port
    ) as client:
        await asyncio.gather(*(
            client.write(lba, data) for lba, data in region.items()
        ))
        reads = await asyncio.gather(*(
            client.read(lba, CHUNKS_PER_OP) for lba in region
        ))
    assert reads == list(region.values()), f"client {index}: read-back mismatch"
    return len(reads)


async def main() -> None:
    storage = StorageServer.build(
        SystemKind.FIDR,
        num_buckets=4096,
        cache_lines=256,
        compressor=ModeledCompressor(0.5),
    )
    pool = [random.Random(7).randbytes(CHUNK) for _ in range(8)]
    async with AsyncProtocolServer(
        storage, queue_depth=32, workers=4
    ) as server:
        print(f"serving on {server.host}:{server.port} "
              f"(queue_depth=32, workers=4)")
        verified = await asyncio.gather(*(
            client_session(server, index, pool) for index in range(CLIENTS)
        ))
        print(f"{CLIENTS} clients: {sum(verified)} reads verified byte-exact")
        print()
        # One scrape of the STATS op: the same repro.stats/v1 shape the
        # benchmark and `python -m repro.obs top` consume — no
        # side-channel into server internals.
        async with await AsyncProtocolClient.connect(
            server.host, server.port
        ) as observer:
            snapshot = await observer.stats()
        gauges = snapshot["gauges"]
        print(f"server-side view ({snapshot['schema']} over the wire)")
        print(f"  connections      {gauges['server.connections_total']:.0f} "
              f"({gauges['server.connections_open']:.0f} still open)")
        print(f"  responses        {gauges['server.responses_sent']:.0f} "
              f"({gauges['server.bytes_out'] / 1e6:.2f} MB out, "
              f"{gauges['server.bytes_in'] / 1e6:.2f} MB in)")
        print(f"  queue high-water {gauges['server.max_queue_depth']:.0f}/32 "
              "(bounded: readers pause when full)")
        print(f"  coalescing       "
              f"{gauges['server.storage_ops']:.0f} ops in "
              f"{gauges['server.storage_turns']:.0f} storage turns")
    stats = storage.reduction_stats
    print(f"  reduction        {stats.logical_bytes / 1e6:.1f} MB logical "
          f"-> {stats.live_stored_bytes / 1e6:.1f} MB stored "
          f"(dedup+compress through the same serving path)")


if __name__ == "__main__":
    asyncio.run(main())
