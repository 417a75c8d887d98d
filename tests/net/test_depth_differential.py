"""Pipeline depth must not change the store.

The serving tier coalesces whatever is queued into one backend turn, but
a group executes in wire order through the same ``handle_frame`` calls —
so one connection's op sequence leaves the same bytes, the same ledgers
and the same stored size whether it is issued one op at a time or 16
deep.  Twin servers, one seeded sequence, every ledger compared.
"""

import asyncio
import random

import pytest

from repro.datared.compression import ModeledCompressor
from repro.net.aserver import AsyncProtocolClient, AsyncProtocolServer
from repro.systems.config import DurabilityPolicy, SystemConfig
from repro.systems.server import StorageServer, SystemKind

from ..ledgers import ledger_view

CHUNK = 4096
OPS = 300
LBAS = 96  # small enough that overwrites, trims and re-reads collide


def sequence(seed):
    """``(kind, lba, chunks-or-payload)`` for a write / overwrite /
    read / trim mix; a quarter of the written chunks repeat (dedup)."""
    rng = random.Random(seed)
    pool = [rng.randbytes(CHUNK) for _ in range(8)]
    ops = []
    for _ in range(OPS):
        kind = rng.choices(("write", "read", "trim"), (5, 4, 1))[0]
        count = rng.randint(1, 4)
        lba = rng.randrange(LBAS - count)
        if kind == "write":
            ops.append((kind, lba, b"".join(
                rng.choice(pool) if rng.random() < 0.25 else rng.randbytes(CHUNK)
                for _ in range(count)
            )))
        else:
            ops.append((kind, lba, count))
    return ops


def serve_sequence(kind, journal, depth, ops):
    """Run ``ops`` over one connection, ``depth`` at a time; returns
    what the reads returned and every ledger the store keeps."""
    storage = StorageServer.build(
        kind, num_buckets=1024, cache_lines=64,
        compressor=ModeledCompressor(0.5),
        # Small batches: the sequence crosses many batch boundaries.
        config=SystemConfig(
            batch_chunks=8, durability=DurabilityPolicy(journal=journal),
        ),
    )

    async def body():
        async with AsyncProtocolServer(storage) as server:
            async with await AsyncProtocolClient.connect(
                server.host, server.port
            ) as client:
                def issue(op):
                    kind, lba, arg = op
                    return getattr(client, kind)(lba, arg)

                replies = []
                for at in range(0, len(ops), depth):
                    replies += await asyncio.gather(
                        *map(issue, ops[at:at + depth])
                    )
                assert server.metrics.responses_sent == len(ops)
                return replies, server.metrics.storage_turns

    with storage:
        replies, turns = asyncio.run(body())
        report = storage.report()
        return {
            "replies": replies,
            "ledgers": ledger_view(storage),
            "engine_stats": storage.engine_stats,
            "report": (
                report.logical_write_bytes, report.logical_read_bytes,
                report.tree_node_visits, report.engine_tree_updates,
                report.nic_buffer_hit_rate,
            ),
            "stored_bytes": storage.reduction_stats.stored_bytes,
        }, turns


@pytest.mark.parametrize("kind, journal", [
    pytest.param(SystemKind.FIDR, False, id="SystemKind.FIDR-False"),
    pytest.param(SystemKind.BASELINE, False, id="SystemKind.BASELINE-False"),
    pytest.param(SystemKind.FIDR, True, id="SystemKind.FIDR-True"),
])
def test_depth_16_leaves_the_same_store_as_depth_1(kind, journal):
    ops = sequence(seed=20)
    serial, serial_turns = serve_sequence(kind, journal, 1, ops)
    pipelined, pipelined_turns = serve_sequence(kind, journal, 16, ops)
    assert serial_turns == OPS
    assert pipelined_turns < OPS / 4  # the pipelined run really coalesced
    assert any(serial["replies"])  # reads returned data, not just acks
    for key in serial:
        assert serial[key] == pipelined[key], key
