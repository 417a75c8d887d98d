#!/usr/bin/env python3
"""Scenario: a durable storage server surviving a metadata crash.

Combines three pieces a downstream adopter would compose:

* the §6.2 storage protocol (clients speak framed write/read requests),
* the FIDR reduction stack behind it, built with a
  :class:`~repro.systems.config.DurabilityPolicy` that arms the
  group-commit metadata journal and periodic checkpoints,
* crash recovery through the factory — after a "crash" that destroys
  every in-memory table, ``build_engine(cfg, recover_from=...)`` rebuilds
  the engine from the surviving containers + journal and clients keep
  reading their data, including a pre-crash CoW snapshot.

Run:  python examples/durable_protocol_server.py
"""

import asyncio
import copy
import random

from repro.datared.journal import RecoveryImage
from repro.net import AsyncProtocolClient, AsyncProtocolServer
from repro.systems import FidrSystem
from repro.systems.config import DurabilityPolicy, SystemConfig
from repro.systems.factory import build_engine
from repro.systems.server import StorageServer

CHUNK = 4096

#: One config drives both lives of the server: the journaled first run
#: and the post-crash rebuild (recovery through the factory guarantees
#: the recovered engine gets identical codec/index/journal wiring).
CONFIG = SystemConfig(
    durability=DurabilityPolicy(journal=True, checkpoint_every_commits=8),
)


async def first_life(storage, rng, pool, dataset, crash_state):
    """Serve the journaled stack over TCP; returns the snapshot's frozen
    view, the state acknowledged before the torn fence, and the batch
    that fence covers."""
    # What a crash leaves behind: the journal's ``on_durable`` hook
    # fires at every group-commit fence, *before* the commit's
    # deferred container frees apply — so image + containers here
    # are byte-for-byte the surviving disk state at that instant.
    engine = storage.system.engine
    journal = engine.journal

    def capture(image: bytes, stable: int) -> None:
        crash_state["image"] = image
        crash_state["containers"] = copy.deepcopy(engine.containers)

    journal.on_durable = capture

    async with AsyncProtocolServer(storage) as server:
        async with await AsyncProtocolClient.connect(
            server.host, server.port
        ) as client:
            for _ in range(300):
                lba = rng.randrange(600)
                data = pool[rng.randrange(len(pool))] if rng.random() < 0.6 else (
                    rng.randbytes(CHUNK)
                )
                await client.write(lba, data)
                dataset[lba] = data

            # Pin the current state: an O(1) copy-on-write snapshot,
            # taken over the wire (the SNAP op).
            pinned = await client.create_snapshot("pre-update")
            frozen = dict(dataset)

            # Keep writing after the snapshot; the pinned view must not
            # move.
            for _ in range(200):
                lba = rng.randrange(600)
                data = rng.randbytes(CHUNK)
                await client.write(lba, data)
                dataset[lba] = data
            # Group-commit fence: everything so far is durable.  The
            # server calls the stack from this same loop thread and every
            # request was awaited, so the stack may be driven from here.
            storage.flush()
            acked = dict(dataset)

            # One more batch, whose fence the "crash" below will tear:
            # these writes are in flight — a client was never
            # acknowledged — so recovery may keep or discard them, but
            # only as a whole batch.
            tail = {}
            for _ in range(12):
                lba = rng.randrange(600)
                data = rng.randbytes(CHUNK)
                await client.write(lba, data)
                dataset[lba] = data
                tail[lba] = data
            storage.flush()

        print(f"served {server.endpoint.requests_served} requests; journal "
              f"holds {journal.records_written:,} records in "
              f"{journal.commits} commits / {journal.checkpoints} "
              f"checkpoints ({journal.size_bytes / 1024:.1f} KiB); "
              f"snapshot pinned {pinned} chunks")
    return frozen, acked, tail


def main() -> None:
    rng = random.Random(11)
    dataset = {}
    crash_state = {}
    pool = [rng.randbytes(CHUNK) for _ in range(24)]

    # First life: a journaled FIDR server behind the wire protocol.
    # ``with`` is the lifecycle API — close() drains staged writes and
    # fences the final group commit even on an exception path.
    with StorageServer(
        FidrSystem(config=CONFIG, num_buckets=4096, cache_lines=256)
    ) as storage:
        frozen, acked, tail = asyncio.run(
            first_life(storage, rng, pool, dataset, crash_state)
        )

    # --- crash: every in-memory table evaporates; what survives is the
    # hook-captured durable journal image and the container payloads ---
    image = crash_state["image"]
    torn = image[: len(image) - 11]  # the tail fence was mid-write
    recovered = build_engine(
        CONFIG,
        num_buckets=4096,
        recover_from=RecoveryImage(
            journal=torn, containers=crash_state["containers"]
        ),
    )
    report = recovered.recovery
    print(f"recovery from a torn journal: clean={report.clean}, "
          f"replayed {report.records_replayed} records from "
          f"checkpoint={report.from_checkpoint}, reclaimed "
          f"{report.orphans_reclaimed} orphaned placements "
          f"(unacked tail discarded, as designed)")

    with recovered:
        verified = rolled_back = 0
        for lba, data in dataset.items():
            got = recovered.read(lba, 1).data
            if lba not in tail:
                # Acknowledged before the torn fence: must be byte-exact.
                assert got == data, f"corruption at acknowledged LBA {lba}"
                verified += 1
                continue
            # In the torn batch: whole-batch semantics — either the new
            # value (the fence survived) or the pre-batch acknowledged
            # state (rolled back), never a byte mash of the two.
            old = acked.get(lba, bytes(CHUNK))  # unwritten reads as zeros
            assert got in (data, old), f"mangled in-flight LBA {lba}"
            if got != data:
                rolled_back += 1
        snap_ok = sum(
            1 for lba, data in frozen.items()
            if recovered.read_snapshot("pre-update", lba).data == data
        )
        print(f"verified {verified} acknowledged LBAs byte-exact after "
              f"recovery ({rolled_back}/{len(tail)} in-flight writes "
              f"rolled back whole); snapshot 'pre-update' still serves "
              f"{snap_ok} pinned chunks; dedup identity intact: rewriting "
              f"old content deduplicates -> "
              f"{recovered.write(4096, pool[0]).chunks[0].duplicate}")


if __name__ == "__main__":
    main()
