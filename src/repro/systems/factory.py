"""The one place a system constructs its dedup engine.

``repro-lint`` rule R009 bans direct ``DedupEngine(...)`` /
``ShardedDedupEngine(...)`` construction everywhere else in
``repro.systems`` and ``repro.net``: shard-count policy, table wiring
and the seal callback's thread-safety all live here, so a serving-layer
call site cannot quietly build an engine whose shard selection diverges
from the configured cluster (DESIGN.md §5.7).

``SystemConfig.shards == 1`` (the default) builds the exact engine the
pre-sharding systems built — the Hash-PBN table over the system's
:class:`~repro.cache.table_cache.TableCache`, containers charging the
data SSDs through ``on_seal`` — so the unsharded path is untouched.
``shards >= 2`` builds a
:class:`~repro.datared.sharded.ShardedDedupEngine` whose shards keep
private in-memory tables: bucket ids from different shards would
collide in the one shared bucket store, and the table-cache/device
charging model is calibrated for the unsharded walk, so sharded mode
trades the device-model fidelity of table caching for the scatter
parallelism (the per-shard byte ledgers stay exact).
"""

from __future__ import annotations

import concurrent.futures
from typing import Callable, List, Optional, Sequence, Union

from ..datared.compression import Compressor
from ..datared.container import Container, ContainerStore
from ..datared.dedup import DedupEngine
from ..datared.hash_pbn import BucketStore, HashPbnTable
from ..datared.journal import (
    MetadataJournal,
    RecoveryImage,
    RecoveryReport,
    recover_into,
)
from ..datared.sharded import ShardedDedupEngine
from ..obs.metrics import MetricsRegistry
from ..parallel import StagePool
from ..sync import DisciplinedLock
from .config import SystemConfig

__all__ = ["build_engine"]


def _make_journal(
    config: SystemConfig, registry: Optional[MetricsRegistry]
) -> Optional[MetadataJournal]:
    """The journal ``config.durability`` arms, or ``None`` when off."""
    if not config.durability.journal:
        return None
    return MetadataJournal(
        checkpoint_every_commits=config.durability.checkpoint_every_commits,
        registry=registry,
    )


def _one_image(
    recover_from: Union[RecoveryImage, Sequence[RecoveryImage]],
) -> RecoveryImage:
    if isinstance(recover_from, RecoveryImage):
        return recover_from
    images = list(recover_from)
    if len(images) != 1:
        raise ValueError(
            f"config.shards == 1 needs one RecoveryImage, got {len(images)}"
        )
    return images[0]


def build_engine(
    config: SystemConfig,
    num_buckets: int = 1 << 15,
    table_store: Optional[BucketStore] = None,
    compressor: Optional[Compressor] = None,
    on_seal: Optional[Callable[[Container], None]] = None,
    pool: Optional[StagePool] = None,
    registry: Optional[MetricsRegistry] = None,
    recover_from: Optional[
        Union[RecoveryImage, Sequence[RecoveryImage]]
    ] = None,
) -> Union[DedupEngine, ShardedDedupEngine]:
    """Build the engine ``config`` asks for (the R009 factory).

    ``table_store`` backs the Hash-PBN table in the unsharded case
    (sharded engines keep per-shard private tables, see the module
    docstring); ``on_seal`` is the system's container-seal charge hook,
    wrapped with a lock for sharded engines because shard threads seal
    concurrently; ``pool`` is the shared hash/compress fan-out pool.

    ``config.durability`` arms a group-commit metadata journal on the
    engine (one per shard when sharded).  ``recover_from`` rebuilds the
    engine from crash images instead of empty: one
    :class:`~repro.datared.journal.RecoveryImage` for ``shards == 1``, a
    sequence of exactly ``shards`` images (index-aligned with the shard
    order they were captured from) otherwise.  Recovered engines carry
    ``engine.recovery`` — a report for plain engines, a per-shard report
    list for sharded ones — and their surviving container stores are
    re-wired onto this build's ``on_seal`` hook.
    """
    if config.shards < 1:
        raise ValueError(f"config.shards must be >= 1, got {config.shards}")
    resolved_compressor = (
        compressor if compressor is not None else config.codec.build_compressor()
    )
    if config.shards == 1:
        containers: Optional[ContainerStore] = None
        image: Optional[RecoveryImage] = None
        if recover_from is not None:
            image = _one_image(recover_from)
            containers = image.containers
            # The deep-copied (or resurrected) store still points at the
            # dead process's seal hook; this build's charging model owns
            # seals from here on.
            containers.on_seal = on_seal
        else:
            containers = ContainerStore(on_seal=on_seal)
        engine = DedupEngine(
            table=HashPbnTable(num_buckets, store=table_store),
            compressor=resolved_compressor,
            containers=containers,
            chunk_size=config.chunk_size,
            pool=pool,
            read_cache_chunks=config.read_cache_chunks,
            registry=registry,
            journal=_make_journal(config, registry),
        )
        if image is not None:
            with engine.lock:  # lock: dedup-engine
                recover_into(engine, image.journal)
        return engine

    seal_hook = on_seal
    if on_seal is not None:
        # Shard threads seal containers concurrently; the system's
        # ledger charges assume one mutator at a time, so serialize
        # the callback (ledger sums are order-independent).  Rank 30 in
        # repro.sync.LOCK_ORDER: the seal fires while the sealing
        # shard's dedup-engine lock (20) is held, so it must rank above
        # every engine lock — runtime lockdep observes exactly that
        # dedup-engine -> shard-seal edge under the stress harness.
        seal_lock = DisciplinedLock("shard-seal")
        captured = on_seal

        def locked_seal(container: Container) -> None:
            with seal_lock:
                captured(container)

        seal_hook = locked_seal

    shard_images: Optional[List[RecoveryImage]] = None
    if recover_from is not None:
        if isinstance(recover_from, RecoveryImage):
            raise ValueError(
                f"config.shards == {config.shards} needs a sequence of "
                f"{config.shards} RecoveryImages, got a single image"
            )
        shard_images = list(recover_from)
        if len(shard_images) != config.shards:
            raise ValueError(
                f"config.shards == {config.shards} needs "
                f"{config.shards} RecoveryImages, got {len(shard_images)}"
            )

    def shard_factory(index: int) -> DedupEngine:
        shard_registry = MetricsRegistry()
        if shard_images is not None:
            shard_containers = shard_images[index].containers
            shard_containers.on_seal = seal_hook
        else:
            shard_containers = ContainerStore(on_seal=seal_hook)
        return DedupEngine(
            table=HashPbnTable(num_buckets),
            compressor=resolved_compressor,
            containers=shard_containers,
            chunk_size=config.chunk_size,
            pool=pool,
            read_cache_chunks=config.read_cache_chunks,
            registry=shard_registry,
            journal=_make_journal(config, shard_registry),
        )

    engine = ShardedDedupEngine(
        config.shards,
        chunk_size=config.chunk_size,
        pool=pool,
        registry=registry,
        shard_factory=shard_factory,
    )
    if shard_images is not None:
        _recover_shards(engine, shard_images)
    return engine


def _recover_shards(
    engine: ShardedDedupEngine, images: Sequence[RecoveryImage]
) -> None:
    """Shard-parallel crash recovery for a freshly built cluster.

    Each shard replays its own image concurrently (recovery is the one
    place shard work needs no router coordination — the images are
    independent logs), then the router's LBA directory is rebuilt from
    the recovered per-shard LBA maps: content routing guarantees an LBA
    lives in at most one shard, which
    :func:`repro.analysis.invariants.check_sharded_engine` re-verifies
    after every recovery in the crash harness.
    """

    def recover_one(index: int) -> RecoveryReport:
        shard = engine.shards[index]
        with shard.lock:  # lock: dedup-engine
            return recover_into(shard, images[index].journal)

    with engine.lock:  # lock: sharded-router
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=len(images), thread_name_prefix="shard-recover"
        ) as pool:
            reports = list(pool.map(recover_one, range(len(images))))

        # Cross-shard operations (a rewrite that moves an LBA between
        # shards, a snapshot fan-out) span several per-shard logs, so a
        # crash can fence them on some shards and tear them on others.
        # Neither outcome was ever acknowledged to a client — the batch
        # was still in flight — so recovery is free to resolve each
        # conflict to either side, as long as the cluster ends up
        # consistent (check_sharded_engine's laws).
        #
        # An LBA mapped on two shards means the new mapping's fence
        # landed but the old shard's trim was torn away: prefer a shard
        # that recovered clean (its log holds the committed rewrite) and
        # trim the stale mapping from the others.
        owners: dict = {}
        for index, shard in enumerate(engine.shards):
            with shard.lock:  # lock: dedup-engine
                for lba, _pbn in shard.lba_map.items():
                    owners.setdefault(lba, []).append(index)
        conflicts = 0
        engine._lba_shard.clear()
        for lba, indexes in sorted(owners.items()):
            keep = indexes[0]
            if len(indexes) > 1:
                conflicts += 1
                keep = next(
                    (i for i in indexes if reports[i].clean), indexes[0]
                )
                for index in indexes:
                    if index != keep:
                        engine.shards[index].trim(lba)
            engine._lba_shard[lba] = keep

        # A snapshot name missing from any shard's durable prefix was an
        # in-flight create (or a half-finished delete); converge by
        # completing the delete everywhere — the uniform direction for
        # both cases.
        name_sets = [set(shard.snapshots()) for shard in engine.shards]
        universal = set.intersection(*name_sets) if name_sets else set()
        dropped = 0
        for index, shard in enumerate(engine.shards):
            for name in sorted(name_sets[index] - universal):
                shard.delete_snapshot(name)
                dropped += 1

        engine.recovery = reports
        engine.recovery_lba_conflicts = conflicts
        engine.recovery_snapshots_dropped = dropped
