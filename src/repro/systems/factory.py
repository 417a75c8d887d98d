"""The one place a system constructs its dedup engine.

``repro-lint`` rule R009 bans direct ``DedupEngine(...)`` construction
everywhere else in ``repro.net`` and ``repro.systems``: table wiring,
the seal callback, the journal and crash recovery all live here, so a
serving-layer call site cannot quietly build an engine that diverges
from its :class:`~repro.systems.config.SystemConfig`.

The engine's Hash-PBN table sits over the system's
:class:`~repro.cache.table_cache.TableCache` (``table_store``), and its
containers charge the data SSDs through ``on_seal``.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..datared.compression import Compressor
from ..datared.container import Container, ContainerStore
from ..datared.dedup import DedupEngine
from ..datared.hash_pbn import BucketStore, HashPbnTable
from ..datared.journal import MetadataJournal, RecoveryImage, recover_into
from ..obs.metrics import MetricsRegistry
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


def build_engine(
    config: SystemConfig,
    num_buckets: int = 1 << 15,
    table_store: Optional[BucketStore] = None,
    compressor: Optional[Compressor] = None,
    on_seal: Optional[Callable[[Container], None]] = None,
    registry: Optional[MetricsRegistry] = None,
    recover_from: Optional[RecoveryImage] = None,
) -> DedupEngine:
    """Build the engine ``config`` asks for (the R009 factory).

    ``table_store`` backs the Hash-PBN table; ``on_seal`` is the
    system's container-seal charge hook.

    ``config.durability`` arms a group-commit metadata journal on the
    engine.  ``recover_from`` rebuilds the engine from a crash
    :class:`~repro.datared.journal.RecoveryImage` instead of empty: the
    recovered engine carries ``engine.recovery`` (a
    :class:`~repro.datared.journal.RecoveryReport`), and its surviving
    container store is re-wired onto this build's ``on_seal`` hook.
    """
    if compressor is None:
        compressor = config.codec.build_compressor()
    if recover_from is not None:
        containers = recover_from.containers
        # The deep-copied (or resurrected) store still points at the
        # dead process's seal hook; this build's charging model owns
        # seals from here on.
        containers.on_seal = on_seal
    else:
        containers = ContainerStore(on_seal=on_seal)
    engine = DedupEngine(
        table=HashPbnTable(num_buckets, store=table_store),
        compressor=compressor,
        containers=containers,
        chunk_size=config.chunk_size,
        read_cache_chunks=config.read_cache_chunks,
        registry=registry,
        journal=_make_journal(config, registry),
    )
    if recover_from is not None:
        recover_into(engine, recover_from.journal)
    return engine
