"""Scatter-gather router: one wire endpoint over N shard backends.

:class:`ShardRouter` speaks the same §6.2 protocol as a single server
but owns no storage itself.  It fingerprints each written chunk inline
(SHA-256 of a 4 KiB chunk is microseconds against a network
round-trip), selects the owning backend with the :func:`shard_for_digest`
range partition, and scatter-gathers the sub-requests over pipelined
connections (:class:`~repro.net.aserver.AsyncProtocolClient`, one per
backend), so a cluster of single-engine servers presents as one block
device:

* **WRITE** partitions the payload's chunks into contiguous same-shard
  runs, ``asyncio.gather``\\ s the sub-writes, then TRIMs any backend an
  overwritten LBA just moved away from — the shard-selection invariant
  of DESIGN.md §5.7 (an LBA's mapping lives only on the shard that owns
  its *current* content's digest) holds across the wire too.
* **READ** resolves each LBA through the router's directory, fans out
  per-backend runs, and reassembles in order.  LBAs never written
  resolve to canonical zero-fill locally, without touching a backend.
* **STATS** gathers every backend's ``repro.stats/v1`` snapshot and
  merges them with :func:`repro.obs.merge_stats_snapshots` (counters
  summed, histograms bucket-merged, ratios recomputed), stamping a
  ``cluster`` key so consumers can tell they scraped a cluster.
* **SNAP** is answered with a typed ``UNSUPPORTED_OP``: a snapshot
  pins one backend's LBA map, and the router's directory has no
  cluster-wide equivalent.

A backend that dies mid-scatter surfaces as a typed
:class:`~repro.errors.ShardError` frame naming the failed shard; the
other backends' ledgers stay conserved (per-chunk atomicity, as with
split writes).  The LBA→shard directory is router memory: like the
single server's in-memory Hash-PBN table it does not survive a router
restart — crash-consistent directory recovery is future work
(ROADMAP).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import obs as _obs
from ..datared.chunking import BLOCK_SIZE
from ..datared.hashing import SHA256
from ..errors import (
    AlignmentError,
    ErrorCode,
    ProtocolError,
    ReproError,
    ShardError,
    encode_error_payload,
)
from ..obs.metrics import MetricsRegistry, get_registry
from .aserver import AsyncProtocolClient
from .protocol import (
    Frame, FrameDecoder, Op, bounded_count, encode_corrupt_reply,
    encode_error_reply, encode_reply,
)

__all__ = ["ShardRouter", "shard_for_digest"]

_READ_CHUNK = 64 * 1024


def shard_for_digest(digest: bytes, num_shards: int) -> int:
    """Map a fingerprint to its owning shard.

    The first 8 digest bytes index a contiguous range partition of the
    64-bit prefix space (``prefix * N >> 64``), so each shard owns one
    consistent slice of fingerprint space and a uniform hash spreads
    chunks evenly.  A pure function of content: identical chunks always
    land on the same backend, so dedup stays global across the cluster.
    """
    if num_shards == 1:
        return 0
    prefix = int.from_bytes(digest[:8], "big")
    return (prefix * num_shards) >> 64


class ShardRouter:
    """Route one protocol endpoint across ``len(backends)`` shard servers.

    Parameters
    ----------
    backends:
        ``(host, port)`` of each shard's protocol server, in shard-index
        order.  Each backend should be a single-shard server; the router
        *is* the sharding layer.
    host, port:
        Bind address of the router's own listening socket (``port=0``
        picks a free port, see :attr:`port` after :meth:`start`).
    chunk_size:
        The cluster chunk size — must match the backends'.
    """

    def __init__(
        self,
        backends: Sequence[Tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        chunk_size: int = 4096,
        registry: Optional[MetricsRegistry] = None,
    ):
        if not backends:
            raise ValueError("need at least one backend")
        if chunk_size % BLOCK_SIZE:
            raise ValueError(
                f"chunk_size must be a multiple of {BLOCK_SIZE}"
            )
        self.backend_addresses = [tuple(address) for address in backends]
        self.num_shards = len(self.backend_addresses)
        self.host = host
        self.port = port
        self.chunk_size = chunk_size
        self.blocks_per_chunk = chunk_size // BLOCK_SIZE
        self.registry = registry if registry is not None else get_registry()
        #: LBA -> shard index of the backend holding its current mapping.
        self._directory: Dict[int, int] = {}
        self._clients: List[AsyncProtocolClient] = []
        self._server: Optional[asyncio.base_events.Server] = None
        self._writers: set = set()
        # One frame mutates at a time (asyncio.Lock wakes waiters FIFO,
        # so frames apply in arrival order); *within* a frame the
        # sub-requests fan out concurrently.  An asyncio.Lock lives in
        # the cooperative domain: it never blocks a thread.
        self._lock = asyncio.Lock()
        self.requests_served = 0
        self.registry.register_collector(self._publish_metrics)

    def _publish_metrics(self, registry: MetricsRegistry) -> None:
        registry.gauge("router.shards").set(self.num_shards)
        registry.gauge("router.requests_served").set(self.requests_served)
        registry.gauge("router.directory_entries").set(len(self._directory))

    # -- lifecycle ---------------------------------------------------------------
    async def start(self) -> "ShardRouter":
        """Connect to every backend, then bind the listening socket."""
        for host, port in self.backend_addresses:
            self._clients.append(
                await AsyncProtocolClient.connect(
                    host, port, registry=self.registry
                )
            )
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            # Close live connections *before* awaiting wait_closed(): on
            # Python >= 3.12.1 it also waits for every connection handler,
            # and one parked in reader.read() would never return.
            for writer in self._writers:
                writer.close()
            await self._server.wait_closed()
            self._server = None
        for client in self._clients:
            await client.close()
        self._clients = []

    async def __aenter__(self) -> "ShardRouter":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    @property
    def address(self) -> tuple:
        return (self.host, self.port)

    # -- connection loop ---------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = FrameDecoder(self.registry)
        self._writers.add(writer)
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                for event in decoder.events(data):
                    if isinstance(event, ProtocolError):
                        response = encode_corrupt_reply(event)
                    else:
                        response = await self._handle(event)
                    writer.write(response)
                    await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle(self, frame: Frame) -> bytes:
        """Dispatch one request frame; failures become typed ERROR frames."""
        self.requests_served += 1
        try:
            if frame.op == Op.WRITE:
                async with self._lock:
                    await self._scatter_write(frame)
                return encode_reply(frame, Op.WRITE_ACK, frame.lba)
            if frame.op == Op.READ:
                async with self._lock:
                    data = await self._scatter_read(
                        frame.lba, bounded_count(frame, self.chunk_size)
                    )
                return encode_reply(frame, Op.READ_ACK, frame.lba, data)
            if frame.op == Op.STATS:
                payload = json.dumps(
                    await self._cluster_stats(),
                    separators=(",", ":"),
                    allow_nan=False,
                ).encode("utf-8")
                return encode_reply(frame, Op.STATS_ACK, 0, payload)
            if frame.op == Op.TRIM:
                async with self._lock:
                    await self._scatter_trim(frame.lba, bounded_count(frame, self.chunk_size))
                return encode_reply(frame, Op.TRIM_ACK, frame.lba)
            if frame.op == Op.SNAP:
                return encode_reply(
                    frame, Op.ERROR, frame.lba,
                    encode_error_payload(
                        ErrorCode.UNSUPPORTED_OP,
                        "SNAP is not routed: snapshot a backend directly",
                    ),
                )
            raise ProtocolError(f"unexpected op {frame.op}")
        except (ReproError, ValueError) as error:
            return encode_error_reply(frame, error)

    # -- scatter paths -----------------------------------------------------------
    def _check_alignment(self, lba: int) -> None:
        if lba % self.blocks_per_chunk:
            raise AlignmentError(
                f"lba {lba} is not aligned to "
                f"{self.blocks_per_chunk}-block chunks"
            )

    async def _scatter_write(self, frame: Frame) -> None:
        payload = frame.payload
        if not payload:
            raise ProtocolError("empty write")
        if len(payload) % self.chunk_size:
            raise AlignmentError(
                f"payload of {len(payload)} bytes is not a multiple of "
                f"the {self.chunk_size}-byte chunk size"
            )
        self._check_alignment(frame.lba)
        # Fingerprint every chunk up front, with the digest the backends
        # dedup by; it decides the owning shard (§5.7: shard_for_digest
        # of the *content*).
        chunk_lbas: List[int] = []
        owners: List[int] = []
        for index in range(len(payload) // self.chunk_size):
            chunk = payload[
                index * self.chunk_size : (index + 1) * self.chunk_size
            ]
            digest = SHA256.digest(chunk)
            chunk_lbas.append(frame.lba + index * self.blocks_per_chunk)
            owners.append(shard_for_digest(digest, self.num_shards))
        # Contiguous same-shard runs keep per-backend frames large.
        runs: List[Tuple[int, int, int]] = []  # (shard, start_idx, end_idx)
        start = 0
        for index in range(1, len(owners) + 1):
            if index == len(owners) or owners[index] != owners[start]:
                runs.append((owners[start], start, index))
                start = index
        results = await asyncio.gather(
            *(
                self._clients[shard].write(
                    chunk_lbas[begin],
                    payload[begin * self.chunk_size : end * self.chunk_size],
                )
                for shard, begin, end in runs
            ),
            return_exceptions=True,
        )
        # Per-run atomicity on failure: runs that acked are applied and
        # stay applied, so record their new owners and retire the stale
        # mappings they moved away from *before* surfacing the error —
        # the directory must keep describing what the backends hold.
        failed: Dict[int, str] = {}
        trims: List[Tuple[int, Any]] = []
        for (shard, begin, end), result in zip(runs, results):
            if isinstance(result, BaseException):
                failed[shard] = str(result)
                continue
            for index in range(begin, end):
                lba = chunk_lbas[index]
                previous = self._directory.get(lba)
                if previous is not None and previous != shard:
                    trims.append(
                        (previous, self._clients[previous].trim(lba, 1))
                    )
                self._directory[lba] = shard
        if trims:
            await self._gather(trims)
        if failed:
            raise ShardError(
                "; ".join(
                    f"shard {shard}: {message}"
                    for shard, message in sorted(failed.items())
                ),
                shard_indexes=tuple(sorted(failed)),
            )

    async def _scatter_read(self, lba: int, num_chunks: int) -> bytes:
        self._check_alignment(lba)
        step = self.blocks_per_chunk
        # None = never written here: canonical zero-fill, no backend hop.
        owners = [
            self._directory.get(chunk_lba)
            for chunk_lba in range(lba, lba + num_chunks * step, step)
        ]
        # One piece per maximal same-owner run: a hole run's zeros, or
        # None until the backend read issued for it replies.
        pieces: List[Optional[bytes]] = []
        reads: List[Tuple[int, Any]] = []
        start = 0
        for index in range(1, num_chunks + 1):
            if index == num_chunks or owners[index] != owners[start]:
                owner = owners[start]
                if owner is None:
                    pieces.append(bytes((index - start) * self.chunk_size))
                else:
                    pieces.append(None)
                    reads.append((
                        owner,
                        self._clients[owner].read(
                            lba + start * step, index - start
                        ),
                    ))
                start = index
        replies = iter(await self._gather(reads))
        filled = [piece if piece is not None else next(replies) for piece in pieces]
        return filled[0] if len(filled) == 1 else b"".join(filled)

    async def _scatter_trim(self, lba: int, num_chunks: int) -> None:
        self._check_alignment(lba)
        trims: List[Tuple[int, Any]] = []
        for index in range(num_chunks):
            chunk_lba = lba + index * self.blocks_per_chunk
            owner = self._directory.pop(chunk_lba, None)
            if owner is not None:
                trims.append((owner, self._clients[owner].trim(chunk_lba, 1)))
        if trims:
            await self._gather(trims)

    async def _cluster_stats(self) -> Dict[str, Any]:
        snapshots = await self._gather(
            [
                (shard, client.stats())
                for shard, client in enumerate(self._clients)
            ],
        )
        merged = _obs.merge_stats_snapshots(
            snapshots + [_obs.snapshot(self.registry)]
        )
        merged["cluster"] = {
            "shards": self.num_shards,
            "backends": [list(address) for address in self.backend_addresses],
        }
        return merged

    async def _gather(self, calls: Sequence[Tuple[int, Any]]) -> List[Any]:
        """Await every ``(shard, coroutine)``; fold failures into one
        :class:`ShardError` naming the shards that failed (the awaits
        all complete first, so healthy backends finish their work and
        stay conserved)."""
        results = await asyncio.gather(
            *(call for _, call in calls), return_exceptions=True
        )
        failed: List[int] = []
        messages: List[str] = []
        for (shard, _), result in zip(calls, results):
            if isinstance(result, BaseException):
                failed.append(shard)
                messages.append(f"shard {shard}: {result}")
        if failed:
            raise ShardError(
                "; ".join(messages), shard_indexes=tuple(sorted(set(failed)))
            )
        return list(results)
