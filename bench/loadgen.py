"""The load generator: four closed-loop workloads over the real wire.

One process, at most two TCP connections, driving a server subprocess
through ``repro.net.aserver.AsyncProtocolClient``.  Every read is checked
against a blake2b digest of what was written to that LBA; a typed error,
a timeout or a digest mismatch is a failed op.

Op shapes (why the numbers are what they are is in ``README.md``):

* bulk ops are 64 chunks = 256 KiB = exactly one ``batch_chunks`` batch
  and one ``write_split_chunks`` piece, issued at depth 1;
* fine-grain ops are one 4-KiB chunk, pipelined 16 deep per connection
  (bursts of 16, never ping-pong).

Each timed phase is a fixed op count cut into fixed-size windows; the
window counts scale with ``--seconds`` (deterministically, so byte and
chunk counts repeat exactly for a given seed), the window sizes never.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

import measure
import spans as span_math
from lifecycle import ServerProcess

from repro.errors import ReproError
from repro.net.aserver import AsyncProtocolClient
from repro.workloads.content import ContentFactory

CHUNK = 4096
OP_CHUNKS = 64
OP_BYTES = OP_CHUNKS * CHUNK
PIPELINE_DEPTH = 16
POOL_CHUNKS = 1024
HOT_CHUNKS = 512
#: A reply later than this is a failed op, and ends the run: the server
#: is wedged and every later op would wait as long.
OP_TIMEOUT_S = 30.0
#: ``--seconds`` at which the window counts below apply unscaled.
REFERENCE_SECONDS = 20
#: Server set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Fine-grain ops per direction between two calibration slices: one
#: ``batch_chunks`` batch of writes, as four bursts of 16.
ROUND_OPS = 64

_OBS_SPANS = {
    "queue_wait_ns": "server.queue.wait.ns",
    "dispatch_ns": "server.dispatch.ns",
    "reply_ns": "server.reply.ns",
}


@dataclass(frozen=True)
class Workload:
    """Shape of one workload; why each exists is in ``BENCHMARK.json``
    and ``README.md``."""

    name: str
    server_args: Tuple[str, ...] = ()
    #: 64-chunk extents written before the clock starts.
    preload_ops: int = 32
    write_windows: int = 0
    write_ops: int = 64  #: ops per write window
    read_windows: int = 0
    read_ops: int = 256  #: ops per read window
    #: Share of written chunks drawn from the 512-chunk hot pool.
    hot_fraction: float = 0.0
    #: Writes overwrite the preloaded region instead of fresh LBAs.
    overwrite: bool = False
    #: 4-KiB ops, 16 deep, writer and reader on a connection each
    #: (``write_ops`` must be a multiple of ``ROUND_OPS``).
    fine_grain: bool = False


WORKLOADS: Tuple[Workload, ...] = (
    # Window sizes are ~1 s of writes at today's speed; the counts are
    # what fits a ~25 s run (the driver makes 92 runs in 57 minutes).
    Workload(  # compression-bound; index larger than the table cache
        name="ingest-unique",
        write_windows=12, read_windows=8,
    ),
    Workload(  # compression idle; index hit path, bookkeeping and wire
        name="ingest-dedup",
        write_windows=9, write_ops=192, read_windows=7, hot_fraction=0.9,
    ),
    Workload(  # per-op protocol and serving cost; 1536 = 24 rounds
        name="fine-grain-mixed",
        write_windows=16, write_ops=1536, fine_grain=True,
    ),
    Workload(  # the only run of journal fences and the release path
        name="durable-overwrite",
        server_args=("--journal", "--checkpoint-every", "32"),
        preload_ops=64, write_windows=10, read_windows=6, overwrite=True,
    ),
)


def scaled(workload: Workload, seconds: float, divisor: int = 1,
           smoke: bool = False) -> Workload:
    """``workload`` with window *counts* fitted to ``seconds``."""
    def fit(windows: int) -> int:
        if smoke:
            return min(1, windows)
        if not windows:
            return 0
        return max(1, round(windows * seconds / REFERENCE_SECONDS) // divisor)

    return replace(
        workload,
        write_windows=fit(workload.write_windows),
        read_windows=fit(workload.read_windows),
    )


# -- inputs ------------------------------------------------------------------
class Content:
    """Seeded chunk content: a 1024-chunk 50%-compressible pool, made
    unique by an 8-byte counter stamp or drawn unstamped (duplicate) from
    the pool's first 512 chunks."""

    def __init__(self, seed: int):
        factory = ContentFactory(compress_fraction=0.5, seed=seed)
        self.pool = [factory.chunk(index) for index in range(POOL_CHUNKS)]
        self.rng = random.Random(seed)
        self._stamp = 0
        self._deck: List[bool] = []

    def unique_chunk(self) -> bytes:
        stamp = self._stamp
        self._stamp += 1
        return stamp.to_bytes(8, "big") + self.pool[stamp % POOL_CHUNKS][8:]

    def _is_hot(self, hot_fraction: float) -> bool:
        """Seeded *position* of the hot chunks, exact *share*: every ten
        chunks hold ``10 * hot_fraction`` hot ones, so the unique-chunk
        count — and with it the stored bytes — does not vary with the
        seed by a binomial draw."""
        if not self._deck:
            hot = round(10 * hot_fraction)
            self._deck = [True] * hot + [False] * (10 - hot)
            self.rng.shuffle(self._deck)
        return self._deck.pop()

    def extent(self, hot_fraction: float = 0.0) -> bytes:
        """One 64-chunk bulk payload."""
        rng, pool = self.rng, self.pool
        return b"".join(
            pool[rng.randrange(HOT_CHUNKS)]
            if hot_fraction and self._is_hot(hot_fraction)
            else self.unique_chunk()
            for _ in range(OP_CHUNKS)
        )


def digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


class Verifier:
    """What every LBA must read back as, at the granularity it is read."""

    def __init__(self) -> None:
        self._expected: Dict[int, bytes] = {}

    def record(self, lba: int, payload: bytes, unit_chunks: int) -> None:
        step = unit_chunks * CHUNK
        for offset in range(0, len(payload), step):
            self._expected[lba + offset // CHUNK] = digest(
                payload[offset:offset + step]
            )

    def matches(self, lba: int, data: Optional[bytes]) -> bool:
        return data is not None and self._expected.get(lba) == digest(data)


# -- results -----------------------------------------------------------------
class RunAborted(RuntimeError):
    """An op timed out; the run cannot produce comparable numbers."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reads: int = 0
    reads_verified: int = 0


@dataclass
class Phase:
    """One timed phase of one direction, already cut into windows."""

    window_mb: List[float] = field(default_factory=list)
    window_s: List[float] = field(default_factory=list)
    #: ``measure.host_factor`` of the slices run inside each window.
    window_host: List[float] = field(default_factory=list)
    #: Raw server CPU-ms per MB moved in each window (write phases only).
    window_cpu_ms_per_mb: List[float] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    #: Where the phase sits on ``perf_counter_ns``, the clock a traced
    #: server stamps its spans with.
    t0_ns: int = 0
    t1_ns: int = 0

    @property
    def window_mb_s(self) -> List[float]:
        """Raw MB/s of each window, as the wall clock saw it."""
        return measure.rates(self.window_mb, self.window_s)

    @property
    def calibrated_mb_s(self) -> List[float]:
        """MB/s of each window on the reference host."""
        return [rate * host for rate, host
                in zip(self.window_mb_s, self.window_host)]

    @property
    def calibrated_cpu_ms_per_mb(self) -> List[float]:
        return [cpu / host for cpu, host
                in zip(self.window_cpu_ms_per_mb, self.window_host)]

    @property
    def mb(self) -> float:
        return sum(self.window_mb)

    @property
    def seconds(self) -> float:
        """Client-observed busy time: op latencies, or round times."""
        return sum(self.window_s)

    @property
    def pooled_mb_s(self) -> float:
        return self.mb / self.seconds if self.seconds else 0.0

    @property
    def host_factor(self) -> float:
        return statistics.fmean(self.window_host) if self.window_host else 1.0


@dataclass
class PassResult:
    setup_s: List[float]
    write: Phase
    read: Phase
    peak_rss_mb: float
    stats: Dict[str, Any]
    user_bytes: int
    segments: List[Dict[str, Any]]
    trace_dump: Optional[str]


# -- the driver --------------------------------------------------------------
class Driver:
    """One pass of one workload: set-up(s), the timed phases, tear-down.
    Single use — a second pass takes a new driver with the same seed, so
    both passes send identical inputs."""

    def __init__(self, workload: Workload, seed: int, tally: Tally):
        self.workload = workload
        self.tally = tally
        self.content = Content(seed)
        self.order = random.Random(seed ^ 0x0BDE)
        self.verifier = Verifier()
        self.server: Optional[ServerProcess] = None
        self.clients: List[AsyncProtocolClient] = []
        # The same preload goes to every server this driver sets up.
        self.preload = [
            (index * OP_CHUNKS, self.content.extent(workload.hot_fraction))
            for index in range(workload.preload_ops)
        ]
        for lba, payload in self.preload:
            self.verifier.record(
                lba, payload, 1 if workload.fine_grain else OP_CHUNKS
            )
        self.written: List[int] = []  #: fresh extents the write phase filled
        #: (first LBA, payloads) of the fine-grain writes, for the read-back.
        self._fine_grain_written: Tuple[int, List[bytes]] = (0, [])
        self.user_bytes = 0

    # -- ops -----------------------------------------------------------------
    async def call(self, operation: Awaitable[Any]) -> Any:
        """Await one client op; a typed error fails the op, a timeout
        fails it and aborts the run.  Returns ``None`` on failure."""
        self.tally.attempted += 1
        try:
            return await asyncio.wait_for(operation, OP_TIMEOUT_S)
        except asyncio.TimeoutError:
            self.tally.failed += 1
            raise RunAborted(f"no reply within {OP_TIMEOUT_S:.0f} s") from None
        except ReproError:
            self.tally.failed += 1
            return None

    def check(self, lba: int, data: Optional[bytes]) -> None:
        """Count one read; a reply that differs from what was written
        is a failed op (a typed error was already counted by ``call``)."""
        self.tally.reads += 1
        if self.verifier.matches(lba, data):
            self.tally.reads_verified += 1
        elif data is not None:
            self.tally.failed += 1

    # -- set-up --------------------------------------------------------------
    async def set_up(self, traced: bool) -> float:
        """Spawn -> listening -> connections open -> preload acked, in
        reference-host seconds (slices run between the preload ops)."""
        slices: List[float] = []
        start = time.perf_counter()
        self.server = ServerProcess(self.workload.server_args, traced).start()
        for _ in range(2 if self.workload.fine_grain else 1):
            self.clients.append(await AsyncProtocolClient.connect(
                self.server.host, self.server.port
            ))
        for lba, payload in self.preload:
            slices.append(measure.calibration_slice())
            await self.call(self.clients[0].write(lba, payload))
        elapsed = time.perf_counter() - start
        self.user_bytes = len(self.preload) * OP_BYTES
        return (elapsed - sum(slices)) / measure.host_factor(slices)

    async def tear_down(self) -> Optional[str]:
        """Stop the server (first, and without awaiting, so it happens
        even while this task is being cancelled), then drop the clients."""
        server, self.server = self.server, None
        clients, self.clients = self.clients, []
        try:
            return server.stop() if server is not None else None
        finally:
            for client in clients:
                await client.close()

    # -- depth-1 phases --------------------------------------------------------
    async def depth1_phase(
        self, windows: int, per_window: int,
        next_op: Callable[[], Tuple[int, Optional[bytes]]],
    ) -> Phase:
        """``windows * per_window`` bulk ops, one in flight.  ``next_op``
        yields ``(lba, payload)`` for a write, ``(lba, None)`` for a read;
        building it is generator time and, like the calibration slice
        before each op, stays outside the latency."""
        client, server = self.clients[0], self.server
        latencies: List[float] = []
        slices: List[float] = []
        cpu_edges = [server.cpu_ms()]
        t0_ns = time.perf_counter_ns()
        for index in range(windows * per_window):
            lba, payload = next_op()
            slices.append(measure.calibration_slice())
            start = time.perf_counter()
            if payload is None:
                data = await self.call(client.read(lba, OP_CHUNKS))
            else:
                await self.call(client.write(lba, payload))
            latencies.append(time.perf_counter() - start)
            if payload is None:
                self.check(lba, data)
            else:
                self.verifier.record(lba, payload, OP_CHUNKS)
            if (index + 1) % per_window == 0:
                cpu_edges.append(server.cpu_ms())
        self.user_bytes += len(latencies) * OP_BYTES
        window_mb = [per_window * OP_BYTES / measure.MB] * windows
        return Phase(
            window_mb=window_mb,
            window_s=measure.window_sums(latencies, per_window),
            window_host=measure.window_host_factors(slices, per_window),
            window_cpu_ms_per_mb=measure.rates(_deltas(cpu_edges), window_mb),
            latencies_ms=[latency * 1e3 for latency in latencies],
            t0_ns=t0_ns, t1_ns=time.perf_counter_ns(),
        )

    def write_ops(self) -> Callable[[], Tuple[int, bytes]]:
        workload = self.workload
        fresh = iter(range(workload.preload_ops * OP_CHUNKS, 1 << 40, OP_CHUNKS))
        region: List[int] = []

        def next_op() -> Tuple[int, bytes]:
            if workload.overwrite:
                if not region:  # one seeded pass over the region per refill
                    region.extend(lba for lba, _ in self.preload)
                    self.order.shuffle(region)
                lba = region.pop()
            else:
                lba = next(fresh)
                self.written.append(lba)
            return lba, self.content.extent(workload.hot_fraction)

        return next_op

    def read_ops(self) -> Callable[[], Tuple[int, None]]:
        extents = self.written or [lba for lba, _ in self.preload]
        todo: List[int] = []

        def next_op() -> Tuple[int, None]:
            if not todo:  # everything once in seeded order, then again
                todo.extend(extents)
                self.order.shuffle(todo)
            return todo.pop(), None

        return next_op

    # -- pipelined phase -------------------------------------------------------
    async def fine_grain_phase(
        self, windows: int, per_window: int
    ) -> Tuple[Phase, Phase]:
        """``windows * per_window`` unique 4-KiB writes to fresh LBAs on
        connection A beside as many random 4-KiB reads of the preloaded
        region on connection B, each connection 16 deep.

        The work is cut into *rounds* of 64 writes (one backend batch) and
        64 reads, each connection issuing its 64 as four bursts of 16; a
        round is to this phase what one bulk op is to a depth-1 phase —
        the calibration slice runs before it, on an idle host, and its
        duration is the timed quantity.  (A free-running sliding window
        of 16 settles into a different frame-coalescing regime from run
        to run, and slices taken beside it measure contention with the
        server as much as the host: 7-11 % spread between runs.)
        Payloads and targets are built before the clock starts.
        """
        writer, reader = self.clients
        server = self.server
        total = windows * per_window
        base = self.workload.preload_ops * OP_CHUNKS
        payloads = [self.content.unique_chunk() for _ in range(total)]
        targets = [self.order.randrange(base) for _ in range(total)]
        write_lat: List[float] = []
        read_lat: List[float] = []

        async def write_one(index: int) -> None:
            start = time.perf_counter()
            await self.call(writer.write(base + index, payloads[index]))
            write_lat.append(time.perf_counter() - start)

        async def read_one(index: int) -> None:
            start = time.perf_counter()
            data = await self.call(reader.read(targets[index], 1))
            read_lat.append(time.perf_counter() - start)
            self.check(targets[index], data)

        async def bursts(one: Callable[[int], Awaitable[None]], first: int) -> None:
            for at in range(first, first + ROUND_OPS, PIPELINE_DEPTH):
                await asyncio.gather(*(
                    one(index) for index in range(at, at + PIPELINE_DEPTH)
                ))

        round_s: List[float] = []
        slices: List[float] = []
        cpu_edges = [server.cpu_ms()]
        t0_ns = time.perf_counter_ns()
        for first in range(0, total, ROUND_OPS):
            slices.append(measure.calibration_slice())
            start = time.perf_counter()
            await asyncio.gather(bursts(write_one, first), bursts(read_one, first))
            round_s.append(time.perf_counter() - start)
            if (first + ROUND_OPS) % per_window == 0:
                cpu_edges.append(server.cpu_ms())
        t1_ns = time.perf_counter_ns()

        self.user_bytes += 2 * total * CHUNK
        rounds = per_window // ROUND_OPS
        window_mb = [per_window * CHUNK / measure.MB] * windows
        shared = dict(
            window_mb=window_mb,
            window_s=measure.window_sums(round_s, rounds),
            window_host=measure.window_host_factors(slices, rounds),
            t0_ns=t0_ns, t1_ns=t1_ns,
        )
        write = Phase(
            # Both directions share the server, so CPU is per MB moved
            # either way.
            window_cpu_ms_per_mb=measure.rates(
                _deltas(cpu_edges), [2 * mb for mb in window_mb]),
            latencies_ms=[latency * 1e3 for latency in write_lat], **shared,
        )
        read = Phase(
            latencies_ms=[latency * 1e3 for latency in read_lat], **shared,
        )
        self._fine_grain_written = (base, payloads)
        return write, read

    async def read_back_fine_grain(self) -> None:
        """Verify connection A's chunks in bulk reads, off the clock."""
        base, payloads = self._fine_grain_written
        for index in range(0, len(payloads), OP_CHUNKS):
            expected = b"".join(payloads[index:index + OP_CHUNKS])
            self.verifier.record(base + index, expected, OP_CHUNKS)
            data = await self.call(
                self.clients[0].read(base + index, len(expected) // CHUNK)
            )
            self.check(base + index, data)
            self.user_bytes += len(expected)

    # -- one pass --------------------------------------------------------------
    async def obs_sums(self) -> Dict[str, int]:
        """Totals of the server's own serving spans, through STATS."""
        stats = await self.call(self.clients[0].stats()) or {}
        histograms = stats.get("histograms", {})
        return {
            key: histograms.get(name, {}).get("sum", 0)
            for key, name in _OBS_SPANS.items()
        }

    async def observed(self, traced: bool, body: Awaitable[Any]) -> Tuple[Any, Dict[str, int]]:
        """Await one timed phase; on a traced pass also return what the
        server's own serving spans added up to meanwhile."""
        before = await self.obs_sums() if traced else {}
        result = await body
        after = await self.obs_sums() if traced else {}
        return result, {key: after[key] - before[key] for key in after}

    async def run_pass(self, traced: bool = False, setups: int = 1) -> PassResult:
        workload = self.workload
        segments: List[Dict[str, Any]] = []
        setup_s: List[float] = []
        try:
            for attempt in range(setups):
                if attempt:
                    await self.tear_down()
                setup_s.append(await self.set_up(traced))
            if workload.fine_grain:
                (write, read), obs = await self.observed(
                    traced, self.fine_grain_phase(
                        workload.write_windows, workload.write_ops))
                segments.append(_segment(obs, write=write, read=read))
                await self.read_back_fine_grain()
            else:
                write, obs = await self.observed(
                    traced, self.depth1_phase(
                        workload.write_windows, workload.write_ops,
                        self.write_ops()))
                segments.append(_segment(obs, write=write))
                read, obs = await self.observed(
                    traced, self.depth1_phase(
                        workload.read_windows, workload.read_ops,
                        self.read_ops()))
                segments.append(_segment(obs, read=read))
            stats = await self.call(self.clients[0].stats()) or {}
            peak_rss_mb = self.server.peak_rss_mb()
        finally:
            trace_dump = await self.tear_down()
        return PassResult(
            setup_s=setup_s, write=write, read=read, peak_rss_mb=peak_rss_mb,
            stats=stats, user_bytes=self.user_bytes,
            segments=segments, trace_dump=trace_dump,
        )


def _segment(obs: Dict[str, int], **phases: Phase) -> Dict[str, Any]:
    """One timed phase as ``spans.layer_budget`` wants it: a depth-1
    phase of one direction (``write=`` or ``read=``), or both directions
    of a pipelined phase."""
    first = next(iter(phases.values()))
    return {
        "t0": first.t0_ns, "t1": first.t1_ns, "obs": obs,
        "pipelined": len(phases) == 2,
        "host_factor": first.host_factor,
        "busy_ns": round(first.seconds * 1e9),
        "chunks": {kind: round(phase.mb * measure.MB / CHUNK)
                   for kind, phase in phases.items()},
    }


def _deltas(edges: List[float]) -> List[float]:
    return [after - before for before, after in zip(edges, edges[1:])]


# -- metrics -----------------------------------------------------------------
Metrics = Dict[str, Tuple[float, str]]


def end_to_end(result: PassResult) -> Metrics:
    """The six end-to-end metrics, from an untraced pass.  Times are
    reference-host times: the midmean of the host-calibrated windows."""
    gauges = result.stats.get("gauges", {})
    return {
        "setup_s": (statistics.median(result.setup_s), "s"),
        "write_mb_s": (measure.midmean(result.write.calibrated_mb_s), "MB/s"),
        "read_mb_s": (measure.midmean(result.read.calibrated_mb_s), "MB/s"),
        "server_cpu_ms_per_mb": (
            measure.midmean(result.write.calibrated_cpu_ms_per_mb), "ms/MB"),
        "server_peak_rss_mb": (result.peak_rss_mb, "MB"),
        "stored_bytes_per_user_byte": (
            gauges["engine.stored_bytes"] / gauges["engine.logical_bytes"],
            "ratio",
        ),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(untraced: PassResult, traced: PassResult, tally: Tally) -> Metrics:
    """The per-layer metrics: the traced pass's span budget and server
    counts, the untraced pass's client-side diagnostics."""
    dump = json.loads(traced.trace_dump) if traced.trace_dump else {
        "names": [], "spans": [], "counts": {}}
    budget = span_math.layer_budget(dump["names"], dump["spans"], traced.segments)
    metrics: Metrics = {
        name: (value, "count" if name.endswith(".calls") else
               "ratio" if name.endswith("_ratio") else "us")
        for name, value in budget.items()
    }

    gauges = traced.stats.get("gauges", {})
    counters = traced.stats.get("counters", {})
    counts = dump["counts"]
    chunks_written = gauges.get("engine.logical_bytes", 0) / CHUNK
    uniques = gauges.get("engine.unique_chunks", 0)
    wasted = gauges.get("engine.plan.wasted_compressions", 0)
    filter_hits = gauges.get("index.filter.hits", 0)
    wire = gauges.get("server.bytes_in", 0) + gauges.get("server.bytes_out", 0)

    def count(name: str, value: float) -> None:
        metrics[name] = (value, "count")

    def ratio(name: str, value: float) -> None:
        metrics[name] = (value, "ratio")

    count("net.aserver.max_queue_depth", gauges.get("server.max_queue_depth", 0))
    count("net.aserver.writes_split", gauges.get("server.writes_split", 0))
    ratio("net.protocol.wire_bytes_per_user_byte", _ratio(wire, traced.user_bytes))
    count("datared.dedup.unique_chunks", uniques)
    count("datared.dedup.duplicate_chunks", gauges.get("engine.duplicate_chunks", 0))
    ratio("datared.dedup.wasted_compression_ratio", _ratio(wasted, uniques + wasted))
    ratio("datared.hash_pbn.probes_per_chunk",
          _ratio(gauges.get("index.probes", 0), chunks_written))
    ratio("datared.hash_pbn.filter_hit_ratio", _ratio(
        filter_hits, filter_hits + gauges.get("index.filter.misses", 0)))
    count("datared.hash_pbn.saved_lookups",
          gauges.get("index.batch.saved_lookups", 0))
    ratio("cache.table_cache.hit_ratio", counts.get("table_cache.hit_rate", 0.0))
    count("cache.table_cache.evictions", counts.get("table_cache.evictions", 0))
    ratio("hw.nic.buffer_hit_rate", gauges.get("system.nic.buffer_hit_rate", 0.0))
    ratio("datared.compression.stored_ratio",
          gauges.get("engine.compression_ratio", 0.0))
    count("datared.container.sealed", gauges.get("engine.containers_sealed", 0))
    ratio("datared.container.garbage_fraction", _ratio(
        gauges.get("engine.reclaimed_stored_bytes", 0),
        gauges.get("engine.stored_bytes", 0)))
    count("datared.journal.commits", counters.get("journal.commits_total", 0))
    count("datared.journal.checkpoints",
          counters.get("journal.checkpoints_total", 0))
    metrics["datared.journal.bytes_per_user_mb"] = (_ratio(
        counters.get("journal.commit_bytes_total", 0),
        gauges.get("engine.logical_bytes", 0) / measure.MB), "B/MB")

    for kind, phase in (("write", untraced.write), ("read", untraced.read)):
        metrics[f"client.{kind}_p50_ms"] = (
            measure.percentile(phase.latencies_ms, 0.50), "ms")
        metrics[f"client.{kind}_p99_ms"] = (
            measure.percentile(phase.latencies_ms, 0.99), "ms")
        count(f"client.{kind}_samples", len(phase.latencies_ms))
        # Raw wall-clock values, beside the calibrated end-to-end ones.
        metrics[f"client.{kind}_mb_s_pooled"] = (phase.pooled_mb_s, "MB/s")
        metrics[f"client.{kind}_mb_s_best_window"] = (
            measure.best(phase.window_mb_s, "higher"), "MB/s")
    ratio("client.window_spread", measure.spread(untraced.write.calibrated_mb_s))
    count("client.ops", tally.attempted)
    count("client.ops_failed", tally.failed)
    hosts = [host for phase in (untraced.write, untraced.read, traced.write,
                                traced.read) for host in phase.window_host]
    metrics["host.calib_ms"] = (
        statistics.median(hosts) * measure.HOST_REFERENCE_US_PER_BLOCK, "ms")
    ratio("host.calib_spread", measure.spread(hosts))
    ratio("trace.overhead_ratio", _ratio(
        measure.midmean(traced.write.calibrated_mb_s),
        measure.midmean(untraced.write.calibrated_mb_s)))
    return metrics
