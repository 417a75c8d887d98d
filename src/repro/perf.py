"""Per-stage performance harness for the engine hot path.

``python -m repro.perf`` drives the canonical write workload through a
:class:`~repro.datared.dedup.DedupEngine` with a :class:`StageClock`
installed and emits ``BENCH_stages.json``: wall-clock nanoseconds and
allocation deltas for every hot-path stage —

========  ==========================================================
stage     meaning
========  ==========================================================
chunk     ``FixedChunker.split`` (zero-copy view slicing)
hash      SHA-256 fingerprinting (``fingerprint_many``)
lookup    Hash-PBN table probes for every chunk
compress  DEFLATE of the chunks planned unique
pack      container append (the materialization boundary)
publish   PBN allocation + metadata/table/LBA-map publication
other     everything unattributed (planner, reports, loop glue)
========  ==========================================================

Timings and allocations come from two separate passes over identical
workloads: ``tracemalloc`` slows the interpreter severely, so the
timing pass runs uninstrumented and the allocation pass re-runs with
tracing on.  Each stage reports the *minimum* over ``--rounds`` timing
passes, which strips scheduler noise the same way ``timeit`` does.

The numbers answer "where do the cycles go" for future optimisation
PRs; the CI bench-smoke job uploads the JSON so the trajectory is
visible per commit (see DESIGN.md §5.4 for how to read it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import socket
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Dict, List, Optional

from .datared import codecs as _codecs
from .datared import hashing as _hashing
from .datared.dedup import DedupEngine
from .datared.hash_pbn import (
    BUCKET_CAPACITY,
    ArenaBucketStore,
    HashPbnTable,
)
from .datared.hashing import MAX_PBN
from .datared.journal import MetadataJournal
from .datared.sharded import ShardedDedupEngine
from .obs import trace as _trace
from .obs.metrics import MetricsRegistry
from .obs.trace import TracedStages
from .parallel import StagePool

__all__ = [
    "StageClock",
    "bench_meta",
    "run_index_bench",
    "run_journal_bench",
    "run_obs_overhead",
    "run_shard_bench",
    "run_stage_bench",
    "main",
]

#: Canonical workload shape (mirrors benchmarks/test_throughput.py).
CHUNK = 4096
BATCH_CHUNKS = 64
DUPLICATE_FRACTION = 0.25
SEED = 0xF1D8


class _StageSpan:
    """Reusable timing span for one stage (non-reentrant)."""

    __slots__ = ("_clock", "_name", "_t0")

    def __init__(self, clock: "StageClock", name: str) -> None:
        self._clock = clock
        self._name = name
        self._t0 = 0

    def __enter__(self) -> None:
        self._t0 = time.perf_counter_ns()

    def __exit__(self, *exc: object) -> None:
        clock = self._clock
        delta = time.perf_counter_ns() - self._t0
        clock.ns[self._name] = clock.ns.get(self._name, 0) + delta
        clock.calls[self._name] = clock.calls.get(self._name, 0) + 1


class _MemorySpan:
    """Reusable allocation span for one stage (needs tracemalloc on)."""

    __slots__ = ("_clock", "_name", "_m0")

    def __init__(self, clock: "StageClock", name: str) -> None:
        self._clock = clock
        self._name = name
        self._m0 = 0

    def __enter__(self) -> None:
        self._m0 = tracemalloc.get_traced_memory()[0]

    def __exit__(self, *exc: object) -> None:
        clock = self._clock
        delta = tracemalloc.get_traced_memory()[0] - self._m0
        clock.alloc[self._name] = clock.alloc.get(self._name, 0) + delta
        clock.calls[self._name] = clock.calls.get(self._name, 0) + 1


class StageClock:
    """Per-stage accumulator the engine's hot path reports into.

    Satisfies :class:`repro.datared.dedup.StageTimer`.  ``memory=True``
    records net-allocation deltas via :mod:`tracemalloc` (the caller
    must have started tracing) instead of wall time.
    """

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.ns: Dict[str, int] = {}
        self.alloc: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self._spans: Dict[str, Any] = {}

    def stage(self, name: str) -> Any:
        span = self._spans.get(name)
        if span is None:
            span = (
                _MemorySpan(self, name)
                if self.memory
                else _StageSpan(self, name)
            )
            self._spans[name] = span
        return span


def bench_meta() -> Dict[str, Any]:
    """Provenance stamp for every ``BENCH_*.json`` this repo emits."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "git_sha": sha,
        "hostname": socket.gethostname(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


#: Chunk generators per ``--corpus`` choice: ``mixed`` is the canonical
#: half-random/half-zero shape, ``random`` is incompressible (adaptive
#: should route it to the raw escape), ``zero`` compresses maximally.
_CORPORA = ("mixed", "random", "zero")


def make_workload(
    num_batches: int, seed: int = SEED, corpus: str = "mixed"
) -> List[List[bytes]]:
    """Chunk batches with a duplicate pool (``corpus`` sets the shape)."""
    if corpus not in _CORPORA:
        raise ValueError(f"corpus must be one of {_CORPORA}, got {corpus!r}")
    rng = random.Random(seed)

    def fresh() -> bytes:
        if corpus == "random":
            return rng.randbytes(CHUNK)
        if corpus == "zero":
            return bytes(CHUNK)
        return rng.randbytes(CHUNK // 2) + bytes(CHUNK // 2)

    pool = [fresh() for _ in range(8)]
    batches = []
    for _ in range(num_batches):
        batch = []
        for _ in range(BATCH_CHUNKS):
            if rng.random() < DUPLICATE_FRACTION:
                batch.append(pool[rng.randrange(len(pool))])
            else:
                batch.append(fresh())
        batches.append(batch)
    return batches


def _drive(
    batches: List[List[bytes]],
    clock: Optional[StageClock],
    parallelism: int,
    codec: str = "zlib",
    executor: str = "thread",
    fingerprint: str = "sha256",
) -> int:
    """One full write pass; returns total wall nanoseconds."""
    with StagePool(parallelism, backend=executor) as pool:
        engine = DedupEngine(
            num_buckets=1 << 14,
            compressor=_codecs.create_codec(codec),
            pool=pool,
            fingerprinter=_hashing.create_fingerprinter(fingerprint),
        )
        engine.stage_clock = clock
        start = time.perf_counter_ns()
        lba = 0
        for batch in batches:
            requests = []
            for data in batch:
                requests.append((lba, data))
                lba += engine.chunker.blocks_per_chunk
            engine.write_many(requests)
        engine.flush()
        return time.perf_counter_ns() - start


def run_obs_overhead(num_batches: int = 12, rounds: int = 5) -> Dict[str, Any]:
    """Measure the cost of an *installed but disabled* trace clock.

    The observability contract is that serving installs
    :class:`~repro.obs.trace.TracedStages` unconditionally and the
    enabled flag alone decides whether spans exist.  This harness proves
    the disabled path is free: it interleaves no-clock and
    disabled-clock write passes (interleaving cancels thermal/frequency
    drift) and reports the min-over-rounds throughput of each.  CI gates
    ``ratio`` — traced-disabled MB/s over baseline MB/s — at 0.97.
    """
    batches = make_workload(num_batches)
    moved = num_batches * BATCH_CHUNKS * CHUNK
    was_enabled = _trace.is_enabled()
    _trace.set_enabled(False)
    best_baseline: Optional[int] = None
    best_traced: Optional[int] = None
    try:
        for _ in range(rounds):
            baseline = _drive(batches, None, 1)
            traced = _drive(batches, TracedStages(), 1)
            if best_baseline is None or baseline < best_baseline:
                best_baseline = baseline
            if best_traced is None or traced < best_traced:
                best_traced = traced
    finally:
        _trace.set_enabled(was_enabled)
    assert best_baseline is not None and best_traced is not None
    baseline_mb_s = moved / 1e6 / (best_baseline / 1e9)
    traced_mb_s = moved / 1e6 / (best_traced / 1e9)
    return {
        "baseline_mb_s": round(baseline_mb_s, 2),
        "traced_disabled_mb_s": round(traced_mb_s, 2),
        "ratio": round(traced_mb_s / baseline_mb_s, 4),
        "rounds": rounds,
        "num_batches": num_batches,
    }


def _drive_journaled(
    batches: List[List[bytes]],
    parallelism: int,
    codec: str,
    executor: str,
    fingerprint: str,
    checkpoint_every_commits: Optional[int],
) -> "tuple[int, Dict[str, int]]":
    """One journal-armed write pass; (wall ns, journal stats)."""
    registry = MetricsRegistry()  # keep bench counters out of the global
    journal = MetadataJournal(
        checkpoint_every_commits=checkpoint_every_commits,
        registry=registry,
    )
    with StagePool(parallelism, backend=executor) as pool:
        engine = DedupEngine(
            num_buckets=1 << 14,
            compressor=_codecs.create_codec(codec),
            pool=pool,
            fingerprinter=_hashing.create_fingerprinter(fingerprint),
            registry=registry,
            journal=journal,
        )
        start = time.perf_counter_ns()
        lba = 0
        for batch in batches:
            requests = []
            for data in batch:
                requests.append((lba, data))
                lba += engine.chunker.blocks_per_chunk
            engine.write_many(requests)
        engine.flush()
        elapsed = time.perf_counter_ns() - start
    return elapsed, {
        "records": journal.records_written,
        "commits": journal.commits,
        "checkpoints": journal.checkpoints,
        "image_bytes": journal.size_bytes,
    }


def run_journal_bench(
    num_batches: int = 48,
    rounds: int = 3,
    checkpoint_every_commits: int = 16,
    parallelism: int = 1,
    codec: str = "zlib",
    executor: str = "thread",
    fingerprint: str = "sha256",
    corpus: str = "mixed",
) -> Dict[str, Any]:
    """Measure the durability tax: journal-off vs journal-on writes.

    Three interleaved variants over identical workloads (interleaving
    cancels thermal/frequency drift, min-over-rounds strips scheduler
    noise): no journal, group-commit journal, and journal plus periodic
    checkpoints with lazy truncation.  ``ratio`` is journaled over plain
    write MB/s; CI gates it at 0.85 — the group-commit design exists
    precisely so durability costs one buffered append + fence per
    *batch*, not per chunk.
    """
    batches = make_workload(num_batches, corpus=corpus)
    moved = num_batches * BATCH_CHUNKS * CHUNK
    best: Dict[str, Optional[int]] = {
        "plain": None, "journaled": None, "checkpointed": None,
    }
    stats: Dict[str, Dict[str, int]] = {}
    for _ in range(rounds):
        timings = {"plain": _drive(
            batches, None, parallelism, codec, executor, fingerprint
        )}
        timings["journaled"], stats["journaled"] = _drive_journaled(
            batches, parallelism, codec, executor, fingerprint, None
        )
        timings["checkpointed"], stats["checkpointed"] = _drive_journaled(
            batches, parallelism, codec, executor, fingerprint,
            checkpoint_every_commits,
        )
        for name, elapsed in timings.items():
            previous = best[name]
            if previous is None or elapsed < previous:
                best[name] = elapsed

    def mb_s(name: str) -> float:
        elapsed = best[name]
        assert elapsed is not None
        return round(moved / 1e6 / (elapsed / 1e9), 2)

    plain = mb_s("plain")
    journaled = mb_s("journaled")
    checkpointed = mb_s("checkpointed")
    return {
        "bench": "journal",
        "meta": bench_meta(),
        "num_batches": num_batches,
        "chunks": num_batches * BATCH_CHUNKS,
        "rounds": rounds,
        "parallelism": parallelism,
        "codec": codec,
        "corpus": corpus,
        "checkpoint_every_commits": checkpoint_every_commits,
        "plain_mb_s": plain,
        "journaled_mb_s": journaled,
        "checkpointed_mb_s": checkpointed,
        "ratio": round(journaled / plain, 4),
        "checkpointed_ratio": round(checkpointed / plain, 4),
        "journal": stats["journaled"],
        "checkpointed_journal": stats["checkpointed"],
    }


def run_stage_bench(
    num_batches: int = 48,
    rounds: int = 3,
    parallelism: int = 1,
    codec: str = "zlib",
    executor: str = "thread",
    fingerprint: str = "sha256",
    corpus: str = "mixed",
) -> Dict[str, Any]:
    """Run the per-stage benchmark; returns the BENCH_stages payload."""
    batches = make_workload(num_batches, corpus=corpus)
    chunks = num_batches * BATCH_CHUNKS

    # Timing pass: min over rounds, per stage and for the total.
    best_total = None
    best_clock = None
    for _ in range(rounds):
        clock = StageClock()
        total = _drive(
            batches, clock, parallelism,
            codec=codec, executor=executor, fingerprint=fingerprint,
        )
        if best_total is None or total < best_total:
            best_total, best_clock = total, clock
    assert best_clock is not None and best_total is not None

    # Allocation pass: one traced run (tracemalloc distorts timing, so
    # its numbers never mix into the ns fields).
    memory_clock = StageClock(memory=True)
    tracemalloc.start()
    try:
        _drive(
            batches, memory_clock, parallelism,
            codec=codec, executor=executor, fingerprint=fingerprint,
        )
    finally:
        tracemalloc.stop()

    staged_ns = sum(best_clock.ns.values())
    stages: Dict[str, Any] = {}
    for name in ("chunk", "hash", "lookup", "compress", "pack", "publish"):
        ns = best_clock.ns.get(name, 0)
        stages[name] = {
            "ns": ns,
            "calls": best_clock.calls.get(name, 0),
            "ns_per_chunk": round(ns / chunks, 1),
            "alloc_bytes": memory_clock.alloc.get(name, 0),
        }
    stages["other"] = {
        "ns": best_total - staged_ns,
        "calls": 0,
        "ns_per_chunk": round((best_total - staged_ns) / chunks, 1),
        "alloc_bytes": 0,
    }

    moved = chunks * CHUNK
    return {
        "benchmark": "engine-stage-breakdown",
        "meta": bench_meta(),
        # The stage breakdown always drives the plain (single-shard)
        # engine; the stamp keeps BENCH JSON self-describing next to
        # the BENCH_shards sweep.
        "shards": 1,
        "parallelism": parallelism,
        "codec": codec,
        "executor": executor,
        "fingerprint": fingerprint,
        "corpus": corpus,
        "chunk_size": CHUNK,
        "batch_chunks": BATCH_CHUNKS,
        "num_batches": num_batches,
        "duplicate_fraction": DUPLICATE_FRACTION,
        "rounds": rounds,
        "total_ns": best_total,
        "write_mb_s": round(moved / 1e6 / (best_total / 1e9), 2),
        "note": (
            "ns fields are the minimum-over-rounds uninstrumented "
            "timing pass; alloc_bytes come from a separate "
            "tracemalloc pass and must not be compared with the "
            "timings"
        ),
        "stages": stages,
        "obs_overhead": run_obs_overhead(
            num_batches=max(4, num_batches // 4), rounds=rounds + 2
        ),
    }


def _drive_sharded(
    batches: List[List[bytes]],
    num_shards: int,
    parallelism: int,
    codec: str = "zlib",
    executor: str = "thread",
    fingerprint: str = "sha256",
) -> tuple:
    """One sharded write pass; returns ``(total_ns, router_clock,
    shard_clocks)``.

    The router clock only sees the front-door stages (chunk, hash);
    each shard gets a *private* :class:`StageClock` because the clock
    is not thread-safe and shard tasks run concurrently — installing
    the router clock everywhere (what the ``stage_clock`` setter does,
    correct for the thread-safe ``TracedStages``) would corrupt its
    counters here.  Per-shard chunk counts come from the shard engines'
    own ledgers, not from clock call counts: the batched resolve makes
    one ``lookup`` span per sub-batch, so ``calls["lookup"]`` no longer
    equals chunks.
    """
    with StagePool(parallelism, backend=executor) as pool:
        engine = ShardedDedupEngine(
            num_shards,
            num_buckets=1 << 14,
            compressor=_codecs.create_codec(codec),
            pool=pool,
            fingerprinter=_hashing.create_fingerprinter(fingerprint),
        )
        router_clock = StageClock()
        shard_clocks = [StageClock() for _ in range(num_shards)]
        engine.stage_clock = router_clock
        for shard, shard_clock in zip(engine.shards, shard_clocks):
            shard.stage_clock = shard_clock
        try:
            start = time.perf_counter_ns()
            lba = 0
            for batch in batches:
                requests = []
                for data in batch:
                    requests.append((lba, data))
                    lba += engine.chunker.blocks_per_chunk
                engine.write_many(requests)
            engine.flush()
            total = time.perf_counter_ns() - start
            shard_chunks = [
                snap.unique_chunks + snap.duplicate_chunks
                for snap in engine.shard_snapshots()
            ]
        finally:
            engine.close()
        return total, router_clock, shard_clocks, shard_chunks


def run_shard_bench(
    shard_counts: List[int],
    num_batches: int = 48,
    rounds: int = 3,
    parallelism: int = 1,
    codec: str = "zlib",
    executor: str = "thread",
    fingerprint: str = "sha256",
    corpus: str = "mixed",
) -> Dict[str, Any]:
    """Scaling sweep over shard counts; returns the BENCH_shards payload.

    Every run drives the identical workload.  The ``unsharded`` entry
    is the plain :class:`DedupEngine` (no scatter layer at all) and is
    the denominator of each run's ``vs_unsharded`` ratio — CI gates
    ``shards=1`` at 0.9x of it, so the scatter-gather layer itself must
    stay near-free.  Per-shard ``resolve_publish_ns`` is the §5.7
    parallel section (lookup + pack + publish on the shard thread).
    """
    if not shard_counts:
        raise ValueError("need at least one shard count")
    if any(count < 1 for count in shard_counts):
        raise ValueError(f"shard counts must be >= 1, got {shard_counts}")
    batches = make_workload(num_batches, corpus=corpus)
    chunks = num_batches * BATCH_CHUNKS
    moved = chunks * CHUNK

    best_unsharded: Optional[int] = None
    for _ in range(rounds):
        total = _drive(
            batches, None, parallelism,
            codec=codec, executor=executor, fingerprint=fingerprint,
        )
        if best_unsharded is None or total < best_unsharded:
            best_unsharded = total
    assert best_unsharded is not None
    unsharded_mb_s = moved / 1e6 / (best_unsharded / 1e9)

    runs: List[Dict[str, Any]] = []
    for count in shard_counts:
        best: Optional[tuple] = None
        for _ in range(rounds):
            attempt = _drive_sharded(
                batches, count, parallelism,
                codec=codec, executor=executor, fingerprint=fingerprint,
            )
            if best is None or attempt[0] < best[0]:
                best = attempt
        assert best is not None
        total, router_clock, shard_clocks, shard_chunks = best
        mb_s = moved / 1e6 / (total / 1e9)
        per_shard: List[Dict[str, Any]] = []
        for index, clock in enumerate(shard_clocks):
            lookup = clock.ns.get("lookup", 0)
            pack = clock.ns.get("pack", 0)
            publish = clock.ns.get("publish", 0)
            per_shard.append({
                "shard": index,
                "chunks": shard_chunks[index],
                "lookup_ns": lookup,
                "compress_ns": clock.ns.get("compress", 0),
                "pack_ns": pack,
                "publish_ns": publish,
                "resolve_publish_ns": lookup + pack + publish,
            })
        runs.append({
            "shards": count,
            "total_ns": total,
            "write_mb_s": round(mb_s, 2),
            "vs_unsharded": round(mb_s / unsharded_mb_s, 4),
            "router": {
                "chunk_ns": router_clock.ns.get("chunk", 0),
                "hash_ns": router_clock.ns.get("hash", 0),
            },
            "per_shard": per_shard,
        })

    return {
        "benchmark": "sharded-engine-scaling",
        "meta": bench_meta(),
        "shards": list(shard_counts),
        "parallelism": parallelism,
        "codec": codec,
        "executor": executor,
        "fingerprint": fingerprint,
        "corpus": corpus,
        "chunk_size": CHUNK,
        "batch_chunks": BATCH_CHUNKS,
        "num_batches": num_batches,
        "duplicate_fraction": DUPLICATE_FRACTION,
        "rounds": rounds,
        "unsharded": {
            "total_ns": best_unsharded,
            "write_mb_s": round(unsharded_mb_s, 2),
        },
        "runs": runs,
        "note": (
            "vs_unsharded compares each sharded run against the plain "
            "DedupEngine on the identical workload (min over rounds); "
            "per-shard ns come from private StageClocks on the shard "
            "threads of the best round"
        ),
    }


def _index_memory(
    num_buckets: int, seed: int, target: Optional[int] = None
) -> Dict[str, Any]:
    """Resident bytes/entry of an arena-backed table via tracemalloc.

    Builds the table *inside* a tracing window, inserting random
    fingerprints until the table is full (or ``target`` entries), and
    reads the **current** traced size afterwards — i.e. what the table
    retains, not what the build transiently allocated.  Digests and PBN
    ints are minted per insert and dropped right after; the arena
    copies their bytes into the page, so none of that graph is retained.
    """
    rng = random.Random(seed)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = HashPbnTable(num_buckets, store=ArenaBucketStore(num_buckets))
        count = 0
        pbn = MAX_PBN
        while not table.is_full and (target is None or count < target):
            table.insert(rng.randbytes(32), pbn)
            pbn -= 1
            count += 1
        resident = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return {
        "entries": count,
        "resident_bytes": resident,
        "bytes_per_entry": round(resident / count, 2) if count else 0.0,
    }


def run_index_bench(
    num_buckets: int = 1 << 10,
    rounds: int = 3,
    batch_size: int = 4096,
    present_fraction: float = 0.1,
    fill: float = 0.7,
    seed: int = SEED,
) -> Dict[str, Any]:
    """Hash-PBN index microbench; returns the BENCH_index payload.

    Two measurements of the arena-backed table (dense negative filter
    armed):

    * ``memory`` — resident bytes per entry via :mod:`tracemalloc`, at
      full table capacity (the memory-dense arena configuration's
      operating point) and at the default 0.7 fill.
    * ``resolve`` — :meth:`HashPbnTable.lookup_many` lookups/s on a
      unique-heavy batch (``1 - present_fraction`` absent digests plus
      a sprinkle of intra-batch repeats; the CI-gated number).  Results
      are asserted against the inserted fingerprint→PBN map.

    The decoded-bucket table these were first measured against (163
    B/entry, 4.14x slower per-call lookups) is gone from ``src/``; the
    committed ``BENCH_index.json`` keeps that comparison on record.
    """
    if not 0 < fill <= 1:
        raise ValueError(f"fill must be in (0, 1], got {fill}")
    if not 0 <= present_fraction <= 1:
        raise ValueError(
            f"present_fraction must be in [0, 1], got {present_fraction}"
        )
    operating_target = int(BUCKET_CAPACITY * num_buckets * fill)
    memory = {
        "full": {"packed": _index_memory(num_buckets, seed)},
        "operating": {
            "fill": fill,
            "packed": _index_memory(
                num_buckets, seed, target=operating_target
            ),
        },
    }

    # -- resolve throughput ------------------------------------------------
    rng = random.Random(seed ^ 0x1D8)
    packed = HashPbnTable(num_buckets, store=ArenaBucketStore(num_buckets))
    present: List[bytes] = []
    for pbn in range(operating_target):
        digest = rng.randbytes(32)
        packed.insert(digest, pbn)
        present.append(digest)
    batch: List[bytes] = []
    for _ in range(batch_size):
        if rng.random() < present_fraction:
            batch.append(present[rng.randrange(len(present))])
        else:
            batch.append(rng.randbytes(32))
    # A sprinkle of intra-batch repeats so the digest-dedupe path (and
    # its saved-lookups counter) is exercised by the gated run.
    for _ in range(batch_size // 16):
        batch[rng.randrange(batch_size)] = batch[rng.randrange(batch_size)]

    pbn_of = {digest: pbn for pbn, digest in enumerate(present)}
    assert packed.lookup_many(batch) == [
        pbn_of.get(digest) for digest in batch
    ], "lookup_many diverged from the inserted fingerprint→PBN map"

    best_packed: Optional[int] = None
    for _ in range(rounds):
        start = time.perf_counter_ns()
        packed.lookup_many(batch)
        packed_ns = time.perf_counter_ns() - start
        if best_packed is None or packed_ns < best_packed:
            best_packed = packed_ns
    assert best_packed is not None
    packed_rate = batch_size / (best_packed / 1e9)

    return {
        "benchmark": "hash-pbn-index",
        "meta": bench_meta(),
        "num_buckets": num_buckets,
        "bucket_capacity": BUCKET_CAPACITY,
        "rounds": rounds,
        "memory": memory,
        "resolve": {
            "batch_size": batch_size,
            "present_fraction": present_fraction,
            "fill": fill,
            "table_entries": operating_target,
            "packed_ns": best_packed,
            "packed_lookups_per_s": round(packed_rate, 1),
            "filter_hits": packed.filter_hits,
            "filter_misses": packed.filter_misses,
            "saved_batch_lookups": packed.saved_batch_lookups,
            "probes": packed.probe_count,
        },
        "note": (
            "bytes/entry are tracemalloc *current* deltas, so only "
            "retained structures count (memory.full: arena tables run "
            "at capacity).  resolve times are min-over-rounds on the "
            "identical batch: arena store + dense negative filter + "
            "lookup_many"
        ),
    }


def _parse_shards(value: str) -> List[int]:
    try:
        counts = [int(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--shards takes a comma list of counts, got {value!r}"
        ) from None
    if not counts or any(count < 1 for count in counts):
        raise argparse.ArgumentTypeError(
            f"shard counts must be >= 1, got {value!r}"
        )
    return counts


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Per-stage hot-path benchmark (emits BENCH_stages.json)",
    )
    parser.add_argument(
        "--batches", type=int, default=None,
        help="number of 64-chunk batches (default 48, or 6 with --smoke)",
    )
    parser.add_argument(
        "--rounds", type=int, default=3,
        help="timing passes; each stage reports its minimum (default 3)",
    )
    parser.add_argument(
        "--parallelism", type=int, default=1,
        help="StagePool worker threads (default 1 = serial)",
    )
    parser.add_argument(
        "--codec", choices=_codecs.codec_names(), default="zlib",
        help="compression codec for the write path (default zlib); "
        f"available here: {', '.join(_codecs.available_codecs())}",
    )
    parser.add_argument(
        "--executor", choices=["thread", "process", "auto"],
        default="thread",
        help="StagePool backend (default thread; the serve/bench CLIs "
        "default to auto)",
    )
    parser.add_argument(
        "--fingerprint", choices=_hashing.fingerprinter_names(),
        default="sha256",
        help="chunk fingerprint algorithm (default sha256)",
    )
    parser.add_argument(
        "--corpus", choices=list(_CORPORA), default="mixed",
        help="chunk content shape: mixed (half random/half zero), "
        "random (incompressible), zero (maximally compressible)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small workload for CI smoke runs",
    )
    parser.add_argument(
        "--shards", type=_parse_shards, default=None, metavar="N[,N...]",
        help="run the sharded-engine scaling sweep over these shard "
        "counts (e.g. 1,2,4) instead of the stage breakdown; emits "
        "BENCH_shards.json",
    )
    parser.add_argument(
        "--index", action="store_true",
        help="run the Hash-PBN index microbench (resident bytes/entry "
        "+ batched resolve throughput) instead of the stage "
        "breakdown; emits BENCH_index.json",
    )
    parser.add_argument(
        "--journal", action="store_true",
        help="run the durability-tax microbench (journal-off vs "
        "group-commit journal vs journal+checkpoints) instead of the "
        "stage breakdown; emits BENCH_journal.json",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=16, metavar="N",
        help="checkpoint cadence (group commits) for the --journal "
        "bench's checkpointed variant (default 16)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="output path (default ./BENCH_stages.json; "
        "./BENCH_shards.json with --shards; ./BENCH_index.json with "
        "--index; ./BENCH_journal.json with --journal)",
    )
    args = parser.parse_args(argv)
    if sum(bool(mode) for mode in (args.index, args.shards, args.journal)) > 1:
        parser.error("--index, --shards and --journal are mutually exclusive")
    if args.out is None:
        if args.index:
            args.out = Path("BENCH_index.json")
        elif args.shards:
            args.out = Path("BENCH_shards.json")
        elif args.journal:
            args.out = Path("BENCH_journal.json")
        else:
            args.out = Path("BENCH_stages.json")
    num_batches = args.batches
    if num_batches is None:
        num_batches = 6 if args.smoke else 48

    if not _codecs.codec_available(args.codec):
        parser.error(
            f"codec {args.codec!r} is registered but its library is not "
            "installed here (install the repro[codecs] extras); "
            f"available: {', '.join(_codecs.available_codecs())}"
        )
    if not _hashing.fingerprinter_available(args.fingerprint):
        parser.error(
            f"fingerprinter {args.fingerprint!r} is registered but its "
            "library is not installed here (install the repro[codecs] "
            f"extras); available: "
            f"{', '.join(_hashing.available_fingerprinters())}"
        )

    if args.index:
        payload = run_index_bench(
            num_buckets=(1 << 8) if args.smoke else (1 << 10),
            rounds=args.rounds,
        )
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        full = payload["memory"]["full"]
        resolve = payload["resolve"]
        print(
            f"hash-pbn index microbench ({payload['num_buckets']} "
            f"buckets, min of {args.rounds} rounds)"
        )
        print(
            f"  memory (full table): "
            f"{full['packed']['bytes_per_entry']} B/entry"
        )
        print(
            f"  resolve ({resolve['batch_size']} digests, "
            f"{int((1 - resolve['present_fraction']) * 100)}% absent): "
            f"{resolve['packed_lookups_per_s']:,.0f}/s; filter hits "
            f"{resolve['filter_hits']}, saved batch lookups "
            f"{resolve['saved_batch_lookups']}"
        )
        print(f"wrote {args.out}")
        return 0

    if args.journal:
        payload = run_journal_bench(
            num_batches=num_batches, rounds=args.rounds,
            checkpoint_every_commits=args.checkpoint_every,
            parallelism=args.parallelism, codec=args.codec,
            executor=args.executor, fingerprint=args.fingerprint,
            corpus=args.corpus,
        )
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(
            f"durability tax ({payload['chunks']} chunks, "
            f"codec={args.codec}, min of {args.rounds} rounds)"
        )
        print(
            f"  plain        {payload['plain_mb_s']:>9.2f} MB/s"
        )
        print(
            f"  journaled    {payload['journaled_mb_s']:>9.2f} MB/s "
            f"(ratio {payload['ratio']:.3f}, gate 0.85; "
            f"{payload['journal']['records']:,} records in "
            f"{payload['journal']['commits']} commits, "
            f"{payload['journal']['image_bytes'] / 1024:.1f} KiB image)"
        )
        print(
            f"  checkpointed {payload['checkpointed_mb_s']:>9.2f} MB/s "
            f"(ratio {payload['checkpointed_ratio']:.3f}, every "
            f"{payload['checkpoint_every_commits']} commits -> "
            f"{payload['checkpointed_journal']['checkpoints']} "
            f"checkpoints, "
            f"{payload['checkpointed_journal']['image_bytes'] / 1024:.1f} "
            "KiB image)"
        )
        print(f"wrote {args.out}")
        return 0

    if args.shards:
        payload = run_shard_bench(
            args.shards,
            num_batches=num_batches, rounds=args.rounds,
            parallelism=args.parallelism, codec=args.codec,
            executor=args.executor, fingerprint=args.fingerprint,
            corpus=args.corpus,
        )
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        chunks = num_batches * BATCH_CHUNKS
        print(
            f"sharded engine scaling ({chunks} chunks, "
            f"parallelism={args.parallelism}, codec={args.codec}, "
            f"unsharded {payload['unsharded']['write_mb_s']} MB/s, "
            f"min of {args.rounds} rounds)"
        )
        print(f"  {'shards':<8}{'MB/s':>10}{'vs unsharded':>14}"
              f"{'resolve+publish ms':>20}")
        for run in payload["runs"]:
            resolve_ms = sum(
                shard["resolve_publish_ns"] for shard in run["per_shard"]
            ) / 1e6
            print(
                f"  {run['shards']:<8}{run['write_mb_s']:>10.2f}"
                f"{run['vs_unsharded']:>13.3f}x{resolve_ms:>19.2f}"
            )
        print(f"wrote {args.out}")
        return 0

    payload = run_stage_bench(
        num_batches=num_batches, rounds=args.rounds,
        parallelism=args.parallelism, codec=args.codec,
        executor=args.executor, fingerprint=args.fingerprint,
        corpus=args.corpus,
    )
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    chunks = num_batches * BATCH_CHUNKS
    print(
        f"engine stage breakdown ({chunks} chunks, "
        f"parallelism={payload['parallelism']}, "
        f"codec={payload['codec']}, executor={payload['executor']}, "
        f"corpus={payload['corpus']}, "
        f"{payload['write_mb_s']} MB/s, min of {args.rounds} rounds)"
    )
    print(f"  {'stage':<9}{'us/chunk':>10}{'share':>8}{'alloc KB':>10}")
    for name, stage in payload["stages"].items():
        share = stage["ns"] / payload["total_ns"] if payload["total_ns"] else 0
        print(
            f"  {name:<9}{stage['ns_per_chunk'] / 1000:>10.2f}"
            f"{share:>7.0%}{stage['alloc_bytes'] / 1024:>10.1f}"
        )
    overhead = payload["obs_overhead"]
    print(
        f"obs overhead (tracing installed, disabled): "
        f"{overhead['traced_disabled_mb_s']} vs "
        f"{overhead['baseline_mb_s']} MB/s "
        f"(ratio {overhead['ratio']:.3f}, gate 0.97)"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
