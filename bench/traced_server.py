"""``python -m repro.net serve`` with spans around every layer boundary.

The benchmark's traced pass launches the server through this file.  It
wraps the layers' public functions — from here, without touching
``src/`` — with in-memory spans, runs the ordinary ``serve`` command, and
on shutdown prints one ``BENCH-TRACE <json>`` line on stdout for the
loadgen to analyse (``spans.py``).

A span is ``[parent, name, start_ns, end_ns, busy_ns, calls, op,
request_id]``.  Calls made once per request or per batch get a span each;
per-chunk callees (``aggregate=True`` in :func:`install`) share one span
per (enclosing span, name) whose ``busy_ns`` and ``calls`` accumulate,
which bounds memory at a few dozen spans per request.  ``perf_counter_ns`` is
CLOCK_MONOTONIC, the clock the loadgen stamps its phases with, so the
two processes' timestamps compare directly.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

TRACE_MARKER = "BENCH-TRACE "

# Span slots.
PARENT, NAME, START, END, BUSY, CALLS, OP, REQUEST, _KIDS = range(9)


class Tracer:
    """Records spans through wrappers installed by :meth:`wrap`."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        aggregate: bool = False,
        annotate: Optional[Callable[[list, tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around each call.

        ``annotate(span, args, result)`` may stamp request identity on
        the span after the call returns.
        """
        self.names.append(name)
        index = len(self.names) - 1
        spans, get_stack, now = self.spans, self._stack, time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = get_stack()
            parent = stack[-1] if stack else None
            span = None
            if aggregate and parent is not None:
                kids = parent[_KIDS]
                if kids is None:
                    kids = parent[_KIDS] = {}
                span = kids.get(index)
            if span is None:
                span = [parent, index, 0, 0, 0, 0, 0, 0, None]
                if aggregate and parent is not None:
                    kids[index] = span
                spans.append(span)
            stack.append(span)
            result = None
            start = now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = now()
                stack.pop()
                if not span[CALLS]:
                    span[START] = start
                span[END] = end
                span[BUSY] += end - start
                span[CALLS] += 1
                if annotate is not None:
                    annotate(span, args, result)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def dump(self) -> Dict[str, Any]:
        """Spans with parents as indexes (``-1`` = root), kids dropped."""
        index_of = {id(span): i for i, span in enumerate(self.spans)}
        return {
            "names": self.names,
            "spans": [
                [index_of[id(span[PARENT])] if span[PARENT] is not None else -1]
                + span[NAME:_KIDS]
                for span in self.spans
            ],
        }


def _annotate_frame(span: list, args: tuple, _result: Any) -> None:
    frame = args[1]  # handle_frame(self, frame)
    span[OP], span[REQUEST] = frame.op, frame.request_id


def _annotate_events(span: list, _args: tuple, result: Any) -> None:
    for event in result or ():
        if hasattr(event, "op"):
            span[OP], span[REQUEST] = event.op, event.request_id
            return


def _defining_classes(base: type, attr: str) -> List[type]:
    """``base`` and every subclass that defines ``attr`` itself."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if attr in cls.__dict__:
            found.append(cls)
    return found


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions (the table in ``README.md``)."""
    from repro.cache.table_cache import TableCache
    from repro.datared import codecs
    from repro.datared.chunking import FixedChunker
    from repro.datared.compression import Compressor
    from repro.datared.container import ContainerStore
    from repro.datared.dedup import DedupEngine
    from repro.datared.hash_pbn import HashPbnTable
    from repro.datared.hashing import Fingerprinter
    from repro.datared.journal import CheckpointState, MetadataJournal
    from repro.datared.lba_map import LbaMap, PbnMap
    from repro.hw.nic import FidrNic
    from repro.net import aserver, protocol
    from repro.systems.server import StorageServer

    def methods(layer: str, cls: type, names: str, *, aggregate: bool = False,
                subclasses: bool = False, annotate: Any = None) -> None:
        for attr in names.split():
            owners = _defining_classes(cls, attr) if subclasses else [cls]
            for owner in owners:
                raw = owner.__dict__[attr]
                # Unwrap class/staticmethods so the span sits inside them.
                fn = getattr(raw, "__func__", raw)
                traced = tracer.wrap(
                    fn, f"{layer}:{owner.__name__}.{attr}",
                    aggregate=aggregate, annotate=annotate,
                )
                if isinstance(raw, (classmethod, staticmethod)):
                    traced = type(raw)(traced)
                setattr(owner, attr, traced)

    methods("net.protocol", protocol.FrameDecoder, "events",
            annotate=_annotate_events)
    methods("net.protocol", protocol.ProtocolServer, "handle_frame",
            annotate=_annotate_frame)
    # encode_reply is a module function both modules imported by name.
    encode_reply = tracer.wrap(protocol.encode_reply, "net.protocol:encode_reply")
    protocol.encode_reply = aserver.encode_reply = encode_reply

    methods("systems", StorageServer, "write read")
    methods("hw.nic", FidrNic, "buffer_write lookup_read", aggregate=True)
    methods("hw.nic", FidrNic, "ship_digests")
    methods("datared.dedup", DedupEngine, "write_many")
    # FIDR's read flow calls engine.read once per chunk.
    methods("datared.dedup", DedupEngine, "read", aggregate=True)
    # Once per request by the system, then once per chunk by write_many.
    methods("datared.chunking", FixedChunker, "split", aggregate=True)
    methods("datared.hashing", Fingerprinter, "digest",
            aggregate=True, subclasses=True)
    methods("datared.hashing", Fingerprinter, "digest_many", subclasses=True)
    methods("datared.hash_pbn", HashPbnTable, "lookup insert remove",
            aggregate=True)
    methods("datared.hash_pbn", HashPbnTable, "lookup_many")
    methods("cache.table_cache", TableCache, "read_bucket write_bucket",
            aggregate=True)
    methods("datared.compression", Compressor, "compress decompress",
            aggregate=True, subclasses=True)
    methods("datared.compression", Compressor,
            "compress_many decompress_many", subclasses=True)
    # The engine's read path decodes through the tag-dispatched module
    # function, not Compressor.decompress_many; dedup reaches it as
    # ``codecs.decode_many`` so patching the module attribute is enough.
    codecs.decode_many = tracer.wrap(
        codecs.decode_many, "datared.compression:decode_many", aggregate=True
    )
    methods("datared.container", ContainerStore, "append read", aggregate=True)
    methods("datared.container", ContainerStore, "seal_open")
    methods("datared.lba_map", LbaMap, "get set unmap", aggregate=True)
    methods("datared.lba_map", PbnMap, "get add ref unref", aggregate=True)
    methods("datared.journal", MetadataJournal, "commit write_checkpoint")
    methods("datared.journal", CheckpointState, "capture")


def _capture_storage(holder: list) -> None:
    """Remember the StorageServer ``serve`` builds, for the final counts
    STATS does not export (the table cache's own ledger)."""
    from repro.systems.server import StorageServer

    build = StorageServer.__dict__["build"].__func__

    def capturing_build(cls: type, *args: Any, **kwargs: Any) -> Any:
        storage = build(cls, *args, **kwargs)
        holder.append(storage)
        return storage

    StorageServer.build = classmethod(capturing_build)  # type: ignore[assignment]


def _final_counts(storage: Any) -> Dict[str, float]:
    stats = storage.system.table_cache.stats
    return {
        "table_cache.accesses": stats.accesses,
        "table_cache.hit_rate": stats.hit_rate,
        "table_cache.evictions": stats.evictions,
    }


def _interrupt(_signum: int, _frame: Any) -> None:
    raise KeyboardInterrupt


def main(argv: List[str]) -> int:
    from repro.net.__main__ import main as net_main

    # ``serve`` shuts down cleanly on KeyboardInterrupt.  The benchmark
    # stops servers with SIGTERM, and SIGINT may be inherited ignored.
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGINT, _interrupt)
    tracer = Tracer()
    storages: list = []
    install(tracer)
    _capture_storage(storages)
    code = net_main(argv)
    payload = tracer.dump()
    payload["counts"] = _final_counts(storages[0]) if storages else {}
    sys.stdout.write(TRACE_MARKER + json.dumps(payload, separators=(",", ":")) + "\n")
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
