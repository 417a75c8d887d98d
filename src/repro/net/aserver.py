"""Concurrent asyncio serving layer over the §6.2 protocol.

The paper's server front-end is a NIC protocol engine: it terminates
many client links at line rate, parses the simplified access protocol,
and hands requests to the reduction pipeline through a bounded buffer
(the battery-backed NIC DRAM) whose occupancy throttles the clients.
This module is that front-end rendered in asyncio:

* :class:`AsyncProtocolServer` accepts any number of TCP connections;
  each is an :class:`asyncio.Protocol` whose ``data_received`` feeds its
  own :class:`~repro.net.protocol.FrameDecoder` session and puts what
  one socket read decoded into one **bounded** queue — a deque the
  server owns — in one step, no await.  Worker tasks drain it in groups
  — per wake-up, everything queued, up to one bulk piece of work — and
  serve each group with one call into the shared (non-thread-safe)
  storage stack, on the loop's own thread: one backend turn and one
  reply write per connection per group, replies and errors per op.

  Backpressure is structural: events decoded past the queue bound wait
  in their connection, whose transport stops reading until a worker
  makes room, so when the queue is full the server stops consuming from
  that socket, the TCP window closes, and the client blocks — exactly
  the NIC-buffer-full behaviour of §7.6.1.  On the response path a
  paused transport (``pause_writing``) parks the worker with its next
  replies, so slow readers bound the server's write buffers too.

* :class:`AsyncProtocolClient` is the pipelined counterpart and its own
  protocol: requests are tagged with a ``request_id`` that
  ``data_received`` completes, so many calls may be in flight on one
  connection (``asyncio.gather`` over plain ``read``/``write``
  coroutines is the pipelining API; a gathered burst leaves in one send).

One thread serves: the event loop that parsed a group's frames is the
storage stack's only caller, so access is strictly serialized with no
executor hop — no queue put, no self-pipe wake-up, no GIL hand-off per
group.  While a group runs the loop does nothing else, and a group
carries at most ``write_split_chunks`` chunks of work; a write spanning
more is applied as that-sized sub-writes, between which the loop reads
its sockets and serves one queued group, so one bulk ingest cannot
convoy every other client's latency.  Inside a turn the engine runs
hashing, compression and decompression inline on that same thread.
"""

from __future__ import annotations

import asyncio
import functools
import json
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from ..datared.chunking import BLOCK_SIZE, LBA_LIMIT
from ..datared.dedup import settle_allocator
from ..obs import trace as _trace
from ..obs.metrics import MetricsRegistry, get_registry
from ..errors import ProtocolError, raise_for_error_payload
from ..systems.server import StorageServer
from .protocol import (
    Frame,
    FrameDecoder,
    Op,
    ProtocolServer,
    encode_error_reply,
    encode_frame,
    encode_reply,
)

__all__ = ["AsyncProtocolServer", "AsyncProtocolClient", "ServerMetrics"]

#: What a connection's decoder yields and the queue carries.
_Event = Union[Frame, ProtocolError]


@dataclass
class ServerMetrics:
    """Counters the serving layer maintains (all monotonic except
    ``connections_open``)."""

    connections_total: int = 0
    connections_open: int = 0
    requests_enqueued: int = 0
    responses_sent: int = 0
    frames_rejected: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    #: High-water mark of the request queue — never exceeds the
    #: configured ``queue_depth`` (the backpressure guarantee).
    max_queue_depth: int = 0
    #: Requests the storage stack served.
    storage_ops: int = 0
    #: Calls into the storage stack (one per group or split-write piece);
    #: ``storage_ops / storage_turns`` is the coalescing ratio.
    storage_turns: int = 0
    #: Large writes split into sub-writes so small requests interleave.
    writes_split: int = 0


class _Connection(asyncio.Protocol):
    """One client link, as the protocol its transport calls: decoder
    session, events ``parked`` past the queue bound (the transport does
    not read meanwhile), unanswered count, whether replies may go out."""

    def __init__(self, server: "AsyncProtocolServer") -> None:
        self.server = server
        self.decoder = FrameDecoder(server.registry)
        self.transport: Any = None
        self.parked: Deque[Tuple[_Connection, _Event, int]] = deque()
        self.pending = 0
        self.eof = False
        #: Clear while the transport's write buffer is past its high water.
        self.writable = asyncio.Event()
        self.writable.set()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.server._connections.add(self)
        self.server.metrics.connections_total += 1
        self.server.metrics.connections_open += 1

    def data_received(self, data: bytes) -> None:
        self.server.metrics.bytes_in += len(data)
        events = self.decoder.events(data)
        if events:
            self.server._enqueue(self, events)

    def eof_received(self) -> bool:
        # Half-close: our side stays open until every queued request of
        # this link is answered; the worker answering the last closes it.
        self.eof = True
        return self.pending > 0

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server._connections.discard(self)
        self.server.metrics.connections_open -= 1
        self.writable.set()  # nothing waits on a link that is gone

    def pause_writing(self) -> None:
        self.writable.clear()

    def resume_writing(self) -> None:
        self.writable.set()


class AsyncProtocolServer:
    """A TCP server multiplexing many clients onto one storage backend,
    served on the event loop's own thread.

    Parameters
    ----------
    storage:
        The shared :class:`~repro.systems.server.StorageServer`, built on
        the thread that runs the loop: that thread owns it (DESIGN.md
        §5.3), and a call from any other is a ``ThreadOwnershipError``.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`
        after :meth:`start`).
    queue_depth:
        Bound of the request queue — the NIC-buffer analogue.  A
        connection stops reading while events it decoded wait for room.
    workers:
        Number of drain tasks.  Each serves its group on the loop's
        thread, so storage work never runs two at a time; what a second
        worker buys is that other connections keep being served while
        one worker's replies wait on a slow reader's ``writable``.
    write_split_chunks:
        The chunks of work one backend turn may carry: queued requests
        are grouped up to it, and a write spanning more is applied as a
        sequence of sub-writes between which one queued group is
        served.  A concurrent reader of the *same* region
        may observe a prefix of a split write (block devices promise
        per-chunk atomicity, not whole-request atomicity).
    """

    def __init__(
        self,
        storage: StorageServer,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        queue_depth: int = 64,
        workers: int = 2,
        write_split_chunks: int = 64,
        registry: Optional[MetricsRegistry] = None,
    ):
        if queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        if workers < 1:
            raise ValueError("need at least one worker")
        if write_split_chunks < 1:
            raise ValueError("write_split_chunks must be at least 1")
        self.storage = storage
        self.registry = registry if registry is not None else get_registry()
        self.endpoint = ProtocolServer(storage, registry=self.registry)
        self.host = host
        self.port = port
        self.queue_depth = queue_depth
        self.num_workers = workers
        self.write_split_chunks = write_split_chunks
        self.metrics = ServerMetrics()
        #: The request queue — ``(connection, event, enqueue stamp)``, at
        #: most ``queue_depth`` long — the connections with events parked
        #: for lack of room, in the order they parked, and how many events
        #: are decoded but unanswered.  :meth:`start` adds the events:
        #: ``_work`` wakes workers, ``_drained`` is set at zero unserved.
        self._queue: Deque[Tuple[_Connection, _Event, int]] = deque()
        self._parked: Deque[_Connection] = deque()
        self._unserved = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._workers: list = []
        self._connections: set = set()
        # Pull-model publication of ServerMetrics (WeakMethod-held, so a
        # dropped server disappears from the registry on its own).
        self.registry.register_collector(self._publish_metrics)

    def _publish_metrics(self, registry: MetricsRegistry) -> None:
        """Collector: export :class:`ServerMetrics` as ``server.*`` gauges."""
        m = self.metrics
        registry.gauge("server.connections_total").set(m.connections_total)
        registry.gauge("server.connections_open").set(m.connections_open)
        registry.gauge("server.requests_enqueued").set(m.requests_enqueued)
        registry.gauge("server.responses_sent").set(m.responses_sent)
        registry.gauge("server.frames_rejected").set(m.frames_rejected)
        registry.gauge("server.bytes_in").set(m.bytes_in)
        registry.gauge("server.bytes_out").set(m.bytes_out)
        registry.gauge("server.max_queue_depth").set(m.max_queue_depth)
        registry.gauge("server.storage_ops").set(m.storage_ops)
        registry.gauge("server.storage_turns").set(m.storage_turns)
        registry.gauge("server.writes_split").set(m.writes_split)

    # -- lifecycle ---------------------------------------------------------------
    async def start(self) -> "AsyncProtocolServer":
        """Bind the listening socket and launch the worker pool."""
        self._work, self._drained = asyncio.Event(), asyncio.Event()
        self._server = await asyncio.get_running_loop().create_server(
            functools.partial(_Connection, self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._workers = [
            asyncio.create_task(self._worker(), name=f"aserver-worker-{i}")
            for i in range(self.num_workers)
        ]
        return self

    async def stop(self) -> None:
        """Stop accepting, drain queued requests, then flush the storage.

        Live connections are closed server-side; their clients observe
        EOF and fail any still-pending calls with a
        :class:`~repro.errors.ProtocolError`.
        """
        if self._server is not None:
            self._server.close()
        # Close live connections *before* awaiting wait_closed(): on
        # Python >= 3.12.1 wait_closed() also waits for every connection,
        # and an idle client would hold its own open forever.
        for connection in list(self._connections):
            connection.transport.close()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self._unserved:
            await self._drained.wait()
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        # The server-batch commit boundary: drains staged writes, seals
        # the open container and — when a journal is armed — fences the
        # final group commit, so every acked request is recoverable.
        self.storage.flush()

    async def __aenter__(self) -> "AsyncProtocolServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- admission ---------------------------------------------------------------
    def _enqueue(self, connection: _Connection, events: List[_Event]) -> None:
        """Take what one socket read decoded, in one step: into the queue
        while there is room, the rest parked in the connection, whose
        transport stops reading until a worker makes room."""
        connection.pending += len(events)
        self._unserved += len(events)
        self._drained.clear()
        # The enqueue timestamp rides the queue so the draining worker
        # can attribute queue-wait time; 0 means tracing was off.
        enqueued_ns = _trace.now_ns() if _trace.is_enabled() else 0
        if not connection.parked:
            self._parked.append(connection)
        connection.parked.extend([(connection, event, enqueued_ns) for event in events])
        self._admit()
        if connection.parked:
            # Backpressure: no socket reads → the TCP window closes.
            connection.transport.pause_reading()

    def _admit(self) -> None:
        """Move parked events into the queue while there is room — the
        connections in the order they parked, each in wire order; one
        left with nothing parked reads again."""
        queue, parked, metrics = self._queue, self._parked, self.metrics
        before = len(queue)
        while parked and len(queue) < self.queue_depth:
            waiting = parked[0].parked
            for _ in range(min(len(waiting), self.queue_depth - len(queue))):
                queue.append(waiting.popleft())
            if waiting:
                break
            parked.popleft().transport.resume_reading()
        if len(queue) > before:
            metrics.requests_enqueued += len(queue) - before
            metrics.max_queue_depth = max(metrics.max_queue_depth, len(queue))
            self._work.set()

    # -- worker pool -------------------------------------------------------------
    def _chunks_of(self, event: _Event) -> int:
        """Backend work one queued event asks for, in chunks."""
        if isinstance(event, Frame):
            if event.op == Op.WRITE:
                return -(-len(event.payload) // self.storage.chunk_size) or 1
            if event.op in (Op.READ, Op.TRIM):
                return event.read_count
        return 1

    def _splits(self, event: _Event) -> bool:
        """Whether ``event`` is a write applied as sub-writes (an unaligned
        one, or one running past the LBA space, takes the unsplit path, to
        fail validation before any piece)."""
        if not isinstance(event, Frame) or event.op != Op.WRITE:
            return False
        chunk_size = self.storage.chunk_size
        chunks = self._chunks_of(event)
        return (
            len(event.payload) % chunk_size == 0
            and chunks > self.write_split_chunks
            and event.lba + (chunks - 1) * (chunk_size // BLOCK_SIZE) < LBA_LIMIT
        )

    async def _worker(self) -> None:
        """Serve the queue a group at a time, waiting while it is empty."""
        while True:
            while not self._queue:
                self._work.clear()
                await self._work.wait()
            await self._serve_next()

    async def _serve_next(self) -> None:
        """Take the next group off the queue and serve it: everything
        already queued (in queue order) up to ``write_split_chunks``
        chunks of work — the size of one non-preemptible backend turn, so
        no reply waits on more than one bulk piece.  An op that alone
        exceeds the budget (a write about to be split, a long read) is a
        group of one."""
        queue = self._queue
        group = [queue.popleft()]
        room = self.write_split_chunks - self._chunks_of(group[0][1])
        while queue:
            room -= self._chunks_of(queue[0][1])
            if room < 0:
                break
            group.append(queue.popleft())
        self._admit()
        try:
            await self._serve_group(group)
        finally:
            for connection, _, _ in group:
                connection.pending -= 1
                if connection.eof and not connection.pending:
                    connection.transport.close()
            self._unserved -= len(group)
            if not self._unserved:
                self._drained.set()

    async def _serve_group(self, group: list) -> None:
        """One backend turn for the group, then one reply write per
        connection; decode errors are answered in their wire position."""
        if _trace.is_enabled():
            dequeued_ns = _trace.now_ns()
            _trace.observe_group("server.queue.wait", [
                dequeued_ns - enqueued_ns for _, _, enqueued_ns in group if enqueued_ns
            ])
        with _trace.span("server.dispatch", ops=len(group)):
            replies = await self._dispatch([event for _, event, _ in group])
        outbound: Dict[_Connection, List[bytes]] = {}
        for (connection, event, _), reply in zip(group, replies):
            if isinstance(event, ProtocolError):
                self.metrics.frames_rejected += 1
            else:
                self.metrics.storage_ops += 1
            outbound.setdefault(connection, []).append(reply)
        for connection, parts in outbound.items():
            # A slow reader parks the worker before its next write, so a
            # transport holds at most its high-water mark plus one group.
            await connection.writable.wait()
            if connection.transport.is_closing():
                continue  # client vanished; only its own replies are lost
            data = b"".join(parts)  # a lone reply is returned as is, no copy
            with _trace.span("server.reply"):
                connection.transport.write(data)
            self.metrics.responses_sent += len(parts)
            self.metrics.bytes_out += len(data)

    # -- backend dispatch --------------------------------------------------------
    async def _dispatch(self, events: List[_Event]) -> List[bytes]:
        """The response bytes for one group of queued events: one
        ``handle_group`` call or, for an oversized write (always a group
        of one, see :meth:`_serve_next`), split sub-writes."""
        if self._splits(events[0]):
            return [await self._split_write(events[0])]
        self.metrics.storage_turns += 1
        return self.endpoint.handle_group(events)

    async def _split_write(self, frame: Frame) -> bytes:
        """Apply one large write as sequential sub-writes, between two of
        which the loop reads its sockets and serves one queued group
        (unless it is another write to split, which a worker takes after),
        so small ops interleave with a bulk write.  The ack still waits
        for the last piece; a failure is the typed error frame the unsplit
        path would send (pieces applied stay applied — per-chunk atomicity).
        """
        self.endpoint.requests_served += 1  # parity with handle_frame
        self.metrics.writes_split += 1
        chunk_size = self.storage.chunk_size
        blocks_per_chunk = chunk_size // BLOCK_SIZE
        split_bytes = self.write_split_chunks * chunk_size
        for start in range(0, len(frame.payload), split_bytes):
            if start:
                # Two loop iterations: the first resumes this task ahead
                # of the socket reads its select found, the second after.
                await asyncio.sleep(0)
                await asyncio.sleep(0)
                if self._queue and not self._splits(self._queue[0][1]):
                    await self._serve_next()
            piece = frame.payload[start : start + split_bytes]
            piece_lba = frame.lba + (start // chunk_size) * blocks_per_chunk
            self.metrics.storage_turns += 1
            try:
                self.storage.write(piece_lba, piece)
            except Exception as error:  # never kill a worker
                return encode_error_reply(frame, error)
        return encode_reply(frame, Op.WRITE_ACK, frame.lba)


class AsyncProtocolClient(asyncio.Protocol):
    """Pipelined client over one TCP connection, and its transport's protocol.

    Every request carries a fresh ``request_id``; ``data_received``
    matches responses back to their callers, so any number of
    ``read``/``write`` coroutines may be awaited concurrently
    (``asyncio.gather``) and completions may arrive out of order.
    """

    def __init__(self, *, registry: Optional[MetricsRegistry] = None):
        reg = registry if registry is not None else get_registry()
        #: Reader deaths (EOF, decode error, socket loss) used to be
        #: observable only as failed futures; now they are counted.
        self._reader_deaths = reg.counter("proto.client.reader_deaths_total")
        self._decoder = FrameDecoder(reg)
        self._transport: Any = None  # set by connection_made
        self._lost = asyncio.Event()
        self._next_request_id = 0
        self._by_id: Dict[int, asyncio.Future] = {}
        #: ``(wire, future)`` of this tick's requests, sent by ``_flush``.
        self._corked: list = []
        self._closed = False
        # A client process may build no engine, which would settle it.
        settle_allocator()

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> "AsyncProtocolClient":
        _, client = await asyncio.get_running_loop().create_connection(
            lambda: cls(registry=registry), host, port
        )
        return client

    async def __aenter__(self) -> "AsyncProtocolClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def close(self) -> None:
        self._closed = True
        self._transport.close()
        await self._lost.wait()
        self._fail_pending(ProtocolError("client closed"))

    # -- response demultiplexer (the transport's callbacks) ---------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        for event in self._decoder.events(data):
            if isinstance(event, ProtocolError):
                self._reader_died(event)
                self._transport.close()
                return
            self._complete(event)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._reader_died(ProtocolError(
            f"connection lost: {exc}" if exc else "server closed connection"
        ))
        self._lost.set()

    def _reader_died(self, error: ProtocolError) -> None:
        """Nothing can complete a future any more, so the client is
        effectively closed: count the death (``close()`` is none), fail
        the pending calls, and make later ones raise instead of hang."""
        if not self._closed:
            self._closed = True
            self._reader_deaths.inc()
            self._fail_pending(error)

    def _complete(self, frame: Frame) -> None:
        future = self._by_id.pop(frame.request_id, None)
        # None: a response to a request we no longer track.
        if future is not None and not future.done():
            future.set_result(frame)

    def _fail_pending(self, error: ProtocolError) -> None:
        for future in self._by_id.values():
            if not future.done():
                future.set_exception(error)
        self._by_id.clear()

    # -- request path ------------------------------------------------------------
    async def _request(self, op: int, lba: int, payload: bytes = b"",
                       count: int = 0) -> Frame:
        if self._closed:
            raise ProtocolError("client is closed")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._next_request_id = (self._next_request_id + 1) % (1 << 32)
        self._by_id[self._next_request_id] = future
        wire = encode_frame(
            op, lba, payload, request_id=self._next_request_id, count=count
        )
        # One send per event-loop tick: the first request of a tick
        # schedules the flush, an ``asyncio.gather`` burst rides with it.
        if not self._corked:
            loop.call_soon(self._flush)
        self._corked.append((wire, future))
        return await future

    def _flush(self) -> None:
        """Send this tick's requests in one write (``join`` hands a lone
        frame back as is, uncopied)."""
        corked, self._corked = self._corked, []
        try:
            self._transport.write(b"".join([wire for wire, _ in corked]))
        except OSError as error:
            self._fail_send([future for _, future in corked], error)

    def _fail_send(self, futures: list, error: OSError) -> None:
        """Unregister the futures a failed send carried so they are not
        leaked, and fail exactly their callers through the module's
        error type."""
        failure = ProtocolError(f"send failed: {error}")
        failure.__cause__ = error
        for key in [k for k, future in self._by_id.items() if future in futures]:
            del self._by_id[key]
        for future in futures:
            if not future.done():
                future.set_exception(failure)

    async def write(self, lba: int, payload: bytes) -> None:
        """Write ``payload`` at chunk-aligned ``lba``; awaits the ack."""
        response = await self._request(Op.WRITE, lba, payload)
        if response.op != Op.WRITE_ACK:
            raise_for_error_payload(response.payload, "write failed")

    async def read(self, lba: int, num_chunks: int = 1) -> bytes:
        """Read ``num_chunks`` chunks starting at chunk-aligned ``lba``."""
        response = await self._request(Op.READ, lba, count=num_chunks)
        if response.op != Op.READ_ACK:
            raise_for_error_payload(response.payload, "read failed")
        return response.payload

    async def trim(self, lba: int, num_chunks: int = 1) -> None:
        """Drop ``num_chunks`` chunk mappings at ``lba``."""
        response = await self._request(Op.TRIM, lba, count=num_chunks)
        if response.op != Op.TRIM_ACK:
            raise_for_error_payload(response.payload, "trim failed")

    async def _snap(
        self, body: Dict[str, Any], lba: int = 0, count: int = 0
    ) -> Frame:
        payload = json.dumps(
            body, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
        response = await self._request(Op.SNAP, lba, payload, count=count)
        if response.op != Op.SNAP_ACK:
            raise_for_error_payload(response.payload, "snap failed")
        return response

    async def create_snapshot(self, name: str) -> int:
        """Pin the server's acked state under ``name``; returns the
        number of pinned chunk mappings."""
        response = await self._snap({"action": "create", "name": name})
        return int(json.loads(response.payload.decode("utf-8"))["pinned"])

    async def delete_snapshot(self, name: str) -> int:
        """Drop snapshot ``name``; returns chunks reclaimed."""
        response = await self._snap({"action": "delete", "name": name})
        return int(json.loads(response.payload.decode("utf-8"))["reclaimed"])

    async def snapshots(self) -> List[str]:
        """List the server's snapshot names."""
        response = await self._snap({"action": "list"})
        names = json.loads(response.payload.decode("utf-8"))["snapshots"]
        return [str(name) for name in names]

    async def read_snapshot(
        self, name: str, lba: int, num_chunks: int = 1
    ) -> bytes:
        """Read chunks at ``lba`` as of snapshot ``name``."""
        response = await self._snap(
            {"action": "read", "name": name}, lba=lba, count=num_chunks
        )
        return response.payload

    async def stats(self) -> Dict[str, Any]:
        """Scrape the server's live ``repro.stats/v1`` snapshot."""
        response = await self._request(Op.STATS, 0)
        if response.op != Op.STATS_ACK:
            raise_for_error_payload(response.payload, "stats failed")
        payload: Dict[str, Any] = json.loads(response.payload.decode("utf-8"))
        return payload
