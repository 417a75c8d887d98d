"""Command-line entry points for the serving layer.

``serve`` hosts a :class:`~repro.net.aserver.AsyncProtocolServer` over a
freshly built storage system — one dedup engine — until interrupted.
Each ``serve`` process is one engine; there is no routing tier.  The
storage stack runs every pipeline stage (hashing, compression,
decompression) inline on the loop thread that serves it; there are no
worker threads.  The load generator is ``bench/run.py``, which spawns
its own ``serve`` subprocess.

Example: run a FIDR-architecture server::

    python -m repro.net serve --system fidr --port 9876
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import List, Optional

from ..datared import codecs as _codecs
from ..obs import trace as _trace
from ..systems.config import CodecPolicy, DurabilityPolicy, SystemConfig
from ..systems.server import StorageServer, SystemKind
from .aserver import AsyncProtocolServer

__all__ = ["main"]


def _build_storage(args: argparse.Namespace) -> StorageServer:
    config = SystemConfig(
        codec=CodecPolicy(codec=args.codec),
        durability=DurabilityPolicy(
            journal=args.journal or args.checkpoint_every is not None,
            checkpoint_every_commits=args.checkpoint_every,
        ),
    )
    return StorageServer.build(SystemKind(args.system), config=config)


def _add_serve_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--system",
        choices=[kind.value for kind in SystemKind],
        default=SystemKind.FIDR.value,
        help="which architecture backs the server (default: fidr)",
    )
    parser.add_argument(
        "--codec",
        choices=_codecs.codec_names(),
        default="zlib",
        help="compression codec for unique chunks (reads decode by "
        "stored tag, whatever this is set to)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="asyncio dispatch workers draining the request queue",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="bound on queued requests before connections block",
    )
    parser.add_argument(
        "--write-split-chunks",
        type=int,
        default=64,
        help="split writes larger than this many chunks so "
        "queued small requests can interleave",
    )
    parser.add_argument(
        "--journal",
        action="store_true",
        help="arm the group-commit metadata journal (crash-consistent "
        "durability tier; see DESIGN.md §5.9)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="with the journal armed, checkpoint + truncate every N "
        "group commits (implies --journal)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument(
        "--no-trace",
        action="store_true",
        help="disable trace spans (metrics registry and the STATS op "
        "stay live; only the per-stage span histograms go dark)",
    )


async def _serve(args: argparse.Namespace) -> int:
    # Serving turns tracing on by default: the per-stage histograms and
    # spans are what `python -m repro.obs top` renders, and the engine
    # publishes one span per stage per batch, so the cost does not grow
    # with the chunk count.
    _trace.set_enabled(not args.no_trace)
    # The lifecycle contract (rule R012): the storage stack is closed on
    # every exit path — the async-with stop() is the last commit fence,
    # close() then seals the open container and fences the journal.
    with _build_storage(args) as storage:
        return await _serve_storage(args, storage)


async def _serve_storage(
    args: argparse.Namespace, storage: StorageServer
) -> int:
    async with AsyncProtocolServer(
        storage,
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        workers=args.workers,
        write_split_chunks=args.write_split_chunks,
    ) as server:
        print(
            f"serving {args.system} on {server.host}:{server.port} "
            f"(codec={storage.system.engine.compressor.name}, "
            f"tracing={_trace.is_enabled()})",
            flush=True,
        )
        if _trace.is_enabled():
            print(
                "watch live metrics with: python -m repro.obs top "
                f"--host {server.host} --port {server.port}",
                flush=True,
            )
        await _until_stopped()
    return 0


async def _until_stopped() -> None:
    """Park until SIGTERM or Ctrl-C.  Either way the caller then leaves
    its ``async with``, so ``stop()`` fences the last commit and
    ``close()`` seals the open container before the process exits."""
    stopped = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stopped.set)
    try:
        await stopped.wait()
    except asyncio.CancelledError:
        pass


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net",
        description="Serving-layer entry points for the FIDR reproduction.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    _add_serve_options(
        commands.add_parser("serve", help="host a protocol server")
    )
    args = parser.parse_args(argv)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
