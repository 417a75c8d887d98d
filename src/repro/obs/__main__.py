"""Operator CLI for the observability subsystem.

``dump`` fetches one ``repro.stats/v1`` snapshot from a running
server (the protocol's ``STATS`` op) and prints it as JSON;
``top`` refreshes a terminal view of the same snapshot — per-span
latency histograms, the engine's dedup/compression gauges, and the
protocol/server counters — until interrupted.

Examples
--------
Against a server started with ``python -m repro.net serve --port 9876``::

    python -m repro.obs dump --port 9876
    python -m repro.obs top --port 9876 --interval 1.0
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time
from typing import Any, Dict, List, Optional

from ..errors import ProtocolError, ReproError, raise_for_error_payload
from ..net.protocol import FrameDecoder, Op, encode_frame
from .metrics import MetricsRegistry, bucket_quantile

__all__ = ["main"]

_RECV_CHUNK = 64 * 1024


def _fetch_stats(
    host: str, port: int, timeout: float = 5.0
) -> Dict[str, Any]:
    """One STATS round trip over a raw TCP socket.

    Deliberately transport-minimal (no asyncio, no pipelining): a
    monitoring probe should work even when the asyncio client stack is
    what's being debugged.  The decoder is registry-isolated so probing
    a server does not perturb the probe process's own metrics.
    """
    decoder = FrameDecoder(MetricsRegistry(stripes=1))
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(encode_frame(Op.STATS, 0, request_id=1))
        while True:
            data = sock.recv(_RECV_CHUNK)
            if not data:
                raise ProtocolError("server closed connection before replying")
            frames = decoder.feed(data)
            if not frames:
                continue
            frame = frames[0]
            if frame.op == Op.STATS_ACK:
                payload: Dict[str, Any] = json.loads(
                    frame.payload.decode("utf-8")
                )
                return payload
            raise_for_error_payload(frame.payload, "stats failed")
            raise ProtocolError(f"unexpected response op {frame.op}")


def _render(snapshot: Dict[str, Any]) -> str:
    gauges: Dict[str, Any] = snapshot.get("gauges", {})
    counters: Dict[str, Any] = snapshot.get("counters", {})
    histograms: Dict[str, Any] = snapshot.get("histograms", {})
    tracing = "on" if snapshot.get("tracing") else "off"
    lines: List[str] = [
        f"repro.obs top — {snapshot.get('schema', '?')} (tracing {tracing})",
        "",
    ]

    live = {name: h for name, h in sorted(histograms.items()) if h["count"]}
    if live:
        lines.append(
            f"  {'span latency':<28}{'count':>9}{'p50 us':>10}"
            f"{'p99 us':>10}{'max us':>10}"
        )
        for name, hist in live.items():
            lines.append(
                f"  {name:<28}{hist['count']:>9}"
                f"{bucket_quantile(hist, 0.50) / 1e3:>10.1f}"
                f"{bucket_quantile(hist, 0.99) / 1e3:>10.1f}"
                f"{(hist['max'] or 0) / 1e3:>10.1f}"
            )
    elif tracing == "off":
        lines.append("  (no span histograms — server tracing is disabled)")
    else:
        lines.append("  (no spans recorded yet)")

    reduction = [
        ("dedup ratio", gauges.get("engine.dedup_ratio")),
        ("compression ratio", gauges.get("engine.compression_ratio")),
        ("reduction factor", gauges.get("engine.reduction_factor")),
        ("logical bytes", gauges.get("engine.logical_bytes")),
        ("live stored bytes", gauges.get("engine.live_stored_bytes")),
    ]
    lines.append("")
    lines.append("  data reduction")
    for label, value in reduction:
        if value is None:
            continue
        rendered = f"{value:,.3f}" if isinstance(value, float) else f"{value:,}"
        lines.append(f"    {label:<22}{rendered:>16}")

    interesting = [
        name for name in sorted(counters)
        if counters[name] and name.startswith("proto.")
    ]
    server_gauges = [
        name for name in sorted(gauges) if name.startswith("server.")
    ]
    if interesting or server_gauges:
        lines.append("")
        lines.append("  protocol / serving")
        for name in interesting:
            lines.append(f"    {name:<34}{counters[name]:>12,}")
        for name in server_gauges:
            lines.append(f"    {name:<34}{gauges[name]:>12,}")
    return "\n".join(lines)


def _dump(args: argparse.Namespace) -> int:
    snapshot = _fetch_stats(args.host, args.port)
    if not args.spans:
        snapshot.pop("spans", None)
    json.dump(snapshot, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _top(args: argparse.Namespace) -> int:
    while True:
        snapshot = _fetch_stats(args.host, args.port)
        if not args.once:
            sys.stdout.write("\x1b[2J\x1b[H")  # clear screen, home cursor
        print(_render(snapshot), flush=True)
        if args.once:
            return 0
        time.sleep(args.interval)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Live metrics for a running repro.net server "
        "(scraped via the protocol STATS op).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    dump = commands.add_parser(
        "dump", help="print one repro.stats/v1 snapshot as JSON"
    )
    dump.add_argument("--host", default="127.0.0.1")
    dump.add_argument("--port", type=int, required=True)
    dump.add_argument(
        "--spans",
        action="store_true",
        help="include the raw span ring tail (verbose)",
    )

    top = commands.add_parser(
        "top", help="continuously render latency histograms and ratios"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, required=True)
    top.add_argument(
        "--interval", type=float, default=2.0, help="refresh period, seconds"
    )
    top.add_argument(
        "--once", action="store_true", help="render a single frame and exit"
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "dump":
            return _dump(args)
        return _top(args)
    except KeyboardInterrupt:
        return 0
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
