"""``python -m repro.net serve`` as a real process: SIGTERM
is a clean shutdown — exit code 0 after an acknowledged write, and no
wait on a client that is merely still connected."""

from __future__ import annotations

import asyncio
import os
import re
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Tuple

import repro
from repro.net.aserver import AsyncProtocolClient

CHUNK = 4096
_LISTENING = re.compile(r"serving \S+ on ([\w.\-]+):(\d+)")


def _spawn(*command: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1])]
        + [p for p in (env.get("PYTHONPATH"),) if p]
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.net", *command],
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
    )


def _await_listening(proc: subprocess.Popen, timeout: float) -> Tuple[str, int]:
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        assert remaining > 0, f"no listening line within {timeout:.0f} s"
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if not ready:
            continue
        line = proc.stdout.readline().decode("utf-8", "replace")
        assert line, f"server exited with code {proc.wait()} before listening"
        match = _LISTENING.search(line)
        if match:
            return match.group(1), int(match.group(2))


async def _write_one_batch(host: str, port: int) -> None:
    """64 distinct chunks in one op: one full engine batch, acknowledged
    before the signal arrives."""
    payload = b"".join(
        index.to_bytes(2, "big") * (CHUNK // 2) for index in range(64)
    )
    async with await AsyncProtocolClient.connect(host, port) as client:
        await client.write(0, payload)


def test_sigterm_stops_a_serving_server_and_exits_zero():
    proc = _spawn("serve")
    try:
        host, port = _await_listening(proc, timeout=60)
        asyncio.run(_write_one_batch(host, port))
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def test_sigterm_stops_serve_while_a_client_is_still_connected():
    """``AsyncProtocolServer.stop()`` closes its client connections
    itself: on Python >= 3.12.1 ``wait_closed()`` waits for every
    connection, and an idle one would never end on its own."""
    proc = _spawn("serve")
    idle = None
    try:
        host, port = _await_listening(proc, timeout=60)
        idle = socket.create_connection((host, port), timeout=10)
        asyncio.run(_write_one_batch(host, port))  # the server is serving
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=20) == 0
    finally:
        if idle is not None:
            idle.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
