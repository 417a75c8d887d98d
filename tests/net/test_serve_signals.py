"""``python -m repro.net serve`` / ``route`` as real processes: SIGTERM
is a clean shutdown — exit code 0, no stage-pool worker left behind,
and no wait on a client that is merely still connected."""

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
from typing import List, Tuple

import repro
from repro.net.aserver import AsyncProtocolClient

CHUNK = 4096
_LISTENING = re.compile(r"(?:serving \S+|routing \d+ shards) on ([\w.\-]+):(\d+)")


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


def _children(pid: int) -> List[int]:
    """Live processes whose parent is ``pid`` (field 4 of /proc/N/stat)."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except OSError:
            continue  # exited while we were scanning
        if ppid == pid:
            found.append(int(stat.parent.name))
    return found


async def _write_one_batch(host: str, port: int) -> None:
    """64 distinct chunks in one op: enough for the pool to fan out, so
    the process backend has forked its workers by the time it is acked."""
    payload = b"".join(
        index.to_bytes(2, "big") * (CHUNK // 2) for index in range(64)
    )
    async with await AsyncProtocolClient.connect(host, port) as client:
        await client.write(0, payload)


def test_sigterm_reaps_process_pool_workers_and_exits_zero():
    proc = _spawn("serve", "--parallelism", "2", "--executor", "process")
    workers: List[int] = []
    try:
        host, port = _await_listening(proc, timeout=60)
        asyncio.run(_write_one_batch(host, port))
        workers = _children(proc.pid)
        assert workers, "the process backend never started a worker"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
        assert [pid for pid in workers if Path(f"/proc/{pid}").exists()] == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        for pid in workers:  # only a failing run leaves any
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def test_sigterm_stops_the_router_while_a_client_is_still_connected():
    """``ShardRouter.stop()`` closes its client connections itself: on
    Python >= 3.12.1 ``wait_closed()`` waits for every handler, and one
    parked in ``reader.read()`` on an idle connection never returns."""
    proc = _spawn("route", "--spawn", "2")
    idle = None
    try:
        host, port = _await_listening(proc, timeout=60)
        idle = socket.create_connection((host, port), timeout=10)
        asyncio.run(_write_one_batch(host, port))  # the router is serving
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=20) == 0
    finally:
        if idle is not None:
            idle.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
