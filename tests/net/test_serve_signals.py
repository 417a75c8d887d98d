"""``python -m repro.net serve`` as a real process: SIGTERM is a clean
shutdown — exit code 0 and no stage-pool worker left behind."""

from __future__ import annotations

import asyncio
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

import repro
from repro.net.aserver import AsyncProtocolClient

CHUNK = 4096
_SERVING = re.compile(r"serving \S+ on ([\w.\-]+):(\d+)")


def _await_serving(proc: subprocess.Popen, timeout: float) -> Tuple[str, int]:
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        assert remaining > 0, f"no serving line within {timeout:.0f} s"
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if not ready:
            continue
        line = proc.stdout.readline().decode("utf-8", "replace")
        assert line, f"server exited with code {proc.wait()} before serving"
        match = _SERVING.search(line)
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1])]
        + [p for p in (env.get("PYTHONPATH"),) if p]
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.net", "serve",
         "--parallelism", "2", "--executor", "process"],
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
    )
    workers: List[int] = []
    try:
        host, port = _await_serving(proc, timeout=60)
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
