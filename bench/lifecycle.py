"""Lifecycle of the server subprocess the benchmark drives.

One :class:`ServerProcess` is one ``python -m repro.net serve --port 0``
(or the same through ``traced_server.py``).  ``start`` waits for the
``serving ... on host:port`` line with a timeout; ``stop`` is
``terminate()`` -> ``kill()`` (a traced server turns the SIGTERM into a
clean shutdown so it can dump its spans; SIGINT would not do, a process
started from a background job inherits it ignored).  ``stop`` is safe to
call from a ``finally`` on any exit path, including Ctrl-C, and always
reaps the child, so no orphan process or bound port outlives the run.
"""

from __future__ import annotations

import os
import re
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from measure import parse_stat_cpu_ticks, parse_status_kb
from traced_server import TRACE_MARKER

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

_SERVING = re.compile(r"serving \S+ on ([\w.\-]+):(\d+)")
_TICK_MS = 1e3 / os.sysconf("SC_CLK_TCK")


class ServerStartError(RuntimeError):
    """The server did not reach ``serving ... on host:port`` in time."""


class ServerProcess:
    def __init__(self, extra_args: Sequence[str] = (), traced: bool = False):
        self.extra_args = list(extra_args)
        self.traced = traced
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self, timeout: float = 60.0) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + [p for p in (env.get("PYTHONPATH"),) if p]
        )
        env["PYTHONHASHSEED"] = "0"
        entry: List[str] = (
            [str(BENCH_DIR / "traced_server.py")] if self.traced
            else ["-m", "repro.net"]
        )
        self.proc = subprocess.Popen(
            [sys.executable, *entry, "serve", "--port", "0", *self.extra_args],
            env=env,
            cwd=str(REPO_ROOT),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        )
        try:
            self.host, self.port = self._await_serving(timeout)
        except BaseException:
            self.stop(grace=0.0)
            raise
        return self

    def _await_serving(self, timeout: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServerStartError(f"no serving line within {timeout:.0f} s")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if not ready:
                continue
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                raise ServerStartError(
                    f"server exited with code {self.proc.wait()} before serving"
                )
            match = _SERVING.search(line)
            if match:
                return match.group(1), int(match.group(2))

    # -- /proc probes --------------------------------------------------------
    def cpu_ms(self) -> float:
        """utime + stime of the server process so far, in milliseconds."""
        text = Path(f"/proc/{self.proc.pid}/stat").read_text()
        return parse_stat_cpu_ticks(text) * _TICK_MS

    def peak_rss_mb(self) -> float:
        text = Path(f"/proc/{self.proc.pid}/status").read_text()
        return parse_status_kb(text, "VmHWM") * 1024 / 1e6

    # -- shutdown ------------------------------------------------------------
    def stop(self, grace: float = 20.0) -> Optional[str]:
        """Stop and reap the server; returns a traced server's span dump
        (the JSON after :data:`TRACE_MARKER`) when there is one."""
        proc, self.proc = self.proc, None
        if proc is None:
            return None
        output = b""
        try:
            proc.terminate()
            output, _ = proc.communicate(timeout=grace)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        for line in output.decode("utf-8", "replace").splitlines():
            if line.startswith(TRACE_MARKER):
                return line[len(TRACE_MARKER):]
        return None
