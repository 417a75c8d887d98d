"""Estimators and host probes for the wire-path benchmark.

Everything here is a pure function of its inputs (or of one ``/proc``
file), so ``test_bench_units.py`` exercises it on synthetic data.

The estimator is the **midmean of host-calibrated windows**.  A timed phase is
a fixed number of ops cut into windows of a fixed op count.  Between ops
the loadgen runs *calibration slices* — a fixed zlib+sha256 loop — so each
window knows how fast the host was while it ran: its ``host_factor`` is
the mean slice time over ``HOST_REFERENCE_US_PER_BLOCK`` (> 1 on a slow
host).  A window's throughput is multiplied, and its times divided, by
that factor, which turns them into *reference-host* values; the phase's
value is the interquartile mean (midmean) of its windows.  On this shared
2-vCPU host the raw best window repeats to ~10 % between runs, the
calibrated midmean to ~2-4 %.  Validity limits: a stall that hits fewer
than a quarter of the windows does not move the midmean, and host
interference shorter than an op can hit the op but not the slice beside
it — which is why the raw pooled and raw best-window values are always
reported beside it.
"""

from __future__ import annotations

import hashlib
import statistics
import time
import zlib
from typing import List, Sequence

MB = 1e6


# -- windows ---------------------------------------------------------------
def window_sums(values: Sequence[float], per_window: int) -> List[float]:
    """Sum consecutive groups of ``per_window`` values (a short tail
    group, which would not be comparable, is dropped)."""
    if per_window < 1:
        raise ValueError("per_window must be at least 1")
    full = len(values) // per_window
    return [
        sum(values[index * per_window:(index + 1) * per_window])
        for index in range(full)
    ]


def rates(amounts: Sequence[float], seconds: Sequence[float]) -> List[float]:
    """Per-window ``amount / seconds`` (windows with no time are skipped)."""
    return [a / s for a, s in zip(amounts, seconds) if s > 0]


def best(values: Sequence[float], better: str) -> float:
    """The best window: max for ``higher``, min for ``lower``."""
    if not values:
        raise ValueError("no complete window")
    return max(values) if better == "higher" else min(values)


def midmean(values: Sequence[float]) -> float:
    """Interquartile mean: the mean of the middle half of the windows.

    As robust as the median against windows an interference burst hit
    (or a lucky coalescing episode sped up), but it averages the ones it
    keeps, so it repeats better than the median does."""
    if not values:
        raise ValueError("no complete window")
    ordered = sorted(values)
    trim = len(ordered) // 4
    return statistics.fmean(ordered[trim:len(ordered) - trim])


def spread(values: Sequence[float]) -> float:
    """(max - min) / median — how far the windows of one phase disagree."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


# -- /proc parsers ---------------------------------------------------------
def parse_stat_cpu_ticks(stat_text: str) -> int:
    """utime + stime (clock ticks) from the text of ``/proc/<pid>/stat``.

    The command name (field 2) may hold spaces and parentheses, so the
    fields are counted from the *last* ``)``.
    """
    fields = stat_text[stat_text.rindex(")") + 2:].split()
    # fields[0] is field 3 (state); utime/stime are fields 14 and 15.
    return int(fields[11]) + int(fields[12])


def parse_status_kb(status_text: str, key: str) -> int:
    """One ``<key>:   <n> kB`` line of ``/proc/<pid>/status``."""
    for line in status_text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    raise KeyError(key)


# -- host calibration ------------------------------------------------------
_CALIB_BLOCK = bytes(range(256)) * 8 + b"\xa5" * 2048
#: One calibration block — zlib level 1 plus sha256 over a fixed 4-KiB
#: buffer — takes this long on the reference host.  The value only fixes
#: the unit ("MB/s on a host this fast"); it is this host's typical speed.
HOST_REFERENCE_US_PER_BLOCK = 23.0
#: Blocks per slice: ~1 ms, short beside a 256-KiB op, long beside the
#: clock's resolution.  The same everywhere, so slices compare.
SLICE_BLOCKS = 40


def window_host_factors(slice_seconds: Sequence[float],
                        per_window: int) -> List[float]:
    """:func:`host_factor` of each consecutive group of ``per_window``
    slices (one slice ran before each op or round of the window)."""
    return [host_factor(slice_seconds[at:at + per_window])
            for at in range(0, len(slice_seconds), per_window)]


def calibration_slice() -> float:
    """Run one slice of fixed work; returns the seconds it took."""
    start = time.perf_counter()
    for _ in range(SLICE_BLOCKS):
        hashlib.sha256(zlib.compress(_CALIB_BLOCK, 1)).digest()
    return time.perf_counter() - start


def host_factor(slice_seconds: Sequence[float]) -> float:
    """How much slower than the reference host these slices ran (1.0
    when there are none to judge by)."""
    if not slice_seconds:
        return 1.0
    per_block_us = statistics.fmean(slice_seconds) / SLICE_BLOCKS * 1e6
    return per_block_us / HOST_REFERENCE_US_PER_BLOCK
