"""Typed metrics: counters, gauges, and fixed-bucket histograms.

The runtime counterpart of the repo's device ledgers.  Ledgers stay the
source of truth for *accounting* (exact, integral, guarded by the
engine lock); this registry is the *publication* surface a running
server exposes through the protocol's ``STATS`` op and the
``python -m repro.obs`` CLI.  Three instrument kinds, mirroring the
distinction DESIGN.md §5.5 draws:

``Counter``
    Monotonic and integral — events that only ever happen more
    (resyncs, dispatched slices).  Rejects floats and negative
    increments so a counter can never drift from a ledger it mirrors.
``Gauge``
    A point-in-time sample (queue depth, dedup ratio).  The only
    instrument allowed to carry floats, because ratios are *derived*
    at publication time (R004: the underlying ledgers stay integral).
``Histogram``
    Fixed exponential buckets over integer nanoseconds.  Observation
    is O(log buckets) with no allocation, so trace spans can feed it
    from the hot path while tracing is enabled.

Locking is striped: instruments hash onto one of ``stripes`` locks, so
concurrent publishers (servers on their own loop threads in one
process, a STATS read collecting engines other threads own) do not
serialize on a single registry-wide lock.  Instrument *creation* takes
a separate meta lock; steady-state publication never does.

Collectors bridge the pull model: a component registers a bound method
(held via :class:`weakref.WeakMethod`, so dead components unregister
themselves) that exports its guarded ledgers into gauges when a
snapshot is taken — the hot path never touches the registry for state
the ledgers already track exactly.
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BOUNDS_NS",
    "bucket_quantile",
    "get_registry",
    "set_registry",
]

#: Default histogram buckets: exponential 1 µs .. 1 s in nanoseconds,
#: the span of everything this stack times (a table probe to a bulk
#: split write).  The final bucket is the implicit overflow.
DEFAULT_LATENCY_BOUNDS_NS: Tuple[int, ...] = (
    1_000, 2_000, 5_000,
    10_000, 20_000, 50_000,
    100_000, 200_000, 500_000,
    1_000_000, 2_000_000, 5_000_000,
    10_000_000, 20_000_000, 50_000_000,
    100_000_000, 200_000_000, 500_000_000,
    1_000_000_000,
)


class Counter:
    """A monotonic integral counter."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if type(amount) is not int:
            raise TypeError(
                f"counter {self.name!r} is integral; got {type(amount).__name__}"
            )
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} is monotonic; cannot add {amount}"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time sample (the one float-friendly instrument)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self._value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> Union[int, float]:
        return self._value


class Histogram:
    """Fixed-bucket histogram over integer observations (nanoseconds).

    ``bounds`` are inclusive upper bounds; one implicit overflow bucket
    follows the last bound, so ``len(counts) == len(bounds) + 1``.
    """

    __slots__ = ("name", "bounds", "_lock", "_counts", "_count", "_sum",
                 "_min", "_max")

    def __init__(
        self,
        name: str,
        lock: threading.Lock,
        bounds: Sequence[int] = DEFAULT_LATENCY_BOUNDS_NS,
    ) -> None:
        if not bounds or list(bounds) != sorted(set(int(b) for b in bounds)):
            raise ValueError("bounds must be strictly increasing integers")
        self.name = name
        self.bounds: Tuple[int, ...] = tuple(int(b) for b in bounds)
        self._lock = lock
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0
        self._min: Optional[int] = None
        self._max: Optional[int] = None

    def observe(self, value: int) -> None:
        value = int(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> int:
        return self._sum

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
            }


def bucket_quantile(snapshot: Dict[str, Any], fraction: float) -> float:
    """Approximate quantile from a histogram snapshot dict.

    Returns the upper bound of the bucket the quantile falls in (the
    recorded ``max`` for the overflow bucket) — coarse by construction,
    which is the histogram trade-off the fixed buckets buy.
    """
    total = snapshot["count"]
    if not total:
        return 0.0
    target = max(1.0, fraction * total)
    cumulative = 0
    bounds: List[int] = snapshot["bounds"]
    for index, count in enumerate(snapshot["counts"]):
        cumulative += count
        if cumulative >= target:
            if index < len(bounds):
                return float(bounds[index])
            break
    return float(snapshot["max"] or (bounds[-1] if bounds else 0))


_Instrument = Union[Counter, Gauge, Histogram]
_Collector = Callable[["MetricsRegistry"], None]


class _StrongRef:
    """Weakref-shaped holder for plain functions (no ``__self__``)."""

    __slots__ = ("_fn",)

    def __init__(self, fn: _Collector) -> None:
        self._fn = fn

    def __call__(self) -> Optional[_Collector]:
        return self._fn


class MetricsRegistry:
    """Process-wide home of every instrument, with striped locking."""

    def __init__(self, stripes: int = 16) -> None:
        if stripes < 1:
            raise ValueError("need at least one lock stripe")
        self._meta = threading.Lock()
        self._stripes = tuple(threading.Lock() for _ in range(stripes))
        self._instruments: Dict[str, _Instrument] = {}
        #: Weak(ish) references to collector callables (module docstring).
        self._collectors: List[Callable[[], Optional[_Collector]]] = []

    def _stripe_for(self, name: str) -> threading.Lock:
        return self._stripes[hash(name) % len(self._stripes)]

    def _get_or_create(
        self, name: str, kind: type, factory: Callable[[], _Instrument]
    ) -> _Instrument:
        with self._meta:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        instrument = self._get_or_create(
            name, Counter, lambda: Counter(name, self._stripe_for(name))
        )
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._get_or_create(
            name, Gauge, lambda: Gauge(name, self._stripe_for(name))
        )
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self, name: str, bounds: Sequence[int] = DEFAULT_LATENCY_BOUNDS_NS
    ) -> Histogram:
        instrument = self._instruments.get(name)
        if type(instrument) is Histogram:
            return instrument  # every span's lookup: a dict read needs no lock
        instrument = self._get_or_create(
            name,
            Histogram,
            lambda: Histogram(name, self._stripe_for(name), bounds),
        )
        assert isinstance(instrument, Histogram)
        return instrument

    # -- collectors --------------------------------------------------------
    def register_collector(self, collector: _Collector) -> None:
        """Register a pull hook run at snapshot time.

        Bound methods are held weakly (a garbage-collected component
        silently drops out); plain functions are held strongly.
        """
        ref: Callable[[], Optional[_Collector]]
        try:
            ref = weakref.WeakMethod(collector)  # type: ignore[arg-type]
        except TypeError:
            ref = _StrongRef(collector)
        with self._meta:
            self._collectors.append(ref)

    def collect(self) -> None:
        """Run every live collector, pruning the dead ones."""
        with self._meta:
            refs = list(self._collectors)
        dead = []
        for ref in refs:
            collector = ref()
            if collector is None:
                dead.append(ref)
                continue
            collector(self)
        if dead:
            with self._meta:
                self._collectors = [
                    ref for ref in self._collectors if ref not in dead
                ]

    # -- export ------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Collect, then export every instrument as plain dicts."""
        self.collect()
        with self._meta:
            instruments = dict(self._instruments)
        counters: Dict[str, int] = {}
        gauges: Dict[str, Union[int, float]] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for name, instrument in sorted(instruments.items()):
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            else:
                histograms[name] = instrument.snapshot()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def reset(self) -> None:
        """Drop every instrument and collector (test isolation)."""
        with self._meta:
            self._instruments.clear()
            self._collectors.clear()


#: The process-default registry every component publishes into unless
#: handed an explicit one (tests inject their own for isolation).
_default = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _default


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process default; returns the previous one (tests)."""
    global _default
    previous = _default
    _default = registry
    return previous
