"""Unit checks of the benchmark's own arithmetic (no server needed).

Run by hand: ``python3 -m pytest bench/`` (not part of tier-1).
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import loadgen  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
from traced_server import Tracer  # noqa: E402


# -- estimators ---------------------------------------------------------------
def test_windows_on_synthetic_latencies():
    # 3 windows of 4 ops, 1 MB each; the middle window hit interference.
    latencies = [0.1] * 4 + [0.1, 0.5, 0.1, 0.1] + [0.125] * 4
    seconds = measure.window_sums(latencies, 4)
    assert seconds == pytest.approx([0.4, 0.8, 0.5])
    mb_s = measure.rates([4.0] * 3, seconds)
    assert measure.best(mb_s, "higher") == pytest.approx(10.0)
    assert measure.best([50.0, 80.0, 45.0], "lower") == 45.0
    pooled = 12.0 / sum(latencies)
    assert pooled < measure.best(mb_s, "higher")  # the stall shows pooled
    assert measure.spread(mb_s) == pytest.approx((10.0 - 5.0) / 8.0)


def test_host_calibration_cancels_a_slow_host():
    slice_s = measure.SLICE_BLOCKS * measure.HOST_REFERENCE_US_PER_BLOCK / 1e6
    assert measure.host_factor([slice_s, slice_s]) == pytest.approx(1.0)
    assert measure.host_factor([]) == 1.0
    # Window 2 ran on a host 1.5x slower: ops and slices both stretched.
    phase = loadgen.Phase(
        window_mb=[4.0, 4.0, 4.0], window_s=[0.4, 0.6, 0.4],
        window_host=[1.0, measure.host_factor([1.5 * slice_s]), 1.0],
        window_cpu_ms_per_mb=[50.0, 75.0, 50.0],
    )
    assert phase.window_mb_s == pytest.approx([10.0, 20 / 3, 10.0])
    assert phase.calibrated_mb_s == pytest.approx([10.0, 10.0, 10.0])
    assert phase.calibrated_cpu_ms_per_mb == pytest.approx([50.0] * 3)
    assert measure.calibration_slice() > 0


def test_midmean_drops_the_outer_quarters():
    assert measure.midmean([1, 100, 5, 6, 7, 8, 0, 50]) == pytest.approx(6.5)
    assert measure.midmean([3.0]) == 3.0 and measure.midmean([1, 3]) == 2.0
    assert measure.midmean([9, 1, 5]) == 5.0  # too few to trim: the mean
    with pytest.raises(ValueError):
        measure.midmean([])


def test_window_sums_drops_the_short_tail():
    assert measure.window_sums([1, 1, 1, 1, 1], 2) == [2, 2]
    with pytest.raises(ValueError):
        measure.best([], "higher")


def test_percentile_nearest_rank():
    samples = list(range(1, 101))
    assert measure.percentile(samples, 0.50) == 51
    assert measure.percentile(samples, 0.99) == 100
    assert measure.percentile([], 0.5) == 0.0


def test_window_counts_scale_with_seconds_but_sizes_do_not():
    base = loadgen.WORKLOADS[0]
    half = loadgen.scaled(base, loadgen.REFERENCE_SECONDS / 2)
    assert half.write_windows == round(base.write_windows / 2)
    assert (half.write_ops, half.read_ops) == (base.write_ops, base.read_ops)
    smoke = loadgen.scaled(base, loadgen.REFERENCE_SECONDS, smoke=True)
    assert (smoke.write_windows, smoke.read_windows) == (1, 1)
    quarter = loadgen.scaled(base, loadgen.REFERENCE_SECONDS, divisor=4)
    assert quarter.write_windows == base.write_windows // 4


# -- /proc parsers --------------------------------------------------------------
def test_cpu_ticks_survive_a_hostile_command_name():
    stat = ("4242 (py) thon (3)) S 1 4242 4242 0 -1 4194304 100 0 0 0 "
            "1234 56 0 0 20 0 3 0 999 1000000 2000 18446744073709551615")
    assert measure.parse_stat_cpu_ticks(stat) == 1234 + 56


def test_vmhwm_is_read_in_kb():
    status = "Name:\tpython3\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 100 kB\n"
    assert measure.parse_status_kb(status, "VmHWM") == 123456
    with pytest.raises(KeyError):
        measure.parse_status_kb(status, "VmNope")


# -- spans ------------------------------------------------------------------------
NAMES = [
    "net.protocol:FrameDecoder.events",      # 0
    "net.protocol:ProtocolServer.handle_frame",  # 1
    "systems:StorageServer.write",           # 2
    "datared.compression:ZlibCompressor.compress",  # 3
]
#        parent name start end busy calls op req
TREE = [
    [-1, 0, 1000, 1010, 10, 1, 1, 7],    # decode on the loop thread
    [-1, 1, 1020, 1120, 100, 1, 1, 7],   # handle_frame on the backend
    [1, 2, 1025, 1105, 80, 1, 0, 0],     #   StorageServer.write
    [2, 3, 1030, 1100, 50, 4, 0, 0],     #     4 aggregated compress calls
    [-1, 1, 5000, 5050, 50, 1, 1, 8],    # outside every segment
]


def test_self_time_is_busy_minus_children():
    assert spans.self_times(TREE) == [10, 20, 30, 50, 50]
    assert spans.roots(TREE) == [0, 1, 1, 1, 4]


def test_layer_budget_and_closure():
    segment = {
        "t0": 900, "t1": 2000, "busy_ns": 130, "pipelined": False,
        "chunks": {"write": 4}, "host_factor": 1.0,
        # dispatch 104 - handle_frame 100 = a 4 ns executor hop
        "obs": {"queue_wait_ns": 5, "dispatch_ns": 104, "reply_ns": 5},
    }
    budget = spans.layer_budget(NAMES, TREE, [segment])
    per_chunk = lambda ns: ns / 4 / 1e3  # noqa: E731
    assert budget["net.protocol.write_self_us_per_chunk"] == pytest.approx(per_chunk(30))
    assert budget["systems.write_self_us_per_chunk"] == pytest.approx(per_chunk(30))
    assert budget["datared.compression.write_self_us_per_chunk"] == pytest.approx(per_chunk(50))
    assert budget["datared.compression.calls"] == 4
    # Residual: 130 busy - 110 in span trees; the server explains 14 of it.
    assert budget["net.aserver.write_self_us_per_chunk"] == pytest.approx(per_chunk(20))
    assert budget["net.aserver.calls"] == 1
    assert budget["trace.unattributed_us_per_chunk"] == pytest.approx(per_chunk(6))
    assert budget["trace.closure_ratio"] == pytest.approx(1 - 6 / 130)
    assert budget["datared.journal.write_self_us_per_chunk"] == 0.0
    assert budget["systems.read_self_us_per_chunk"] == 0.0
    layers = sum(budget[f"{layer}.write_self_us_per_chunk"] for layer in spans.LAYERS)
    assert layers == pytest.approx(per_chunk(130))  # layers sum to busy time


def test_pipelined_segment_splits_by_op_and_skips_queue_wait():
    names = NAMES[:2]
    tree = [
        [-1, 1, 10, 40, 30, 1, 1, 1],   # a write request
        [-1, 1, 40, 60, 20, 1, 2, 1],   # a read request
        [-1, 0, 60, 70, 10, 1, 0, 0],   # decode that completed no frame
    ]
    segment = {
        "t0": 0, "t1": 100, "busy_ns": 100, "pipelined": True,
        "chunks": {"write": 1, "read": 1}, "host_factor": 2.0,
        "obs": {"queue_wait_ns": 10_000, "dispatch_ns": 10_000, "reply_ns": 8},
    }
    budget = spans.layer_budget(names, tree, [segment])
    # The host ran at half the reference speed, so every time halves.
    assert budget["net.protocol.write_self_us_per_chunk"] == pytest.approx(0.020)
    assert budget["net.protocol.read_self_us_per_chunk"] == pytest.approx(0.010)
    # Residual 40 split by request share; only reply time counts as measured.
    assert budget["net.aserver.write_self_us_per_chunk"] == pytest.approx(0.010)
    assert budget["trace.closure_ratio"] == pytest.approx(1 - (40 - 8) / 100)


def test_tracer_nests_and_aggregates():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: None, "datared.lba_map:LbaMap.get", aggregate=True)

    def batch():
        for _ in range(5):
            leaf()

    root = tracer.wrap(batch, "systems:StorageServer.write")
    root()
    root()
    dump = tracer.dump()
    assert len(dump["spans"]) == 4  # 2 roots + one aggregate under each
    first_root, first_leaf = dump["spans"][0], dump["spans"][1]
    assert first_root[spans.PARENT] == -1 and first_leaf[spans.PARENT] == 0
    assert first_leaf[spans.CALLS] == 5
    assert first_leaf[spans.BUSY] <= first_root[spans.BUSY]
    assert all(own >= 0 for own in spans.self_times(dump["spans"]))


# -- verification -----------------------------------------------------------------
class _FakeServer:
    def cpu_ms(self) -> float:
        return 0.0


class _FakeClient:
    """Stores extents; flips one byte of the ``corrupt``-th read reply."""

    def __init__(self, corrupt: int) -> None:
        self.extents = {}
        self.reads = 0
        self.corrupt = corrupt

    async def write(self, lba, payload):
        self.extents[lba] = payload

    async def read(self, lba, count):
        data = self.extents[lba]
        self.reads += 1
        if self.reads == self.corrupt:
            data = data[:100] + bytes([data[100] ^ 0x01]) + data[101:]
        return data


def _write_then_read(corrupt: int) -> loadgen.Tally:
    tally = loadgen.Tally()
    workload = loadgen.scaled(loadgen.WORKLOADS[0], 1, smoke=True)
    driver = loadgen.Driver(workload, seed=3, tally=tally)
    driver.server, driver.clients = _FakeServer(), [_FakeClient(corrupt)]

    async def both_phases():
        await driver.depth1_phase(1, 4, driver.write_ops())
        await driver.depth1_phase(1, 8, driver.read_ops())

    asyncio.run(both_phases())
    return tally


def test_a_flipped_reply_byte_is_a_failed_op():
    clean = _write_then_read(corrupt=0)
    assert (clean.failed, clean.reads, clean.reads_verified) == (0, 8, 8)
    flipped = _write_then_read(corrupt=3)
    assert (flipped.failed, flipped.reads, flipped.reads_verified) == (1, 8, 7)


def test_content_is_seeded_and_unique():
    one, two = loadgen.Content(5), loadgen.Content(5)
    assert one.extent(0.9) == two.extent(0.9)
    assert loadgen.Content(6).extent() != loadgen.Content(5).extent()
    chunks = {loadgen.Content(5).unique_chunk()} | {one.unique_chunk() for _ in range(3)}
    assert all(len(chunk) == loadgen.CHUNK for chunk in chunks)


# -- the contract file ---------------------------------------------------------------
def _fake_pass(trace_dump=None) -> loadgen.PassResult:
    phase = loadgen.Phase(
        window_mb=[1.0, 1.0, 1.0], window_s=[0.5, 0.4, 0.25],
        window_host=[1.0, 1.0, 2.0],
        window_cpu_ms_per_mb=[50.0, 40.0, 60.0], latencies_ms=[1.0, 2.0],
    )
    stats = {"gauges": {"engine.stored_bytes": 1, "engine.logical_bytes": 2},
             "counters": {}}
    return loadgen.PassResult(
        setup_s=[1.0, 3.0, 2.0], write=phase, read=phase, peak_rss_mb=10.0,
        stats=stats, user_bytes=1, segments=[],
        trace_dump=trace_dump,
    )


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [
        w.name for w in loadgen.WORKLOADS]
    assert spec["run_seconds"] == loadgen.REFERENCE_SECONDS

    reported = loadgen.end_to_end(_fake_pass())
    assert reported["setup_s"][0] == 2.0  # the median set-up
    # Calibrated windows: MB/s [2, 2.5, 8], CPU-ms/MB [50, 40, 30].
    assert reported["write_mb_s"][0] == pytest.approx(12.5 / 3)
    assert reported["server_cpu_ms_per_mb"][0] == pytest.approx(40.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in reported.items()}

    layers = loadgen.per_layer(_fake_pass(), _fake_pass(), loadgen.Tally())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()}
