"""Span arithmetic: self time per layer, and the time ledger's closure.

Input is the dump of ``traced_server.py`` (spans as ``[parent, name,
start_ns, end_ns, busy_ns, calls, op, request_id]`` with names
``<layer>:<function>``) plus what the loadgen observed for each timed
*segment* of the traced pass.  Output is the per-layer budget.

* A span's **self time** is its busy time minus its children's busy time
  (children of one parent run on one thread, so they never overlap).
* Every span belongs to the request of its root — a ``handle_frame`` call
  on the backend thread or a ``FrameDecoder.events`` call on the loop
  thread — and counts as *write* or *read* work by that root.
* ``net.aserver`` is the residual: client-observed busy time minus the
  decode and ``handle_frame`` trees, i.e. everything the wire path costs
  outside the protocol codec and the storage stack.
* **Closure** asks how much of that residual the server can itself
  account for with its own ``server.queue.wait`` / ``server.dispatch`` /
  ``server.reply`` spans (scraped through the wire ``STATS`` op); what is
  left — socket transit, the client's codec, event-loop scheduling — is
  ``trace.unattributed_us_per_chunk``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

LAYERS = (
    "net.protocol", "net.aserver", "systems", "hw.nic", "datared.dedup",
    "datared.chunking", "datared.hashing", "datared.hash_pbn",
    "cache.table_cache", "datared.compression", "datared.container",
    "datared.lba_map", "datared.journal",
)
KINDS = ("write", "read")

PARENT, NAME, START, END, BUSY, CALLS, OP, REQUEST = range(8)
_OP_KIND = {1: "write", 2: "read"}  # repro.net.protocol.Op.WRITE / READ


def self_times(spans: Sequence[Sequence[int]]) -> List[int]:
    """Busy time of each span minus the busy time of its children."""
    own = [span[BUSY] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[BUSY]
    return own


def roots(spans: Sequence[Sequence[int]]) -> List[int]:
    """Index of each span's root (parents always precede children)."""
    out: List[int] = []
    for index, span in enumerate(spans):
        out.append(out[span[PARENT]] if span[PARENT] >= 0 else index)
    return out


def _segment_of(start: int, segments: Sequence[Dict[str, Any]]) -> Optional[int]:
    for index, segment in enumerate(segments):
        if segment["t0"] <= start < segment["t1"]:
            return index
    return None


def layer_budget(
    names: Sequence[str],
    spans: Sequence[Sequence[int]],
    segments: Sequence[Dict[str, Any]],
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    Each segment is one timed phase as the loadgen saw it::

        {"t0": ns, "t1": ns,            # perf_counter_ns, shared clock
         "busy_ns": ...,                # sum of op latencies (depth 1)
                                        # or of round times (pipelined)
         "chunks": {"write": n, ...},   # one kind, or both when concurrent
         "obs": {"queue_wait_ns", "dispatch_ns", "reply_ns"},
         "pipelined": bool,
         "host_factor": 1.0}            # measure.host_factor of the phase

    Times are divided by the segment's host factor, so the budget is in
    reference-host microseconds like the end-to-end metrics.
    """
    own = self_times(spans)
    root_of = roots(spans)
    layer_of = [name.split(":", 1)[0] for name in names]

    self_ns = {(layer, kind): 0 for layer in LAYERS for kind in KINDS}
    calls = {layer: 0 for layer in LAYERS}
    tree_ns = [{kind: 0 for kind in KINDS} for _ in segments]
    handle_ns = [0] * len(segments)
    requests = [{kind: 0 for kind in KINDS} for _ in segments]

    kind_of_root: Dict[int, Optional[tuple]] = {}
    for index, span in enumerate(spans):
        root = root_of[index]
        if root not in kind_of_root:
            top = spans[root]
            where = _segment_of(top[START], segments)
            placed = None
            if where is not None:
                kinds = list(segments[where]["chunks"])
                if len(kinds) == 1:
                    placed = (where, kinds[0])
                elif top[OP] in _OP_KIND:
                    placed = (where, _OP_KIND[top[OP]])
                elif top[OP] == 0:
                    # A decode call that completed no frame: only a
                    # payload-carrying (write) frame spans socket reads.
                    placed = (where, "write")
            kind_of_root[root] = placed
        placed = kind_of_root[root]
        if placed is None:
            continue
        where, kind = placed
        layer = layer_of[span[NAME]]
        self_ns[(layer, kind)] += own[index] / segments[where]["host_factor"]
        calls[layer] += span[CALLS]
        if index == root:
            tree_ns[where][kind] += span[BUSY]
            if names[span[NAME]].endswith("handle_frame"):
                handle_ns[where] += span[BUSY]
                requests[where][kind] += 1

    chunks = {kind: 0 for kind in KINDS}
    busy_total = unattributed_total = 0
    for where, segment in enumerate(segments):
        for kind, count in segment["chunks"].items():
            chunks[kind] += count
        host = segment["host_factor"]
        residual = segment["busy_ns"] - sum(tree_ns[where].values())
        served = sum(requests[where].values())
        for kind in segment["chunks"]:
            share = requests[where][kind] / served if served else 0.0
            self_ns[("net.aserver", kind)] += residual * share / host
        calls["net.aserver"] += served
        obs = segment["obs"]
        measured = obs["reply_ns"]
        if not segment["pipelined"]:
            # Queue wait and the executor hop add up only when one op is
            # in flight; 16 pipelined ops wait in the queue at once.
            measured += obs["queue_wait_ns"] + max(
                0, obs["dispatch_ns"] - handle_ns[where]
            )
        busy_total += segment["busy_ns"] / host
        unattributed_total += (residual - measured) / host

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        for kind in KINDS:
            per_chunk = self_ns[(layer, kind)] / chunks[kind] if chunks[kind] else 0.0
            metrics[f"{layer}.{kind}_self_us_per_chunk"] = per_chunk / 1e3
    all_chunks = sum(chunks.values())
    metrics["trace.closure_ratio"] = (
        1.0 - unattributed_total / busy_total if busy_total else 0.0
    )
    metrics["trace.unattributed_us_per_chunk"] = (
        unattributed_total / all_chunks / 1e3 if all_chunks else 0.0
    )
    return metrics
