"""Hardware tree indexing with speculative concurrent updates (§5.5.1).

The FIDR Cache HW-Engine pipelines tree search and update; the hard part
is *concurrent updates* (inserts/deletes for cache-line replacement),
because two in-flight updates may touch the same node during merge/split.
The paper's solution — reproduced here — is speculation with crash and
replay:

* a request first flows down the **search pipeline**, recording the nodes
  it traverses (Algorithm 1's per-level ``request.state``),
* it then walks the recorded path in reverse through the **update
  pipeline**; at each node it checks whether an earlier in-flight request
  speculatively updated the same node (or its neighbor).  If so, the
  request *crashes*: its postponed changes are discarded and the request
  is re-queued for replay (Algorithm 2),
* otherwise its changes are recorded but **postponed** until commit, when
  the crash/replay controller confirms the speculation.

Because fingerprints are uniform-random, same-node collisions among the
few in-flight updates are vanishingly rare (<0.1% in the paper; measured
by :attr:`SpeculativeTreeEngine.crash_count` here), so throughput scales
with the speculation window.

:class:`SpeculativeTreeEngine` is the *functional* model — it operates a
real B+-tree and is validated against sequential application in the test
suite.  The *timing* model (cycles, DRAM bandwidth, Figure 13's curves)
is :class:`repro.cache.cache_engine.CacheEngineModel`.  The served table
cache runs neither: its :class:`~repro.cache.table_cache.HwTreeIndex`
only counts the searches and updates the engine would perform.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, List, Optional, Set, Tuple

from .btree import BPlusTree

__all__ = ["TreeOp", "OpResult", "SpeculativeTreeEngine"]


@dataclass(frozen=True)
class TreeOp:
    """One update request for the HW tree.

    ``kind`` is ``"insert"`` (new cache line: bucket index → slot) or
    ``"delete"`` (evicted line).  Searches are not TreeOps — they never
    conflict and flow through the search pipeline freely.
    """

    kind: str
    key: int
    value: Any = None

    def __post_init__(self):
        if self.kind not in ("insert", "delete"):
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.kind == "insert" and self.value is None:
            raise ValueError("insert requires a value")


@dataclass
class OpResult:
    """Outcome of one committed operation."""

    op: TreeOp
    replays: int  #: how many times the op crashed before committing
    applied: bool  #: False for deletes of absent keys


class _InFlight:
    """A request occupying a speculation slot (Algorithm 1 state).

    Holds *references* to the claimed nodes (not just ids) so a node
    cannot be garbage-collected — and its id reused — while claimed.
    """

    __slots__ = ("op", "path_nodes", "replays")

    def __init__(self, op: TreeOp, path_nodes: List[Any], replays: int):
        self.op = op
        self.path_nodes = path_nodes
        self.replays = replays


class SpeculativeTreeEngine:
    """Functional speculative-update engine over a B+-tree.

    ``window`` is the number of concurrent update requests in flight
    (the paper's optimization supports up to 4).  ``window=1`` is the
    single-update baseline: no speculation, no crashes.
    """

    def __init__(self, tree: Optional[BPlusTree] = None, window: int = 4):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.tree = tree if tree is not None else BPlusTree(order=16)
        self.window = window
        self.crash_count = 0
        self.commit_count = 0
        #: Node ids speculatively claimed by in-flight requests
        #: (Algorithm 1's ``spec_updated_node``).  No two in-flight
        #: requests ever share a node (sharing is exactly what crashes),
        #: so membership is all that matters.
        self._spec_nodes: Set[int] = set()

    # -- search (non-conflicting, always allowed) -----------------------------------
    def search(self, key: int) -> Optional[Any]:
        """Search pipeline: reads never conflict with speculation."""
        return self.tree.search(key)

    # -- Algorithm 1: issue -----------------------------------------------------------
    def _issue(self, op: TreeOp) -> Tuple[bool, List[Any]]:
        """Try to claim the op's path; returns (is_crash, claimed nodes).

        The claimed set is the traversed path plus the leaf's neighbor
        (merges/splits touch siblings, so the paper guards ``node or
        node.neighbor``).
        """
        path_nodes = self._affected_nodes(op)
        if any(id(node) in self._spec_nodes for node in path_nodes):
            return True, []
        self._spec_nodes.update(id(node) for node in path_nodes)
        return False, path_nodes

    def _affected_nodes(self, op: TreeOp) -> List[Any]:
        """The nodes ``op`` will actually modify, as live references.

        This is what makes speculation profitable: an insert only dirties
        its leaf unless the leaf would split, and a split only climbs as
        far as ancestors are themselves full (symmetrically for deletes
        and underflow).  With uniform keys and 16-key leaves, two
        in-flight updates therefore almost never share a dirty node —
        the root is traversed by everyone but modified almost never.
        """
        leaf, path = self.tree._find_leaf(op.key)
        affected: List[Any] = [leaf]
        order = self.tree.order
        min_keys = (order + 1) // 2

        if op.kind == "insert":
            if op.key in leaf.keys:
                return affected  # overwrite in place: leaf only
            if len(leaf.keys) + 1 <= order:
                return affected  # fits: leaf only
            # Split cascades while ancestors are full too.
            if leaf.next_leaf is not None:
                affected.append(leaf.next_leaf)
            for parent, _slot in reversed(path):
                affected.append(parent)
                if len(parent.keys) + 1 <= order:
                    break
            return affected

        # Delete: underflow pulls in the parent and both leaf neighbors.
        if op.key not in leaf.keys:
            return affected  # absent key: no structural change
        if len(leaf.keys) - 1 >= min_keys or not path:
            return affected  # still legal (or root leaf): leaf only
        if leaf.next_leaf is not None:
            affected.append(leaf.next_leaf)
        parent, slot = path[-1]
        if slot > 0:
            affected.append(parent.children[slot - 1])
        for ancestor, _slot in reversed(path):
            affected.append(ancestor)
            if len(ancestor.children) - 1 >= min_keys:
                break
        return affected

    # -- Algorithm 2: commit ------------------------------------------------------------
    def _commit(self, request: _InFlight) -> OpResult:
        """Apply the postponed changes and release the claimed nodes."""
        for node in request.path_nodes:
            self._spec_nodes.discard(id(node))
        if request.op.kind == "insert":
            self.tree.insert(request.op.key, request.op.value)
            applied = True
        else:
            applied = self.tree.delete(request.op.key)
        self.commit_count += 1
        return OpResult(op=request.op, replays=request.replays, applied=applied)

    # -- batch execution ----------------------------------------------------------------
    def execute(self, ops: List[TreeOp]) -> List[OpResult]:
        """Run a batch of updates with up to ``window`` concurrent.

        Models the engine's steady state: keep the speculation window
        full; when a request reaches the head of the window it commits;
        crashed requests are re-inserted into the queue for replay
        (Algorithm 2 line 2).  Results are in commit order.
        """
        queue: Deque[Tuple[TreeOp, int]] = deque((op, 0) for op in ops)
        in_flight: Deque[_InFlight] = deque()
        results: List[OpResult] = []

        while queue or in_flight:
            # Fill the speculation window from the queue.
            while queue and len(in_flight) < self.window:
                op, replays = queue.popleft()
                crashed, claimed = self._issue(op)
                if crashed:
                    self.crash_count += 1
                    queue.append((op, replays + 1))
                    # A crash means some in-flight request owns the node;
                    # draining one guarantees forward progress.
                    break
                in_flight.append(_InFlight(op, claimed, replays))
            if in_flight:
                results.append(self._commit(in_flight.popleft()))
        return results

    @property
    def crash_rate(self) -> float:
        """Fraction of issue attempts that mis-speculated."""
        attempts = self.commit_count + self.crash_count
        return self.crash_count / attempts if attempts else 0.0
