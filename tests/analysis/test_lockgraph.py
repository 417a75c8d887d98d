"""Whole-program lock-order analysis (``repro.analysis.lockgraph``).

Synthetic multi-module fixtures with a known A→B→A cycle, a
hold-while-blocking wait, an async acquire, and a clean ranked
hierarchy — plus the acceptance run over the real ``src/repro`` tree
(zero cycles, zero unranked lock classes) and the CLI/JSON surface
including observed-edge merging.
"""

from __future__ import annotations

import json
import textwrap

from repro.analysis.lockgraph import (
    analyze_paths,
    analyze_sources,
    load_observed,
    main,
)


def src(text: str) -> str:
    return textwrap.dedent(text)


def analyze_one(source: str, module: str = "repro.fixture", **kwargs):
    return analyze_sources({f"{module}.py": (module, src(source))}, **kwargs)


class TestStaticEdges:
    def test_nested_with_blocks_build_an_edge(self):
        report = analyze_one(
            """
            from repro.sync import DisciplinedLock

            class Stack:
                def __init__(self):
                    self.outer = DisciplinedLock("fix-outer", rank=1)
                    self.inner = DisciplinedLock("fix-inner", rank=2)

                def step(self):
                    with self.outer:
                        with self.inner:
                            return 1
            """
        )
        assert report.ok
        edges = {(e["held"], e["acquired"]) for e in report.edges}
        assert ("fix-outer", "fix-inner") in edges

    def test_holds_annotation_contributes_entry_held(self):
        report = analyze_one(
            """
            from repro.sync import DisciplinedLock

            class Stack:
                def __init__(self):
                    self.outer = DisciplinedLock("h-outer", rank=1)
                    self.inner = DisciplinedLock("h-inner", rank=2)

                def helper(self):  # repro-lint: holds self.outer
                    with self.inner:
                        return 1
            """
        )
        assert report.ok
        edges = {(e["held"], e["acquired"]) for e in report.edges}
        assert ("h-outer", "h-inner") in edges

    def test_lock_comment_binds_foreign_attribute(self):
        report = analyze_one(
            """
            from repro.sync import DisciplinedLock

            class Router:
                def __init__(self, shards):
                    self.lock = DisciplinedLock("r-router", rank=1)
                    self.shards = shards

                def sweep(self):
                    with self.lock:
                        for shard in self.shards:
                            with shard.lock:  # lock: r-engine
                                pass
            """
        )
        edges = {(e["held"], e["acquired"]) for e in report.edges}
        assert ("r-router", "r-engine") in edges

    def test_closure_handed_to_pool_does_not_inherit_lock_scope(self):
        # The scatter/gather pattern: a nested def handed to a pool
        # runs on a worker thread with an empty held set, so its
        # acquisitions must NOT create edges from the enclosing scope.
        # (A closure *called* directly under the lock would — and does —
        # create the edge through the call graph.)
        report = analyze_one(
            """
            from repro.sync import DisciplinedLock

            class Fanout:
                def __init__(self, shards, pool):
                    self.lock = DisciplinedLock("f-router", rank=1)
                    self.shards = shards
                    self.pool = pool

                def scatter_all(self):
                    with self.lock:
                        def scatter(shard):
                            with shard.lock:  # lock: f-engine
                                return 1
                        return self.pool.submit_all(scatter, self.shards)
            """
        )
        edges = {(e["held"], e["acquired"]) for e in report.edges}
        assert ("f-router", "f-engine") not in edges


class TestCycleDetection:
    CYCLIC = {
        "repro/m1.py": (
            "repro.m1",
            src(
                """
                from repro.sync import DisciplinedLock

                class One:
                    def __init__(self, other):
                        self.a = DisciplinedLock("cls-a", rank=1)
                        self.other = other

                    def forward(self):
                        with self.a:
                            self.other.backward_inner()
                """
            ),
        ),
        "repro/m2.py": (
            "repro.m2",
            src(
                """
                from repro.sync import DisciplinedLock

                class Two:
                    def __init__(self, one):
                        self.b = DisciplinedLock("cls-b", rank=2)
                        self.one = one

                    def backward_inner(self):
                        with self.b:
                            pass

                    def backward(self):
                        with self.b:
                            self.one.forward_inner()
                """
            ),
        ),
        "repro/m3.py": (
            "repro.m3",
            src(
                """
                from repro.sync import DisciplinedLock

                class Three:
                    def __init__(self):
                        self.a = DisciplinedLock("cls-a", rank=1)

                    def forward_inner(self):
                        with self.a:
                            pass
                """
            ),
        ),
    }

    def test_a_b_a_cycle_is_reported(self):
        report = analyze_sources(dict(self.CYCLIC))
        assert not report.ok
        assert report.cycles, "A->B->A must surface as a cycle"
        classes = set(report.cycles[0]["classes"])
        assert classes == {"cls-a", "cls-b"}
        # The b -> a direction also contradicts the ranks.
        assert any(
            v["held"] == "cls-b" and v["acquired"] == "cls-a"
            for v in report.rank_violations
        )

    def test_one_direction_alone_is_clean(self):
        forward_only = {
            key: value
            for key, value in self.CYCLIC.items()
            if key != "repro/m2.py"
        }
        # Keep Two.backward_inner resolvable but drop the inversion.
        forward_only["repro/m2.py"] = (
            "repro.m2",
            src(
                """
                from repro.sync import DisciplinedLock

                class Two:
                    def __init__(self):
                        self.b = DisciplinedLock("cls-b", rank=2)

                    def backward_inner(self):
                        with self.b:
                            pass
                """
            ),
        )
        report = analyze_sources(forward_only)
        assert report.ok, [c["message"] for c in report.cycles]
        assert not report.cycles


class TestBlockingWhileLocked:
    def test_direct_wait_under_lock_is_flagged(self):
        report = analyze_one(
            """
            import time
            from repro.sync import DisciplinedLock

            class Waiter:
                def __init__(self):
                    self.lock = DisciplinedLock("w-lock", rank=1)

                def nap(self):
                    with self.lock:
                        time.sleep(0.1)
            """
        )
        assert not report.ok
        assert len(report.blocking) == 1
        assert "time.sleep" in report.blocking[0]["message"]

    def test_transitive_wait_through_call_is_flagged(self):
        report = analyze_one(
            """
            from repro.sync import DisciplinedLock

            class Pool:
                def drain_queue(self):
                    return self.out_queue.get()

            class Holder:
                def __init__(self, pool):
                    self.lock = DisciplinedLock("t-lock", rank=1)
                    self.pool = pool

                def pump(self):
                    with self.lock:
                        return self.pool.drain_queue()
            """
        )
        assert not report.ok
        assert any(
            "drain_queue" in finding["message"]
            for finding in report.blocking
        )

    def test_blocking_ok_on_def_line_cuts_propagation(self):
        report = analyze_one(
            """
            from repro.sync import DisciplinedLock

            class Pool:
                def fan_map(self, fn, items):  # lockgraph: blocking-ok stage fns are lock-free
                    return [f.result() for f in self.submit_all(fn, items)]

            class Holder:
                def __init__(self, pool):
                    self.lock = DisciplinedLock("ok-lock", rank=1)
                    self.pool = pool

                def pump(self, items):
                    with self.lock:
                        return self.pool.fan_map(len, items)
            """
        )
        assert report.ok, [f["message"] for f in report.blocking]

    def test_future_result_under_lock_is_flagged(self):
        report = analyze_one(
            """
            from repro.sync import DisciplinedLock

            class Waiter:
                def __init__(self):
                    self.lock = DisciplinedLock("fr-lock", rank=1)

                def collect(self, futures):
                    with self.lock:
                        return [future.result() for future in futures]
            """
        )
        assert not report.ok
        assert any(
            ".result" in finding["wait"] for finding in report.blocking
        )


class TestAsyncAcquire:
    def test_lock_acquired_inside_async_def_is_flagged(self):
        report = analyze_one(
            """
            from repro.sync import DisciplinedLock

            class Server:
                def __init__(self):
                    self.lock = DisciplinedLock("a-lock", rank=1)

                async def handle(self):
                    with self.lock:
                        return 1
            """
        )
        assert not report.ok
        assert len(report.async_acquires) == 1
        assert "async" in report.async_acquires[0]["message"]

    def test_async_ok_annotation_sanctions_the_site(self):
        report = analyze_one(
            """
            from repro.sync import DisciplinedLock

            class Server:
                def __init__(self):
                    self.lock = DisciplinedLock("a-ok", rank=1)

                async def handle(self):
                    with self.lock:  # lockgraph: async-ok single-threaded mode
                        return 1
            """
        )
        assert report.ok, [f["message"] for f in report.async_acquires]

    def test_transitive_acquire_from_async_is_flagged(self):
        report = analyze_one(
            """
            from repro.sync import DisciplinedLock

            class Engine:
                def __init__(self):
                    self.lock = DisciplinedLock("ta-lock", rank=1)

                def apply_frame(self):
                    with self.lock:
                        return 1

            class Server:
                def __init__(self, engine):
                    self.engine = engine

                async def dispatch(self):
                    return self.engine.apply_frame()
            """
        )
        assert not report.ok
        assert any(
            "apply_frame" in finding["message"]
            for finding in report.async_acquires
        )


class TestHierarchyChecks:
    def test_clean_ranked_hierarchy_passes(self):
        report = analyze_one(
            """
            from repro.sync import DisciplinedLock

            class Stack:
                def __init__(self):
                    self.router = DisciplinedLock("ok-router", rank=10)
                    self.engine = DisciplinedLock("ok-engine", rank=20)
                    self.seal = DisciplinedLock("ok-seal", rank=30)

                def descend(self):
                    with self.router:
                        with self.engine:
                            with self.seal:
                                return 1
            """
        )
        assert report.ok
        assert len(report.edges) == 3  # router->engine/seal, engine->seal
        assert report.lock_classes["ok-router"]["rank"] == 10

    def test_rank_inversion_is_reported(self):
        report = analyze_one(
            """
            from repro.sync import DisciplinedLock

            class Stack:
                def __init__(self):
                    self.low = DisciplinedLock("ri-low", rank=10)
                    self.high = DisciplinedLock("ri-high", rank=20)

                def inverted(self):
                    with self.high:
                        with self.low:
                            return 1
            """
        )
        assert not report.ok
        assert len(report.rank_violations) == 1
        violation = report.rank_violations[0]
        assert violation["held"] == "ri-high"
        assert violation["acquired"] == "ri-low"

    def test_unranked_lock_class_is_reported(self):
        report = analyze_one(
            """
            from repro.sync import DisciplinedLock

            class Stack:
                def __init__(self):
                    self.mystery = DisciplinedLock("no-rank-here")
            """
        )
        assert not report.ok
        assert len(report.unranked) == 1
        assert report.unranked[0]["class"] == "no-rank-here"


class TestObservedMerge:
    def test_observed_edges_merge_and_close_cycles(self, tmp_path):
        dump = tmp_path / "lockdep.json"
        dump.write_text(
            json.dumps(
                {
                    "version": 1,
                    "tool": "lockdep",
                    "edges": [
                        {"held": "obs-b", "acquired": "obs-a", "count": 3}
                    ],
                    "violations": [],
                }
            )
        )
        observed = load_observed([str(dump)])
        report = analyze_one(
            """
            from repro.sync import DisciplinedLock

            class Stack:
                def __init__(self):
                    self.a = DisciplinedLock("obs-a", rank=1)
                    self.b = DisciplinedLock("obs-b", rank=2)

                def forward(self):
                    with self.a:
                        with self.b:
                            return 1
            """,
            observed_edges=observed,
        )
        # Static a->b plus observed b->a closes a cycle the static
        # pass alone could not see.
        assert not report.ok
        assert report.cycles
        sources = {edge["source"] for edge in report.edges}
        assert "static" in sources and "observed" in sources


class TestRealTree:
    def test_src_repro_has_no_cycles_and_no_unranked_locks(self):
        """The ISSUE-8 acceptance criterion."""
        report = analyze_paths(["src/repro"])
        assert report.cycles == []
        assert report.unranked == []
        assert report.parse_errors == []
        assert report.ok, (
            [f["message"] for f in report.blocking]
            + [f["message"] for f in report.async_acquires]
            + [f["message"] for f in report.rank_violations]
        )
        # The lock topology the stack is documented to have: one
        # class, so nothing nests and there is no order to violate.
        assert set(report.lock_classes) == {"dedup-engine"}
        assert report.edges == []

    def test_cli_json_artifact(self, tmp_path, capsys):
        out = tmp_path / "LOCKGRAPH_report.json"
        status = main(["src/repro", "--json", str(out)])
        assert status == 0
        text = capsys.readouterr().out
        assert "lockgraph: OK" in text
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["tool"] == "lockgraph"
        assert payload["lock_order"]["dedup-engine"] == 20

    def test_cli_exit_code_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            src(
                """
                from repro.sync import DisciplinedLock

                UNRANKED = DisciplinedLock("cli-unranked")
                """
            )
        )
        status = main([str(bad)])
        assert status == 1
        assert "unranked" in capsys.readouterr().out
