"""repro-lint rule tests: every rule gets a planted positive fixture, a
clean negative fixture, and a suppression check — plus the self-check
that the real tree lints clean (the acceptance bar for the whole
suite)."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis.lint import RULES, Finding, lint_paths, lint_source, main

REPO = Path(__file__).resolve().parents[2]


def rules_of(findings):
    return [finding.rule for finding in findings]


def lines_of(findings, rule):
    return [finding.line for finding in findings if finding.rule == rule]


def src(text: str) -> str:
    return textwrap.dedent(text)


# -- R001: blocking calls in async defs --------------------------------------


class TestR001Blocking:
    FIXTURE = src(
        """
        import time, zlib, socket

        async def handler():
            time.sleep(0.1)
            payload = zlib.compress(b"x")
            sock = socket.create_connection(("host", 1))
            with open("state") as handle:
                pass
        """
    )

    def test_detects_blocking_calls_in_coroutine(self):
        findings = lint_source(self.FIXTURE, module="repro.net.fixture")
        assert rules_of(findings) == ["R001"] * 4
        assert lines_of(findings, "R001") == [5, 6, 7, 8]

    def test_sync_function_is_allowed(self):
        clean = src(
            """
            import time

            def backend_task():
                time.sleep(0.1)
            """
        )
        assert lint_source(clean, module="repro.net.fixture") == []

    def test_nested_sync_def_inside_coroutine_is_allowed(self):
        clean = src(
            """
            import time

            async def handler(loop):
                def blocking_job():
                    time.sleep(0.1)
                await loop.run_in_executor(None, blocking_job)
            """
        )
        assert lint_source(clean, module="repro.net.fixture") == []

    def test_rule_is_scoped_to_the_serving_layer(self):
        assert lint_source(self.FIXTURE, module="repro.workloads.fixture") == []

    def test_suppression(self):
        fixture = src(
            """
            import time

            async def handler():
                time.sleep(0.1)  # repro-lint: disable=R001
            """
        )
        assert lint_source(fixture, module="repro.net.fixture") == []


# -- R003: determinism --------------------------------------------------------


class TestR003Determinism:
    FIXTURE = src(
        """
        import random
        import time

        def step():
            started = time.time()
            jitter = random.random()
            choice = random.randrange(4)
        """
    )

    def test_detects_wall_clock_and_global_randomness(self):
        findings = lint_source(self.FIXTURE, module="repro.sim.fixture")
        assert rules_of(findings) == ["R003"] * 3
        # systems is also R007 territory (timing overlap is asserted in
        # TestR007ObservabilityDiscipline), so select R003 alone here.
        findings = lint_source(
            self.FIXTURE, module="repro.systems.fixture", rules=["R003"]
        )
        assert rules_of(findings) == ["R003"] * 3

    def test_seeded_random_instance_is_allowed(self):
        clean = src(
            """
            import random

            def build(seed):
                rng = random.Random(seed)
                return rng.random()
            """
        )
        assert lint_source(clean, module="repro.sim.fixture") == []

    def test_rule_is_scoped_to_sim_and_systems(self):
        assert lint_source(self.FIXTURE, module="repro.workloads.fixture") == []

    def test_suppression(self):
        fixture = self.FIXTURE.replace(
            "time.time()", "time.time()  # repro-lint: disable=R003"
        )
        findings = lint_source(fixture, module="repro.sim.fixture")
        assert lines_of(findings, "R003") == [7, 8]


# -- R004: integral ledgers ---------------------------------------------------


class TestR004IntegralLedgers:
    def test_detects_float_tainted_counter_assignments(self):
        fixture = src(
            """
            class Stats:
                def tally(self, n):
                    self.stored_bytes += n * 0.5
                    self.chunk_count = n / 2
                    self.unique_chunks += 1
            """
        )
        findings = lint_source(fixture, module="repro.datared.fixture")
        assert rules_of(findings) == ["R004"] * 2
        assert lines_of(findings, "R004") == [4, 5]

    def test_ratios_and_int_wrapped_values_are_allowed(self):
        clean = src(
            """
            class Stats:
                def tally(self, n):
                    self.ratio = n / 2
                    self.live_bytes = int(n / 2)
                    self.block_count = n // 2
            """
        )
        assert lint_source(clean, module="repro.datared.fixture") == []

    def test_rule_is_scoped_to_datared(self):
        fixture = "class T:\n    def f(self, n):\n        self.busy_bytes = n / 2\n"
        assert lint_source(fixture, module="repro.sim.fixture") == []

    def test_suppression(self):
        fixture = (
            "class T:\n    def f(self, n):\n"
            "        self.chunk_count = n / 2  # repro-lint: disable=R004\n"
        )
        assert lint_source(fixture, module="repro.datared.fixture") == []


# -- R005: swallowed errors ---------------------------------------------------


class TestR005SwallowedErrors:
    FIXTURE = src(
        """
        def serve():
            try:
                work()
            except:
                pass
            try:
                work()
            except Exception:
                pass
        """
    )

    def test_detects_bare_and_silent_broad_excepts(self):
        findings = lint_source(self.FIXTURE, module="repro.net.fixture")
        assert rules_of(findings) == ["R005"] * 2
        findings = lint_source(self.FIXTURE, module="repro.systems.server")
        assert rules_of(findings) == ["R005"] * 2

    def test_handled_and_specific_excepts_are_allowed(self):
        clean = src(
            """
            def serve():
                try:
                    work()
                except Exception as error:
                    log(error)
                try:
                    work()
                except (ConnectionResetError, BrokenPipeError):
                    pass
            """
        )
        assert lint_source(clean, module="repro.net.fixture") == []

    def test_rule_is_scoped_to_the_serving_layer(self):
        assert lint_source(self.FIXTURE, module="repro.datared.fixture") == []

    def test_suppression(self):
        fixture = self.FIXTURE.replace(
            "except:", "except:  # repro-lint: disable=R005"
        )
        findings = lint_source(fixture, module="repro.net.fixture")
        assert lines_of(findings, "R005") == [9]


# -- machinery ----------------------------------------------------------------


class TestR006HotPathCopies:
    FIXTURE = src(
        """
        def pack(payload):  # repro-lint: hot-path
            owned = bytes(payload)
            extra = bytearray(payload)
            pinned = payload.tobytes()
            head = payload[:16]
            return owned, extra, pinned, head
        """
    )

    def test_detects_copies_in_hot_path(self):
        findings = lint_source(self.FIXTURE, module="repro.datared.fixture")
        assert rules_of(findings) == ["R006"] * 4
        assert lines_of(findings, "R006") == [3, 4, 5, 6]

    def test_cold_functions_are_not_flagged(self):
        clean = src(
            """
            def pack(payload):
                return bytes(payload), payload.tobytes(), payload[:16]
            """
        )
        assert lint_source(clean, module="repro.datared.fixture") == []

    def test_memoryview_slices_are_zero_copy(self):
        clean = src(
            """
            def split(payload):  # repro-lint: hot-path
                view = memoryview(payload)
                piece = view[0:4096]
                tag, body = view[:1], view[1:]
                direct = memoryview(payload)[8:]
                return piece, tag, body, direct
            """
        )
        assert lint_source(clean, module="repro.datared.fixture") == []

    def test_copy_ok_reason_sanctions_a_copy(self):
        clean = src(
            """
            def pack(payload):  # repro-lint: hot-path
                return bytes(payload)  # repro-lint: copy-ok container boundary
            """
        )
        assert lint_source(clean, module="repro.datared.fixture") == []

    def test_bare_copy_ok_without_reason_does_not_suppress(self):
        planted = src(
            """
            def pack(payload):  # repro-lint: hot-path
                return bytes(payload)  # repro-lint: copy-ok
            """
        )
        findings = lint_source(planted, module="repro.datared.fixture")
        assert rules_of(findings) == ["R006"]

    def test_marker_on_closing_paren_line_of_signature(self):
        planted = src(
            """
            def compress_many(
                buffers,
            ):  # repro-lint: hot-path
                return [bytes(data) for data in buffers]
            """
        )
        findings = lint_source(planted, module="repro.datared.fixture")
        assert rules_of(findings) == ["R006"]

    def test_nested_helper_inherits_hotness(self):
        planted = src(
            """
            def outer(payload):  # repro-lint: hot-path
                def helper():
                    return payload.tobytes()
                return helper()
            """
        )
        findings = lint_source(planted, module="repro.datared.fixture")
        assert rules_of(findings) == ["R006"]

    def test_rule_is_scoped_to_repro_modules(self):
        findings = lint_source(self.FIXTURE, module="tests.fixture")
        assert "R006" not in rules_of(findings)

    def test_suppression(self):
        planted = src(
            """
            def pack(payload):  # repro-lint: hot-path
                return bytes(payload)  # repro-lint: disable=R006
            """
        )
        assert lint_source(planted, module="repro.datared.fixture") == []


# -- R007: observability discipline -------------------------------------------


class TestR007ObservabilityDiscipline:
    FIXTURE = src(
        """
        import time

        def handle(event):
            start = time.perf_counter_ns()
            result = process(event)
            print("handled in", time.perf_counter_ns() - start)
            return result
        """
    )

    def test_timing_and_print_are_flagged_in_instrumented_path(self):
        findings = lint_source(self.FIXTURE, module="repro.net.fixture")
        assert rules_of(findings) == ["R007"] * 3
        assert lines_of(findings, "R007") == [5, 7, 7]

    def test_every_instrumented_package_is_covered(self):
        planted = src(
            """
            import time

            def tick():
                return time.monotonic()
            """
        )
        for package in (
            "repro.datared", "repro.net", "repro.cache", "repro.hw",
        ):
            findings = lint_source(planted, module=f"{package}.fixture")
            assert "R007" in rules_of(findings), package

    def test_systems_timing_trips_both_r003_and_r007(self):
        planted = src(
            """
            import time

            def step():
                return time.time()
            """
        )
        findings = lint_source(planted, module="repro.systems.fixture")
        assert rules_of(findings) == ["R003", "R007"]

    def test_presentation_layers_are_exempt(self):
        for module in (
            "repro.net.__main__",
            "repro.obs.__main__",
            "repro.workloads.runner",
            "tests.net.fixture",
        ):
            assert lint_source(self.FIXTURE, module=module) == [], module

    def test_obs_spans_do_not_trip_the_rule(self):
        clean = src(
            """
            from ..obs import trace as _trace

            def handle(event):
                with _trace.span("server.dispatch"):
                    started = _trace.now_ns()
                return started
            """
        )
        assert lint_source(clean, module="repro.net.fixture") == []

    def test_suppression(self):
        planted = src(
            """
            import time

            def debug_probe():
                print(time.monotonic())  # repro-lint: disable=R007
            """
        )
        assert lint_source(planted, module="repro.net.fixture") == []


# -- R008: codec/hash plugin discipline ---------------------------------------


class TestR008PluginDiscipline:
    FIXTURE = src(
        """
        import hashlib
        import zlib

        def pack(data):
            digest = hashlib.sha256(data).digest()
            return digest + zlib.compress(data)
        """
    )

    def test_direct_backend_calls_are_flagged_in_datared(self):
        findings = lint_source(self.FIXTURE, module="repro.datared.fixture")
        assert rules_of(findings) == ["R008"] * 2
        assert lines_of(findings, "R008") == [6, 7]

    def test_systems_package_is_covered_too(self):
        findings = lint_source(self.FIXTURE, module="repro.systems.fixture")
        assert "R008" in rules_of(findings)

    def test_registry_modules_are_exempt(self):
        for module in (
            "repro.datared.codecs",
            "repro.datared.compression",
            "repro.datared.hashing",
        ):
            assert lint_source(self.FIXTURE, module=module) == [], module

    def test_other_packages_are_not_policed(self):
        for module in ("repro.net.fixture", "tests.datared.fixture"):
            assert "R008" not in rules_of(
                lint_source(self.FIXTURE, module=module)
            ), module

    def test_journal_checksums_stay_allowed(self):
        clean = src(
            """
            import zlib

            def checksum(record):
                return zlib.crc32(record) & 0xFFFFFFFF
            """
        )
        assert lint_source(clean, module="repro.datared.fixture") == []

    def test_registry_calls_are_clean(self):
        clean = src(
            """
            from . import codecs as _codecs

            def build(name):
                return _codecs.create_codec(name)
            """
        )
        assert lint_source(clean, module="repro.datared.fixture") == []

    def test_suppression(self):
        planted = src(
            """
            import zlib

            def legacy_probe(data):
                return zlib.compress(data)  # repro-lint: disable=R008
            """
        )
        assert lint_source(planted, module="repro.datared.fixture") == []


class TestMachinery:
    def test_syntax_error_becomes_a_finding(self):
        findings = lint_source("def broken(:\n", module="repro.net.fixture")
        assert rules_of(findings) == ["R000"]

    def test_rule_selection(self):
        findings = lint_source(
            TestR003Determinism.FIXTURE,
            module="repro.sim.fixture",
            rules=["R001"],
        )
        assert findings == []

    def test_finding_formatting_and_dict(self):
        finding = Finding("R001", "a.py", 3, 4, "message")
        assert finding.format() == "a.py:3:4: R001 message"
        assert finding.as_dict()["rule"] == "R001"

    def test_cli_json_report_and_exit_status(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "net"
        bad.mkdir(parents=True)
        (bad / "racy.py").write_text(
            "import time\n\nasync def f():\n    time.sleep(1)\n"
        )
        report_path = tmp_path / "report.json"
        status = main([str(tmp_path), "--json", str(report_path)])
        assert status == 1
        report = json.loads(report_path.read_text())
        assert report["tool"] == "repro-lint"
        assert report["files_scanned"] == 1
        assert [entry["rule"] for entry in report["findings"]] == ["R001"]
        out = capsys.readouterr().out
        assert "R001" in out and "FAIL" in out

    def test_cli_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("VALUE = 1\n")
        assert main([str(tmp_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert sorted(RULES) == ["R000", "R001"] + [
            f"R00{n}" for n in range(3, 10)
        ] + ["R012"]
        for rule in RULES:
            assert rule in out


# -- R009: engines come from the factory in the serving layer ----------------


class TestR009EngineFactory:
    FIXTURE = src(
        """
        from repro.datared.dedup import DedupEngine
        from repro.datared.hash_pbn import HashPbnTable

        def build_backend():
            return DedupEngine(num_buckets=1024)

        def build_over_table():
            return DedupEngine(table=HashPbnTable(1024))
        """
    )

    def test_direct_construction_flagged_in_net_and_systems(self):
        for module in ("repro.net.fixture", "repro.systems.fixture"):
            findings = lint_source(self.FIXTURE, module=module)
            assert rules_of(findings) == ["R009"] * 2, module
            assert lines_of(findings, "R009") == [6, 9], module

    def test_attribute_style_construction_is_flagged_too(self):
        fixture = src(
            """
            import repro.datared.dedup as dedup

            def build():
                return dedup.DedupEngine(num_buckets=64)
            """
        )
        findings = lint_source(fixture, module="repro.net.server_fixture")
        assert rules_of(findings) == ["R009"]

    def test_factory_module_is_exempt(self):
        assert lint_source(self.FIXTURE, module="repro.systems.factory") == []

    def test_other_packages_are_not_policed(self):
        for module in (
            "repro.datared.fixture",
            "repro.analysis.fixture",
            "tests.systems.fixture",
        ):
            assert "R009" not in rules_of(
                lint_source(self.FIXTURE, module=module)
            ), module

    def test_non_engine_calls_stay_allowed(self):
        clean = src(
            """
            from repro.systems.factory import build_engine
            from repro.systems.config import SystemConfig

            def build():
                return build_engine(SystemConfig())
            """
        )
        assert lint_source(clean, module="repro.net.fixture") == []

    def test_suppression_comment(self):
        suppressed = self.FIXTURE.replace(
            "return DedupEngine(num_buckets=1024)",
            "return DedupEngine(num_buckets=1024)  # repro-lint: disable=R009",
        )
        findings = lint_source(suppressed, module="repro.net.fixture")
        assert lines_of(findings, "R009") == [9]


# -- R012: engine lifecycle in the serving layer ------------------------------


class TestR012Lifecycle:
    FIXTURE = src(
        """
        from repro.systems.factory import build_engine

        def serve(config):
            engine = build_engine(config)
            engine.write(0, b"x")
        """
    )

    def test_detects_leaked_engine(self):
        findings = lint_source(self.FIXTURE, module="repro.net.fixture")
        assert rules_of(findings) == ["R012"]
        assert lines_of(findings, "R012") == [5]

    def test_detects_leaked_server_and_system(self):
        fixture = src(
            """
            def boot(system_cls, storage_cls):
                system = FidrSystem(config=None)
                server = StorageServer(system)
                server.handle(b"frame")
            """
        )
        findings = lint_source(fixture, module="repro.systems.fixture")
        assert rules_of(findings) == ["R012", "R012"]

    def test_with_block_discharges(self):
        clean = src(
            """
            def serve(config):
                engine = build_engine(config)
                with engine:
                    engine.write(0, b"x")
            """
        )
        assert lint_source(clean, module="repro.net.fixture") == []

    def test_close_call_discharges(self):
        clean = src(
            """
            def serve(config):
                engine = build_engine(config)
                try:
                    engine.write(0, b"x")
                finally:
                    engine.close()
            """
        )
        assert lint_source(clean, module="repro.net.fixture") == []

    def test_ownership_transfer_discharges(self):
        clean = src(
            """
            class Host:
                def __init__(self, config):
                    engine = build_engine(config)
                    self.engine = engine

            def make(config):
                engine = build_engine(config)
                return engine
            """
        )
        assert lint_source(clean, module="repro.systems.fixture") == []

    def test_rule_scoped_to_serving_layer(self):
        # The factory and tests construct-and-return by design.
        assert lint_source(self.FIXTURE, module="repro.datared.fixture") == []
        assert lint_source(self.FIXTURE, module="tests.net.fixture") == []

    def test_suppression(self):
        suppressed = self.FIXTURE.replace(
            "engine = build_engine(config)",
            "engine = build_engine(config)  # repro-lint: disable=R012",
        )
        assert lint_source(suppressed, module="repro.net.fixture") == []


# -- the acceptance bar: the real tree is lint-clean --------------------------


def test_repository_sources_are_lint_clean():
    findings, scanned = lint_paths([REPO / "src"])
    assert scanned > 80
    assert findings == [], "\n".join(f.format() for f in findings)


def test_repository_tests_are_lint_clean():
    findings, _ = lint_paths([REPO / "tests"])
    assert findings == [], "\n".join(f.format() for f in findings)
