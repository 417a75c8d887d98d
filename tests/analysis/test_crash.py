"""Tests for the kill-at-random-offset crash/recovery harness.

The harness itself is the tentpole correctness proof (every byte-offset
tear class); these tests pin its contract so CI can
run a small configuration and still trust the verdict.
"""

from repro.analysis.crash import (
    TEAR_CLASSES,
    CrashReport,
    PlainCrashHarness,
    classify_offset,
    main,
    run,
    tear_offsets,
)
from repro.datared.journal import MetadataJournal


def _fenced_image():
    journal = MetadataJournal()
    journal.on_new_chunk(1, b"\x01" * 32, 0, 0, 100, 4096)
    journal.on_map(8, 1)
    journal.commit()
    journal.on_map(16, 1)
    journal.commit()
    return journal.to_bytes()


class TestTearPlacement:
    def test_classify_covers_every_offset(self):
        image = _fenced_image()
        for offset in range(len(image) + 1):
            assert classify_offset(image, offset) in TEAR_CLASSES

    def test_full_length_is_complete(self):
        image = _fenced_image()
        assert classify_offset(image, len(image)) == "complete"

    def test_offsets_cover_all_classes(self):
        image = _fenced_image()
        classes = {
            classify_offset(image, offset)
            for offset in tear_offsets(image, 0, every_byte=False)
        }
        assert classes == set(TEAR_CLASSES)

    def test_every_byte_sweep_is_exhaustive(self):
        image = _fenced_image()
        offsets = tear_offsets(image, 0, every_byte=True)
        # Tears live in the append region (stable, len]: offset 0 is the
        # already-durable prefix itself, not a crash state.
        assert offsets == list(range(1, len(image) + 1))

    def test_offsets_respect_stable_prefix(self):
        image = _fenced_image()
        stable = len(_fenced_image()) // 2
        assert all(
            offset > stable or offset == len(image)
            for offset in tear_offsets(image, stable, every_byte=False)
        )


class TestPlainHarness:
    def test_small_run_is_clean(self):
        harness = PlainCrashHarness(seed=7, checkpoint_every_commits=3)
        harness.run_workload(ops=24)
        report = harness.verify()
        assert report.ok, report.render()
        assert report.tears > 0
        assert set(report.classes) == set(TEAR_CLASSES)


class TestReport:
    def test_ok_requires_every_class_exercised(self):
        report = CrashReport(mode="plain", captures=1)
        report.tears = 5
        report.classes = {"mid-header": 5}
        assert not report.ok  # four classes never exercised

    def test_merge_accumulates(self):
        left = CrashReport(mode="plain", captures=1)
        left.tears = 2
        left.classes = {"mid-header": 2}
        right = CrashReport(mode="plain", captures=2)
        right.tears = 3
        right.classes = {"mid-crc": 3}
        left.merge(right)
        assert left.tears == 5
        assert left.captures == 3
        assert left.classes == {"mid-header": 2, "mid-crc": 3}


class TestEntryPoints:
    def test_run_merges_its_rounds(self):
        one = run(seed=3, ops=12, rounds=1)
        two = run(seed=3, ops=12, rounds=2)
        assert two.ok, two.render()
        assert two.mode == "plain"
        assert two.captures > one.captures

    def test_cli_smoke_exits_zero(self, capsys):
        assert main(["--smoke"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
