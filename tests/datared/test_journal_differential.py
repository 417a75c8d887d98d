"""The journal frames a batch's records at its fence (DESIGN.md §5.9):
observer events stage ``(kind, payload)`` and :meth:`MetadataJournal.commit`
frames the run in one loop.  :class:`PerRecordJournal` below frames each
record as it is staged, as the journal once did; one history of events,
commits and checkpoints through both must leave the same durable image
at every ``on_durable`` call and the same counts after every commit."""

import struct
import zlib

from hypothesis import given, settings, strategies as st

from repro.datared.journal import MetadataJournal, RecordKind
from repro.obs.metrics import MetricsRegistry

from .test_journal import state_of

_HEADER = struct.Struct(">BI")  # kind, payload length
_CRC = struct.Struct(">I")
_COMMIT = struct.Struct(">Q")


class PerRecordJournal(MetadataJournal):
    """The journal with per-record framing: each staged record is framed
    into a staged byte buffer at once and counted as it is staged."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._staged = bytearray()

    @staticmethod
    def _frame_one(buffer, kind, payload):
        header = _HEADER.pack(kind, len(payload))
        buffer += header
        buffer += payload
        buffer += _CRC.pack(zlib.crc32(payload, zlib.crc32(header)))

    def _stage(self, kind, payload):
        self._frame_one(self._staged, kind, payload)
        self.records_written += 1
        self._records_total.inc()

    def commit(self):
        if not self._staged and self._truncate_at is None:
            return 0
        self._apply_pending_truncation()
        appended = 0
        stable = len(self._durable)
        if self._staged:
            self._stage(RecordKind.COMMIT, _COMMIT.pack(self._next_commit_seq))
            self._next_commit_seq += 1
            appended = len(self._staged)
            self._durable += self._staged
            self._staged.clear()
            self.commits += 1
            self._commits_since_checkpoint += 1
            self._commits_total.inc()
            self._commit_bytes_total.inc(appended)
        if self.on_durable is not None:
            self.on_durable(bytes(self._durable), stable)
        return appended

    def write_checkpoint(self, state):
        if self._staged:
            raise ValueError("commit first")
        payload = state.encode()
        self._apply_pending_truncation()
        stable = len(self._durable)
        frame = bytearray()
        self._frame_one(frame, RecordKind.CHECKPOINT, payload)
        self.records_written += 1
        self._records_total.inc()
        self._durable += frame
        self._truncate_at = stable
        self.checkpoints += 1
        self._commits_since_checkpoint = 0
        self._checkpoints_total.inc()
        if self.on_durable is not None:
            self.on_durable(bytes(self._durable), stable)
        return len(frame)

    @property
    def staged_bytes(self):
        return len(self._staged)


U64 = st.integers(0, (1 << 64) - 1)
NAME = st.text(max_size=12)
EVENT = st.one_of(
    st.tuples(
        st.just("on_new_chunk"), U64, st.binary(min_size=32, max_size=32),
        U64, st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
        st.integers(0, 0xFFFFFFFF),
    ),
    st.tuples(st.just("on_map"), U64, U64),
    st.tuples(st.just("on_free"), U64),
    st.tuples(st.just("on_unmap"), U64),
    st.tuples(st.just("on_repoint"), U64, U64, st.integers(0, 0xFFFF)),
    st.tuples(st.sampled_from(["on_snapshot_create", "on_snapshot_delete"]), NAME),
    st.tuples(st.just("commit")),
    st.tuples(st.just("checkpoint"), st.integers(0, 3)),
)

#: Checkpoint images of growing size, so truncation cuts vary.
STATES = [
    state_of(n, mappings=[(lba, lba) for lba in range(n)], stats=(n, n, n, 0, 0, n))
    for n in range(4)
]


class TestFramedAtTheFence:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(EVENT, max_size=60), st.sampled_from([None, 1, 3]))
    def test_run_framing_matches_per_record_framing(self, events, cadence):
        images = {}
        journals = {}
        for label, cls in (("run", MetadataJournal), ("per-record", PerRecordJournal)):
            seen = images[label] = []
            journals[label] = cls(
                checkpoint_every_commits=cadence,
                registry=MetricsRegistry(),
                on_durable=lambda image, stable, seen=seen: seen.append((image, stable)),
            )
        run, reference = journals["run"], journals["per-record"]

        def counts(journal):
            return (
                journal.records_written, journal.staged_bytes, journal.commits,
                journal.checkpoints, journal.size_bytes, journal.should_checkpoint(),
                journal._records_total.value, journal._commit_bytes_total.value,
            )

        for event in events + [("commit",)]:
            name, args = event[0], event[1:]
            if name == "checkpoint":
                for journal in (run, reference):
                    journal.commit()
                    journal.write_checkpoint(STATES[args[0]])
            elif name == "commit":
                assert run.commit() == reference.commit()
            else:
                getattr(run, name)(*args)
                getattr(reference, name)(*args)
                assert run.staged_bytes == reference.staged_bytes
                continue
            assert counts(run) == counts(reference)
            assert images["run"] == images["per-record"]
            assert run.to_bytes() == reference.to_bytes()
        assert MetadataJournal.decode(run.to_bytes())[1]
