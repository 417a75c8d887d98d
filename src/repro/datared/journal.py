"""Metadata journaling, group commit, checkpoints and crash recovery.

The paper assumes its metadata updates are durable (the prototype's
tables live on table SSDs and writes are acknowledged from battery-backed
NIC buffers, §7.6.1) but does not describe a recovery path.  A storage
system that loses its Hash-PBN table or LBA map after a crash loses the
*meaning* of every byte on the data SSDs, so this module supplies one:

* :class:`MetadataJournal` — an append-only, CRC-guarded binary log of
  metadata mutations with **group commit**: records stage in memory and
  become durable only when :meth:`MetadataJournal.commit` appends the
  whole batch plus a ``COMMIT`` fence in one atomic append (the
  in-memory analogue of a single ``fsync`` per ``write_many`` batch).
  A torn tail (the classic crash artifact) is detected and discarded.
* **Checkpoints** — :meth:`MetadataJournal.write_checkpoint` captures a
  compact image of the whole metadata tier (Hash-PBN entries, LBA map,
  refcounts, allocator cursor, snapshots, ledger stats) so recovery
  replays checkpoint + tail instead of history-since-birth.  The
  pre-checkpoint prefix is truncated *lazily* on the next commit: a
  crash mid-checkpoint therefore tears only the appended tail and the
  old log still recovers everything.
* :func:`replay_journal` / :func:`recover_into` — replay an image
  against a fresh engine and the surviving container store, rebuilding
  Hash-PBN entries, the LBA→PBN map, reference counts, snapshots, the
  PBN allocator and the byte ledgers.  Replay honours the fences: only
  records up to the last durability marker (``COMMIT`` or
  ``CHECKPOINT``) are applied; an un-fenced suffix was never
  acknowledged and is discarded.  A *semantically impossible* committed
  prefix (duplicate placements, references to chunks the journal never
  placed) raises :class:`~repro.errors.JournalCorruptError` — recovery
  never guesses.

The engine calls its armed journal (``DedupEngine.journal``) at every
metadata mutation, so journaling is opt-in and costs nothing when
unused.  Arm it through
:class:`~repro.systems.config.DurabilityPolicy` and
:func:`~repro.systems.factory.build_engine`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import JournalCorruptError
from ..obs import trace
from ..obs.metrics import MetricsRegistry, get_registry
from .container import ContainerStore
from .dedup import DedupEngine
from .hashing import FINGERPRINT_SIZE
from .lba_map import (
    LBA_PAGE_BYTES,
    PBN_COLUMN_WIDTHS,
    LbaMap,
    PbnColumns,
    PbnMap,
)

__all__ = [
    "RecordKind",
    "JournalRecord",
    "CheckpointState",
    "MetadataJournal",
    "RecoveryImage",
    "RecoveryReport",
    "replay_journal",
    "reconcile_containers",
    "validate_placements",
    "recover_into",
]

_HEADER = struct.Struct(">BI")  # kind, payload length
_CRC = struct.Struct(">I")

_NEW_CHUNK = struct.Struct(">Q32sQHHI")  # pbn, digest, container, offset, stored, logical
_MAP = struct.Struct(">QQ")  # lba, pbn
_FREE = struct.Struct(">Q")  # pbn
_UNMAP = struct.Struct(">Q")  # lba
_REPOINT = struct.Struct(">QQH")  # pbn, container, offset
_COMMIT = struct.Struct(">Q")  # commit sequence number

_CKPT_HEAD = struct.Struct(">QIII6Q")  # next_pbn, n_pbn, n_page, n_snap, stats
_CKPT_PAGE = struct.Struct(">Q")  # LBA page index, then its image
_CKPT_LBA = struct.Struct(">QQ")  # lba, pbn (snapshot pins)
_CKPT_NAME = struct.Struct(">H")  # snapshot-name byte length
_CKPT_COUNT = struct.Struct(">I")  # snapshot entry count


class RecordKind:
    NEW_CHUNK = 1  #: a unique chunk was placed (pbn, digest, placement)
    MAP = 2  #: an LBA now points at a PBN
    FREE = 3  #: a PBN's last reference dropped (advisory; MAP implies it)
    UNMAP = 4  #: an LBA mapping was dropped (TRIM/discard)
    REPOINT = 5  #: GC moved a chunk to a new placement
    SNAP_CREATE = 6  #: a named snapshot pinned the current LBA map
    SNAP_DELETE = 7  #: a named snapshot released its pins
    CHECKPOINT = 8  #: compact image of the whole metadata tier
    COMMIT = 9  #: group-commit fence: everything before it is durable

#: Kinds that mark a durable prefix: replay applies records up to the
#: last marker and discards the (never acknowledged) rest.
_DURABILITY_MARKERS = (RecordKind.COMMIT, RecordKind.CHECKPOINT)


@dataclass(frozen=True)
class JournalRecord:
    """One decoded journal entry."""

    kind: int
    pbn: int = 0
    lba: int = 0
    digest: bytes = b""
    container_id: int = 0
    offset: int = 0
    stored_size: int = 0
    logical_size: int = 0
    name: str = ""  #: snapshot name (SNAP_CREATE / SNAP_DELETE)
    blob: bytes = b""  #: raw checkpoint payload (CHECKPOINT)
    seq: int = 0  #: commit sequence number (COMMIT)


@dataclass
class CheckpointState:
    """A compact image of one engine's entire metadata tier.

    Everything replay would otherwise reconstruct record-by-record: the
    PBN map's columns (placements, refcounts, fingerprints), the LBA
    map's pages, snapshot pin tables, the allocator cursor, and the six
    conserved ledger counters.  ``capture`` copies the columns and pages
    as byte images (no per-chunk work); ``encode``/``decode`` round-trip
    the wire payload, whose column and page images are little-endian.
    """

    next_pbn: int
    pbn_columns: PbnColumns
    #: ``(page index, page image)`` per LBA page holding a mapping
    lba_pages: List[Tuple[int, bytes]]
    #: (name, [(lba, pbn), ...]) per snapshot
    snapshots: List[Tuple[str, List[Tuple[int, int]]]]
    #: (logical, unique_logical, stored, reclaimed, dup_chunks, unique_chunks)
    stats: Tuple[int, int, int, int, int, int]

    @classmethod
    def capture(cls, engine: DedupEngine) -> "CheckpointState":
        """Snapshot ``engine``'s metadata (between operations)."""
        stats = engine.stats
        return cls(
            next_pbn=engine.allocator.next_pbn,
            pbn_columns=engine.pbn_map.columns(),
            lba_pages=engine.lba_map.page_images(),
            snapshots=[
                (name, sorted(pins.items()))
                for name, pins in sorted(engine._snapshots.items())
            ],
            stats=(
                stats.logical_bytes,
                stats.unique_logical_bytes,
                stats.stored_bytes,
                stats.reclaimed_stored_bytes,
                stats.duplicate_chunks,
                stats.unique_chunks,
            ),
        )

    def encode(self) -> bytes:
        pbns = len(self.pbn_columns.digests) // FINGERPRINT_SIZE
        parts = [
            _CKPT_HEAD.pack(
                self.next_pbn,
                pbns,
                len(self.lba_pages),
                len(self.snapshots),
                *self.stats,
            ),
            *self.pbn_columns,
        ]
        for index, image in self.lba_pages:
            parts.append(_CKPT_PAGE.pack(index))
            parts.append(image)
        for name, entries in self.snapshots:
            encoded = name.encode("utf-8")
            parts.append(_CKPT_NAME.pack(len(encoded)))
            parts.append(encoded)
            parts.append(_CKPT_COUNT.pack(len(entries)))
            parts.extend(_CKPT_LBA.pack(lba, pbn) for lba, pbn in entries)
        return b"".join(parts)

    @classmethod
    def decode(cls, payload: bytes) -> "CheckpointState":
        """Decode a checkpoint payload.

        Raises :class:`~repro.errors.JournalCorruptError` on structural
        failure: the record's CRC already passed, so a payload that does
        not parse is an impossible committed prefix, not a torn tail.
        """
        try:
            head = _CKPT_HEAD.unpack_from(payload, 0)
            position = _CKPT_HEAD.size
            next_pbn, n_pbn, n_page, n_snap = head[0], head[1], head[2], head[3]
            stats = (head[4], head[5], head[6], head[7], head[8], head[9])
            images: List[bytes] = []
            for width in PBN_COLUMN_WIDTHS:
                end = position + n_pbn * width
                if end > len(payload):
                    raise JournalCorruptError("checkpoint PBN columns overrun")
                images.append(payload[position:end])
                position = end
            lba_pages: List[Tuple[int, bytes]] = []
            for _ in range(n_page):
                (index,) = _CKPT_PAGE.unpack_from(payload, position)
                position += _CKPT_PAGE.size
                end = position + LBA_PAGE_BYTES
                if end > len(payload):
                    raise JournalCorruptError("checkpoint LBA page overruns")
                lba_pages.append((index, payload[position:end]))
                position = end
            snapshots: List[Tuple[str, List[Tuple[int, int]]]] = []
            for _ in range(n_snap):
                (name_len,) = _CKPT_NAME.unpack_from(payload, position)
                position += _CKPT_NAME.size
                if position + name_len > len(payload):
                    raise JournalCorruptError("checkpoint snapshot name overruns")
                name = payload[position : position + name_len].decode("utf-8")
                position += name_len
                (count,) = _CKPT_COUNT.unpack_from(payload, position)
                position += _CKPT_COUNT.size
                entries: List[Tuple[int, int]] = []
                for _ in range(count):
                    lba, pbn = _CKPT_LBA.unpack_from(payload, position)
                    entries.append((lba, pbn))
                    position += _CKPT_LBA.size
                snapshots.append((name, entries))
            if position != len(payload):
                raise JournalCorruptError(
                    f"checkpoint payload has {len(payload) - position} "
                    "trailing bytes"
                )
        except (struct.error, UnicodeDecodeError) as error:
            raise JournalCorruptError(
                f"checkpoint payload does not decode: {error}"
            ) from error
        return cls(
            next_pbn=next_pbn,
            pbn_columns=PbnColumns(*images),
            lba_pages=lba_pages,
            snapshots=snapshots,
            stats=stats,
        )


class MetadataJournal:
    """Group-committed metadata log with per-record CRC framing.

    The engine's one metadata sink: a
    :class:`~repro.datared.dedup.DedupEngine` built with ``journal=``
    calls ``on_new_chunk``, ``on_map``, ``on_free``, ``on_unmap``,
    ``on_repoint``, ``on_snapshot_create`` and ``on_snapshot_delete``
    on it — :func:`~repro.systems.factory.build_engine` arms one when
    the config's :class:`~repro.systems.config.DurabilityPolicy` turns
    journaling on.

    Records *stage* in memory as ``(kind, payload)``; :meth:`commit`
    frames the whole staged run and makes it durable at once behind a
    ``COMMIT`` fence (one fsync per batch, the group-commit
    discipline).  :meth:`to_bytes` exposes only
    the durable image — exactly what a crash would leave behind.

    ``on_durable`` (if given) fires after every durable mutation with
    ``(image, stable_prefix)``: the new durable image and the byte
    length that was already durable before the append.  The crash
    harness hooks it to capture tear points.
    """

    def __init__(
        self,
        *,
        checkpoint_every_commits: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        on_durable: Optional[Callable[[bytes, int], None]] = None,
    ) -> None:
        if checkpoint_every_commits is not None and checkpoint_every_commits < 1:
            raise ValueError("checkpoint_every_commits must be >= 1")
        #: Records of the open batch, unframed, in order: ``(kind,
        #: payload)``.  :meth:`commit` frames the run at the fence.
        self._staged: List[Tuple[int, bytes]] = []
        self._durable = bytearray()
        #: Durable-prefix length superseded by a checkpoint, cut on the
        #: next commit (lazy truncation: the old log survives any crash
        #: that tears the checkpoint record itself).
        self._truncate_at: Optional[int] = None
        self.records_written = 0
        self.commits = 0
        self.checkpoints = 0
        self.checkpoint_every_commits = checkpoint_every_commits
        self._commits_since_checkpoint = 0
        #: Monotonic sequence number stamped into each ``COMMIT`` fence.
        #: Replay rejects a regression — a CRC-valid frame batch that was
        #: duplicated or replayed out of order cannot slip past it.
        self._next_commit_seq = 0
        self.on_durable = on_durable
        reg = registry if registry is not None else get_registry()
        self._records_total = reg.counter("journal.records_total")
        self._commits_total = reg.counter("journal.commits_total")
        self._commit_bytes_total = reg.counter("journal.commit_bytes_total")
        self._checkpoints_total = reg.counter("journal.checkpoints_total")
        self._truncated_bytes_total = reg.counter("journal.truncated_bytes_total")

    # -- framing --------------------------------------------------------------
    def _frame(self, buffer: bytearray, records: List[Tuple[int, bytes]]) -> None:
        """Append ``records`` to ``buffer`` as one framed run — per
        record its header, payload and CRC32 — and count them once."""
        pack_header, pack_crc, crc32 = _HEADER.pack, _CRC.pack, zlib.crc32
        for kind, payload in records:
            record = pack_header(kind, len(payload)) + payload
            buffer += record
            # CRC covers header *and* payload: a flipped kind or length
            # byte must not be able to alias one record into another.
            buffer += pack_crc(crc32(record))
        self.records_written += len(records)
        self._records_total.inc(len(records))

    def _stage(self, kind: int, payload: bytes) -> None:
        self._staged.append((kind, payload))

    # -- metadata events (called by the engine) -------------------------------
    def on_new_chunk(
        self, pbn: int, digest: bytes, container_id: int, offset: int,
        stored_size: int, logical_size: int,
    ) -> None:
        self._stage(
            RecordKind.NEW_CHUNK,
            _NEW_CHUNK.pack(
                pbn, digest, container_id, offset, stored_size, logical_size
            ),
        )

    def on_map(self, lba: int, pbn: int) -> None:
        self._stage(RecordKind.MAP, _MAP.pack(lba, pbn))

    def on_free(self, pbn: int) -> None:
        self._stage(RecordKind.FREE, _FREE.pack(pbn))

    def on_unmap(self, lba: int) -> None:
        self._stage(RecordKind.UNMAP, _UNMAP.pack(lba))

    def on_repoint(self, pbn: int, container_id: int, offset: int) -> None:
        self._stage(RecordKind.REPOINT, _REPOINT.pack(pbn, container_id, offset))

    def on_snapshot_create(self, name: str) -> None:
        self._stage(RecordKind.SNAP_CREATE, name.encode("utf-8"))

    def on_snapshot_delete(self, name: str) -> None:
        self._stage(RecordKind.SNAP_DELETE, name.encode("utf-8"))

    # -- group commit ---------------------------------------------------------
    def _apply_pending_truncation(self) -> None:
        if self._truncate_at is None:
            return
        cut = self._truncate_at
        self._truncate_at = None
        del self._durable[:cut]
        self._truncated_bytes_total.inc(cut)

    def commit(self) -> int:
        """Make every staged record durable behind a ``COMMIT`` fence.

        The staged batch plus its fence lands in the durable image as
        one atomic append — the in-memory model of a single write +
        fsync.  Also applies any truncation a previous checkpoint left
        pending (the model of the post-fsync rename).  Returns the
        number of bytes appended (0 when nothing was staged).
        """
        staged = self._staged
        if not staged and self._truncate_at is None:
            return 0
        with trace.span("journal.commit", records=len(staged)):
            self._apply_pending_truncation()
            appended = 0
            stable = len(self._durable)
            if staged:
                staged.append((RecordKind.COMMIT, _COMMIT.pack(self._next_commit_seq)))
                self._next_commit_seq += 1
                self._frame(self._durable, staged)
                staged.clear()
                appended = len(self._durable) - stable
                self.commits += 1
                self._commits_since_checkpoint += 1
                self._commits_total.inc()
                self._commit_bytes_total.inc(appended)
            if self.on_durable is not None:
                self.on_durable(bytes(self._durable), stable)
        return appended

    def should_checkpoint(self) -> bool:
        """True when the configured commit cadence is due."""
        return (
            self.checkpoint_every_commits is not None
            and self._commits_since_checkpoint >= self.checkpoint_every_commits
        )

    def write_checkpoint(self, state: CheckpointState) -> int:
        """Append a durable ``CHECKPOINT`` record holding ``state``.

        Requires an empty staged buffer (commit first): a checkpoint is
        itself a durability marker, so un-fenced records must not
        precede it.  The pre-checkpoint prefix is *not* cut here — it is
        truncated lazily on the next commit, so a crash that tears the
        checkpoint record leaves the old log intact ahead of it.
        Returns the number of bytes appended.
        """
        if self._staged:
            raise ValueError(
                "checkpoint requires an empty staged buffer; commit first"
            )
        with trace.span("journal.checkpoint"):
            payload = state.encode()
            self._apply_pending_truncation()
            stable = len(self._durable)
            self._frame(self._durable, [(RecordKind.CHECKPOINT, payload)])
            self._truncate_at = stable
            self.checkpoints += 1
            self._commits_since_checkpoint = 0
            self._checkpoints_total.inc()
            if self.on_durable is not None:
                self.on_durable(bytes(self._durable), stable)
        return len(self._durable) - stable

    # -- persistence ----------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The durable on-disk image (staged records are *not* in it)."""
        return bytes(self._durable)

    def seed(self, image: bytes) -> None:
        """Adopt a recovered durable image as this journal's history.

        The commit-sequence cursor resumes past the image's highest
        fence, so the recovered journal's next commit extends — rather
        than collides with — the durable history.
        """
        if self._durable or self._staged:
            raise ValueError("cannot seed a non-empty journal")
        self._durable += image
        scanned, _clean = _scan(image)
        self._next_commit_seq = max(
            (
                record.seq
                for record, _end in scanned
                if record.kind == RecordKind.COMMIT
            ),
            default=-1,
        ) + 1

    @property
    def size_bytes(self) -> int:
        """Durable image size."""
        return len(self._durable)

    @property
    def staged_bytes(self) -> int:
        """Bytes staged but not yet committed (lost on crash): what the
        staged records take once framed."""
        staged = self._staged
        framing = _HEADER.size + _CRC.size
        return sum(len(payload) for _kind, payload in staged) + framing * len(staged)

    #: Framing sizes, exposed for the crash harness's tear-offset
    #: classification (header = kind + payload length, trailer = CRC32).
    HEADER_SIZE = _HEADER.size
    CRC_SIZE = _CRC.size

    # -- decoding -------------------------------------------------------------
    @staticmethod
    def frame_spans(raw: bytes) -> List[Tuple[int, int, int]]:
        """``(kind, start, end)`` per well-framed record in ``raw``.

        Stops at the first torn frame (same walk as :meth:`decode`); the
        crash harness uses the spans to place tears mid-header,
        mid-payload, mid-CRC and on record boundaries.
        """
        scanned, _clean = _scan(raw)
        spans: List[Tuple[int, int, int]] = []
        start = 0
        for record, end in scanned:
            spans.append((record.kind, start, end))
            start = end
        return spans

    @staticmethod
    def decode(raw: bytes) -> Tuple[List[JournalRecord], bool]:
        """Decode an image; returns ``(records, clean)``.

        ``clean`` is False when the tail was torn or corrupt — the valid
        prefix is still returned, which is exactly the recovery contract.
        """
        scanned, clean = _scan(raw)
        return [record for record, _end in scanned], clean

    @staticmethod
    def _decode_payload(kind: int, payload: bytes) -> Optional[JournalRecord]:
        try:
            if kind == RecordKind.NEW_CHUNK:
                pbn, digest, container, offset, stored, logical = (
                    _NEW_CHUNK.unpack(payload)
                )
                return JournalRecord(
                    kind=kind, pbn=pbn, digest=digest, container_id=container,
                    offset=offset, stored_size=stored, logical_size=logical,
                )
            if kind == RecordKind.MAP:
                lba, pbn = _MAP.unpack(payload)
                return JournalRecord(kind=kind, lba=lba, pbn=pbn)
            if kind == RecordKind.FREE:
                (pbn,) = _FREE.unpack(payload)
                return JournalRecord(kind=kind, pbn=pbn)
            if kind == RecordKind.UNMAP:
                (lba,) = _UNMAP.unpack(payload)
                return JournalRecord(kind=kind, lba=lba)
            if kind == RecordKind.REPOINT:
                pbn, container, offset = _REPOINT.unpack(payload)
                return JournalRecord(
                    kind=kind, pbn=pbn, container_id=container, offset=offset
                )
            if kind in (RecordKind.SNAP_CREATE, RecordKind.SNAP_DELETE):
                return JournalRecord(kind=kind, name=payload.decode("utf-8"))
            if kind == RecordKind.CHECKPOINT:
                # Structural validation is deferred to replay, where a
                # CRC-valid-but-unparseable payload raises the typed
                # JournalCorruptError instead of masquerading as a tear.
                return JournalRecord(kind=kind, blob=payload)
            if kind == RecordKind.COMMIT:
                (seq,) = _COMMIT.unpack(payload)
                return JournalRecord(kind=kind, seq=seq)
        except (struct.error, UnicodeDecodeError):
            return None
        return None


def _scan(raw: bytes) -> Tuple[List[Tuple[JournalRecord, int]], bool]:
    """Frame-walk an image into ``(record, end_offset)`` pairs.

    Stops at the first torn or CRC-failing frame; ``clean`` is False in
    that case.  ``end_offset`` is the byte position just past each
    record — replay uses it to know how many bytes of the image the
    effective (fenced) prefix covers.
    """
    scanned: List[Tuple[JournalRecord, int]] = []
    position = 0
    while position < len(raw):
        if position + _HEADER.size > len(raw):
            return scanned, False
        kind, length = _HEADER.unpack_from(raw, position)
        end = position + _HEADER.size + length + _CRC.size
        if end > len(raw):
            return scanned, False
        payload = raw[position + _HEADER.size : end - _CRC.size]
        (crc,) = _CRC.unpack_from(raw, end - _CRC.size)
        if zlib.crc32(raw[position : end - _CRC.size]) != crc:
            return scanned, False
        record = MetadataJournal._decode_payload(kind, payload)
        if record is None:
            return scanned, False
        scanned.append((record, end))
        position = end
    return scanned, True


@dataclass
class RecoveryImage:
    """What survives a crash: the durable journal + the container store.

    Feed one to :func:`~repro.systems.factory.build_engine` via
    ``recover_from=``.
    """

    journal: bytes
    containers: ContainerStore


@dataclass
class RecoveryReport:
    """What recovery did, attached to the engine as ``engine.recovery``."""

    clean: bool
    records_replayed: int = 0
    records_discarded: int = 0
    from_checkpoint: bool = False
    #: Byte length of the effective (fenced) prefix that was applied.
    durable_bytes: int = 0
    #: Container placements that no replayed PBN owns, reclaimed by
    #: :func:`reconcile_containers` (torn-batch appends + frees that
    #: were deferred behind a commit that never landed).
    orphans_reclaimed: int = 0


class _Replayer:
    """Applies one journal image's effective prefix to a fresh engine."""

    def __init__(self, engine: DedupEngine) -> None:
        self.engine = engine
        #: PBNs placed by NEW_CHUNK whose own first MAP has not arrived
        #: yet — distinguishes the unique-chunk MAP (no dup increment)
        #: from a genuine duplicate hit during ledger reconstruction.
        self.pending_first_map: set[int] = set()
        #: Last COMMIT sequence number seen; fences must strictly
        #: increase, or a duplicated/replayed frame batch is in play.
        self.last_commit_seq = -1

    def apply(self, index: int, record: JournalRecord) -> None:
        try:
            self._apply(record)
        except JournalCorruptError:
            raise
        except (KeyError, ValueError, OverflowError) as error:
            # OverflowError: a value too wide for its metadata column
            # (e.g. a container id past 32 bits).
            raise JournalCorruptError(
                f"journal record {index} (kind {record.kind}) cannot be "
                f"replayed: {error}"
            ) from error

    def _apply(self, record: JournalRecord) -> None:
        engine = self.engine
        kind = record.kind
        if kind == RecordKind.NEW_CHUNK:
            if engine.pbn_map.find_by_fingerprint(record.digest) is not None:
                raise JournalCorruptError(
                    f"duplicate NEW_CHUNK for a live fingerprint "
                    f"(PBN {record.pbn})"
                )
            engine.pbn_map.add(
                record.pbn, record.container_id, record.offset,
                record.stored_size, record.digest,
                refcount=0,  # references arrive via MAP records
            )
            engine.table.insert(record.digest, record.pbn)
            engine.allocator.ensure_allocated(record.pbn)
            self.pending_first_map.add(record.pbn)
            engine.stats.unique_chunks += 1
            engine.stats.unique_logical_bytes += record.logical_size
            engine.stats.stored_bytes += record.stored_size
        elif kind == RecordKind.MAP:
            if record.pbn not in engine.pbn_map:
                raise JournalCorruptError(
                    f"MAP references PBN {record.pbn}, which the journal "
                    "never placed"
                )
            engine.pbn_map.ref(record.pbn)
            old = engine.lba_map.set(record.lba, record.pbn)
            engine.stats.logical_bytes += engine.chunker.chunk_size
            if record.pbn in self.pending_first_map:
                self.pending_first_map.discard(record.pbn)
            else:
                engine.stats.duplicate_chunks += 1
            if old is not None:
                self._release(old)
        elif kind == RecordKind.UNMAP:
            old = engine.lba_map.unmap(record.lba)
            if old is not None:
                self._release(old)
        elif kind == RecordKind.REPOINT:
            if record.pbn not in engine.pbn_map:
                raise JournalCorruptError(
                    f"REPOINT references PBN {record.pbn}, which the "
                    "journal never placed"
                )
            engine.pbn_map.repoint(record.pbn, record.container_id, record.offset)
        elif kind == RecordKind.SNAP_CREATE:
            if record.name in engine._snapshots:
                raise JournalCorruptError(
                    f"SNAP_CREATE for existing snapshot {record.name!r}"
                )
            pins = dict(engine.lba_map.items())
            for pbn in pins.values():
                engine.pbn_map.ref(pbn)
            engine._snapshots[record.name] = pins
        elif kind == RecordKind.SNAP_DELETE:
            if record.name not in engine._snapshots:
                raise JournalCorruptError(
                    f"SNAP_DELETE for unknown snapshot {record.name!r}"
                )
            pins = engine._snapshots.pop(record.name)
            for pbn in pins.values():
                self._release(pbn)
        elif kind == RecordKind.FREE:
            # Advisory (MAP/UNMAP replay already performed the release).
            pass
        elif kind == RecordKind.COMMIT:
            if record.seq <= self.last_commit_seq:
                raise JournalCorruptError(
                    f"commit sequence regressed ({self.last_commit_seq} -> "
                    f"{record.seq}): a committed batch was duplicated or "
                    "replayed out of order"
                )
            self.last_commit_seq = record.seq
        else:
            raise JournalCorruptError(f"unknown record kind {kind}")

    def _release(self, pbn: int) -> None:
        """Metadata-only release: the surviving container store already
        reflects (or :func:`reconcile_containers` will square) the
        physical space accounting."""
        dead = self.engine.pbn_map.unref(pbn)
        if dead is not None:
            _container_id, _offset, stored_size, fingerprint = dead
            self.engine.table.remove(fingerprint)
            self.engine.allocator.free(pbn)
            self.engine.stats.reclaimed_stored_bytes += stored_size

    def restore_checkpoint(self, state: CheckpointState) -> None:
        """Rebuild the engine's maps from a checkpoint's column and page
        images; the Hash-PBN table is re-indexed one live PBN at a time."""
        engine = self.engine
        try:
            engine.pbn_map = pbn_map = PbnMap.from_columns(state.pbn_columns)
            engine.lba_map = LbaMap.from_page_images(state.lba_pages)
            engine.allocator.restore(state.next_pbn, pbn_map)
        except ValueError as error:
            raise JournalCorruptError(
                f"checkpoint does not restore: {error}"
            ) from error
        for pbn in pbn_map.pbns():
            engine.table.insert(pbn_map.fingerprint(pbn), pbn)
        for name, entries in state.snapshots:
            engine._snapshots[name] = dict(entries)
        (
            engine.stats.logical_bytes,
            engine.stats.unique_logical_bytes,
            engine.stats.stored_bytes,
            engine.stats.reclaimed_stored_bytes,
            engine.stats.duplicate_chunks,
            engine.stats.unique_chunks,
        ) = state.stats


def replay_journal(engine: DedupEngine, image: bytes) -> RecoveryReport:
    """Replay ``image``'s effective (fenced) prefix into a *fresh* engine.

    The effective prefix runs through the last durability marker
    (``COMMIT`` fence or ``CHECKPOINT``); an un-fenced suffix was never
    acknowledged to any client and is discarded — an image with records
    but no marker at all (a crash inside the very first group commit)
    therefore replays nothing.  When the prefix holds a checkpoint,
    state restores from it and only the tail after it is replayed.

    Raises :class:`~repro.errors.JournalCorruptError` when the committed
    prefix is semantically impossible — never a silent wrong answer.
    """
    with trace.span("engine.recover", image_bytes=len(image)):
        scanned, clean = _scan(image)
        marker_indexes = [
            i for i, (record, _end) in enumerate(scanned)
            if record.kind in _DURABILITY_MARKERS
        ]
        keep = marker_indexes[-1] + 1 if marker_indexes else 0
        if keep < len(scanned):
            clean = False
        durable_bytes = scanned[keep - 1][1] if keep else 0
        checkpoint_index: Optional[int] = None
        for i in range(keep - 1, -1, -1):
            if scanned[i][0].kind == RecordKind.CHECKPOINT:
                checkpoint_index = i
                break
        replayer = _Replayer(engine)
        start = 0
        if checkpoint_index is not None:
            state = CheckpointState.decode(scanned[checkpoint_index][0].blob)
            replayer.restore_checkpoint(state)
            start = checkpoint_index + 1
        replayed = keep - start + (1 if checkpoint_index is not None else 0)
        for i in range(start, keep):
            replayer.apply(i, scanned[i][0])
        return RecoveryReport(
            clean=clean,
            records_replayed=replayed,
            records_discarded=len(scanned) - keep,
            from_checkpoint=checkpoint_index is not None,
            durable_bytes=durable_bytes,
        )


def validate_placements(engine: DedupEngine) -> None:
    """Check every replayed PBN owns a distinct live container placement.

    The journal's committed prefix can be CRC-valid yet still lie about
    the data SSDs — e.g. a duplicated ``NEW_CHUNK`` record re-placing a
    chunk whose bytes a later free already reclaimed, or two PBNs
    claiming the same placement.  Serving reads from such a mapping
    would be a silent wrong answer, so recovery refuses with the typed
    :class:`~repro.errors.JournalCorruptError` instead.
    """
    live = {
        (container_id, offset)
        for container_id, offset, _stored in engine.containers.live_placements()
    }
    owned: set[Tuple[int, int]] = set()
    for pbn, record in engine.pbn_map.records():
        container_id, offset = record.container_id, record.offset
        key = (container_id, offset)
        if key not in live:
            raise JournalCorruptError(
                f"PBN {pbn} points at container {container_id} "
                f"offset {offset}, which holds no chunk"
            )
        if key in owned:
            raise JournalCorruptError(
                f"container {container_id} offset {offset} "
                f"is claimed by two PBNs"
            )
        owned.add(key)


def reconcile_containers(engine: DedupEngine) -> int:
    """Mark dead every container placement no replayed PBN owns.

    Two legitimate sources of such orphans after a crash: chunk payloads
    appended by a batch whose commit fence never landed, and frees the
    engine deferred behind a commit that never returned.  Either way the
    bytes are garbage the moment the journal is the source of truth.
    Replay re-lists every chunk it re-places under its container, the
    ones it then releases included, so afterwards the PBN list of every
    container left with no live chunk (or dropped) is forgotten, as the
    engine forgets it when the last live chunk dies.
    Returns the number of placements reclaimed.
    """
    reclaimed = 0
    owners: Dict[int, Dict[int, int]] = {}
    for container_id, offset, stored_size in engine.containers.live_placements():
        if container_id not in owners:
            owners[container_id] = engine.pbn_map.owners(container_id)
        if offset not in owners[container_id]:
            engine.containers.mark_dead(container_id, offset, stored_size)
            reclaimed += 1
    for container_id in engine.pbn_map.listed_containers():
        if not engine.containers.holds_live(container_id):
            engine.pbn_map.forget_container(container_id)
    return reclaimed


def recover_into(engine: DedupEngine, image: bytes) -> RecoveryReport:
    """Full recovery of one engine: replay, reconcile, re-seed.

    ``engine`` must be freshly built (empty metadata) over the surviving
    container store.  After replay the engine's journal (if armed) is
    seeded with the effective prefix so the durable history continues
    seamlessly, and ``engine.recovery`` carries the report.
    """
    report = replay_journal(engine, image)
    # Recovery re-indexes the table through its store: settle those
    # accesses so the rebuilt engine's ledgers are exact at rest.
    engine.table.store.replay()
    validate_placements(engine)
    report.orphans_reclaimed = reconcile_containers(engine)
    if engine.journal is not None:
        engine.journal.seed(image[: report.durable_bytes])
    engine.recovery = report
    return report
