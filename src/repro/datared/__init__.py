"""Functional inline data reduction: chunking, hashing, dedup, compression.

This package implements the paper's §2 components on real bytes:

* :mod:`~repro.datared.chunking` — fixed 4-KB chunking and the
  large-chunking read-modify-write pipeline (Figure 3).
* :mod:`~repro.datared.hashing` — SHA-256 chunk fingerprints and the
  bucket index function.
* :mod:`~repro.datared.hash_pbn` — the bucket-based Hash-PBN table over a
  pluggable bucket store.
* :mod:`~repro.datared.lba_map` — the two-level LBA→PBN→PBA mapping with
  reference counting.
* :mod:`~repro.datared.compression` — real (zlib, behind a per-segment
  entropy gate) and size-modelled compression strategies.
* :mod:`~repro.datared.codecs` — the codec plugin registry: tagged
  on-disk payloads and the tag-dispatched read path.
* :mod:`~repro.datared.container` — 4-MB compressed-chunk containers.
* :mod:`~repro.datared.dedup` — the end-to-end write/read engine.
* :mod:`~repro.datared.journal` — metadata journaling + crash recovery.
* :mod:`~repro.datared.cdc` — content-defined chunking (the §2.1.1
  alternative).
"""

from .cdc import GearChunker
from .chunking import BLOCK_SIZE, Chunk, FixedChunker, LargeChunkAssembler, RmwStats
from .codecs import (
    Codec,
    RawCodec,
    codec_names,
    create_codec,
    decode_chunk,
    decode_many,
    register_codec,
    register_decoder,
)
from .compression import (
    CompressedChunk,
    Compressor,
    ModeledCompressor,
    ZlibCompressor,
    compression_ratio,
)
from .container import CONTAINER_SIZE, OFFSET_GRANULE, Container, ContainerStore, Placement
from .dedup import (
    ChunkOutcome,
    DedupEngine,
    EngineStats,
    ReadReport,
    WriteReport,
)
from .hash_pbn import (
    BUCKET_CAPACITY,
    BUCKET_SIZE,
    ENTRY_SIZE,
    BucketStore,
    HashPbnTable,
    InMemoryBucketStore,
    buckets_for_capacity,
    table_bytes_for_capacity,
)
from .journal import (
    CheckpointState,
    JournalRecord,
    MetadataJournal,
    RecordKind,
    RecoveryImage,
    RecoveryReport,
    reconcile_containers,
    recover_into,
    replay_journal,
    validate_placements,
)
from .hashing import (
    FINGERPRINT_SIZE,
    MAX_PBN,
    PBN_SIZE,
    SHA256,
    Fingerprinter,
    Sha256Fingerprinter,
    bucket_index,
    decode_pbn,
    encode_pbn,
    fingerprint,
    fingerprint_many,
)
from .lba_map import (
    LBA_PBN_ENTRY_SIZE,
    PBN_PBA_ENTRY_SIZE,
    LbaMap,
    PbnAllocator,
    PbnMap,
    PbnRecord,
    mapping_bytes_for_capacity,
)

__all__ = [
    "BLOCK_SIZE",
    "Codec",
    "Fingerprinter",
    "RawCodec",
    "SHA256",
    "Sha256Fingerprinter",
    "codec_names",
    "create_codec",
    "decode_chunk",
    "decode_many",
    "register_codec",
    "register_decoder",
    "GearChunker",
    "CheckpointState",
    "JournalRecord",
    "MetadataJournal",
    "RecordKind",
    "RecoveryImage",
    "RecoveryReport",
    "reconcile_containers",
    "recover_into",
    "replay_journal",
    "validate_placements",
    "BUCKET_CAPACITY",
    "BUCKET_SIZE",
    "CONTAINER_SIZE",
    "Chunk",
    "ChunkOutcome",
    "CompressedChunk",
    "Compressor",
    "Container",
    "ContainerStore",
    "DedupEngine",
    "EngineStats",
    "ENTRY_SIZE",
    "FINGERPRINT_SIZE",
    "FixedChunker",
    "HashPbnTable",
    "InMemoryBucketStore",
    "LBA_PBN_ENTRY_SIZE",
    "LargeChunkAssembler",
    "LbaMap",
    "MAX_PBN",
    "ModeledCompressor",
    "OFFSET_GRANULE",
    "PBN_PBA_ENTRY_SIZE",
    "PBN_SIZE",
    "PbnAllocator",
    "PbnMap",
    "PbnRecord",
    "Placement",
    "ReadReport",
    "RmwStats",
    "WriteReport",
    "BucketStore",
    "bucket_index",
    "buckets_for_capacity",
    "compression_ratio",
    "decode_pbn",
    "encode_pbn",
    "fingerprint",
    "fingerprint_many",
    "mapping_bytes_for_capacity",
    "table_bytes_for_capacity",
]
