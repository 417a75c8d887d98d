"""Extension study: fixed vs. content-defined chunking (§2.1.1).

The paper fixes the chunk size at 4 KB for computational cost; systems
it cites offload variable-size (content-defined) chunking to
accelerators instead.  This study quantifies the trade on a versioned-
document workload — repeated file versions with small insertions, the
access pattern where fixed chunking loses dedup because every boundary
downstream of an edit shifts:

* fixed 4-KB chunking: dedup collapses after each insertion,
* Gear CDC: boundaries resynchronize within a chunk or two,
* the cost: CDC runs a rolling hash over every input byte.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

from ..analysis.report import Comparison, format_table, pct
from ..datared.cdc import GearChunker
from ..datared.hashing import fingerprint
from .common import ExperimentResult

__all__ = ["run"]


def _make_versions(num_versions: int, size: int, seed: int) -> List[bytes]:
    """A document plus versions with small random insertions."""
    rng = random.Random(seed)
    current = rng.randbytes(size)
    versions = [current]
    for _ in range(num_versions - 1):
        position = rng.randrange(len(current))
        insertion = rng.randbytes(rng.randint(8, 64))
        current = current[:position] + insertion + current[position:]
        versions.append(current)
    return versions


def _dedup(versions: List[bytes], split: Callable[[bytes], List[bytes]]) -> float:
    """Content-addressed dedup ratio of ``versions`` under ``split``:
    each chunk is a duplicate if its fingerprint was seen before."""
    seen = set()
    unique = duplicate = 0
    for version in versions:
        parts = split(version)
        # Correctness check rides along: every split is lossless.
        assert b"".join(parts) == version
        for part in parts:
            digest = fingerprint(part)
            if digest in seen:
                duplicate += 1
            else:
                seen.add(digest)
                unique += 1
    total = unique + duplicate
    return duplicate / total if total else 0.0


def _fixed_split(payload: bytes, chunk_size: int = 4096) -> List[bytes]:
    return [
        payload[start : start + chunk_size]
        for start in range(0, len(payload), chunk_size)
    ]


def _cdc_dedup(versions: List[bytes]) -> Dict[str, float]:
    chunker = GearChunker()
    return {
        "dedup": _dedup(versions, chunker.split),
        "scanned": float(chunker.bytes_scanned),
    }


def run(num_versions: int = 8, size: int = 120_000, seed: int = 5) -> ExperimentResult:
    """Compare chunking strategies on the versioned-document workload."""
    versions = _make_versions(num_versions, size, seed)
    total_bytes = sum(len(version) for version in versions)
    fixed = {"dedup": _dedup(versions, _fixed_split), "scanned": 0.0}
    cdc = _cdc_dedup(versions)

    table = format_table(
        headers=["strategy", "dedup ratio", "rolling-hash bytes",
                 "per input byte"],
        rows=[
            ["fixed 4 KB", pct(fixed["dedup"]), "0", "0"],
            ["Gear CDC", pct(cdc["dedup"]), f"{cdc['scanned']:,.0f}",
             f"{cdc['scanned'] / total_bytes:.2f}"],
        ],
        title=(
            f"{num_versions} versions of a {size // 1000}-KB document, "
            f"small insertions between versions"
        ),
    )
    # Ideal dedup: each new version adds only the edited chunk(s).
    ideal = 1.0 - 1.0 / num_versions
    comparisons = [
        Comparison("CDC dedup vs ideal", ideal, cdc["dedup"]),
        Comparison("fixed-chunk dedup", None, fixed["dedup"]),
    ]
    return ExperimentResult(
        name="Extension: CDC vs fixed chunking",
        headline=(
            f"insertions leave fixed chunking at {pct(fixed['dedup'])} dedup "
            f"while CDC holds {pct(cdc['dedup'])} — at the cost of hashing "
            f"every input byte (the overhead §2.1.1 cites)"
        ),
        comparisons=comparisons,
        tables=[table],
        data={"fixed": fixed, "cdc": cdc},
    )
