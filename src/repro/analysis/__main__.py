"""CLI dispatcher: ``python -m repro.analysis <tool> ...``.

Tools:

* ``lint`` — AST contract linter (rules R001, R003-R009 and R012);
  also runnable directly as ``python -m repro.analysis.lint``.
* ``invariants`` — run the ledger/index conservation checks against a
  freshly exercised engine and against FIDR and baseline systems, one
  of them driven into a refused write by a one-bucket table and one a
  journaled FIDR stack overwritten pass after pass, so whole containers
  and bucket pages die (a self-test that the checker and the served
  write walk agree).
* ``crash`` — kill-at-random-offset crash/recovery harness for the
  durability tier: tears journal images at every framing-offset class
  and asserts recovery restores exactly the acknowledged state
  (``--smoke`` is the CI leg); also runnable directly as
  ``python -m repro.analysis.crash``.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..systems.base import ReductionSystem


def _exercised_systems() -> List[Tuple[str, "ReductionSystem"]]:
    """FIDR and baseline after a mixed workload, a FIDR system whose
    one-bucket table refused part of an acked batch, and a journaled
    FIDR system after overwrite passes."""
    from ..errors import CapacityError
    from ..systems import BaselineSystem, FidrSystem
    from ..systems.config import DurabilityPolicy, SystemConfig

    systems: List[Tuple[str, "ReductionSystem"]] = []
    for cls in (FidrSystem, BaselineSystem):
        system = cls(num_buckets=64, cache_lines=8)
        for index in range(200):
            system.write(index % 150, bytes([index % 97]) * 4096)
        system.flush()
        systems.append((cls.name, system))
    refused = FidrSystem(num_buckets=1, cache_lines=16)
    try:  # a bucket holds 107 entries: the second batch is refused
        for lba in range(2 * refused.config.batch_chunks):
            refused.write(lba, lba.to_bytes(4, "big") * 1024)
    except CapacityError:
        systems.append(("FIDR after a refused batch", refused))
    else:
        raise AssertionError("a one-bucket table accepted every chunk")
    journaled = FidrSystem(
        num_buckets=64, cache_lines=8,
        config=SystemConfig(durability=DurabilityPolicy(journal=True)),
    )
    for stamp in range(4):  # each pass kills the last: whole containers die
        for lba in range(96):
            journaled.write(lba, (stamp << 16 | lba).to_bytes(4, "big") * 1024)
        journaled.flush()
    if not journaled.engine.containers.garbage_victims(0.999):
        raise AssertionError("overwrite passes left no fully-dead container")
    systems.append(("journaled FIDR after overwrite passes", journaled))
    return systems


def _run_invariants_selftest() -> int:
    from ..datared.dedup import DedupEngine
    from . import invariants

    engine = DedupEngine()
    payload = bytes(range(256)) * (engine.chunker.chunk_size // 256)
    step = engine.chunker.blocks_per_chunk
    for index in range(64):
        engine.write(index * step, payload[: engine.chunker.chunk_size])
        if index % 3 == 0:  # plant duplicates and overwrites
            engine.write(((index + 1) % 64) * step, payload[: engine.chunker.chunk_size])
    engine.flush()
    engine.collect_garbage(0.5)
    checked = [("engine", invariants.check_engine(engine, raise_on_violation=False))]
    checked += [
        (name, invariants.check_system(system, raise_on_violation=False))
        for name, system in _exercised_systems()
    ]
    violations = [f"{name}: {found}" for name, each in checked for found in each]
    for violation in violations:
        print(f"violation: {violation}")
    print(
        f"invariants: {len(checked)} checked, "
        + ("OK" if not violations else f"{len(violations)} violation(s)")
    )
    return 1 if violations else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if not arguments or arguments[0] in {"-h", "--help"}:
        print(__doc__)
        return 0
    tool, rest = arguments[0], arguments[1:]
    if tool == "lint":
        from .lint import main as lint_main

        return lint_main(rest)
    if tool == "invariants":
        return _run_invariants_selftest()
    if tool == "crash":
        from .crash import main as crash_main

        return crash_main(rest)
    print(
        f"unknown tool {tool!r}; expected 'lint', 'invariants' or 'crash'"
    )
    return 2


if __name__ == "__main__":
    sys.exit(main())
