"""CLI dispatcher: ``python -m repro.analysis <tool> ...``.

Tools:

* ``lint`` — AST contract linter (rules R001, R003-R009 and R012);
  also runnable directly as ``python -m repro.analysis.lint``.
* ``invariants`` — run the ledger/index conservation checks against a
  freshly exercised engine (a self-test that the checker and the
  engine agree).
* ``crash`` — kill-at-random-offset crash/recovery harness for the
  durability tier: tears journal images at every framing-offset class
  and asserts recovery restores exactly the acknowledged state
  (``--smoke`` is the CI leg); also runnable directly as
  ``python -m repro.analysis.crash``.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence


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
    violations = invariants.check_engine(engine, raise_on_violation=False)
    for violation in violations:
        print(f"violation: {violation}")
    print(
        "invariants: "
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
