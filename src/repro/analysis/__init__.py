"""Analysis: projection/cost modelling and correctness tooling.

Two families live here:

* **Performance analysis** — linear projection, throughput solving,
  cost modelling (``projection``, ``throughput``, ``cost``,
  ``report``).
* **Correctness analysis** — ``lint`` (AST contract rules R001,
  R003-R009 and R012), ``invariants`` (ledger/index conservation
  checks) and ``crash`` (the durability tier's crash/recovery harness).
  Run ``python -m repro.analysis --help`` for the CLI.

Symbols are resolved lazily (PEP 562) so that importing the lightweight
correctness tools does not pull in the projection and cost stack.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "Comparison": ("report", "Comparison"),
    "CostBreakdown": ("cost", "CostBreakdown"),
    "CostParameters": ("cost", "CostParameters"),
    "LinearFit": ("projection", "LinearFit"),
    "StorageCostModel": ("cost", "StorageCostModel"),
    "ThroughputCeilings": ("throughput", "ThroughputCeilings"),
    "fit_least_squares": ("projection", "fit_least_squares"),
    "fit_two_points": ("projection", "fit_two_points"),
    "format_comparisons": ("report", "format_comparisons"),
    "format_table": ("report", "format_table"),
    "gbps": ("report", "gbps"),
    "pct": ("report", "pct"),
    "solve_throughput": ("throughput", "solve_throughput"),
    "sweep": ("projection", "sweep"),
}

__all__ = sorted(_EXPORTS) + ["crash", "invariants", "lint"]

if TYPE_CHECKING:  # pragma: no cover - static-analysis convenience only
    from .cost import CostBreakdown, CostParameters, StorageCostModel  # noqa: F401
    from .projection import (  # noqa: F401
        LinearFit,
        fit_least_squares,
        fit_two_points,
        sweep,
    )
    from .report import (  # noqa: F401
        Comparison,
        format_comparisons,
        format_table,
        gbps,
        pct,
    )
    from .throughput import ThroughputCeilings, solve_throughput  # noqa: F401


def __getattr__(name: str) -> object:
    entry = _EXPORTS.get(name)
    if entry is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module_name, attr = entry
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, attr)


def __dir__() -> "list[str]":
    return sorted(set(globals()) | set(_EXPORTS))
