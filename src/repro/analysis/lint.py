"""repro-lint: AST-level concurrency and determinism rules for this repo.

Generic linters check style; this one checks the *contracts* the
codebase relies on for correctness of its results:

=====  ==============================================================
Rule   Contract enforced
=====  ==============================================================
R001   No blocking calls (``time.sleep``, sync socket/file I/O, bulk
       ``zlib``) inside ``async def`` in the serving layer — one
       blocked coroutine stalls every connection on the loop.
R003   No wall-clock or process-global randomness (``time.time``,
       ``random.random``, …) in ``repro.sim`` / ``repro.systems`` —
       results must be a pure function of inputs and seeds.
R004   No float-tainted arithmetic assigned to byte/chunk/count
       ledger fields in ``repro.datared`` — reduction ratios are
       derived, the ledgers themselves stay integral and exact.
R005   No bare ``except:`` and no silently swallowed broad excepts in
       the serving layer — every error must map to a protocol error
       frame or a typed :class:`~repro.errors.ReproError`.
R006   No byte copies (``bytes(…)``/``bytearray(…)``/``.tobytes()``/
       slicing a non-``memoryview``) inside functions annotated
       ``# repro-lint: hot-path`` — the zero-copy write path copies
       payload bytes exactly once, at the container boundary
       (DESIGN.md §5.4).  Each sanctioned copy carries a same-line
       ``# repro-lint: copy-ok <reason>``.
R007   No ad-hoc instrumentation in the data/serving path
       (``repro.datared``/``net``/``systems``/``cache``/``hw``, CLI
       ``__main__`` modules exempt):
       raw ``time.*`` timing calls and ``print``-style metric
       reporting bypass the one observability surface — record
       durations through :mod:`repro.obs.trace` spans and publish
       numbers through the :mod:`repro.obs.metrics` registry so the
       STATS op sees them (DESIGN.md §5.5).
R008   No direct compression/hashing backend calls (``zlib.*``,
       ``hashlib.sha256``) in ``repro.datared``/``repro.systems``
       outside the registry modules — payload bytes must flow through
       the codec registry and the fingerprint interface so every chunk
       carries its codec tag and the configured algorithms are actually
       the ones running (DESIGN.md §5.6).  CRC helpers (``zlib.crc32``/``adler32``)
       are not payload codecs and stay allowed.
R009   No direct ``DedupEngine(…)`` construction in
       ``repro.net``/``repro.systems`` outside
       ``repro.systems.factory`` — ``build_engine`` is the one place
       that wires an engine's table store, journal and crash recovery
       from the ``SystemConfig``; an engine built anywhere else skips
       that wiring.
R012   Engine/system construction in ``repro.net``/``repro.systems``
       must honour the lifecycle API (DESIGN.md §5.9): a local
       variable bound to ``build_engine(…)``, ``StorageServer(…)``/
       ``StorageServer.build(…)``, a ``ReductionSystem`` subclass or a
       raw engine class must be closed in the same scope —
       ``.close()``/``.shutdown()``, a ``with`` block, or ownership
       transfer (returned, yielded, or stored on ``self``).  A leaked
       engine never writes its final commit fence, so acked writes
       can silently miss the journal.
=====  ==============================================================

Suppress a single line with ``# repro-lint: disable=R001`` (comma
list allowed).  Ids R002, R010 and R011 are retired and stay unused,
so an old ``disable=`` comment never silences a different rule.

CLI: ``python -m repro.analysis.lint src/ tests/ [--json report.json]``.
Exit status 1 when findings remain after suppression.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

__all__ = ["Finding", "RULES", "lint_paths", "lint_source", "main"]

RULES: Dict[str, str] = {
    "R000": "file could not be parsed",
    "R001": "blocking call inside async def in the serving layer",
    "R003": "wall-clock/randomness in deterministic simulation code",
    "R004": "float-tainted arithmetic on an integral ledger field",
    "R005": "bare or silently swallowed exception in the serving layer",
    "R006": "byte copy inside a hot-path function without a copy-ok reason",
    "R007": "ad-hoc timing/print instrumentation outside repro.obs",
    "R008": "direct codec/hash backend call outside the plugin registries",
    "R009": "direct engine construction outside the engine factory",
    "R012": "engine/system constructed in the serving layer but never "
    "closed (lifecycle API)",
}

_DISABLE_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Z0-9,\s]+)")
_HOT_PATH_RE = re.compile(r"#\s*repro-lint:[^#\n]*\bhot-path\b")
#: ``copy-ok`` must state *why* the copy is sanctioned — a bare marker
#: does not suppress.
_COPY_OK_RE = re.compile(r"#\s*repro-lint:\s*copy-ok\s+\S")

#: Calls that block the event loop when issued from a coroutine (R001).
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "zlib.compress",
        "zlib.decompress",
        "zlib.compressobj",
        "zlib.decompressobj",
        "open",
        "input",
        "os.system",
        "os.popen",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "socket.getaddrinfo",
        "socket.socket",
    }
)
_BLOCKING_PREFIXES = ("socket.", "requests.", "urllib.request.")

#: Wall-clock / process-global entropy sources (R003).
_NONDETERMINISTIC_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "date.today",
        "uuid.uuid1",
        "uuid.uuid4",
        "os.urandom",
        "secrets.token_bytes",
        "secrets.token_hex",
    }
)
#: ``random.Random(seed)`` instances are deterministic and allowed; the
#: module-global functions share hidden unseeded state and are not.
_NONDETERMINISTIC_PREFIXES = ("np.random.", "numpy.random.")

#: Raw timing sources R007 bans in the instrumented path — durations
#: belong in :mod:`repro.obs.trace` spans, where the registry's
#: histograms (and hence the STATS op) can see them.
_R007_TIMING_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
    }
)
#: Packages whose runtime code R007 covers.  Workloads, analysis
#: tooling and ``__main__`` CLIs are presentation layers and stay free
#: to time and print.
_R007_PACKAGES = (
    "repro.datared",
    "repro.net",
    "repro.systems",
    "repro.cache",
    "repro.hw",
)

#: Modules R008 covers: every payload byte in the reduction path must
#: go through the codec/fingerprint registries.
_R008_PACKAGES = ("repro.datared", "repro.systems")
#: The registries themselves are where the direct backend calls
#: legitimately live.
_R008_REGISTRY_MODULES = (
    "repro.datared.codecs",
    "repro.datared.compression",
    "repro.datared.hashing",
)
#: Direct payload-codec/fingerprint backend call prefixes R008 flags.
_R008_BACKEND_PREFIXES = ("zlib.",)
#: Exact names flagged (attribute-path calls like ``hashlib.sha256``).
_R008_BACKEND_CALLS = frozenset({"hashlib.sha256", "hashlib.new"})
#: Checksum helpers that merely share zlib's namespace — not payload
#: codecs (the journal's record CRCs use them).
_R008_ALLOWED = frozenset({"zlib.crc32", "zlib.adler32"})

#: Modules R009 covers: the serving/system layers must build engines
#: through the factory so the ``SystemConfig`` is the one decision
#: point for how an engine is wired.
_R009_PACKAGES = ("repro.net", "repro.systems")

#: The factory itself is where direct construction is the job.
_R009_FACTORY_MODULES = ("repro.systems.factory",)

#: Modules R012 covers (the serving/system layers own engine lifetimes;
#: the factory constructs-and-returns by design).
_R012_PACKAGES = ("repro.net", "repro.systems")

#: Constructors whose result carries the engine lifecycle contract
#: (matched on the last dotted component, plus ``StorageServer.build``).
_R012_CTOR_NAMES = frozenset(
    {
        "DedupEngine",
        "build_engine",
        "BaselineSystem",
        "FidrSystem",
        "ReductionSystem",
        "StorageServer",
    }
)

#: Method calls that discharge the R012 obligation.
_R012_CLOSERS = frozenset({"close", "shutdown"})

#: Engine constructors R009 flags (matched on the last dotted
#: component, so ``dedup.DedupEngine(...)`` is caught too).
_R009_ENGINE_NAMES = frozenset({"DedupEngine"})

#: Target names R004 treats as integral ledgers.
_COUNTER_RE = re.compile(
    r"(?:^|_)(bytes|chunks?|count|counts|refcount|refcounts|cycles|ops|"
    r"reads|writes|entries|lbas?|pbns?|sealed|evictions|hits|misses)(?:_|$)",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


# ---------------------------------------------------------------------------
# Per-file model
# ---------------------------------------------------------------------------


class _File:
    def __init__(self, path: str, module: str, source: str):
        self.path = path
        self.module = module
        self.source = source
        self.lines = source.splitlines()
        self.parse_error: Optional[Finding] = None
        try:
            self.tree: Optional[ast.Module] = ast.parse(source)
        except SyntaxError as error:
            self.tree = None
            self.parse_error = Finding(
                "R000",
                path,
                error.lineno or 1,
                (error.offset or 1) - 1,
                f"syntax error: {error.msg}",
            )
        self.suppressed: Dict[int, Set[str]] = {}
        for number, text in enumerate(self.lines, start=1):
            match = _DISABLE_RE.search(text)
            if match:
                rules = {
                    token.strip()
                    for token in match.group(1).split(",")
                    if token.strip()
                }
                self.suppressed[number] = rules

    def line(self, number: int) -> str:
        if 1 <= number <= len(self.lines):
            return self.lines[number - 1]
        return ""

    def is_suppressed(self, finding: Finding) -> bool:
        rules = self.suppressed.get(finding.line)
        return bool(rules) and (finding.rule in rules or "all" in rules)


def _module_for_path(path: Path) -> str:
    parts = list(path.parts)
    name = path.stem if path.suffix == ".py" else path.name
    for anchor in ("repro", "tests"):
        if anchor in parts:
            index = len(parts) - 1 - parts[::-1].index(anchor)
            pieces = parts[index:-1] + ([] if name == "__init__" else [name])
            return ".".join(pieces)
    return name


# ---------------------------------------------------------------------------
# Rule walker
# ---------------------------------------------------------------------------


def _scope_nodes(node: ast.AST) -> Iterable[ast.AST]:
    """Walk a function body without descending into nested scopes."""
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            continue
        yield child
        yield from _scope_nodes(child)


def _dotted(node: ast.expr) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _attr_chain(node: ast.expr) -> Optional[Tuple[str, List[str]]]:
    """``(root_name, [attr, ...])`` for an attribute store target.

    Unwraps subscripts/stars so ``del self._pending[:n]`` resolves to
    ``("self", ["_pending"])``.
    """
    while isinstance(node, (ast.Subscript, ast.Starred)):
        node = node.value
    attrs: List[str] = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and attrs:
        return node.id, list(reversed(attrs))
    return None


def _is_floaty(node: ast.expr) -> bool:
    """Whether an expression can taint an integral ledger with a float."""
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        if name in {"int", "len", "round"}:
            return False
        if name == "float":
            return True
    for inner in ast.walk(node):
        if isinstance(inner, ast.Constant) and isinstance(inner.value, float):
            return True
        if isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.Div):
            return True
        if isinstance(inner, ast.Call) and _dotted(inner.func) == "float":
            return True
    return False


def _view_locals(
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
) -> Set[str]:
    """Local names bound to ``memoryview`` objects inside ``node``.

    Slicing a memoryview is zero-copy, so R006 must not flag it.  Two
    fixpoint passes over the simple assignments cover the idioms the
    hot path uses (``view = memoryview(payload)`` and re-slices such as
    ``tag, body = view[:1], view[1:]``) without real type inference.
    """
    views: Set[str] = set()

    def value_is_view(value: ast.expr) -> bool:
        if isinstance(value, ast.Call) and _dotted(value.func) == "memoryview":
            return True
        if isinstance(value, ast.Subscript) and isinstance(
            value.slice, ast.Slice
        ):
            target = value.value
            return isinstance(target, ast.Name) and target.id in views
        return False

    for _ in range(2):
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Assign):
                continue
            for target in inner.targets:
                pairs: List[Tuple[ast.expr, ast.expr]] = []
                if isinstance(target, ast.Tuple) and isinstance(
                    inner.value, ast.Tuple
                ) and len(target.elts) == len(inner.value.elts):
                    pairs = list(zip(target.elts, inner.value.elts))
                else:
                    pairs = [(target, inner.value)]
                for dest, value in pairs:
                    if isinstance(dest, ast.Name) and value_is_view(value):
                        views.add(dest.id)
    return views


class _RuleWalker(ast.NodeVisitor):
    def __init__(self, file: _File, rules: Set[str]):
        self.file = file
        self.findings: List[Finding] = []
        module = file.module
        self.check_blocking = "R001" in rules and module.startswith("repro.net")
        self.check_determinism = "R003" in rules and module.startswith(
            ("repro.sim", "repro.systems")
        )
        self.check_ledgers = "R004" in rules and module.startswith(
            "repro.datared"
        )
        self.check_excepts = "R005" in rules and (
            module.startswith("repro.net") or module == "repro.systems.server"
        )
        self.check_copies = "R006" in rules and module.startswith("repro")
        self.check_obs = (
            "R007" in rules
            and module.startswith(_R007_PACKAGES)
            and not module.endswith("__main__")
        )
        self.check_plugins = (
            "R008" in rules
            and module.startswith(_R008_PACKAGES)
            and module not in _R008_REGISTRY_MODULES
        )
        self.check_engine_factory = (
            "R009" in rules
            and module.startswith(_R009_PACKAGES)
            and module not in _R009_FACTORY_MODULES
        )
        self.check_lifecycle = (
            "R012" in rules
            and module.startswith(_R012_PACKAGES)
            and module not in _R009_FACTORY_MODULES
        )
        #: (function name, body-is-directly-async)
        self.func_stack: List[Tuple[str, bool]] = []
        #: parallel to func_stack: is this function (or an enclosing
        #: one) annotated hot-path?
        self.hot_stack: List[bool] = []
        #: parallel to func_stack: local names known to hold memoryviews
        #: (slicing those is zero-copy and never flagged).
        self.view_locals_stack: List[Set[str]] = []

    # -- helpers ----------------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule,
                self.file.path,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                message,
            )
        )

    def _in_async(self) -> bool:
        return bool(self.func_stack) and self.func_stack[-1][1]

    def _current_function(self) -> Optional[str]:
        return self.func_stack[-1][0] if self.func_stack else None

    def _enter_function(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef], is_async: bool
    ) -> None:
        # The hot-path marker may sit on any signature line (multi-line
        # ``def``s carry it on the closing-paren line); hotness also
        # propagates into nested helpers.
        signature_end = max(
            node.body[0].lineno if node.body else node.lineno + 1,
            node.lineno + 1,
        )
        hot = bool(self.hot_stack and self.hot_stack[-1]) or any(
            _HOT_PATH_RE.search(self.file.line(number))
            for number in range(node.lineno, signature_end)
        )
        self.func_stack.append((node.name, is_async))
        self.hot_stack.append(hot)
        self.view_locals_stack.append(
            _view_locals(node) if (hot and self.check_copies) else set()
        )
        if self.check_lifecycle:
            self._check_engine_lifecycle(node)
        self.generic_visit(node)
        self.func_stack.pop()
        self.hot_stack.pop()
        self.view_locals_stack.pop()

    # -- structure --------------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node, is_async=False)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node, is_async=True)

    # -- R012 -------------------------------------------------------------
    @staticmethod
    def _is_lifecycle_ctor(call: ast.Call) -> bool:
        callee = _dotted(call.func)
        if callee is None:
            return False
        return (
            callee.rsplit(".", 1)[-1] in _R012_CTOR_NAMES
            or callee.endswith("StorageServer.build")
        )

    def _check_engine_lifecycle(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        """Flag engines/systems constructed in this scope and leaked.

        A local name bound to a lifecycle constructor must be closed
        (``.close()``/``.shutdown()``), context-managed, or have its
        ownership transferred (returned, yielded, or stored on an
        object attribute) within the same function scope.  Nested
        ``def``s are separate scopes and get their own walk.
        """
        created: Dict[str, ast.stmt] = {}
        released: Set[str] = set()
        for inner in _scope_nodes(node):
            if isinstance(inner, ast.Assign):
                if isinstance(inner.value, ast.Call) and self._is_lifecycle_ctor(
                    inner.value
                ):
                    for target in inner.targets:
                        if isinstance(target, ast.Name):
                            created.setdefault(target.id, inner)
                        elif isinstance(target, ast.Tuple):
                            for element in target.elts:
                                if isinstance(element, ast.Name):
                                    created.setdefault(element.id, inner)
                # Ownership transfer: the object now owns the value's
                # lifetime (``self.engine = engine``).
                if isinstance(inner.value, ast.Name) and any(
                    isinstance(target, ast.Attribute)
                    for target in inner.targets
                ):
                    released.add(inner.value.id)
            elif isinstance(inner, ast.Call):
                if (
                    isinstance(inner.func, ast.Attribute)
                    and inner.func.attr in _R012_CLOSERS
                    and isinstance(inner.func.value, ast.Name)
                ):
                    released.add(inner.func.value.id)
            elif isinstance(inner, (ast.Return, ast.Yield, ast.YieldFrom)):
                if inner.value is not None:
                    for leaf in ast.walk(inner.value):
                        if isinstance(leaf, ast.Name):
                            released.add(leaf.id)
            elif isinstance(inner, (ast.With, ast.AsyncWith)):
                for item in inner.items:
                    if isinstance(item.context_expr, ast.Name):
                        released.add(item.context_expr.id)
        for name, statement in created.items():
            if name in released:
                continue
            self._emit(
                "R012",
                statement,
                f"engine/system bound to '{name}' in '{node.name}' is "
                "never closed; use 'with ...:' or call "
                f"'{name}.close()' before the scope ends — a leaked "
                "engine never writes its final commit fence "
                "(DESIGN.md §5.9)",
            )

    # -- R006 -------------------------------------------------------------
    def _in_hot_path(self) -> bool:
        return bool(self.hot_stack) and self.hot_stack[-1]

    def _copy_ok(self, node: ast.AST) -> bool:
        return bool(
            _COPY_OK_RE.search(self.file.line(getattr(node, "lineno", 0)))
        )

    def _check_copy_call(self, node: ast.Call, name: Optional[str]) -> None:
        if name in {"bytes", "bytearray"} and node.args:
            what = f"{name}(...) materialization"
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "tobytes"
        ):
            what = ".tobytes() materialization"
        else:
            return
        if not self._copy_ok(node):
            self._emit(
                "R006",
                node,
                f"{what} inside hot-path function "
                f"'{self._current_function()}'; the zero-copy write path "
                "copies once at the container boundary — annotate a "
                "sanctioned copy '# repro-lint: copy-ok <reason>'",
            )

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if (
            self.check_copies
            and self._in_hot_path()
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.slice, ast.Slice)
        ):
            value = node.value
            is_view = (
                isinstance(value, ast.Name)
                and self.view_locals_stack
                and value.id in self.view_locals_stack[-1]
            ) or (
                isinstance(value, ast.Call)
                and _dotted(value.func) == "memoryview"
            )
            if not is_view and not self._copy_ok(node):
                self._emit(
                    "R006",
                    node,
                    "slice of a non-memoryview inside hot-path function "
                    f"'{self._current_function()}' copies its bytes; "
                    "slice a memoryview instead or annotate "
                    "'# repro-lint: copy-ok <reason>'",
                )
        self.generic_visit(node)

    # -- R001 / R003 ------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if self.check_copies and self._in_hot_path():
            self._check_copy_call(node, name)
        if name:
            if self.check_blocking and self._in_async():
                if name in _BLOCKING_CALLS or name.startswith(
                    _BLOCKING_PREFIXES
                ):
                    self._emit(
                        "R001",
                        node,
                        f"blocking call {name}() inside async def "
                        f"{self._current_function()} parks the event loop "
                        "and every connection it serves; use the awaitable "
                        "form or move the wait out of the coroutine",
                    )
            if self.check_determinism:
                nondeterministic = name in _NONDETERMINISTIC_CALLS or (
                    name.startswith("random.") and name != "random.Random"
                )
                nondeterministic = nondeterministic or name.startswith(
                    _NONDETERMINISTIC_PREFIXES
                )
                if nondeterministic:
                    self._emit(
                        "R003",
                        node,
                        f"nondeterministic call {name}(); use the simulator "
                        "clock or an injected random.Random(seed)",
                    )
            if self.check_obs:
                if name in _R007_TIMING_CALLS:
                    self._emit(
                        "R007",
                        node,
                        f"ad-hoc timing call {name}() in the instrumented "
                        "path; record the duration through a repro.obs "
                        "span (trace.span/trace.observe) so the registry's "
                        "histograms and the STATS op see it",
                    )
                elif name == "print":
                    self._emit(
                        "R007",
                        node,
                        "print-style metric reporting in the instrumented "
                        "path; publish through the repro.obs.metrics "
                        "registry (counter/gauge/histogram) instead",
                    )
            if self.check_plugins and name not in _R008_ALLOWED:
                if name in _R008_BACKEND_CALLS or name.startswith(
                    _R008_BACKEND_PREFIXES
                ):
                    self._emit(
                        "R008",
                        node,
                        f"direct backend call {name}() outside the plugin "
                        "registries; route payload bytes through "
                        "repro.datared.codecs / repro.datared.hashing so "
                        "chunks carry their codec tag and the configured "
                        "plugins actually run",
                    )
            if (
                self.check_engine_factory
                and name.rsplit(".", 1)[-1] in _R009_ENGINE_NAMES
            ):
                self._emit(
                    "R009",
                    node,
                    f"direct {name}() construction in the serving layer; "
                    "build engines through "
                    "repro.systems.factory.build_engine, which wires "
                    "their table store, journal and recovery from the "
                    "SystemConfig",
                )
        self.generic_visit(node)

    # -- R005 -------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self.check_excepts:
            if node.type is None:
                self._emit(
                    "R005",
                    node,
                    "bare except: catches SystemExit/KeyboardInterrupt; "
                    "name the exceptions (or ReproError)",
                )
            elif self._catches_broad(node.type) and self._body_is_silent(node):
                self._emit(
                    "R005",
                    node,
                    "except Exception with a pass-only body swallows "
                    "errors; map them to a protocol error or re-raise",
                )
        self.generic_visit(node)

    @staticmethod
    def _catches_broad(node: ast.expr) -> bool:
        names = []
        if isinstance(node, ast.Tuple):
            names = [_dotted(element) for element in node.elts]
        else:
            names = [_dotted(node)]
        return any(name in {"Exception", "BaseException"} for name in names)

    @staticmethod
    def _body_is_silent(node: ast.ExceptHandler) -> bool:
        for statement in node.body:
            if isinstance(statement, ast.Pass):
                continue
            if isinstance(statement, ast.Expr) and isinstance(
                statement.value, ast.Constant
            ):
                continue  # docstring / ellipsis
            return False
        return True

    # -- R004 -------------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store(target, node, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        floaty = _is_floaty(node.value) or isinstance(node.op, ast.Div)
        self._check_store(node.target, node, node.value, aug_floaty=floaty)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_store(node.target, node, node.value)
        self.generic_visit(node)

    def _check_store(
        self,
        target: ast.expr,
        node: ast.stmt,
        value: ast.expr,
        aug_floaty: Optional[bool] = None,
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store(element, node, value, aug_floaty)
            return
        if self.check_ledgers:
            self._check_ledger(target, _attr_chain(target), node, value, aug_floaty)

    def _check_ledger(
        self,
        target: ast.expr,
        chain: Optional[Tuple[str, List[str]]],
        node: ast.stmt,
        value: ast.expr,
        aug_floaty: Optional[bool],
    ) -> None:
        if chain is not None:
            name = chain[1][-1]
        elif isinstance(target, ast.Name):
            name = target.id
        else:
            return
        if not _COUNTER_RE.search(name):
            return
        floaty = aug_floaty if aug_floaty is not None else _is_floaty(value)
        if floaty:
            self._emit(
                "R004",
                node,
                f"float-tainted arithmetic assigned to ledger '{name}'; "
                "byte/chunk counters stay integral — derive ratios at "
                "report time instead",
            )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _analyze(files: Sequence[_File], rules: Set[str]) -> List[Finding]:
    findings: List[Finding] = []
    for file in files:
        if file.parse_error is not None:
            findings.append(file.parse_error)
            continue
        assert file.tree is not None
        walker = _RuleWalker(file, rules)
        walker.visit(file.tree)
        findings.extend(
            finding
            for finding in walker.findings
            if not file.is_suppressed(finding)
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_source(
    source: str,
    *,
    module: str = "repro.fixture",
    path: str = "<string>",
    rules: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint one in-memory source blob (used by the rule unit tests)."""
    selected = set(rules) if rules is not None else set(RULES)
    return _analyze([_File(path, module, source)], selected)


def _iter_python_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    result: List[Path] = []
    for entry in paths:
        root = Path(entry)
        if root.is_dir():
            result.extend(
                candidate
                for candidate in sorted(root.rglob("*.py"))
                if "__pycache__" not in candidate.parts
                and not any(part.startswith(".") for part in candidate.parts)
            )
        elif root.suffix == ".py":
            result.append(root)
    return result


def lint_paths(
    paths: Iterable[Union[str, Path]],
    *,
    rules: Optional[Iterable[str]] = None,
) -> Tuple[List[Finding], int]:
    """Lint files/directories; returns ``(findings, files_scanned)``."""
    selected = set(rules) if rules is not None else set(RULES)
    files = [
        _File(str(path), _module_for_path(path), path.read_text())
        for path in _iter_python_files(paths)
    ]
    return _analyze(files, selected), len(files)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Concurrency/determinism contract linter (rules R001-R012).",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule subset (default: all rules)",
    )
    parser.add_argument(
        "--json", dest="json_path", default=None, help="write a JSON report"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule, summary in sorted(RULES.items()):
            print(f"{rule}  {summary}")
        return 0
    if not options.paths:
        parser.error("no paths given (try: src/ tests/)")

    rules = (
        {token.strip() for token in options.select.split(",") if token.strip()}
        if options.select
        else None
    )
    findings, files_scanned = lint_paths(options.paths, rules=rules)
    for finding in findings:
        print(finding.format())
    if options.json_path:
        report = {
            "tool": "repro-lint",
            "rules": RULES,
            "files_scanned": files_scanned,
            "findings": [finding.as_dict() for finding in findings],
        }
        Path(options.json_path).write_text(json.dumps(report, indent=2) + "\n")
    status = "FAIL" if findings else "OK"
    print(
        f"repro-lint: {files_scanned} file(s), {len(findings)} finding(s) "
        f"[{status}]"
    )
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
