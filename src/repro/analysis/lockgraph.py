"""Whole-program lock-order analysis for the storage stack.

``repro.analysis.lint`` checks files one at a time and
``repro.analysis.racecheck`` catches *unlocked* access at runtime;
neither reasons about the **order** locks are taken in, which is what
deadlocks are made of.  This module closes that gap statically: it
parses an entire source tree, builds a call graph plus a lock-scope
graph, and derives the *may-be-held-while-acquiring* relation between
lock classes — the same graph the runtime lockdep validator in
:mod:`repro.sync` observes live.  ``python -m repro.analysis lockgraph
--json`` merges both into one artifact.

What it resolves
----------------
* **Lock classes** — ``DisciplinedLock("name")`` construction sites
  group instances into classes by name; ranks come from
  :data:`repro.sync.LOCK_ORDER` or an explicit ``rank=`` keyword.
  An assignment or ``with`` line may carry ``# lock: <class>`` to bind
  an expression the resolver cannot type (lock aliases, foreign
  attributes such as ``shard.lock``).
* **Lock scopes** — ``with <lock>:`` blocks, ``# repro-lint: holds``
  annotations on ``def`` lines, and explicit ``.acquire()`` calls.
* **Call graph** — ``self.method`` resolves through the class
  hierarchy; bare/module calls resolve within the module; other
  attribute calls resolve only when the method name is unique across
  the whole program.  Unresolvable calls are dropped (best-effort by
  design: the runtime validator covers what static resolution cannot).

What it reports
---------------
* **cycles** — strongly connected components in the combined
  static + observed edge graph (a self-edge counts);
* **rank violations** — an edge ``A → B`` with ``rank(A) >= rank(B)``,
  i.e. an acquisition order contradicting the declared hierarchy;
* **unranked** — lock classes absent from ``LOCK_ORDER`` with no
  explicit rank;
* **blocking** — a wait that can park the thread (executor
  ``.result()``, ``queue.get``, ``time.sleep``, socket/file I/O)
  reached while a lock is held, directly or through resolved calls.
  Sanction a specific wait with ``# lockgraph: blocking-ok <reason>``
  on the call line, or mark a whole function's waits non-propagating
  with the same annotation on its ``def`` line (e.g. ``StagePool.map``:
  its workers run pure stages and never take storage locks);
* **async acquires** — a ``DisciplinedLock`` (a thread-blocking RLock)
  acquired inside ``async def``, directly or through resolved calls: a
  contended acquire parks the event loop and every connection it serves.
  Sanction one the loop makes uncontended (it is the stack's only
  caller) with ``# lockgraph: async-ok <reason>``.

Static limits, by design: nested ``def``\\ s are independent functions
(a closure handed to an executor does not inherit the submitting
scope's locks), callbacks and ``run_in_executor`` targets are not
followed, and two instances of the same lock class are
indistinguishable — runtime lockdep covers all three.

CLI: ``python -m repro.analysis lockgraph [paths] [--json out.json]
[--observed lockdep.json ...]``.  Exit status 1 when findings remain.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..sync import LOCK_ORDER
from .lint import _module_for_path

__all__ = [
    "LockGraphReport",
    "analyze_paths",
    "analyze_sources",
    "main",
]

_LOCK_CLASS_RE = re.compile(r"#\s*lock:\s*([\w.\-]+)")
_HOLDS_RE = re.compile(r"#\s*repro-lint:\s*holds\s+([^#\n]+)")
#: Sanction annotations must state *why* — a bare marker does not count.
_BLOCKING_OK_RE = re.compile(r"#\s*lockgraph:\s*blocking-ok\s+\S")
_ASYNC_OK_RE = re.compile(r"#\s*lockgraph:\s*async-ok\s+\S")

#: Dotted call names that park the calling thread (beyond lint's R001
#: set: these are the waits that matter while a lock is held).
_BLOCKING_NAMES = frozenset(
    {
        "time.sleep",
        "open",
        "input",
        "os.system",
        "os.popen",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "socket.create_connection",
        "socket.getaddrinfo",
        "select.select",
    }
)
_BLOCKING_PREFIXES = ("socket.", "requests.", "urllib.request.")

#: Attribute-call waits, gated on the receiver's spelling so ``dict.get``
#: never trips: ``future.result()`` always blocks; ``q.get()`` only
#: counts when the receiver looks like a queue, etc.
_ATTR_WAITS: Dict[str, Tuple[str, ...]] = {
    "result": (),  # any receiver: Future.result parks the thread
    "get": ("queue",),
    "put": ("queue",),
    "join": ("thread", "queue", "proc", "pool"),
    "wait": ("event", "barrier", "cond", "future", "proc"),
    "recv": ("sock", "conn"),
    "sendall": ("sock", "conn"),
    "accept": ("sock", "listener"),
    "connect": ("sock", "conn"),
}


# ---------------------------------------------------------------------------
# Per-function model
# ---------------------------------------------------------------------------

_FuncKey = Tuple[str, Optional[str], str]  #: (module, class, function)


@dataclass(frozen=True)
class _Site:
    path: str
    line: int

    def as_dict(self) -> Dict[str, object]:
        return {"path": self.path, "line": self.line}

    def format(self) -> str:
        return f"{self.path}:{self.line}"


@dataclass
class _Acquire:
    lock: str
    site: _Site
    held_local: Tuple[str, ...]
    async_ok: bool


@dataclass
class _CallSite:
    callee: ast.expr
    site: _Site
    held_local: Tuple[str, ...]
    blocking_ok: bool
    async_ok: bool


@dataclass
class _BlockingCall:
    what: str
    site: _Site
    held_local: Tuple[str, ...]
    ok: bool


@dataclass
class _Function:
    key: _FuncKey
    site: _Site
    is_async: bool
    holds_tokens: Tuple[str, ...]
    def_blocking_ok: bool
    acquires: List[_Acquire] = field(default_factory=list)
    calls: List[_CallSite] = field(default_factory=list)
    blocking_calls: List[_BlockingCall] = field(default_factory=list)
    #: resolved at link time:
    holds_entry: Tuple[str, ...] = ()


@dataclass
class _SourceFile:
    path: str
    module: str
    source: str

    def __post_init__(self) -> None:
        self.lines = self.source.splitlines()
        self.tree: Optional[ast.Module] = None
        self.parse_error: Optional[str] = None
        try:
            self.tree = ast.parse(self.source)
        except SyntaxError as error:
            self.parse_error = f"{self.path}:{error.lineno}: {error.msg}"

    def line(self, number: int) -> str:
        if 1 <= number <= len(self.lines):
            return self.lines[number - 1]
        return ""


# ---------------------------------------------------------------------------
# Program-wide binding registry
# ---------------------------------------------------------------------------


def _dotted(node: ast.expr) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _lock_ctor(node: ast.expr) -> Optional[Tuple[str, Optional[int]]]:
    """``("name", explicit_rank)`` when ``node`` is DisciplinedLock(...)."""
    if not isinstance(node, ast.Call):
        return None
    callee = _dotted(node.func)
    if callee is None or callee.rsplit(".", 1)[-1] != "DisciplinedLock":
        return None
    if not node.args or not isinstance(node.args[0], ast.Constant):
        return None
    name = node.args[0].value
    if not isinstance(name, str):
        return None
    rank: Optional[int] = None
    for keyword in node.keywords:
        if keyword.arg == "rank" and isinstance(keyword.value, ast.Constant):
            value = keyword.value.value
            if isinstance(value, int):
                rank = value
    return name, rank


class _Registry:
    """Cross-file lock bindings, class hierarchy, and function index."""

    def __init__(self) -> None:
        #: (class, attr) -> lock class name
        self.class_attr_locks: Dict[Tuple[str, str], str] = {}
        #: (module, name) -> lock class name
        self.name_locks: Dict[Tuple[str, str], str] = {}
        #: lock class -> (rank, [sites])
        self.lock_classes: Dict[str, Tuple[Optional[int], List[_Site]]] = {}
        self.class_bases: Dict[str, List[str]] = {}
        self.functions: Dict[_FuncKey, _Function] = {}
        #: simple function name -> keys (for unique-name resolution)
        self.by_name: Dict[str, List[_FuncKey]] = {}

    def add_lock_class(
        self, name: str, rank: Optional[int], site: _Site
    ) -> None:
        declared = rank if rank is not None else LOCK_ORDER.get(name)
        existing = self.lock_classes.get(name)
        if existing is None:
            self.lock_classes[name] = (declared, [site])
        else:
            merged = existing[0] if existing[0] is not None else declared
            self.lock_classes[name] = (merged, existing[1] + [site])

    def rank_of(self, name: str) -> Optional[int]:
        entry = self.lock_classes.get(name)
        if entry is not None and entry[0] is not None:
            return entry[0]
        return LOCK_ORDER.get(name)

    def add_function(self, function: _Function) -> None:
        self.functions[function.key] = function
        self.by_name.setdefault(function.key[2], []).append(function.key)

    # -- lock resolution ---------------------------------------------------

    def resolve_attr_lock(
        self, class_name: Optional[str], attr: str
    ) -> Optional[str]:
        seen: Set[str] = set()
        queue = [class_name] if class_name else []
        while queue:
            current = queue.pop(0)
            if current is None or current in seen:
                continue
            seen.add(current)
            bound = self.class_attr_locks.get((current, attr))
            if bound is not None:
                return bound
            queue.extend(self.class_bases.get(current, []))
        return None

    def resolve_unique_attr_lock(self, attr: str) -> Optional[str]:
        """The lock class for ``<expr>.attr`` when exactly one class
        binds ``attr`` to a lock — otherwise ambiguous, unresolved."""
        candidates = {
            lock
            for (_, bound_attr), lock in self.class_attr_locks.items()
            if bound_attr == attr
        }
        if len(candidates) == 1:
            return candidates.pop()
        return None

    def resolve_lock_expr(
        self,
        node: ast.expr,
        file: _SourceFile,
        class_name: Optional[str],
    ) -> Optional[str]:
        annotated = _LOCK_CLASS_RE.search(
            file.line(getattr(node, "lineno", 0))
        )
        if annotated:
            return annotated.group(1)
        ctor = _lock_ctor(node)
        if ctor is not None:
            return ctor[0]
        if isinstance(node, ast.Name):
            return self.name_locks.get((file.module, node.id))
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in (
                "self",
                "cls",
            ):
                resolved = self.resolve_attr_lock(class_name, node.attr)
                if resolved is not None:
                    return resolved
            return self.resolve_unique_attr_lock(node.attr)
        return None

    def resolve_holds_token(
        self, token: str, module: str, class_name: Optional[str]
    ) -> Optional[str]:
        token = token.replace(" ", "")
        if token.startswith(("self.", "cls.")):
            return self.resolve_attr_lock(class_name, token.split(".", 1)[1])
        if "." not in token:
            by_name = self.name_locks.get((module, token))
            if by_name is not None:
                return by_name
            if token in self.lock_classes:
                return token
            return None
        return self.resolve_unique_attr_lock(token.rsplit(".", 1)[-1])

    # -- call resolution ---------------------------------------------------

    def resolve_call(
        self,
        node: ast.expr,
        module: str,
        class_name: Optional[str],
    ) -> Optional[_FuncKey]:
        if isinstance(node, ast.Name):
            key = (module, None, node.id)
            if key in self.functions:
                return key
            return self._unique(node.id)
        if isinstance(node, ast.Attribute):
            method = node.attr
            if isinstance(node.value, ast.Name) and node.value.id in (
                "self",
                "cls",
            ):
                resolved = self._resolve_method(class_name, method, module)
                if resolved is not None:
                    return resolved
            return self._unique(method)
        return None

    def _resolve_method(
        self, class_name: Optional[str], method: str, module: str
    ) -> Optional[_FuncKey]:
        seen: Set[str] = set()
        queue = [class_name] if class_name else []
        while queue:
            current = queue.pop(0)
            if current is None or current in seen:
                continue
            seen.add(current)
            for key in self.by_name.get(method, []):
                if key[1] == current:
                    return key
            queue.extend(self.class_bases.get(current, []))
        return None

    def _unique(self, name: str) -> Optional[_FuncKey]:
        keys = self.by_name.get(name, [])
        if len(keys) == 1:
            return keys[0]
        return None


# ---------------------------------------------------------------------------
# Pass 1: bindings (lock construction sites, aliases, class hierarchy)
# ---------------------------------------------------------------------------


def _collect_bindings(file: _SourceFile, registry: _Registry) -> None:
    if file.tree is None:
        return

    class_stack: List[str] = []

    def record_assignment(target: ast.expr, value: ast.expr, line: int) -> None:
        lock_name: Optional[str] = None
        ctor = _lock_ctor(value)
        if ctor is not None:
            name, rank = ctor
            registry.add_lock_class(name, rank, _Site(file.path, line))
            lock_name = name
        else:
            annotated = _LOCK_CLASS_RE.search(file.line(line))
            if annotated:
                lock_name = annotated.group(1)
        if lock_name is None:
            return
        if isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ):
            if target.value.id in ("self", "cls") and class_stack:
                registry.class_attr_locks[
                    (class_stack[-1], target.attr)
                ] = lock_name
        elif isinstance(target, ast.Name):
            registry.name_locks[(file.module, target.id)] = lock_name

    def walk(node: ast.AST) -> None:
        if isinstance(node, ast.ClassDef):
            class_stack.append(node.name)
            registry.class_bases[node.name] = [
                base
                for base in (
                    b.id
                    if isinstance(b, ast.Name)
                    else (b.attr if isinstance(b, ast.Attribute) else None)
                    for b in node.bases
                )
                if base
            ]
            for child in ast.iter_child_nodes(node):
                walk(child)
            class_stack.pop()
            return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record_assignment(target, node.value, node.lineno)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            record_assignment(node.target, node.value, node.lineno)
        for child in ast.iter_child_nodes(node):
            walk(child)

    walk(file.tree)


# ---------------------------------------------------------------------------
# Pass 2: function models (scopes, acquisitions, calls, waits)
# ---------------------------------------------------------------------------


def _holds_tokens(file: _SourceFile, line: int) -> Tuple[str, ...]:
    match = _HOLDS_RE.search(file.line(line))
    if not match:
        return ()
    return tuple(
        token.strip()
        for token in match.group(1).split(",")
        if token.strip() and token.strip() != "hot-path"
    )


def _signature_flag(
    file: _SourceFile,
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    pattern: "re.Pattern[str]",
) -> bool:
    end = max(node.body[0].lineno if node.body else node.lineno + 1,
              node.lineno + 1)
    return any(
        pattern.search(file.line(number))
        for number in range(node.lineno, end)
    )


def _receiver_text(node: ast.expr) -> str:
    text = _dotted(node)
    return text.lower() if text else ""


def _blocking_what(node: ast.Call) -> Optional[str]:
    name = _dotted(node.func)
    if name is not None:
        if name in _BLOCKING_NAMES or name.startswith(_BLOCKING_PREFIXES):
            return f"{name}()"
    if isinstance(node.func, ast.Attribute):
        attr = node.func.attr
        receivers = _ATTR_WAITS.get(attr)
        if receivers is not None:
            receiver = _receiver_text(node.func.value)
            if not receivers or any(hint in receiver for hint in receivers):
                return f"{_dotted(node.func) or '.' + attr}()"
    return None


def _collect_functions(file: _SourceFile, registry: _Registry) -> None:
    if file.tree is None:
        return

    def walk_function(
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        class_name: Optional[str],
    ) -> None:
        function = _Function(
            key=(file.module, class_name, node.name),
            site=_Site(file.path, node.lineno),
            is_async=isinstance(node, ast.AsyncFunctionDef),
            holds_tokens=_holds_tokens(file, node.lineno),
            def_blocking_ok=_signature_flag(file, node, _BLOCKING_OK_RE),
        )
        held_stack: List[str] = []

        def line_ok(line: int, pattern: "re.Pattern[str]") -> bool:
            return bool(pattern.search(file.line(line)))

        def visit(statement: ast.AST) -> None:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                # Independent function: a closure does not execute in
                # the defining scope's lock context (it usually runs on
                # a worker thread with an empty held set).
                walk_function(statement, class_name)
                return
            if isinstance(statement, ast.Lambda):
                return
            if isinstance(statement, (ast.With, ast.AsyncWith)):
                pushed = 0
                for item in statement.items:
                    lock = registry.resolve_lock_expr(
                        item.context_expr, file, class_name
                    )
                    if lock is not None:
                        function.acquires.append(
                            _Acquire(
                                lock=lock,
                                site=_Site(file.path, statement.lineno),
                                held_local=tuple(held_stack),
                                async_ok=line_ok(
                                    statement.lineno, _ASYNC_OK_RE
                                ),
                            )
                        )
                        held_stack.append(lock)
                        pushed += 1
                    else:
                        visit_expr(item.context_expr)
                for child in statement.body:
                    visit(child)
                for _ in range(pushed):
                    held_stack.pop()
                return
            for child in ast.iter_child_nodes(statement):
                visit(child)

        def visit_expr(node_expr: ast.AST) -> None:
            for child in ast.walk(node_expr):
                if isinstance(child, ast.Call):
                    handle_call(child)

        def handle_call(call: ast.Call) -> None:
            line = call.lineno
            # Explicit lock.acquire() outside a with-block.
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "acquire"
            ):
                lock = registry.resolve_lock_expr(
                    call.func.value, file, class_name
                )
                if lock is not None:
                    function.acquires.append(
                        _Acquire(
                            lock=lock,
                            site=_Site(file.path, line),
                            held_local=tuple(held_stack),
                            async_ok=line_ok(line, _ASYNC_OK_RE),
                        )
                    )
                    return
            what = _blocking_what(call)
            if what is not None:
                function.blocking_calls.append(
                    _BlockingCall(
                        what=what,
                        site=_Site(file.path, line),
                        held_local=tuple(held_stack),
                        ok=line_ok(line, _BLOCKING_OK_RE),
                    )
                )
                return
            function.calls.append(
                _CallSite(
                    callee=call.func,
                    site=_Site(file.path, line),
                    held_local=tuple(held_stack),
                    blocking_ok=line_ok(line, _BLOCKING_OK_RE),
                    async_ok=line_ok(line, _ASYNC_OK_RE),
                )
            )

        class _BodyWalker(ast.NodeVisitor):
            def visit_Call(self, call: ast.Call) -> None:  # noqa: N802
                handle_call(call)
                self.generic_visit(call)

            def visit_FunctionDef(self, fn: ast.FunctionDef) -> None:  # noqa: N802,E501
                walk_function(fn, class_name)

            def visit_AsyncFunctionDef(  # noqa: N802
                self, fn: ast.AsyncFunctionDef
            ) -> None:
                walk_function(fn, class_name)

            def visit_Lambda(self, fn: ast.Lambda) -> None:  # noqa: N802
                pass

            def visit_With(self, statement: ast.With) -> None:  # noqa: N802
                self._with(statement)

            def visit_AsyncWith(  # noqa: N802
                self, statement: ast.AsyncWith
            ) -> None:
                self._with(statement)

            def _with(
                self, statement: Union[ast.With, ast.AsyncWith]
            ) -> None:
                pushed = 0
                for item in statement.items:
                    lock = registry.resolve_lock_expr(
                        item.context_expr, file, class_name
                    )
                    if lock is not None:
                        function.acquires.append(
                            _Acquire(
                                lock=lock,
                                site=_Site(file.path, statement.lineno),
                                held_local=tuple(held_stack),
                                async_ok=line_ok(
                                    statement.lineno, _ASYNC_OK_RE
                                ),
                            )
                        )
                        held_stack.append(lock)
                        pushed += 1
                    else:
                        self.generic_visit(item.context_expr)
                    if item.optional_vars is not None:
                        self.generic_visit(item.optional_vars)
                for child in statement.body:
                    self.visit(child)
                for _ in range(pushed):
                    held_stack.pop()

        walker = _BodyWalker()
        for statement in node.body:
            walker.visit(statement)
        registry.add_function(function)

    def walk_top(node: ast.AST, class_name: Optional[str]) -> None:
        if isinstance(node, ast.ClassDef):
            for child in ast.iter_child_nodes(node):
                walk_top(child, node.name)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            walk_function(node, class_name)
            return
        for child in ast.iter_child_nodes(node):
            walk_top(child, class_name)

    walk_top(file.tree, None)


# ---------------------------------------------------------------------------
# Pass 3: link + fixpoints + findings
# ---------------------------------------------------------------------------


@dataclass
class LockGraphReport:
    """The merged static + observed lock-order analysis result."""

    files_scanned: int
    lock_classes: Dict[str, Dict[str, object]]
    edges: List[Dict[str, object]]
    cycles: List[Dict[str, object]]
    rank_violations: List[Dict[str, object]]
    unranked: List[Dict[str, object]]
    blocking: List[Dict[str, object]]
    async_acquires: List[Dict[str, object]]
    parse_errors: List[str]

    @property
    def ok(self) -> bool:
        return not (
            self.cycles
            or self.rank_violations
            or self.unranked
            or self.blocking
            or self.async_acquires
            or self.parse_errors
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "tool": "lockgraph",
            "version": 1,
            "files_scanned": self.files_scanned,
            "lock_order": dict(sorted(LOCK_ORDER.items())),
            "lock_classes": self.lock_classes,
            "edges": self.edges,
            "cycles": self.cycles,
            "rank_violations": self.rank_violations,
            "unranked": self.unranked,
            "blocking": self.blocking,
            "async_acquires": self.async_acquires,
            "parse_errors": self.parse_errors,
            "ok": self.ok,
        }

    def format_text(self) -> str:
        lines: List[str] = []
        lines.append(
            f"lockgraph: {self.files_scanned} file(s), "
            f"{len(self.lock_classes)} lock class(es), "
            f"{len(self.edges)} order edge(s)"
        )
        for name, info in sorted(self.lock_classes.items()):
            rank = info["rank"]
            rank_text = f"rank {rank}" if rank is not None else "UNRANKED"
            lines.append(f"  class {name!r}: {rank_text}")
        for edge in self.edges:
            lines.append(
                f"  edge {edge['held']} -> {edge['acquired']} "
                f"[{edge['source']}]"
            )
        for label, findings in (
            ("cycle", self.cycles),
            ("rank-violation", self.rank_violations),
            ("unranked", self.unranked),
            ("blocking-while-locked", self.blocking),
            ("async-acquire", self.async_acquires),
        ):
            for finding in findings:
                lines.append(f"{label}: {finding['message']}")
        for error in self.parse_errors:
            lines.append(f"parse-error: {error}")
        lines.append("lockgraph: " + ("OK" if self.ok else "FAIL"))
        return "\n".join(lines)


def _link_and_analyze(
    files: Sequence[_SourceFile],
    observed_edges: Optional[Dict[str, Dict[str, int]]] = None,
) -> LockGraphReport:
    registry = _Registry()
    for file in files:
        _collect_bindings(file, registry)
    for file in files:
        _collect_functions(file, registry)

    # Resolve holds annotations now that every binding is known.
    for function in registry.functions.values():
        module, class_name, _ = function.key
        resolved = []
        for token in function.holds_tokens:
            lock = registry.resolve_holds_token(token, module, class_name)
            if lock is not None:
                resolved.append(lock)
        function.holds_entry = tuple(resolved)

    # Fixpoint A: may_block (cut at def-level blocking-ok sanctions).
    may_block: Dict[_FuncKey, bool] = {}
    for key, function in registry.functions.items():
        may_block[key] = (not function.def_blocking_ok) and any(
            not b.ok for b in function.blocking_calls
        )
    changed = True
    while changed:
        changed = False
        for key, function in registry.functions.items():
            if may_block[key] or function.def_blocking_ok:
                continue
            for call in function.calls:
                if call.blocking_ok:
                    continue
                callee = registry.resolve_call(
                    call.callee, function.key[0], function.key[1]
                )
                if callee is not None and may_block.get(callee):
                    may_block[key] = True
                    changed = True
                    break

    # Fixpoint B: transitive lock acquisitions.
    acquires: Dict[_FuncKey, Set[str]] = {
        key: {a.lock for a in function.acquires}
        for key, function in registry.functions.items()
    }
    changed = True
    while changed:
        changed = False
        for key, function in registry.functions.items():
            current = acquires[key]
            for call in function.calls:
                callee = registry.resolve_call(
                    call.callee, function.key[0], function.key[1]
                )
                if callee is None:
                    continue
                extra = acquires.get(callee, set()) - current
                if extra:
                    current |= extra
                    changed = True

    # Static order edges + findings.
    edge_sites: Dict[Tuple[str, str], List[_Site]] = {}
    blocking_findings: List[Dict[str, object]] = []
    async_findings: List[Dict[str, object]] = []

    def add_edge(held: str, acquired: str, site: _Site) -> None:
        if held == acquired:
            return  # reentrant same-class nesting: runtime lockdep's job
        edge_sites.setdefault((held, acquired), []).append(site)

    for key, function in registry.functions.items():
        qualname = ".".join(part for part in key if part)
        entry = set(function.holds_entry)
        for acquire in function.acquires:
            held_here = entry | set(acquire.held_local)
            for held in held_here:
                add_edge(held, acquire.lock, acquire.site)
            if function.is_async and not acquire.async_ok:
                async_findings.append(
                    {
                        "function": qualname,
                        "lock": acquire.lock,
                        "site": acquire.site.as_dict(),
                        "message": (
                            f"{qualname} acquires DisciplinedLock "
                            f"{acquire.lock!r} inside async def "
                            f"({acquire.site.format()}); a thread lock "
                            "parks the event loop — acquire it in "
                            "synchronous code, or sanction an uncontended "
                            "acquire with '# lockgraph: async-ok <reason>'"
                        ),
                    }
                )
        for blocked in function.blocking_calls:
            held_here = entry | set(blocked.held_local)
            if held_here and not blocked.ok:
                blocking_findings.append(
                    {
                        "function": qualname,
                        "wait": blocked.what,
                        "held": sorted(held_here),
                        "site": blocked.site.as_dict(),
                        "message": (
                            f"{qualname} waits in {blocked.what} while "
                            f"holding {sorted(held_here)} "
                            f"({blocked.site.format()}); annotate "
                            "'# lockgraph: blocking-ok <reason>' if the "
                            "wait cannot re-enter the lock order"
                        ),
                    }
                )
        for call in function.calls:
            callee = registry.resolve_call(
                call.callee, function.key[0], function.key[1]
            )
            if callee is None:
                continue
            held_here = entry | set(call.held_local)
            callee_name = ".".join(part for part in callee if part)
            callee_acquires = acquires.get(callee, set())
            for held in held_here:
                for lock in callee_acquires:
                    if lock in held_here:
                        continue  # reentrant through the call chain
                    add_edge(held, lock, call.site)
            if held_here and may_block.get(callee) and not call.blocking_ok:
                blocking_findings.append(
                    {
                        "function": qualname,
                        "wait": f"{callee_name}()",
                        "held": sorted(held_here),
                        "site": call.site.as_dict(),
                        "message": (
                            f"{qualname} calls {callee_name}() — which may "
                            f"block — while holding {sorted(held_here)} "
                            f"({call.site.format()})"
                        ),
                    }
                )
            if (
                function.is_async
                and callee_acquires
                and not call.async_ok
            ):
                async_findings.append(
                    {
                        "function": qualname,
                        "lock": sorted(callee_acquires)[0],
                        "site": call.site.as_dict(),
                        "message": (
                            f"{qualname} (async) calls {callee_name}() "
                            f"which acquires {sorted(callee_acquires)} "
                            f"({call.site.format()})"
                        ),
                    }
                )

    # Merge observed runtime edges.
    edges_out: List[Dict[str, object]] = []
    combined: Dict[str, Set[str]] = {}
    for (held, acquired), sites in sorted(edge_sites.items()):
        combined.setdefault(held, set()).add(acquired)
        edges_out.append(
            {
                "held": held,
                "acquired": acquired,
                "source": "static",
                "sites": [site.as_dict() for site in sites[:8]],
            }
        )
    for held, targets in sorted((observed_edges or {}).items()):
        for acquired, count in sorted(targets.items()):
            combined.setdefault(held, set()).add(acquired)
            static_twin = (held, acquired) in edge_sites
            edges_out.append(
                {
                    "held": held,
                    "acquired": acquired,
                    "source": "observed+static" if static_twin else "observed",
                    "count": count,
                }
            )

    # Cycles over the combined graph (Tarjan SCC; self-edges count).
    cycles = _find_cycles(combined)
    cycle_findings = [
        {
            "classes": cycle,
            "message": "lock-order cycle: " + " -> ".join(cycle + [cycle[0]]),
        }
        for cycle in cycles
    ]

    # Rank checks over every combined edge.
    rank_findings: List[Dict[str, object]] = []
    for held, targets in sorted(combined.items()):
        held_rank = registry.rank_of(held)
        for acquired in sorted(targets):
            acquired_rank = registry.rank_of(acquired)
            if (
                held_rank is not None
                and acquired_rank is not None
                and held_rank >= acquired_rank
            ):
                sites = edge_sites.get((held, acquired), [])
                rank_findings.append(
                    {
                        "held": held,
                        "acquired": acquired,
                        "held_rank": held_rank,
                        "acquired_rank": acquired_rank,
                        "sites": [site.as_dict() for site in sites[:8]],
                        "message": (
                            f"{acquired!r} (rank {acquired_rank}) acquired "
                            f"while {held!r} (rank {held_rank}) is held; "
                            "the declared LOCK_ORDER requires strictly "
                            "increasing ranks"
                        ),
                    }
                )

    # Unranked lock classes (construction sites with no declared rank).
    unranked_findings: List[Dict[str, object]] = []
    lock_classes_out: Dict[str, Dict[str, object]] = {}
    for name, (rank, sites) in sorted(registry.lock_classes.items()):
        declared = rank if rank is not None else LOCK_ORDER.get(name)
        lock_classes_out[name] = {
            "rank": declared,
            "sites": [site.as_dict() for site in sites],
        }
        if declared is None:
            unranked_findings.append(
                {
                    "class": name,
                    "sites": [site.as_dict() for site in sites],
                    "message": (
                        f"lock class {name!r} has no rank; register it in "
                        "repro.sync.LOCK_ORDER or pass rank= explicitly"
                    ),
                }
            )

    return LockGraphReport(
        files_scanned=len(files),
        lock_classes=lock_classes_out,
        edges=edges_out,
        cycles=cycle_findings,
        rank_violations=rank_findings,
        unranked=unranked_findings,
        blocking=sorted(
            blocking_findings, key=lambda f: str(f["site"])
        ),
        async_acquires=sorted(
            async_findings, key=lambda f: str(f["site"])
        ),
        parse_errors=[
            file.parse_error for file in files if file.parse_error
        ],
    )


def _find_cycles(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Cycle witnesses: SCCs of size > 1, plus self-loop nodes."""
    index_counter = [0]
    stack: List[str] = []
    lowlink: Dict[str, int] = {}
    index: Dict[str, int] = {}
    on_stack: Set[str] = set()
    cycles: List[List[str]] = []
    nodes = sorted(set(graph) | {t for ts in graph.values() for t in ts})

    def strongconnect(node: str) -> None:
        index[node] = lowlink[node] = index_counter[0]
        index_counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for neighbor in sorted(graph.get(node, ())):
            if neighbor not in index:
                strongconnect(neighbor)
                lowlink[node] = min(lowlink[node], lowlink[neighbor])
            elif neighbor in on_stack:
                lowlink[node] = min(lowlink[node], index[neighbor])
        if lowlink[node] == index[node]:
            component: List[str] = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            component.reverse()
            if len(component) > 1 or (
                component[0] in graph.get(component[0], ())
            ):
                cycles.append(component)

    for node in nodes:
        if node not in index:
            strongconnect(node)
    return cycles


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def analyze_sources(
    sources: Dict[str, Tuple[str, str]],
    observed_edges: Optional[Dict[str, Dict[str, int]]] = None,
) -> LockGraphReport:
    """Analyze in-memory modules: ``{path: (module, source)}``.

    The fixture-friendly twin of :func:`analyze_paths` (mirrors
    ``lint_source``): the unit tests feed synthetic multi-module
    programs with known cycles through it.
    """
    files = [
        _SourceFile(path, module, source)
        for path, (module, source) in sorted(sources.items())
    ]
    return _link_and_analyze(files, observed_edges)


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


def load_observed(paths: Iterable[str]) -> Dict[str, Dict[str, int]]:
    """Merge one or more ``lockdep_dump_json`` artifacts into an edge map."""
    merged: Dict[str, Dict[str, int]] = {}
    for path in paths:
        payload = json.loads(Path(path).read_text())
        for edge in payload.get("edges", []):
            held = edge["held"]
            acquired = edge["acquired"]
            targets = merged.setdefault(held, {})
            targets[acquired] = targets.get(acquired, 0) + int(
                edge.get("count", 1)
            )
    return merged


def analyze_paths(
    paths: Iterable[Union[str, Path]],
    observed_edges: Optional[Dict[str, Dict[str, int]]] = None,
) -> LockGraphReport:
    """Analyze files/directories on disk."""
    files = [
        _SourceFile(str(path), _module_for_path(path), path.read_text())
        for path in _iter_python_files(paths)
    ]
    return _link_and_analyze(files, observed_edges)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis lockgraph",
        description="Whole-program lock-order analysis (static + observed).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--json", dest="json_path", default=None, help="write a JSON report"
    )
    parser.add_argument(
        "--observed",
        action="append",
        default=[],
        metavar="LOCKDEP_JSON",
        help="merge a runtime lockdep_dump_json artifact (repeatable)",
    )
    options = parser.parse_args(argv)

    paths = options.paths or ["src/repro"]
    observed = load_observed(options.observed) if options.observed else None
    report = analyze_paths(paths, observed)
    print(report.format_text())
    if options.json_path:
        Path(options.json_path).write_text(
            json.dumps(report.as_dict(), indent=2) + "\n"
        )
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
