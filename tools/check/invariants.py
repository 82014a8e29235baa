"""AST linter for the reproduction's machine-checkable invariants.

Six rules, each tied to a correctness argument of the engine (the
prose versions live in ``docs/static-analysis.md``):

R1 — **no-unverified-merge.** k-dominance is non-transitive (paper
Sec. 2.2): a tuple eliminated inside one shard may still k-dominate a
candidate that survived another shard. Any function that merges
per-shard candidate sets (reaches a candidate-generation kernel *and*
concatenates results) must therefore also reach a cross-shard
verification kernel (``k_dominated_any`` / ``is_k_dominated`` or a
``verify``-named helper) — transitively, through the module-local call
graph, including callables passed as arguments.

R2 — **lock-discipline.** Classes document their lock-guarded fields
in the class docstring::

    # guarded-by: _lock: _datasets, _subscribers
    # guarded-by-writes: _memo_lock: _view, _stats

``guarded-by`` fields may only be touched (read, written, deleted, or
mutated through a subscript) inside a ``with self.<lock>:`` block;
``guarded-by-writes`` relaxes reads for the double-checked memoization
pattern (unlocked fast-path read, locked re-check + write) but still
requires every write under the lock. ``__init__`` is exempt (the
object is not shared while it constructs itself), and nested function
bodies do not inherit an enclosing ``with`` (they may run later, on
another thread). A declared field that the class never assigns
(``self.<field> = ...`` anywhere in its body) is reported on its
declaration line: a stale declaration guards nothing and hides the
field's removal.

R3 — **fingerprint-completeness.** For every dataclass that defines a
``fingerprint()`` method, each dataclass field must be read inside the
method body. A field missing from the digest makes two semantically
different values collide — silently poisoning every cache keyed on the
fingerprint.

R4 — **fork-safety.** No query forks: the library never constructs a
``ProcessPoolExecutor``. Sharded work runs on one thread pool that
reads the joined matrix in place; forking while sibling threads run
(``execute_many`` batch lanes, the serving executor) risks child
processes inheriting locks held mid-operation.

R5 — **async-executor-discipline.** In the serving package (any file
under a ``serving`` directory), ``async def`` bodies must never call a
blocking engine entry point (``execute``, ``stream``, ``explain``,
...) directly, nor acquire a lock (``with <lock>:`` /
``.acquire()``): either would stall the event loop for the duration
of a query, which is exactly the head-of-line blocking the serving
layer exists to avoid. Engine work must be handed to
``loop.run_in_executor`` as a *reference* to a sync wrapper — passing
``self._run_sync`` is fine (an attribute load, not a call); calling
it is not. Nested sync ``def`` bodies are exempt: they are the
wrappers the executor runs on a worker thread.

R6 — **no-swallowed-recovery.** A ``try`` whose body reaches a shard
merge (``concatenate`` / ``hstack`` / ``vstack``) or an index
load/build site must not swallow the failure: every ``except`` handler
must re-raise, re-verify (reach a verification kernel or a
``verify``-named helper), or route through the resilience layer
(quarantine / retry / degrade / fallback — any reference whose name
carries one of those markers, e.g. ``_quarantine_indexes`` or
``_count_quarantine``). A bare ``except: pass`` around either site is
exactly the bug the fault-injection suite exists to catch — a dropped
shard or a half-built index silently *changing the answer* instead of
surfacing as a typed :class:`~repro.errors.ResilienceError`.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from . import Diagnostic

__all__ = ["check_file", "RULES"]

RULES = ("R1", "R2", "R3", "R4", "R5", "R6")

# --- R1 configuration -------------------------------------------------
#: Kernels producing *unverified* local candidate supersets.
CANDIDATE_GENERATORS = frozenset({"k_dominant_candidates_block"})
#: Kernels performing (or helpers wrapping) full-matrix verification.
VERIFIERS = frozenset({"k_dominated_any", "is_k_dominated"})
#: Calls that combine per-shard results into one candidate set.
MERGE_CALLS = frozenset({"concatenate", "hstack", "vstack"})

# --- R5 configuration -------------------------------------------------
#: Attribute calls that block for the duration of a query: the engine's
#: entry points, plus ``Future.result`` (the classic accidental
#: event-loop staller).
BLOCKING_ENGINE_CALLS = frozenset(
    {
        "execute",
        "execute_many",
        "explain",
        "maintain",
        "prepare",
        "query",
        "result",
        "stream",
        "stream_window",
    }
)

# --- R6 configuration -------------------------------------------------
#: Index load/build entry points: a failure here must quarantine and
#: fall back to the exact non-indexed plan, never be swallowed.
INDEX_LOAD_CALLS = frozenset(
    {
        "DominanceIndex",
        "_cell_partition",
        "_side_index",
        "cell_partition",
        "dominance_index",
        "peek_dominance_index",
        "run_cascade_indexed",
        "run_indexed",
        "side_index",
        "with_inserted_rows",
    }
)
#: Name markers of the sanctioned recovery routes: a handler touching a
#: name carrying one of these is routing the failure, not eating it.
RECOVERY_ROUTE_MARKERS = (
    "resilience",
    "quarantine",
    "retry",
    "degrad",
    "fallback",
)


def check_file(path: Path) -> list[Diagnostic]:
    """All R1-R6 diagnostics for one Python source file."""
    try:
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError) as exc:
        return [Diagnostic(path, getattr(exc, "lineno", 1) or 1, "R0", f"unparseable: {exc}")]
    diagnostics: list[Diagnostic] = []
    diagnostics.extend(_check_unverified_merge(path, tree))
    diagnostics.extend(_check_lock_discipline(path, tree))
    diagnostics.extend(_check_fingerprint_completeness(path, tree))
    diagnostics.extend(_check_fork_safety(path, tree))
    diagnostics.extend(_check_async_executor_discipline(path, tree))
    diagnostics.extend(_check_swallowed_recovery(path, tree))
    return diagnostics


# ----------------------------------------------------------------------
# R1: no-unverified-merge
# ----------------------------------------------------------------------
def _function_defs(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _referenced_names(fn: ast.AST) -> set[str]:
    """Every plain name and attribute tail referenced inside ``fn``.

    Attribute tails cover ``np.concatenate`` and method references;
    plain names cover direct calls and callables passed as arguments
    (``_map_tasks(_shard_candidates, ...)``).
    """
    names: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _check_unverified_merge(path: Path, tree: ast.Module) -> list[Diagnostic]:
    functions = {fn.name: fn for fn in _function_defs(tree)}
    references = {name: _referenced_names(fn) for name, fn in functions.items()}

    def reachable(name: str) -> set[str]:
        seen: set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for ref in references.get(current, ()):  # module-local closure
                if ref not in seen:
                    frontier.append(ref)
        return seen

    diagnostics = []
    for name, fn in functions.items():
        if name in CANDIDATE_GENERATORS:
            continue  # the kernel itself, not a merge site
        closure = reachable(name)
        generates = bool(closure & CANDIDATE_GENERATORS)
        merges = bool(references[name] & MERGE_CALLS)
        verifies = bool(closure & VERIFIERS) or any(
            "verify" in ref for ref in closure
        )
        if generates and merges and not verifies:
            diagnostics.append(
                Diagnostic(
                    path,
                    fn.lineno,
                    "R1",
                    f"no-unverified-merge: {name!r} merges per-shard skyline "
                    "candidates but never reaches a cross-shard verification "
                    "kernel (k_dominated_any / is_k_dominated); k-dominance "
                    "is non-transitive, so merged candidates must be "
                    "re-checked against all rows",
                )
            )
    return diagnostics


# ----------------------------------------------------------------------
# R2: lock-discipline
# ----------------------------------------------------------------------
_GUARDED_RE = re.compile(
    r"^\s*#\s*guarded-by(?P<writes>-writes)?:\s*(?P<lock>\w+)\s*:\s*(?P<fields>.+?)\s*$"
)


@dataclass(frozen=True)
class GuardSpec:
    """One field's declared lock and discipline, and the docstring line
    (counted from the opening quotes) that declares it."""

    lock: str
    writes_only: bool
    offset: int


def _parse_guards(docstring: str | None) -> dict[str, GuardSpec]:
    guards: dict[str, GuardSpec] = {}
    for offset, line in enumerate((docstring or "").splitlines()):
        match = _GUARDED_RE.match(line)
        if not match:
            continue
        spec = GuardSpec(match.group("lock"), bool(match.group("writes")), offset)
        for field in match.group("fields").split(","):
            field = field.strip()
            if field:
                guards[field] = spec
    return guards


def _self_attr(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _LockWalker(ast.NodeVisitor):
    """Walk one method tracking the set of ``with self.<lock>`` scopes."""

    def __init__(self, path: Path, guards: dict[str, GuardSpec]) -> None:
        self.path = path
        self.guards = guards
        self.held: list[str] = []
        self.diagnostics: list[Diagnostic] = []
        self._depth = 0

    # Nested defs may execute later on another thread: they do not
    # inherit the enclosing ``with`` scopes.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_nested(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_nested(node)

    def _visit_nested(self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> None:
        held, self.held = self.held, []
        self._depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._depth -= 1
            self.held = held

    def visit_With(self, node: ast.With) -> None:
        acquired = []
        for item in node.items:
            attr = _self_attr(item.context_expr)
            if attr is not None:
                acquired.append(attr)
                self.held.append(attr)
        for item in node.items:
            self.visit(item.context_expr)
        for stmt in node.body:
            self.visit(stmt)
        for attr in acquired:
            self.held.remove(attr)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node)
        if attr in self.guards:
            spec = self.guards[attr]
            is_write = isinstance(node.ctx, (ast.Store, ast.Del))
            if spec.lock not in self.held and (is_write or not spec.writes_only):
                access = "write of" if is_write else "read of"
                self.diagnostics.append(
                    Diagnostic(
                        self.path,
                        node.lineno,
                        "R2",
                        f"lock-discipline: {access} lock-guarded field "
                        f"self.{attr} outside `with self.{spec.lock}` "
                        "(declared by the class's # guarded-by: docstring)",
                    )
                )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # `self._memo[key] = v` / `del self._memo[key]` mutate the
        # guarded container: treat the underlying attribute load as a
        # write for guarded-by-writes fields.
        attr = _self_attr(node.value)
        if (
            attr in self.guards
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and self.guards[attr].writes_only
            and self.guards[attr].lock not in self.held
        ):
            self.diagnostics.append(
                Diagnostic(
                    self.path,
                    node.lineno,
                    "R2",
                    f"lock-discipline: mutation of lock-guarded container "
                    f"self.{attr} outside `with self.{self.guards[attr].lock}`",
                )
            )
        self.generic_visit(node)


def _check_lock_discipline(path: Path, tree: ast.Module) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        guards = _parse_guards(ast.get_docstring(node, clean=False))
        if not guards:
            continue
        assigned = {
            attr
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Store)
            and (attr := _self_attr(sub)) is not None
        }
        for field, spec in guards.items():
            if field not in assigned:
                diagnostics.append(
                    Diagnostic(
                        path,
                        node.body[0].lineno + spec.offset,  # the docstring
                        "R2",
                        f"lock-discipline: self.{field} is declared guarded by "
                        f"self.{spec.lock} but class {node.name!r} never assigns "
                        "it; a stale # guarded-by: declaration guards nothing",
                    )
                )
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                continue  # construction precedes sharing
            walker = _LockWalker(path, guards)
            for stmt in item.body:
                walker.visit(stmt)
            diagnostics.extend(walker.diagnostics)
    return diagnostics


# ----------------------------------------------------------------------
# R3: fingerprint-completeness
# ----------------------------------------------------------------------
def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> list[str]:
    fields = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            annotation = ast.unparse(stmt.annotation)
            if "ClassVar" in annotation or "InitVar" in annotation:
                continue
            fields.append(stmt.target.id)
    return fields


def _check_fingerprint_completeness(path: Path, tree: ast.Module) -> list[Diagnostic]:
    diagnostics = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not _is_dataclass(node):
            continue
        fingerprint = next(
            (
                item
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name == "fingerprint"
            ),
            None,
        )
        if fingerprint is None:
            continue
        read = {
            attr
            for sub in ast.walk(fingerprint)
            if (attr := _self_attr(sub)) is not None
        }
        for field in _dataclass_fields(node):
            if field not in read:
                diagnostics.append(
                    Diagnostic(
                        path,
                        fingerprint.lineno,
                        "R3",
                        f"fingerprint-completeness: field {field!r} of dataclass "
                        f"{node.name!r} never feeds fingerprint(); two specs "
                        "differing only in that field would collide in every "
                        "fingerprint-keyed cache",
                    )
                )
    return diagnostics


# ----------------------------------------------------------------------
# R4: fork-safety
# ----------------------------------------------------------------------
def _check_fork_safety(path: Path, tree: ast.Module) -> list[Diagnostic]:
    diagnostics = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "ProcessPoolExecutor":
            diagnostics.append(
                Diagnostic(
                    path,
                    call.lineno,
                    "R4",
                    "fork-safety: ProcessPoolExecutor constructed; no query "
                    "forks — shard work runs on the thread pool of "
                    "core/parallel.py, and forking with sibling threads "
                    "running risks inheriting held locks",
                )
            )
    return diagnostics


def _check_async_executor_discipline(path: Path, tree: ast.Module) -> list[Diagnostic]:
    """R5: no blocking engine call or lock acquisition in serving async code."""
    if "serving" not in path.parts:
        return []
    diagnostics: list[Diagnostic] = []
    for fn in _function_defs(tree):
        if not isinstance(fn, ast.AsyncFunctionDef):
            continue
        for node in _async_body_nodes(fn):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else None
                if name in BLOCKING_ENGINE_CALLS:
                    diagnostics.append(
                        Diagnostic(
                            path,
                            node.lineno,
                            "R5",
                            f"async-executor-discipline: blocking call "
                            f".{name}(...) directly inside `async def "
                            f"{fn.name}`; engine work stalls the event loop — "
                            "hand a sync wrapper to loop.run_in_executor "
                            "instead (passing the method is fine; calling it "
                            "is not)",
                        )
                    )
                elif name == "acquire":
                    diagnostics.append(
                        Diagnostic(
                            path,
                            node.lineno,
                            "R5",
                            f"async-executor-discipline: lock .acquire() inside "
                            f"`async def {fn.name}` blocks the event loop; "
                            "serving-layer async code must stay lock-free "
                            "(the admission controller is event-loop-confined "
                            "for exactly this reason)",
                        )
                    )
            elif isinstance(node, ast.With):
                for item in node.items:
                    if _mentions_lock(item.context_expr):
                        diagnostics.append(
                            Diagnostic(
                                path,
                                node.lineno,
                                "R5",
                                f"async-executor-discipline: `with <lock>` "
                                f"inside `async def {fn.name}` blocks the "
                                "event loop; serving-layer async code must "
                                "stay lock-free",
                            )
                        )
                        break
    return diagnostics


def _async_body_nodes(fn: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Walk an async def's body without descending into nested defs.

    Nested sync ``def``\\ s are the executor wrappers (they run on a
    worker thread); nested ``async def``\\ s are visited on their own by
    the outer loop.
    """
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _mentions_lock(expr: ast.AST) -> bool:
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Name) and "lock" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "lock" in sub.attr.lower():
            return True
    return False


# ----------------------------------------------------------------------
# R6: no-swallowed-recovery
# ----------------------------------------------------------------------
def _names_in(nodes: Iterator[ast.AST] | list[ast.stmt]) -> set[str]:
    """Plain names + attribute tails referenced anywhere under ``nodes``."""
    names: set[str] = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def _handler_recovers(handler: ast.ExceptHandler) -> bool:
    """Does one ``except`` handler re-raise, re-verify, or route the
    failure through the resilience layer?"""
    if any(isinstance(sub, ast.Raise) for sub in ast.walk(handler)):
        return True
    names = _names_in(handler.body)
    if names & VERIFIERS or any("verify" in name for name in names):
        return True
    return any(
        marker in name.lower()
        for name in names
        for marker in RECOVERY_ROUTE_MARKERS
    )


def _check_swallowed_recovery(path: Path, tree: ast.Module) -> list[Diagnostic]:
    """R6: merge/index-load failures must be re-raised, re-verified, or
    routed through resilience — never silently swallowed."""
    diagnostics: list[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Try) or not node.handlers:
            continue
        body_names = _names_in(node.body)
        merges = bool(body_names & MERGE_CALLS)
        loads_index = bool(body_names & INDEX_LOAD_CALLS)
        if not merges and not loads_index:
            continue
        site = "shard-merge" if merges else "index-load"
        for handler in node.handlers:
            if _handler_recovers(handler):
                continue
            caught = (
                ast.unparse(handler.type) if handler.type is not None else "BaseException"
            )
            diagnostics.append(
                Diagnostic(
                    path,
                    handler.lineno,
                    "R6",
                    f"no-swallowed-recovery: `except {caught}` around a "
                    f"{site} site neither re-raises, re-verifies, nor "
                    "routes through the resilience layer "
                    "(quarantine/retry/degrade/fallback); swallowing here "
                    "can silently change the answer — surface a typed "
                    "ResilienceError or re-verify the merged candidates",
                )
            )
    return diagnostics
