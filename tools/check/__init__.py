"""Repo-specific correctness gate: ``python -m tools.check``.

The test suite can only spot-check the invariants the engine's
exactness rests on; this package makes them machine-checked on every
commit. Two layers:

* :mod:`tools.check.invariants` — an AST linter with six rules tied
  to the reproduction's correctness arguments (see
  ``docs/static-analysis.md``):

  - **R1 no-unverified-merge** — k-dominance is non-transitive
    (paper Sec. 2.2), so any function that merges per-shard skyline
    candidates must reach a cross-shard verification kernel.
  - **R2 lock-discipline** — fields documented as lock-guarded by the
    ``# guarded-by:`` docstring convention must only be touched inside
    a ``with self.<lock>`` block.
  - **R3 fingerprint-completeness** — every field of a fingerprinted
    dataclass (``QuerySpec``) must feed ``fingerprint()``; a field
    missing from the digest silently poisons result caches.
  - **R4 fork-safety** — no query forks: the library never
    constructs a ``ProcessPoolExecutor`` (forking with sibling threads
    running risks inheriting locks held mid-operation).
  - **R5 async-executor-discipline** — serving-package ``async def``
    bodies must not call blocking engine entry points or acquire
    locks directly; engine work goes through ``loop.run_in_executor``
    so the event loop never stalls behind one query.
  - **R6 no-swallowed-recovery** — an ``except`` around a shard merge
    or an index load must re-raise, re-verify, or route through the
    resilience layer (quarantine/retry/degrade/fallback); swallowing
    such failures can silently change the answer.

* :mod:`tools.check.typing_gate` — a typing-completeness gate
  (**T1**: every function in the strictly-typed packages is fully
  annotated; **T2**: the ``py.typed`` marker ships with the package)
  that mirrors the mypy strict profile configured in
  ``pyproject.toml``, so the discipline is enforced even where mypy
  is not installed.

Exit status is non-zero iff any diagnostic is emitted.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Diagnostic", "run_checks", "main", "REPO_ROOT", "SRC_ROOT"]

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding, renderable as ``file:line: RULE message``."""

    path: Path
    line: int
    rule: str
    message: str

    def render(self, root: Path | None = None) -> str:
        path = self.path
        if root is not None:
            try:
                path = path.relative_to(root)
            except ValueError:
                pass
        return f"{path}:{self.line}: {self.rule} {self.message}"


def iter_python_files(root: Path) -> Iterable[Path]:
    """Python files under ``root`` (or ``root`` itself), sorted."""
    if root.is_file():
        return [root]
    return sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)


def run_checks(
    paths: Sequence[Path] | None = None,
    rules: Sequence[str] | None = None,
) -> list[Diagnostic]:
    """Run every enabled rule over ``paths`` (default: ``src/repro``).

    ``rules`` filters by rule id (``R1`` ... ``R6``, ``T1``, ``T2``);
    ``None`` enables all of them. Diagnostics come back sorted by file
    and line so output (and the fixture tests) are deterministic.
    """
    from . import invariants, typing_gate

    roots = [Path(p) for p in paths] if paths else [SRC_ROOT]
    enabled = {r.upper() for r in rules} if rules else None

    def on(rule: str) -> bool:
        return enabled is None or rule in enabled

    diagnostics: list[Diagnostic] = []
    for root in roots:
        files = list(iter_python_files(root))
        for path in files:
            diagnostics.extend(
                d for d in invariants.check_file(path) if on(d.rule)
            )
            if typing_gate.in_strict_scope(path) and on("T1"):
                diagnostics.extend(typing_gate.check_annotations(path))
        if on("T2"):
            diagnostics.extend(typing_gate.check_py_typed(root))
    return sorted(diagnostics, key=lambda d: (str(d.path), d.line, d.rule))


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m tools.check",
        description="repro-specific invariant linter + typing gate",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="ID",
        help="only run the given rule id (repeatable): R1-R6, T1, T2",
    )
    args = parser.parse_args(argv)
    diagnostics = run_checks(args.paths or None, args.rules)
    for diag in diagnostics:
        print(diag.render(REPO_ROOT))
    if diagnostics:
        print(f"tools.check: {len(diagnostics)} problem(s) found", file=sys.stderr)
        return 1
    print("tools.check: OK")
    return 0
