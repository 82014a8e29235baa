"""The invariant linter's own tests: seeded violations and a clean tree.

Every rule R1-R6 is demonstrated by a fixture module carrying exactly
one violation; the linter must report exactly one diagnostic per
fixture, with the right rule id and the right line. The current source
tree must produce zero diagnostics — that is the CI gate.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT))  # tools/ is repo-level, not in src/

from tools.check import SRC_ROOT, run_checks  # noqa: E402
from tools.check.invariants import check_file  # noqa: E402
from tools.check.typing_gate import check_annotations, in_strict_scope  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"


def _source_line(path: Path, lineno: int) -> str:
    return path.read_text().splitlines()[lineno - 1]


# ----------------------------------------------------------------------
# Seeded violations: exactly one diagnostic each, with file:line
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("fixture", "rule", "anchor"),
    [
        ("r1_unverified_merge.py", "R1", "def broken_sharded_skyline"),
        ("r2_lock_discipline.py", "R2", "self._entries = "),
        ("r2_stale_guard.py", "R2", "# guarded-by: _lock: _entries, _listeners"),
        ("r3_fingerprint.py", "R3", "def fingerprint"),
        ("r4_fork_outside_layer.py", "R4", "ProcessPoolExecutor(max_workers=2)"),
        ("r4_layer/parallel.py", "R4", "ProcessPoolExecutor(max_workers=2)"),
        ("serving/r5_blocking_async.py", "R5", "engine.execute("),
        ("r6_swallowed_recovery.py", "R6", "except OSError:  # R6"),
    ],
)
def test_fixture_produces_exactly_one_diagnostic(
    fixture: str, rule: str, anchor: str
) -> None:
    path = FIXTURES / fixture
    diagnostics = check_file(path)
    assert len(diagnostics) == 1, [d.render() for d in diagnostics]
    (diag,) = diagnostics
    assert diag.rule == rule
    assert diag.path == path
    assert anchor in _source_line(path, diag.line)
    rendered = diag.render(REPO_ROOT)
    assert rendered.startswith(f"tests/analysis/fixtures/{fixture}:{diag.line}: {rule}")


def test_r3_message_names_the_missing_field() -> None:
    (diag,) = check_file(FIXTURES / "r3_fingerprint.py")
    assert "'mode'" in diag.message


def test_r2_message_names_lock_and_field() -> None:
    (diag,) = check_file(FIXTURES / "r2_lock_discipline.py")
    assert "self._entries" in diag.message
    assert "self._lock" in diag.message


def test_t1_flags_unannotated_function() -> None:
    diagnostics = check_annotations(FIXTURES / "t1_unannotated.py")
    assert {d.rule for d in diagnostics} == {"T1"}
    messages = "\n".join(d.message for d in diagnostics)
    assert "'x'" in messages and "return annotation" in messages


# ----------------------------------------------------------------------
# The library tree itself is clean (the CI gate)
# ----------------------------------------------------------------------
def test_source_tree_has_zero_diagnostics() -> None:
    diagnostics = run_checks()
    assert diagnostics == [], "\n".join(d.render(REPO_ROOT) for d in diagnostics)


def test_strict_scope_covers_the_six_packages_and_top_level() -> None:
    assert in_strict_scope(SRC_ROOT / "api" / "engine.py")
    assert in_strict_scope(SRC_ROOT / "core" / "parallel.py")
    assert in_strict_scope(SRC_ROOT / "serving" / "server.py")
    assert in_strict_scope(SRC_ROOT / "errors.py")
    assert not in_strict_scope(SRC_ROOT / "experiments" / "harness.py")
    assert not in_strict_scope(FIXTURES / "t1_unannotated.py")


def test_real_parallel_module_satisfies_r1_non_vacuously() -> None:
    """The real merge function is *seen* by R1 (reaches a generator and
    merges) and passes only because it also reaches the verifier."""
    from tools.check import invariants

    path = SRC_ROOT / "core" / "parallel.py"
    assert check_file(path) == []
    source = path.read_text()
    # The rule's three ingredients are all present in the real module.
    assert "k_dominant_candidates_block" in source
    assert "concatenate" in source
    assert "k_dominated_any" in source
    # Removing the verification pass must trip R1.
    import ast

    stripped = source.replace("k_dominated_any", "k_dominated_unchecked").replace(
        "_verify_chunk", "_chunk_flags"
    )
    tree = ast.parse(stripped)
    diags = invariants._check_unverified_merge(path, tree)
    assert any(d.rule == "R1" for d in diags)


def test_incremental_merge_satisfies_r1_non_vacuously() -> None:
    """The delta-maintenance insert path is R1's exact shape: it merges
    newcomer candidates (generator + concatenate) into the cached
    matrix, and passes the rule only because every merged candidate is
    re-verified against the full matrix — methods count, the rule walks
    the whole tree."""
    from tools.check import invariants

    path = SRC_ROOT / "core" / "incremental.py"
    assert check_file(path) == []
    source = path.read_text()
    assert "k_dominant_candidates_block" in source
    assert "concatenate" in source
    assert "k_dominated_any" in source
    import ast

    stripped = source.replace("k_dominated_any", "k_dominated_unchecked")
    tree = ast.parse(stripped)
    diags = invariants._check_unverified_merge(path, tree)
    flagged = {d for d in diags if d.rule == "R1"}
    assert flagged, "stripping the verifier must trip R1 on the merge path"
    merge_line = next(
        i + 1
        for i, line in enumerate(source.splitlines())
        if "def _merge_inserted" in line
    )
    assert merge_line in {d.line for d in flagged}


def test_r5_sees_the_real_server_non_vacuously() -> None:
    """The real serving front-end is in R5's scope, uses the sanctioned
    run_in_executor pattern (clean), and tripping the pattern — calling
    the engine directly in an async handler — is caught."""
    import ast

    from tools.check import invariants

    path = SRC_ROOT / "serving" / "server.py"
    assert check_file(path) == []
    source = path.read_text()
    assert "async def" in source and "run_in_executor" in source
    # Inject a direct engine call ahead of every executor hand-off.
    mutated = source.replace(
        "await loop.run_in_executor(",
        "self.engine.execute(*inputs, spec=spec) and await loop.run_in_executor(",
    )
    assert mutated != source
    diags = invariants._check_async_executor_discipline(path, ast.parse(mutated))
    assert diags and all(d.rule == "R5" for d in diags)


def test_r5_is_scoped_to_the_serving_package() -> None:
    """The same violating code outside a serving/ directory is not R5's
    business — core algorithms are allowed to call the engine."""
    import ast

    from tools.check import invariants

    fixture = FIXTURES / "serving" / "r5_blocking_async.py"
    tree = ast.parse(fixture.read_text())
    assert invariants._check_async_executor_discipline(fixture, tree)
    elsewhere = FIXTURES / "r5_blocking_async.py"  # not on disk; path-only
    assert invariants._check_async_executor_discipline(elsewhere, tree) == []


def test_r6_sees_the_real_engine_non_vacuously() -> None:
    """The engine's indexed dispatch is *seen* by R6 (its try bodies
    reach index-load sites) and passes only because the generic handler
    routes through the quarantine path — gutting that route trips R6."""
    import ast

    from tools.check import invariants

    path = SRC_ROOT / "api" / "engine.py"
    assert not [d for d in check_file(path) if d.rule == "R6"]
    source = path.read_text()
    assert "self._quarantine_indexes(plan, inputs)" in source
    mutated = source.replace("self._quarantine_indexes(plan, inputs)", "pass")
    assert mutated != source
    diags = invariants._check_swallowed_recovery(path, ast.parse(mutated))
    assert diags and all(d.rule == "R6" for d in diags)


def test_r6_sees_the_catalog_maintenance_guard_non_vacuously() -> None:
    """Index maintenance swallows failures *by design* — but only
    because the handler records the quarantine; a handler stripped down
    to a bare ``pass`` is exactly what R6 forbids."""
    import ast

    from tools.check import invariants

    path = SRC_ROOT / "api" / "catalog.py"
    assert not [d for d in check_file(path) if d.rule == "R6"]
    source = path.read_text()
    assert "with_inserted_rows" in source
    assert "self._count_quarantine()" in source
    mutated = source.replace("self._count_quarantine()", "pass")
    diags = invariants._check_swallowed_recovery(path, ast.parse(mutated))
    assert any(d.rule == "R6" for d in diags)


def test_r5_flags_lock_acquisition_in_async_code() -> None:
    import ast

    from tools.check import invariants

    source = (
        "class S:\n"
        "    async def handler(self):\n"
        "        with self._lock:\n"
        "            return self.depth\n"
    )
    path = SRC_ROOT / "serving" / "synthetic.py"  # path-only, for scoping
    diags = invariants._check_async_executor_discipline(path, ast.parse(source))
    assert len(diags) == 1 and diags[0].rule == "R5"
    assert "lock" in diags[0].message


# ----------------------------------------------------------------------
# CLI behaviour
# ----------------------------------------------------------------------
def test_cli_exit_status_and_output() -> None:
    clean = subprocess.run(
        [sys.executable, "-m", "tools.check"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert "OK" in clean.stdout

    dirty = subprocess.run(
        [sys.executable, "-m", "tools.check", "--rule", "R3",
         str(FIXTURES / "r3_fingerprint.py")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert dirty.returncode == 1
    assert "R3" in dirty.stdout
    assert "fingerprint" in dirty.stdout
