"""Algorithms 2 and 3 and the cartesian case: one body (paper Secs. 6.3-6.5).

Pipeline:

1. **Grouping** — categorize each base relation into SS/SN/NN under the
   thresholds ``k'_1 = k - l2`` and ``k'_2 = k - l1``.
2. **Join** — enumerate only the joined pairs of non-"no" cells:
   SS⋈SS ("yes"), SS⋈SN and SN⋈SS ("likely") and SN⋈SN ("may be").
   Every pair containing an NN component is pruned without being
   joined (Th. 2/4). The full join is materialized only when a
   non-empty cell is checked against it (Algo 2, line 10).
3. **Verification** — every checked cell goes through the one verifier,
   :func:`~repro.core.verify.verify_pairs`, which checks each pair
   against the join of its components' target rows. The algorithms
   differ only in each cell's target-row functions
   (:func:`cell_targets`):

   * Algorithm 2 (``run_grouping``), faithful: the "likely" cells use
     the SS component's paper target set times the whole partner
     relation (Algo 2 lines 8-9), the "may be" cell the whole join;
   * Algorithm 3 (:func:`~repro.core.dominator.run_dominator`),
     faithful: each component's dominator set on both sides, built up
     front in the ``dominator`` phase;
   * exact mode, either algorithm: the complete local-attribute target
     sets (:func:`~repro.core.targets.target_rows_exact`) on both
     sides, for every cell including "yes".

   The cartesian case (:func:`~repro.core.cartesian.run_cartesian`) is
   the same body on a cartesian plan, whose SN sets are always empty,
   and :func:`~repro.core.progressive.ksjq_progressive` iterates the
   faithful grouping body pair by pair.

Modes:

* ``"faithful"`` — the paper's algorithm verbatim: the "yes" cell is
  emitted unchecked (Th. 1/3). Exact for ``a = 0``; with aggregation it
  may return a *superset* of the true skyline (incomplete target sets
  for ``a >= 1``, unsound "yes" cell for ``a >= 2``; see DESIGN.md
  "Soundness errata") and a :class:`~repro.errors.SoundnessWarning` is
  emitted.
* ``"exact"`` — additionally verifies "yes" tuples and uses the
  complete local-attribute target predicate; equal to the naïve
  algorithm for strictly monotone aggregates (differential- and
  property-tested).
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterator
from contextlib import nullcontext
from functools import cache, partial
from typing import TYPE_CHECKING

import numpy as np

from ..errors import AlgorithmError, SoundnessWarning

# Not called here. perfbench's self-test expects this module to bind
# the kernel by name: the tracer wraps every such binding to time
# verification.
from ..skyline.dominance import k_dominated_any  # noqa: F401
from .categorize import Categorization, Category
from .params import KSJQParams
from .plan import JoinPlan
from .result import KSJQResult
from .targets import target_rows_exact, target_rows_paper
from .timing import PhaseClock
from .verify import TargetRows, sort_rows_for_early_exit, verify_pairs

if TYPE_CHECKING:
    from .._typing import FloatMatrix, IntMatrix, IntVector

__all__ = ["run_grouping", "categorized_run", "warn_if_unsound", "collect_cells"]

#: The fate cells that are joined, in the order they are decided.
CELLS = ("SS*SS", "SS*SN", "SN*SS", "SN*SN")

#: Each cell's two target-row functions; a cell left out is "yes",
#: emitted unchecked.
CellTargets = dict[str, tuple[TargetRows, TargetRows]]


def warn_if_unsound(mode: str, params: KSJQParams, algorithm: str) -> None:
    """Emit a SoundnessWarning for faithful mode with aggregation (DESIGN.md).

    With ``a >= 1`` the paper's target sets are incomplete and with
    ``a >= 2`` even the unchecked "yes" cell can contain non-skylines,
    so faithful mode may return a superset of the true answer.
    """
    if mode == "faithful" and params.a >= 1:
        detail = (
            "its 'yes' cell is unverified and the paper's target sets are incomplete"
            if params.a >= 2
            else "the paper's target sets are incomplete"
        )
        warnings.warn(
            f"{algorithm} in faithful mode with a={params.a} aggregate attributes "
            f"may report false-positive skylines ({detail}); "
            "use mode='exact' for a guaranteed answer",
            SoundnessWarning,
            stacklevel=3,
        )


def collect_cells(
    plan: JoinPlan, cat1: Categorization, cat2: Categorization
) -> dict[str, IntMatrix]:
    """Enumerate joined pairs for the non-pruned fate cells."""
    return {
        "SS*SS": plan.compatible_pairs(cat1.ss_rows, cat2.ss_rows),
        "SS*SN": plan.compatible_pairs(cat1.ss_rows, cat2.sn_rows),
        "SN*SS": plan.compatible_pairs(cat1.sn_rows, cat2.ss_rows),
        "SN*SN": plan.compatible_pairs(cat1.sn_rows, cat2.sn_rows),
    }


def run_grouping(plan: JoinPlan, k: int, mode: str = "faithful") -> KSJQResult:
    """Run Algorithm 2 on a prepared join plan."""
    return categorized_run(plan, k, mode, "grouping")


#: The name errors and warnings give each algorithm.
_NAMES = {
    "grouping": "grouping algorithm",
    "dominator": "dominator-based algorithm",
    "cartesian": "cartesian algorithm",
    "progressive": "progressive grouping algorithm",
}


def categorized_run(
    plan: JoinPlan,
    k: int,
    mode: str,
    algorithm: str,
    categories: tuple[Categorization, Categorization] | None = None,
) -> KSJQResult:
    """Run Algorithm 2 (``"grouping"``), Algorithm 3 (``"dominator"``)
    or the cartesian case (``"cartesian"``) on a prepared join plan.

    ``categories`` hands in both sides' categorizations at ``k`` when
    the caller already has them (find-k's count bounds).
    """
    clock = PhaseClock()
    params, cat1, cat2, cells, targets = prepare(plan, k, mode, algorithm, clock, categories)
    joined = whole_join(plan)
    if cells["SN*SN"].shape[0] and targets.get("SN*SN") == (None, None):
        with clock.phase("join"):
            joined()
    with clock.phase("remaining"):
        decided = list(decide(plan, k, cells, targets, joined))
    return KSJQResult(
        algorithm=algorithm,
        mode=mode,
        params=params,
        pairs=np.concatenate(decided) if decided else np.empty((0, 2), dtype=np.intp),
        timings=clock.freeze(),
        left_counts=cat1.counts(),
        right_counts=cat2.counts(),
        cell_pair_counts={name: int(arr.shape[0]) for name, arr in cells.items()},
        checked=sum(int(cells[name].shape[0]) for name in targets),
    )


def prepare(
    plan: JoinPlan,
    k: int,
    mode: str,
    algorithm: str,
    clock: PhaseClock,
    categories: tuple[Categorization, Categorization] | None = None,
) -> tuple[KSJQParams, Categorization, Categorization, dict[str, IntMatrix], CellTargets]:
    """Validate the query, then categorize both sides, build each cell's
    target-row functions and join the non-"no" cells, each in its
    timing phase."""
    if mode not in ("faithful", "exact"):
        raise AlgorithmError(f"unknown mode {mode!r} (use 'faithful' or 'exact')")
    params = plan.params(k)
    plan.require_strict_aggregate(_NAMES[algorithm])
    warn_if_unsound(mode, params, _NAMES[algorithm])
    with clock.phase("grouping"):
        cat1, cat2 = categories or (
            plan.categorize_left(params.k1_prime),
            plan.categorize_right(params.k2_prime),
        )
    with clock.phase("dominator") if algorithm == "dominator" else nullcontext():
        targets = cell_targets(plan, params, mode, algorithm, cat1, cat2)
    with clock.phase("join"):
        cells = collect_cells(plan, cat1, cat2)
    return params, cat1, cat2, cells, targets


def cell_targets(
    plan: JoinPlan,
    params: KSJQParams,
    mode: str,
    algorithm: str,
    cat1: Categorization,
    cat2: Categorization,
) -> CellTargets:
    """Each checked cell's target-row functions, one per side (paper
    Def. 5); ``None`` is the whole relation."""
    left: Callable[[int], IntVector]
    right: Callable[[int], IntVector]
    if mode == "exact":
        left = partial(target_rows_exact, plan.left, k_min_local=params.k1_min_local)
        right = partial(target_rows_exact, plan.right, k_min_local=params.k2_min_local)
    else:
        left = partial(target_rows_paper, plan.left, k_prime=params.k1_prime)
        right = partial(target_rows_paper, plan.right, k_prime=params.k2_prime)
    if algorithm == "dominator":
        # Algo 3 lines 6-13: the sets of every SS and SN tuple, up front.
        rows1, rows2 = (np.flatnonzero(cat.labels != Category.NN).tolist() for cat in (cat1, cat2))
        left = {row: left(row) for row in rows1}.__getitem__
        right = {row: right(row) for row in rows2}.__getitem__
    else:
        left, right = cache(left), cache(right)
    if mode == "exact":
        return dict.fromkeys(CELLS, (left, right))
    if algorithm == "dominator":
        return dict.fromkeys(CELLS[1:], (left, right))
    return {"SS*SN": (left, None), "SN*SS": (None, right), "SN*SN": (None, None)}


def whole_join(plan: JoinPlan) -> Callable[[], FloatMatrix]:
    """The plan's whole join as a target matrix, sorted for early exit
    and built on first call."""
    return cache(lambda: sort_rows_for_early_exit(plan.view().oriented()))


def decide(
    plan: JoinPlan,
    k: int,
    cells: dict[str, IntMatrix],
    targets: CellTargets,
    joined: Callable[[], FloatMatrix],
) -> Iterator[IntMatrix]:
    """Yield the surviving pairs of each cell in :data:`CELLS` order: an
    unchecked cell whole, a checked one as the verifier keeps them.

    A deadline expiry's partial answer is every pair yielded so far.
    """
    accepted: list[IntMatrix] = []

    def decided() -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(pair) for chunk in accepted for pair in chunk.tolist())

    for name in CELLS:
        chunks = (
            verify_pairs(plan, cells[name], *targets[name], k, joined, decided)
            if name in targets
            else iter((cells[name],))
        )
        for chunk in chunks:
            accepted.append(chunk)
            yield chunk
