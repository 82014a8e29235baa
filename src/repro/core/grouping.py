"""Algorithm 2: the grouping KSJQ algorithm (paper Sec. 6.3).

Pipeline:

1. **Grouping** — categorize each base relation into SS/SN/NN under the
   thresholds ``k'_1 = k - l2`` and ``k'_2 = k - l1``.
2. **Join** — enumerate only the joined pairs of non-"no" cells:
   SS⋈SS ("yes", emitted immediately), SS⋈SN and SN⋈SS ("likely") and
   SN⋈SN ("may be"). Every pair containing an NN component is pruned
   without being joined (Th. 2/4). The full join is materialized only
   when a "may be" cell is non-empty, because it is that cell's check
   target (Algo 2, line 10).
3. **Verification** — "likely" tuples are checked against the join of
   the SS component's target set with the full partner relation (Algo 2
   lines 8-9); "may be" tuples against the full join.

Modes:

* ``"faithful"`` — the paper's algorithm verbatim. Exact for ``a = 0``;
  with aggregation it may return a *superset* of the true skyline
  (incomplete target sets for ``a >= 1``, unsound "yes" cell for
  ``a >= 2``; see DESIGN.md "Soundness errata") and a
  :class:`~repro.errors.SoundnessWarning` is emitted.
* ``"exact"`` — additionally verifies "yes" tuples and uses the
  complete local-attribute target predicate; equal to the naïve
  algorithm for strictly monotone aggregates (differential- and
  property-tested).
"""

from __future__ import annotations

import warnings

from typing import TYPE_CHECKING

import numpy as np

from ..errors import AlgorithmError, SoundnessWarning
from ..serving.deadline import Deadline, PartialProvider, active_deadline
from ..skyline.dominance import is_k_dominated, k_dominated_any
from .categorize import Categorization
from .params import KSJQParams
from .plan import JoinPlan
from .result import KSJQResult
from .targets import target_rows_exact, target_rows_paper
from .timing import PhaseClock
from .verify import sort_rows_for_early_exit

if TYPE_CHECKING:
    from .._typing import IntMatrix, IntVector

__all__ = ["run_grouping", "warn_if_unsound", "collect_cells"]


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


def _partial_provider(
    accepted: list[IntMatrix],
    cell_pairs: IntMatrix | None = None,
    keep: list[int] | None = None,
) -> PartialProvider:
    """Pairs decided so far, for a ``DeadlineExceeded`` payload.

    ``accepted`` holds the cells already fully decided; ``cell_pairs``
    and ``keep`` (mutated in place by the caller's verification loop)
    add the in-flight cell's verified keeps. Only evaluated when a
    deadline actually trips.
    """

    def partial() -> tuple[tuple[int, ...], ...]:
        pairs = [tuple(int(x) for x in row) for cell in accepted for row in cell]
        if cell_pairs is not None and keep:
            pairs.extend(tuple(int(x) for x in cell_pairs[pos]) for pos in keep)
        return tuple(pairs)

    return partial


def run_grouping(plan: JoinPlan, k: int, mode: str = "faithful") -> KSJQResult:
    """Run Algorithm 2 on a prepared join plan."""
    if mode not in ("faithful", "exact"):
        raise AlgorithmError(f"unknown mode {mode!r} (use 'faithful' or 'exact')")
    params = plan.params(k)
    plan.require_strict_aggregate("grouping algorithm")
    warn_if_unsound(mode, params, "grouping algorithm")

    clock = PhaseClock()
    with clock.phase("grouping"):
        cat1 = plan.categorize_left(params.k1_prime)
        cat2 = plan.categorize_right(params.k2_prime)

    with clock.phase("join"):
        cells = collect_cells(plan, cat1, cat2)
        full_matrix = None
        if mode == "faithful" and cells["SN*SN"].shape[0]:
            full_matrix = sort_rows_for_early_exit(plan.view().oriented())

    accepted: list[IntMatrix] = []
    checked = 0
    deadline = active_deadline()
    with clock.phase("remaining"):
        if mode == "faithful":
            accepted.append(cells["SS*SS"])  # Th. 1/3: "yes" without checking
            checked += _verify_likely(
                plan, params, cells["SS*SN"], ss_side="left", out=accepted,
                deadline=deadline,
            )
            checked += _verify_likely(
                plan, params, cells["SN*SS"], ss_side="right", out=accepted,
                deadline=deadline,
            )
            if cells["SN*SN"].shape[0]:
                vectors = plan.oriented_for_pairs(cells["SN*SN"])
                if deadline is None:
                    # One blocked many-vs-matrix kernel pass instead of a
                    # Python-level per-row loop; identical keeps in
                    # identical order.
                    dominated = k_dominated_any(full_matrix, vectors, k)
                    checked += vectors.shape[0]
                    accepted.append(cells["SN*SN"][~dominated])
                else:
                    keep: list[int] = []
                    partial = _partial_provider(accepted, cells["SN*SN"], keep)
                    for i in range(vectors.shape[0]):
                        deadline.check(partial)
                        if not is_k_dominated(full_matrix, vectors[i], k):
                            keep.append(i)
                    checked += vectors.shape[0]
                    accepted.append(cells["SN*SN"][keep])
        else:
            checked += _verify_exact(plan, params, cells, accepted, deadline=deadline)

    pairs = (
        np.concatenate([c for c in accepted if c.shape[0]], axis=0)
        if any(c.shape[0] for c in accepted)
        else np.empty((0, 2), dtype=np.intp)
    )
    return KSJQResult(
        algorithm="grouping",
        mode=mode,
        params=params,
        pairs=pairs,
        timings=clock.freeze(),
        left_counts=cat1.counts(),
        right_counts=cat2.counts(),
        cell_pair_counts={name: int(arr.shape[0]) for name, arr in cells.items()},
        checked=checked,
    )


def _verify_likely(
    plan: JoinPlan,
    params: KSJQParams,
    cell_pairs: IntMatrix,
    ss_side: str,
    out: list[IntMatrix],
    deadline: Deadline | None = None,
) -> int:
    """Check one "likely" cell against target-set joins (Algo 2 lines 8-9).

    The target join is shared by all pairs having the same SS-side
    component, so pairs are processed grouped by that component.
    """
    if cell_pairs.shape[0] == 0:
        return 0
    k = params.k
    vectors = plan.oriented_for_pairs(cell_pairs)

    by_anchor: dict[int, list[int]] = {}
    anchor_col = 0 if ss_side == "left" else 1
    for pos in range(cell_pairs.shape[0]):
        by_anchor.setdefault(int(cell_pairs[pos, anchor_col]), []).append(pos)

    keep: list[int] = []
    partial = (
        _partial_provider(out, cell_pairs, keep) if deadline is not None else None
    )
    for anchor, positions in by_anchor.items():
        if deadline is not None:
            deadline.check(partial)
        if ss_side == "left":
            targets = target_rows_paper(plan.left, anchor, params.k1_prime)
            candidates = plan.compatible_pairs(targets, np.arange(len(plan.right)))
        else:
            targets = target_rows_paper(plan.right, anchor, params.k2_prime)
            candidates = plan.compatible_pairs(np.arange(len(plan.left)), targets)
        if candidates.shape[0] == 0:
            keep.extend(positions)
            continue
        matrix = sort_rows_for_early_exit(plan.oriented_for_pairs(candidates))
        for pos in positions:
            if deadline is not None:
                deadline.check(partial)
            if not is_k_dominated(matrix, vectors[pos], k):
                keep.append(pos)
    out.append(cell_pairs[sorted(keep)])
    return int(cell_pairs.shape[0])


def _verify_exact(
    plan: JoinPlan,
    params: KSJQParams,
    cells: dict[str, IntMatrix],
    out: list[IntMatrix],
    deadline: Deadline | None = None,
) -> int:
    """Exact mode: verify every candidate cell with complete target sets."""
    k = params.k
    left_cache: dict[int, IntVector] = {}
    right_cache: dict[int, IntVector] = {}
    checked = 0
    for name in ("SS*SS", "SS*SN", "SN*SS", "SN*SN"):
        cell_pairs = cells[name]
        if cell_pairs.shape[0] == 0:
            continue
        vectors = plan.oriented_for_pairs(cell_pairs)
        keep: list[int] = []
        partial = (
            _partial_provider(out, cell_pairs, keep) if deadline is not None else None
        )
        for pos in range(cell_pairs.shape[0]):
            if deadline is not None:
                deadline.check(partial)
            u, v = int(cell_pairs[pos, 0]), int(cell_pairs[pos, 1])
            if u not in left_cache:
                left_cache[u] = target_rows_exact(plan.left, u, params.k1_min_local)
            if v not in right_cache:
                right_cache[v] = target_rows_exact(plan.right, v, params.k2_min_local)
            candidates = plan.compatible_pairs(left_cache[u], right_cache[v])
            if candidates.shape[0] == 0:
                keep.append(pos)
                continue
            matrix = plan.oriented_for_pairs(candidates)
            if not is_k_dominated(matrix, vectors[pos], k):
                keep.append(pos)
        checked += int(cell_pairs.shape[0])
        out.append(cell_pairs[keep])
    return checked
