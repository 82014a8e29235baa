"""Cartesian-product special case (paper Sec. 6.5).

When the joined relation is a cartesian product, every tuple lives in
one join group, so no SN set exists: a tuple is SS iff it is a
k'-dominant skyline of its base relation and NN otherwise. The fate
table then decides every joined tuple — the answer is exactly
``SS1 x SS2`` — with no verification at all.

The same result falls out of :func:`~repro.core.grouping.run_grouping`
on a cartesian :class:`~repro.core.plan.JoinPlan` (the SN sets come out
empty); this module provides the direct algorithm, which skips cell
bookkeeping and is what a user should call when they know the join is a
cross product. In exact mode the SS⋈SS cell is verified like any other
candidate cell, guarding the ``a >= 2`` aggregate corner case.
"""

from __future__ import annotations



from ..errors import AlgorithmError, JoinError
from ..skyline.dominance import is_k_dominated
from .grouping import warn_if_unsound
from .plan import JoinPlan
from .result import KSJQResult
from .targets import target_rows_exact
from .timing import PhaseClock

__all__ = ["run_cartesian"]


def run_cartesian(plan: JoinPlan, k: int, mode: str = "faithful") -> KSJQResult:
    """Run the cartesian-product fast path on a cartesian join plan."""
    if plan.kind != "cartesian":
        raise JoinError(
            f"run_cartesian requires a cartesian join plan, got kind={plan.kind!r}"
        )
    if mode not in ("faithful", "exact"):
        raise AlgorithmError(f"unknown mode {mode!r} (use 'faithful' or 'exact')")
    params = plan.params(k)
    plan.require_strict_aggregate("cartesian algorithm")
    warn_if_unsound(mode, params, "cartesian algorithm")

    clock = PhaseClock()
    with clock.phase("grouping"):
        cat1 = plan.categorize_left(params.k1_prime)
        cat2 = plan.categorize_right(params.k2_prime)

    with clock.phase("join"):
        yes_pairs = plan.compatible_pairs(cat1.ss_rows, cat2.ss_rows)

    checked = 0
    with clock.phase("remaining"):
        if mode == "faithful" or yes_pairs.shape[0] == 0:
            pairs = yes_pairs
        else:
            vectors = plan.oriented_for_pairs(yes_pairs)
            left_cache = {}
            right_cache = {}
            keep: list[int] = []
            for pos in range(yes_pairs.shape[0]):
                u, v = int(yes_pairs[pos, 0]), int(yes_pairs[pos, 1])
                if u not in left_cache:
                    left_cache[u] = target_rows_exact(plan.left, u, params.k1_min_local)
                if v not in right_cache:
                    right_cache[v] = target_rows_exact(plan.right, v, params.k2_min_local)
                candidates = plan.compatible_pairs(left_cache[u], right_cache[v])
                matrix = plan.oriented_for_pairs(candidates)
                if not is_k_dominated(matrix, vectors[pos], params.k):
                    keep.append(pos)
            checked = int(yes_pairs.shape[0])
            pairs = yes_pairs[keep]

    return KSJQResult(
        algorithm="cartesian",
        mode=mode,
        params=params,
        pairs=pairs,
        timings=clock.freeze(),
        left_counts=cat1.counts(),
        right_counts=cat2.counts(),
        cell_pair_counts={"SS*SS": int(yes_pairs.shape[0])},
        checked=checked,
    )
