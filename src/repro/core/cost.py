"""The cost model: which algorithm ``algorithm="auto"`` runs.

One chooser serves both plan kinds: a two-way join is the
two-relation cascade (paper Sec. 2.3) wherever the algorithms agree,
so the exact family (``naive``, ``parallel``, ``indexed``) is priced
identically over the join size — pairs or chains — and only the
optimized serial algorithms differ by plan kind. Costs are abstract
dominance-comparison units from the plans' exact cardinality
statistics; nothing here materializes a join. :func:`find_k_costs`
prices the find-k searches, in probe points, for ``explain()``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..errors import ParameterError
from .parallel import WORKER_SPAWN_COST
from .plan import CascadePlan, CascadeStats

if TYPE_CHECKING:
    from .plan import JoinPlan

__all__ = ["choose_algorithm", "find_k_costs"]


def _parallel_cost(join_size: float, workers: int) -> float:
    """Estimated cost of the sharded path at a given worker count.

    Per-shard candidate generation is ``(J/W)^2`` comparisons on each of
    ``W`` concurrent workers plus a sub-quadratic cross-shard merge, so
    the wall-clock estimate is ``J^2/W^2 + J*sqrt(J)/W``, charged a
    spawn overhead per worker.
    """
    J, W = join_size, float(workers)
    return WORKER_SPAWN_COST * W + (J * J) / (W * W) + J * math.sqrt(J) / W


def _indexed_cost(plan: JoinPlan | CascadePlan, state: str, span: float | None) -> float:
    """Estimated comparisons of the index-accelerated exact path.

    One cell-partition pass over the joined rows (``O(J)``), then the
    parallel path's ``J * sqrt(J)`` generation and verification scaled
    by the fraction surviving cell pruning: the indexes' mean cell
    ``span`` when known (tight cells prune strongly), else 0.5.
    ``state="cold"`` adds the first query's build cost: one
    ``O(n log n)`` sort-and-digitize pass per side in
    ``plan.INDEX_SIDES`` plus the cell-bound pruning scan.
    """
    if state not in ("cold", "warm"):
        raise ParameterError(f"state must be 'cold' or 'warm', got {state!r}")
    j = float(plan.stats().join_size)
    survive = min(1.0, max(span if span is not None else 0.5, 0.05))
    cost = j + survive * j * math.sqrt(j)
    if state == "cold":
        n1, n2 = (float(max(len(plan.side_relation(side)), 1)) for side in plan.INDEX_SIDES)
        cost += n1 * math.log2(n1 + 1) + n2 * math.log2(n2 + 1) + j
    return cost


def _cheapest(costs: dict[str, float]) -> str:
    return min(costs, key=lambda name: (costs[name], name))


def choose_algorithm(
    plan: JoinPlan | CascadePlan,
    mode: str = "faithful",
    workers: int = 1,
    index_state: str | None = None,
    index_span: float | None = None,
) -> tuple[str, dict[str, float], str]:
    """Pick the cheapest applicable algorithm for a two-way or cascade plan.

    Returns ``(algorithm, costs, reason)`` where ``costs`` maps every
    candidate algorithm to its estimated cost over join size ``J``
    (pairs, or chains of a cascade) and categorization cost ``C``:

    * ``naive`` — every joined row against all of them: ``J^2``;
    * ``parallel`` — the sharded two-phase path, only when
      ``workers > 1``: ``spawn*W + J^2/W^2 + J*sqrt(J)/W``;
    * ``indexed`` — the cell-pruned exact path, only when the caller
      reports an index state (``"warm"`` or ``"cold"``, with the
      indexes' mean cell span as the selectivity signal). The engine
      reports only a warm index to auto specs, so a cold build never
      wins auto by surprise;
    * two-way joins: ``grouping`` (``C + J*sqrt(J)``), ``dominator``
      (``2C + J * mean_cell``, verified against per-cell dominators
      only) and, for cartesian joins where it always wins,
      ``cartesian`` (fate table only, ``C + J``);
    * cascades: ``pruned`` — Theorem-4 pruning plus sub-quadratic
      verification of the survivors, ``C + J*sqrt(J)``.

    Feasibility trumps cost: a non-strictly-monotone aggregate leaves
    only the exact family, which never relies on monotonicity. A
    two-way choice in faithful mode with ``a >= 2`` excludes the exact
    family, so auto stays within the paper-faithful answer family;
    every cascade algorithm is exact, so ``mode`` never constrains one.
    """
    stats = plan.stats()
    J = float(stats.join_size)
    C = float(stats.categorization_cost)
    strict = plan.aggregate is None or plan.aggregate.strictly_monotone
    if strict and plan.kind == "cartesian":
        return (
            "cartesian",
            {"cartesian": C + J, "naive": J * J},
            "cartesian join: the fate table decides every pair with no verification",
        )

    exact = {"naive": J * J}
    if workers > 1:
        exact["parallel"] = _parallel_cost(J, workers)
    if index_state is not None:
        exact["indexed"] = _indexed_cost(plan, index_state, index_span)
    if plan.aggregate is not None and not strict:
        cascade = isinstance(plan, CascadePlan)
        family = "chain-set cascades" if cascade else "joined-view algorithms"
        return (
            _cheapest(exact),
            exact,
            f"aggregate {plan.aggregate.name!r} is not strictly monotone; "
            f"only the exact {family} apply",
        )

    if isinstance(stats, CascadeStats):
        costs = {"naive": J * J, "pruned": C + J * math.sqrt(J)}
        reason = (
            f"cheapest estimated cost over {stats.join_size} chains across "
            f"{stats.n_relations} relations (Theorem-4 grouping cost "
            f"{stats.categorization_cost})"
        )
    else:
        costs = {
            "grouping": C + J * math.sqrt(J),
            "dominator": 2.0 * C + J * stats.mean_cell_size,
        }
        reason = (
            f"cheapest estimated cost over join size {stats.join_size} "
            f"({stats.shared_group_count} shared groups, categorization cost "
            f"{stats.categorization_cost})"
        )
    if isinstance(plan, CascadePlan) or mode == "exact" or plan.left.schema.a < 2:
        costs.update(exact)
    else:
        reason += (
            "; exact family (naive/parallel/indexed) excluded: "
            "faithful mode with a >= 2 aggregates"
        )
    return _cheapest(costs), costs, reason


def find_k_costs(plan: JoinPlan, method: str) -> tuple[dict[str, float], str]:
    """``(costs, reason)`` of a find-k search: each method's expected
    number of probe points over the plan's valid k range."""
    d1, d2 = plan.left.schema.d, plan.right.schema.d
    a = plan.left.schema.a
    k_min = max(d1, d2) + 1
    k_max = (d1 - a) + (d2 - a) + a
    span = max(1, k_max - k_min + 1)
    costs = {
        "naive": float(span),
        "range": float(span),
        "binary": float(math.ceil(math.log2(span)) + 1),
    }
    reason = f"{method} search over k in [{k_min}, {k_max}]" + (
        "; range/binary short-circuit full evaluations via categorization bounds"
        if method != "naive"
        else "; every probe is a full evaluation"
    )
    return costs, reason
