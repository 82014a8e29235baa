"""Progressive KSJQ result generation.

The paper criticizes the naïve algorithm because "the user has to wait
a fairly large time (at least the complete joining time) before even
the first skyline result is presented to her. In online scenarios, the
progressive result generation is quite an attractive and useful
feature" (Sec. 6.1). The grouping algorithm is naturally progressive:

1. SS⋈SS tuples are k-dominant skylines by Theorem 1/3 — they can be
   emitted as soon as the two categorizations finish, before any
   verification work;
2. "likely" tuples (SS⋈SN / SN⋈SS) need only their (small) target-set
   joins — they stream out next;
3. "may be" tuples (SN⋈SN) are verified against the full join last.

:func:`ksjq_progressive` implements exactly this ordering as a Python
generator; consuming only a prefix performs only the work that prefix
needed (the full join, in particular, is not materialized until the
first "may be" tuple must be decided).

Only faithful mode is offered here: progressiveness relies on emitting
"yes" tuples unverified, which is the paper's (sound for ``a = 0``)
Theorem 1/3. With aggregates the same caveats as
:func:`~repro.core.grouping.run_grouping` apply.
"""

from __future__ import annotations

from collections.abc import Iterator


from typing import TYPE_CHECKING

import numpy as np

from ..serving.deadline import active_deadline
from ..skyline.dominance import is_k_dominated
from .grouping import collect_cells, warn_if_unsound
from .plan import JoinPlan
from .targets import target_rows_paper
from .verify import sort_rows_for_early_exit

if TYPE_CHECKING:
    from .._typing import IntVector

__all__ = ["ksjq_progressive"]


def ksjq_progressive(plan: JoinPlan, k: int) -> Iterator[tuple[int, int]]:
    """Yield k-dominant skyline pairs progressively (grouping order).

    Yields ``(left_row, right_row)`` pairs: first the guaranteed "yes"
    cell, then verified "likely" tuples, then verified "may be" tuples.
    Within each stage, pairs stream in enumeration order.
    """
    params = plan.params(k)
    plan.require_strict_aggregate("progressive grouping algorithm")
    warn_if_unsound("faithful", params, "progressive grouping algorithm")

    cat1 = plan.categorize_left(params.k1_prime)
    cat2 = plan.categorize_right(params.k2_prime)
    cells = collect_cells(plan, cat1, cat2)

    # Serving deadline (if any): checked before each pair is decided,
    # with the pairs already yielded as the partial answer — every one
    # of them is in this spec's full answer, so partial ⊆ full holds.
    deadline = active_deadline()
    emitted: list[tuple[int, int]] = []

    def partial() -> tuple[tuple[int, ...], ...]:
        return tuple(emitted)

    # Stage 1: Theorem 1/3 "yes" tuples — no joins, no checks.
    for pair in cells["SS*SS"]:
        if deadline is not None:
            deadline.check(partial)
            emitted.append((int(pair[0]), int(pair[1])))
        yield int(pair[0]), int(pair[1])

    # Stage 2: "likely" cells, verified against per-anchor target joins.
    for cell_name, ss_side in (("SS*SN", "left"), ("SN*SS", "right")):
        cell_pairs = cells[cell_name]
        if cell_pairs.shape[0] == 0:
            continue
        vectors = plan.oriented_for_pairs(cell_pairs)
        target_cache: dict[int, IntVector] = {}
        anchor_col = 0 if ss_side == "left" else 1
        for pos in range(cell_pairs.shape[0]):
            if deadline is not None:
                deadline.check(partial)
            anchor = int(cell_pairs[pos, anchor_col])
            if anchor not in target_cache:
                if ss_side == "left":
                    targets = target_rows_paper(plan.left, anchor, params.k1_prime)
                    candidates = plan.compatible_pairs(
                        targets, np.arange(len(plan.right))
                    )
                else:
                    targets = target_rows_paper(plan.right, anchor, params.k2_prime)
                    candidates = plan.compatible_pairs(
                        np.arange(len(plan.left)), targets
                    )
                matrix = plan.oriented_for_pairs(candidates)
                target_cache[anchor] = sort_rows_for_early_exit(matrix)
            if not is_k_dominated(target_cache[anchor], vectors[pos], k):
                if deadline is not None:
                    emitted.append((int(cell_pairs[pos, 0]), int(cell_pairs[pos, 1])))
                yield int(cell_pairs[pos, 0]), int(cell_pairs[pos, 1])

    # Stage 3: "may be" cell against the full join — materialized only
    # now, and only if the cell is non-empty.
    maybe = cells["SN*SN"]
    if maybe.shape[0]:
        full_matrix = sort_rows_for_early_exit(plan.view().oriented())
        vectors = plan.oriented_for_pairs(maybe)
        for pos in range(maybe.shape[0]):
            if deadline is not None:
                deadline.check(partial)
            if not is_k_dominated(full_matrix, vectors[pos], k):
                if deadline is not None:
                    emitted.append((int(maybe[pos, 0]), int(maybe[pos, 1])))
                yield int(maybe[pos, 0]), int(maybe[pos, 1])
