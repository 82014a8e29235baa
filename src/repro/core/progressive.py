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

:func:`ksjq_progressive` iterates the faithful grouping body
(:func:`~repro.core.grouping.decide`) in exactly this order, pair by
pair: the verifier decides one group of pairs that share a target join
at a time (one pair at a time under a serving deadline), so consuming
only a prefix performs only the work that prefix needed (the full join,
in particular, is not materialized until the first "may be" tuple must
be decided).

Only faithful mode is offered here: progressiveness relies on emitting
"yes" tuples unverified, which is the paper's (sound for ``a = 0``)
Theorem 1/3. With aggregates the same caveats as
:func:`~repro.core.grouping.run_grouping` apply.
"""

from __future__ import annotations

from collections.abc import Iterator

from .grouping import decide, prepare, whole_join
from .plan import JoinPlan
from .timing import PhaseClock

__all__ = ["ksjq_progressive"]


def ksjq_progressive(plan: JoinPlan, k: int) -> Iterator[tuple[int, int]]:
    """Yield k-dominant skyline pairs progressively (grouping order).

    Yields ``(left_row, right_row)`` pairs: first the guaranteed "yes"
    cell, then verified "likely" tuples, then verified "may be" tuples.
    Under a serving deadline, an expiry's partial answer holds every
    pair yielded so far, each of them in this spec's full answer.
    """
    _, _, _, cells, targets = prepare(plan, k, "faithful", "progressive", PhaseClock())
    for chunk in decide(plan, k, cells, targets, whole_join(plan)):
        for u, v in chunk.tolist():
            yield u, v
