"""Algorithm 1: the naïve KSJQ algorithm.

Materializes the complete join, then runs a standard k-dominant skyline
computation over it (paper Sec. 6.1). Simple, always correct (it is the
ground truth the optimized algorithms are tested against), but it pays
the full join cost and the full skyline cost, and produces no results
until the join finishes.

Invariant relied on by the differential fuzz suite
(``tests/property/test_property_index.py``): this runner never touches
the dominance-index layer (:mod:`repro.core.index`) — no
``DominanceIndex`` build, no cell pruning, no memoized candidate
supersets — so the indexed path's byte-identity is checked against an
independently computed answer, not against itself. Keep it that way.

When a serving deadline is active (:func:`~repro.serving.deadline
.active_deadline`), the skyline pass switches to the chunked
:func:`~repro.core.verify.checkpointed_skyline` — the same answer, but
cancellable between candidate chunks with the verified survivors as the
partial answer.
"""

from __future__ import annotations

from ..serving.deadline import active_deadline
from ..skyline.kdominant import k_dominant_skyline
from .plan import JoinPlan
from .result import KSJQResult
from .timing import PhaseClock
from .verify import checkpointed_skyline

__all__ = ["run_naive"]


def run_naive(plan: JoinPlan, k: int) -> KSJQResult:
    """Run Algorithm 1 on a prepared join plan: the per-row two-scan
    (TSA) k-dominant skyline over the materialized join.

    Parameters
    ----------
    plan:
        The join to query (any kind; any monotone aggregate).
    k:
        Number of joined skyline attributes a dominator must cover.
    """
    params = plan.params(k)
    clock = PhaseClock()
    with clock.phase("join"):
        view = plan.view()
        matrix = view.oriented()
    with clock.phase("remaining"):
        deadline = active_deadline()
        if deadline is not None:
            skyline_idx = checkpointed_skyline(
                matrix,
                k,
                deadline,
                lambda survivors: tuple(
                    (int(view.pairs[i, 0]), int(view.pairs[i, 1])) for i in survivors
                ),
            )
        else:
            skyline_idx = k_dominant_skyline(matrix, k)
        pairs = view.pairs[skyline_idx]
    return KSJQResult(
        algorithm="naive",
        mode="exact",
        params=params,
        pairs=pairs,
        timings=clock.freeze(),
    )
