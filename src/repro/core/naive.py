"""Algorithm 1: the naïve KSJQ algorithm, for two-way joins and cascades.

Materializes the complete join, then runs a standard k-dominant skyline
computation over it (paper Sec. 6.1). Simple, always correct (it is the
ground truth the optimized algorithms are tested against), but it pays
the full join cost and the full skyline cost, and produces no results
until the join finishes. A cascade (Sec. 2.3) is the same algorithm
over the chain set, so one body serves :func:`run_naive` and
:func:`repro.core.cascade.run_cascade_naive`.

Invariant relied on by the differential fuzz suite
(``tests/property/test_property_index.py``): this runner never touches
the dominance-index layer (:mod:`repro.core.index`) — no
``DominanceIndex`` build, no cell pruning, no memoized candidate
supersets — so the indexed path's byte-identity is checked against an
independently computed answer, not against itself. Keep it that way.

When a serving deadline is active (:func:`~repro.serving.deadline
.active_deadline`), the skyline pass switches to the exact pipeline's
deadline path (:func:`~repro.core.parallel._sharded_skyline` on a
one-worker plan) — the same answer, but cancellable between candidate
chunks with the verified survivors as the partial answer. That path
also passes the ``shard.*`` fault checkpoints and the recovery ladder,
which preserves the answer.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, cast

import numpy as np

from ..serving.deadline import active_deadline
from ..skyline.kdominant import k_dominant_skyline
from .parallel import ShardPlan, _answer, _row_tuples, _sharded_skyline
from .timing import PhaseClock

if TYPE_CHECKING:
    from .plan import CascadePlan, JoinPlan
    from .result import CascadeResult, KSJQResult

__all__ = ["run_naive"]


def _naive(plan: JoinPlan | CascadePlan, k: int) -> KSJQResult | CascadeResult:
    """Join, then the per-row two-scan (TSA) k-dominant skyline over
    all joined rows (pairs or chains)."""
    plan.params(k)
    clock = PhaseClock()
    with clock.phase("join"):
        rows, matrix = plan.joined()
    if active_deadline() is None:
        with clock.phase("remaining"):
            keep = np.asarray(k_dominant_skyline(matrix, k), dtype=np.intp)
    else:
        # Not inside "remaining": the pipeline charges its own phases.
        shards = ShardPlan(1, int(matrix.shape[0]), "deadline")
        keep = _sharded_skyline(matrix, k, shards, clock, partial(_row_tuples, rows))[0]
    return _answer(plan, k, "naive", rows, keep, 0, clock)


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
    return cast("KSJQResult", _naive(plan, k))
