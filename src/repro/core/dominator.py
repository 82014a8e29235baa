"""Algorithm 3: the dominator-based KSJQ algorithm (paper Sec. 6.4).

The grouping algorithm checks SN-composed tuples against joins with an
entire base relation. Algorithm 3 instead precomputes, for every SS/SN
tuple, its *dominator set* — the k'-dominators plus the tuples sharing
the required number of attribute values plus the tuple itself, which is
exactly the predicate ``{u : better-or-equal count >= k'}`` (see
:mod:`repro.core.targets`) — and verifies each candidate joined tuple
against the join of its components' dominator sets only.

The saving is largest for SN⋈SN tuples (full-relation target becomes a
small set); the cost is the extra *dominator generation* phase, which
the paper's experiments show often outweighs the saving — reproduced in
our benchmarks.

The body is Algorithm 2's (:func:`~repro.core.grouping.categorized_run`):
only the target-row functions differ. Both sides use the precomputed
sets, built in the ``dominator`` phase; in exact mode the complete
local-count predicate replaces the paper's k'-count predicate. Modes
are as in :mod:`repro.core.grouping`.
"""

from __future__ import annotations

from .grouping import categorized_run
from .plan import JoinPlan
from .result import KSJQResult

__all__ = ["run_dominator"]


def run_dominator(plan: JoinPlan, k: int, mode: str = "faithful") -> KSJQResult:
    """Run Algorithm 3 on a prepared join plan."""
    return categorized_run(plan, k, mode, "dominator")
