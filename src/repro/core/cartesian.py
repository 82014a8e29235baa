"""Cartesian-product special case (paper Sec. 6.5).

When the joined relation is a cartesian product, every tuple lives in
one join group, so no SN set exists: a tuple is SS iff it is a
k'-dominant skyline of its base relation and NN otherwise. The fate
table then decides every joined tuple — the answer is exactly
``SS1 x SS2`` — with no verification at all.

:func:`run_cartesian` is Algorithm 2's body
(:func:`~repro.core.grouping.categorized_run`) on a cartesian
:class:`~repro.core.plan.JoinPlan`: the "likely" and "may be" cells
come out empty, so faithful mode checks nothing. In exact mode the
SS⋈SS cell is verified like any other candidate cell, guarding the
``a >= 2`` aggregate corner case.
"""

from __future__ import annotations

from ..errors import JoinError
from .grouping import categorized_run
from .plan import JoinPlan
from .result import KSJQResult

__all__ = ["run_cartesian"]


def run_cartesian(plan: JoinPlan, k: int, mode: str = "faithful") -> KSJQResult:
    """Run the cartesian-product fast path on a cartesian join plan."""
    if plan.kind != "cartesian":
        raise JoinError(
            f"run_cartesian requires a cartesian join plan, got kind={plan.kind!r}"
        )
    return categorized_run(plan, k, mode, "cartesian")
