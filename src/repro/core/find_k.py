"""Finding k from a desired skyline cardinality (paper Problems 3-4, Sec. 6.8-6.10).

Given a threshold δ, find the smallest ``k`` whose k-dominant skyline
join has at least δ tuples. Correctness rests on Lemma 1: the skyline
is monotone non-decreasing in ``k`` (a j-dominant skyline tuple is an
i-dominant skyline tuple for every ``i >= j``).

Three methods:

* ``naive`` (Algo 4) — evaluate every ``k`` from ``max(d1,d2)+1``
  upward with a full skyline computation.
* ``range`` (Algo 5) — before each full evaluation, bound the count via
  the categorization alone: the answer has at least ``|SS⋈SS|`` tuples
  and at most ``|SS⋈SS| + |likely| + |may be|``; only when δ falls
  between the bounds is the expensive evaluation run.
* ``binary`` (Algo 6) — binary-search the k range using the same bounds.

Following the paper, ``k = d`` (the maximum) is returned by default
when the loop exhausts the range *without evaluating it* — Algorithm 4
iterates ``while k < d`` and falls through to ``return d``.

Problem 4 ("at most δ") reduces to Problem 3 (Sec. 3); it is provided
as :func:`find_k_at_most_delta` implementing exactly the paper's
reduction including both corner cases.
"""

from __future__ import annotations


from ..errors import ParameterError
from .categorize import Categorization
from .grouping import categorized_run
from .plan import JoinPlan
from .result import FindKResult, FindKStep
from .timing import PHASES, PhaseClock

__all__ = ["find_k_at_least_delta", "find_k_at_most_delta"]


class _FindKContext:
    """Caches per-k bounds, categorizations and exact counts,
    accumulating phase timings."""

    def __init__(self, plan: JoinPlan, mode: str, clock: PhaseClock) -> None:
        self.plan = plan
        self.mode = mode
        self.clock = clock
        d1, d2 = plan.left.schema.d, plan.right.schema.d
        a = plan.left.schema.a
        self.k_min = max(d1, d2) + 1
        self.k_max = (d1 - a) + (d2 - a) + a  # joined dimensionality
        if self.k_min > self.k_max:
            raise ParameterError(
                f"no valid k exists: k_min={self.k_min} > joined d={self.k_max}"
            )
        self._bounds: dict[int, tuple[int, int]] = {}
        self._categories: dict[int, tuple[Categorization, Categorization]] = {}
        self._counts: dict[int, int] = {}

    def bounds(self, k: int) -> tuple[int, int]:
        """(lower, upper) bounds on the skyline count at ``k`` (Sec. 6.9)."""
        if k not in self._bounds:
            params = self.plan.params(k)
            with self.clock.phase("grouping"):
                cat1 = self.plan.categorize_left(params.k1_prime)
                cat2 = self.plan.categorize_right(params.k2_prime)
            self._categories[k] = (cat1, cat2)
            with self.clock.phase("join"):
                yes = self.plan.compatible_pair_count(cat1.ss_rows, cat2.ss_rows)
                likely = self.plan.compatible_pair_count(
                    cat1.ss_rows, cat2.sn_rows
                ) + self.plan.compatible_pair_count(cat1.sn_rows, cat2.ss_rows)
                maybe = self.plan.compatible_pair_count(cat1.sn_rows, cat2.sn_rows)
            lower = yes
            if self.mode == "exact" and params.a >= 1:
                # In exact mode the "yes" cell is itself verified (it
                # may contain false positives under aggregation, see
                # DESIGN.md errata), so |SS*SS| is not a certified lower
                # bound on the exact count; fall back to the trivial
                # one. Faithful mode keeps the paper's bound, which is
                # consistent with the faithful count by construction.
                lower = 0
            self._bounds[k] = (lower, yes + likely + maybe)
        return self._bounds[k]

    def exact_count(self, k: int) -> int:
        """Full skyline evaluation at ``k`` via the grouping algorithm,
        reusing the categorizations of :meth:`bounds` at ``k``."""
        if k not in self._counts:
            result = categorized_run(
                self.plan, k, self.mode, "grouping", self._categories.get(k)
            )
            for phase in PHASES:
                self.clock.add(phase, getattr(result.timings, phase))
            self._counts[k] = result.count
        return self._counts[k]


def find_k_at_least_delta(
    plan: JoinPlan,
    delta: int,
    method: str = "binary",
    mode: str = "faithful",
) -> FindKResult:
    """Problem 3: smallest ``k`` whose skyline has at least δ tuples."""
    ctx, k, steps = _search(plan, delta, method, mode)
    return FindKResult(
        method=method, delta=delta, k=k, steps=steps, timings=ctx.clock.freeze()
    )


def find_k_at_most_delta(
    plan: JoinPlan,
    delta: int,
    method: str = "binary",
    mode: str = "faithful",
) -> FindKResult:
    """Problem 4: largest ``k`` whose skyline has at most δ tuples.

    Reduction from Problem 3 (Sec. 3): with ``k* = `` the Problem-3
    answer, the Problem-4 answer is ``k* - 1`` except when (a) ``k*`` is
    the smallest valid k, or (b) the ``k*``-dominant skyline has exactly
    δ tuples or ``k* = d``, in which case it is ``k*`` itself. The
    reduction reuses the search's context, so ``k*`` is evaluated at
    most once and its time counts in the result's timings.
    """
    ctx, k_star, steps = _search(plan, delta, method, mode)
    if k_star <= ctx.k_min:
        k = k_star
    elif k_star == ctx.k_max and ctx.exact_count(k_star) <= delta:
        k = k_star
    elif ctx.exact_count(k_star) == delta:
        k = k_star
    else:
        k = k_star - 1
    return FindKResult(
        method=f"{method} (at-most reduction)",
        delta=delta,
        k=k,
        steps=steps,
        timings=ctx.clock.freeze(),
    )


def _search(
    plan: JoinPlan, delta: int, method: str, mode: str
) -> tuple[_FindKContext, int, tuple[FindKStep, ...]]:
    """Run one Problem-3 search; returns its context, ``k`` and steps."""
    if delta < 1:
        raise ParameterError(f"delta must be positive, got {delta}")
    search = {"naive": _naive_search, "range": _range_search, "binary": _binary_search}
    if method not in search:
        raise ParameterError(f"unknown find-k method {method!r}")
    ctx = _FindKContext(plan, mode, PhaseClock())
    steps: list[FindKStep] = []
    k = search[method](ctx, delta, steps)
    return ctx, k, tuple(steps)


# ----------------------------------------------------------------------
# Search strategies
# ----------------------------------------------------------------------
def _naive_search(ctx: _FindKContext, delta: int, steps: list[FindKStep]) -> int:
    """Algorithm 4: linear scan with full evaluations."""
    k = ctx.k_min
    while k < ctx.k_max:
        count = ctx.exact_count(k)
        if count >= delta:
            steps.append(FindKStep(k, None, None, count, "answer"))
            return k
        steps.append(FindKStep(k, None, None, count, "advance"))
        k += 1
    steps.append(FindKStep(ctx.k_max, None, None, None, "default (range exhausted)"))
    return ctx.k_max


def _range_search(ctx: _FindKContext, delta: int, steps: list[FindKStep]) -> int:
    """Algorithm 5: linear scan short-circuited by categorization bounds."""
    k = ctx.k_min
    while k < ctx.k_max:
        lb, ub = ctx.bounds(k)
        if lb >= delta:
            steps.append(FindKStep(k, lb, ub, None, "answer (lower bound)"))
            return k
        if ub < delta:
            steps.append(FindKStep(k, lb, ub, None, "advance (upper bound)"))
            k += 1
            continue
        count = ctx.exact_count(k)
        if count >= delta:
            steps.append(FindKStep(k, lb, ub, count, "answer"))
            return k
        steps.append(FindKStep(k, lb, ub, count, "advance"))
        k += 1
    steps.append(FindKStep(ctx.k_max, None, None, None, "default (range exhausted)"))
    return ctx.k_max


def _binary_search(ctx: _FindKContext, delta: int, steps: list[FindKStep]) -> int:
    """Algorithm 6: binary search over k with bound short-circuits.

    Deviation from the printed pseudocode (documented erratum): the
    paper loops ``while l < h``, which exits without probing the final
    ``l == h`` value and can return an answer one too high (e.g. the
    worked example with delta = 1 yields 6 instead of the correct 5).
    We use the standard ``while l <= h``; the interval still shrinks on
    every iteration (``h = k - 1`` / ``l = k + 1``), so termination is
    unaffected. The paper's maximum ``k = d`` is still returned by
    default without evaluation, matching Algorithms 4-5.
    """
    low, high = ctx.k_min, ctx.k_max
    current = ctx.k_max
    while low <= high:
        k = (low + high) // 2
        lb, ub = ctx.bounds(k)
        if lb >= delta:
            current = k
            high = k - 1
            steps.append(FindKStep(k, lb, ub, None, "candidate (lower bound); go lower"))
        elif ub < delta:
            low = k + 1
            steps.append(FindKStep(k, lb, ub, None, "too small (upper bound); go higher"))
        else:
            count = ctx.exact_count(k)
            if count >= delta:
                current = k
                high = k - 1
                steps.append(FindKStep(k, lb, ub, count, "candidate; go lower"))
            else:
                low = k + 1
                steps.append(FindKStep(k, lb, ub, count, "too small; go higher"))
        if low >= current:
            steps.append(FindKStep(current, None, None, None, "lowest k reached"))
            return current
    return current
