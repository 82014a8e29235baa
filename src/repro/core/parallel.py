"""The one exact execution pipeline: sharded KSJQ over the joined view.

The scalability figures are bounded by one candidate-generation pass
over the joined view. This module partitions that pass. Every faster
exact path — the ``parallel`` and ``indexed`` presets, for two-way
joins and cascades alike — runs the same four steps
(:func:`_exact_pipeline`):

1. **join** — the plan's pairs or chains and their oriented matrix
   (``plan.joined()``);
2. **partition** — contiguous row **shards** (for cascades, chains
   are first-relation-major, so shards split the first hop), or the
   surviving cells of the plan's
   :class:`~repro.core.index.CellPartition`;
3. **sharded skyline** — each work item generates its local skyline
   candidates independently, then a mandatory **cross-shard
   verification** pass closes the merge;
4. **answer** — a :class:`~repro.core.result.KSJQResult` or
   :class:`~repro.core.result.CascadeResult` (:func:`_answer`, which the
   naive runners of :mod:`repro.core.naive` share).

The presets :func:`run_parallel`, :func:`run_cascade_parallel` and
(in :mod:`repro.core.index`) ``run_indexed`` / ``run_cascade_indexed``
only pick the plan kind and the partition; whether the work items run
serially or on a thread pool comes from the :class:`ShardPlan`.

The verification pass is not an optimization detail but a correctness
requirement: k-dominance is *non-transitive* (paper Sec. 2.2), so a
tuple eliminated inside one shard may still k-dominate a candidate
that survived another shard. Merged candidates are therefore re-checked
against **all** rows of every shard — the full joined matrix, not just
the surviving candidates — using the vectorized block kernels of
:mod:`repro.skyline.dominance` (:func:`~repro.skyline.dominance.k_dominated_any`
over the stacked shard matrices). Because that second scan is exact,
the answer is independent of the shard count: ``parallelism ∈ {1, 2,
4, ...}`` all return byte-identical result sets, equal to the naïve
(ground-truth) algorithm.

Sharded work runs on a thread pool: the block kernels overlap because
numpy releases the GIL inside large comparison loops, and every worker
reads the joined matrix in place, so nothing is forked or pickled. One
shard (or one worker) runs inline. :func:`plan_shards` decides the
worker count from the plan's exact cardinality statistics and is what
``Engine.explain`` reports.

Execution is **resilient**: shard tasks are pure, so transient
failures — an injected fault from :mod:`repro.resilience`, an
``OSError`` — are absorbed by re-executing only the failed shard
buckets with bounded backoff, first on the thread pool and then
serially (see ``docs/resilience.md``). Because the cross-shard
verification pass always re-checks merged candidates against the full
matrix, recovery never changes the answer: recovered runs stay
byte-identical to the clean serial path.

``Engine.execute_many`` composes with per-query parallelism through
:func:`batch_workers`: while a batch fans out over N threads, each
query's auto-resolved worker count is capped to its fair share of the
machine so the batch never oversubscribes the CPUs.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, cast

import numpy as np

from ..metrics import record
from ..resilience import InjectedFault, RetryPolicy, checkpoint, retry_call
from ..serving.deadline import active_deadline
from ..skyline.dominance import k_dominated_any
from ..skyline.kdominant import k_dominant_candidates_block
from .plan import CascadePlan
from .result import CascadeResult, KSJQResult
from .timing import PhaseClock
from .verify import DEADLINE_SCAN_CHUNK, DEADLINE_VERIFY_CHUNK, sort_rows_for_early_exit

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .._typing import BoolVector, FloatMatrix, IntMatrix, IntVector
    from ..serving.deadline import Deadline
    from .index import CellPartition, DominanceIndex
    from .plan import JoinPlan

__all__ = [
    "ShardPlan",
    "plan_shards",
    "shard_bounds",
    "available_cpus",
    "batch_workers",
    "run_parallel",
    "run_cascade_parallel",
    "AUTO_MIN_ROWS",
    "WORKER_SPAWN_COST",
]

#: Below this many candidate rows, ``parallelism="auto"`` stays serial:
#: starting workers would outweigh the saved scan time.
AUTO_MIN_ROWS = 8192

#: Abstract cost of spawning one worker, in the same dominance-comparison
#: units as :func:`repro.core.cost.choose_algorithm`'s estimates.
WORKER_SPAWN_COST = 2_000_000

#: Most workers ``parallelism="auto"`` will ever choose.
AUTO_MAX_WORKERS = 8

_batch_local = threading.local()


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@contextmanager
def batch_workers(count: int) -> Iterator[None]:
    """Mark the current thread as one of ``count`` concurrent batch lanes.

    Used by ``Engine.execute_many``: queries executed inside this
    context have their resolved per-query worker count capped to
    ``max(1, cpus // count)`` by :func:`plan_shards`, so a batch of
    parallel queries shares the machine instead of oversubscribing it.
    """
    previous = getattr(_batch_local, "count", 1)
    _batch_local.count = max(1, int(count))
    try:
        yield
    finally:
        _batch_local.count = previous


def _batch_lane_count() -> int:
    return getattr(_batch_local, "count", 1)


@dataclass(frozen=True)
class ShardPlan:
    """How one query's candidate generation is partitioned and executed.

    Attributes
    ----------
    workers:
        Worker (and shard) count; ``1`` means serial execution.
    n_rows:
        Candidate rows being sharded (the joined size / chain count).
    reason:
        Human-readable justification of the decision (reported by
        ``Engine.explain``).
    partition:
        How the candidate rows are split across shards: ``"rows"``
        (contiguous slices, the default) or ``"cells"`` (whole joined
        cells of a :class:`repro.core.index.CellPartition`, LPT-balanced
        — ``explain`` relabels an indexed query's plan this way).
    """

    workers: int
    n_rows: int
    reason: str
    partition: str = "rows"

    @property
    def executor(self) -> str:
        """``"thread"`` when the plan fans out, ``"serial"`` otherwise."""
        return "thread" if self.is_parallel else "serial"

    @property
    def n_shards(self) -> int:
        """Shard count (one shard per worker)."""
        return self.workers

    @property
    def is_parallel(self) -> bool:
        """Does this plan fan out at all?"""
        return self.workers > 1

    def describe(self) -> str:
        """One-line human-readable rendering."""
        if not self.is_parallel:
            if self.partition != "rows":
                return f"serial ({self.partition} partition) — {self.reason}"
            return f"serial — {self.reason}"
        shard_kind = "shards" if self.partition == "rows" else "cell buckets"
        return (
            f"{self.workers} {self.executor} workers over {self.n_shards} "
            f"{shard_kind} of ~{self.n_rows // max(1, self.n_shards)} rows — "
            f"{self.reason}"
        )


def shard_bounds(n_rows: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` ranges splitting ``n_rows`` evenly.

    Returns at most ``n_shards`` non-empty ranges (fewer when there are
    fewer rows than shards), sizes differing by at most one row.
    """
    n_shards = max(1, min(n_shards, n_rows)) if n_rows else 1
    base, extra = divmod(n_rows, n_shards)
    bounds: list[tuple[int, int]] = []
    start = 0
    for i in range(n_shards):
        stop = start + base + (1 if i < extra else 0)
        if stop > start:
            bounds.append((start, stop))
        start = stop
    return bounds


def plan_shards(n_rows: int, parallelism: object = "auto") -> ShardPlan:
    """Decide serial-vs-sharded execution for ``n_rows`` candidate rows.

    ``parallelism="auto"`` is the cost-based path: stay serial below
    :data:`AUTO_MIN_ROWS` or on a single-CPU machine, otherwise use up
    to :data:`AUTO_MAX_WORKERS` workers, never more than the CPUs
    available to this query's batch lane (see :func:`batch_workers`).
    An explicit integer demands that many workers (still capped by the
    batch-lane budget so ``execute_many`` cannot oversubscribe).
    """
    budget = max(1, available_cpus() // _batch_lane_count())
    if parallelism == "auto":
        if n_rows < AUTO_MIN_ROWS:
            return ShardPlan(
                1, n_rows,
                f"joined size {n_rows} below parallel threshold {AUTO_MIN_ROWS}",
            )
        workers = min(AUTO_MAX_WORKERS, budget)
        if workers <= 1:
            return ShardPlan(
                1, n_rows,
                "no spare CPUs for this query "
                f"({available_cpus()} available / {_batch_lane_count()} batch lanes)",
            )
        reason = f"auto: {workers} of {available_cpus()} CPUs"
    else:
        requested = int(parallelism)
        workers = min(requested, budget) if _batch_lane_count() > 1 else requested
        if workers <= 1:
            if requested > 1:
                return ShardPlan(
                    1, n_rows,
                    f"parallelism={requested} capped to CPU budget {budget} "
                    f"by {_batch_lane_count()} batch lanes",
                )
            return ShardPlan(1, n_rows, "parallelism=1 requested")
        reason = f"parallelism={requested} requested"
    workers = max(1, min(workers, n_rows)) if n_rows else 1
    if workers <= 1:
        return ShardPlan(1, n_rows, f"only {n_rows} candidate rows")
    return ShardPlan(workers, n_rows, reason)


# ----------------------------------------------------------------------
# Work items and the thread-pool map with its recovery ladder
# ----------------------------------------------------------------------
def _shard_candidates(args: tuple[FloatMatrix, int | IntVector, int]) -> IntVector:
    """Phase 1, one work item: local candidate superset, as global
    indices. ``rows`` is the first row of a contiguous shard, or the row
    list of a cell bucket."""
    shard_matrix, rows, k = args
    checkpoint("shard.candidates")
    local = k_dominant_candidates_block(shard_matrix, k)
    return rows[local] if isinstance(rows, np.ndarray) else local + rows


def _verify_chunk(args: tuple[FloatMatrix, FloatMatrix, int]) -> BoolVector:
    """Phase 2, one candidate chunk: dominated flags vs the full sorted
    matrix, which every thread worker reads in place."""
    sorted_matrix, vectors, k = args
    checkpoint("shard.verify")
    return k_dominated_any(sorted_matrix, vectors, k)


#: Backoff schedule shared by both rungs of the recovery ladder: up to
#: two retries, 5 ms doubling to a 100 ms ceiling, half-jittered.
SHARD_RETRY_POLICY = RetryPolicy(max_attempts=3, base_delay=0.005, max_delay=0.1)

#: Shard-task failures the recovery ladder absorbs: injected faults and
#: OS-level transients. Shard tasks are pure functions, so any *other*
#: exception is a bug in the kernels and must propagate unchanged.
_RECOVERABLE = (InjectedFault, OSError)


def _serial_tasks(
    fn: Callable[[tuple], np.ndarray], tasks: Sequence[tuple]
) -> list[np.ndarray]:
    """Run tasks inline, retrying transient failures in place.

    The ladder's last rung: a fault that outlasts the retry policy here
    propagates as its typed :class:`~repro.errors.ResilienceError`
    (or ``OSError``) — never a silently dropped shard.
    """
    return [
        retry_call(lambda t=task: fn(t), policy=SHARD_RETRY_POLICY)
        for task in tasks
    ]


def _map_on_threads(
    fn: Callable[[tuple], np.ndarray],
    tasks: Sequence[tuple],
    workers: int,
) -> tuple[dict[int, np.ndarray], list[int]]:
    """Run tasks on a thread pool with per-task transient retries.

    Returns the finished results by task index, and the indices of the
    tasks still failing once the policy is exhausted (empty when every
    task finished) — the caller re-runs only those serially.
    """
    results: dict[int, np.ndarray] = {}
    pending = list(range(len(tasks)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for attempt in range(SHARD_RETRY_POLICY.max_attempts):
            if attempt:
                record("shard_retries", len(pending))
                time.sleep(SHARD_RETRY_POLICY.delay(attempt - 1))
            futures = {i: pool.submit(fn, tasks[i]) for i in pending}
            pending = []
            for i, future in futures.items():
                try:
                    results[i] = future.result()
                except _RECOVERABLE:
                    pending.append(i)
            if not pending:
                break
    return results, pending


def _map_tasks(
    fn: Callable[[tuple], np.ndarray],
    tasks: Sequence[tuple],
    shards: ShardPlan,
) -> list[np.ndarray]:
    """Run ``fn`` over ``tasks`` on the shard plan's thread pool (inline
    for a serial plan).

    Results come back in task order, and non-transient exceptions
    raised by ``fn`` propagate. Transient failures walk the **recovery
    ladder** (see ``docs/resilience.md``): failed tasks are retried in
    place with exponential backoff and jitter, then the tasks the
    thread rung could not finish — only those — run serially, where a
    fault that still persists surfaces typed. Both rungs count
    (``shard_retries``, ``degradations``) through
    :func:`repro.metrics.record` into the registry the calling thread
    activated — the engine's, under ``Engine._run``. Correctness never rests on the
    ladder: shard tasks are pure, and the mandatory cross-shard
    verification re-checks every merged candidate against the full
    matrix, so re-executed shards cannot change the answer.
    """
    if not shards.is_parallel or len(tasks) <= 1:
        return _serial_tasks(fn, tasks)
    results, pending = _map_on_threads(fn, tasks, min(shards.workers, len(tasks)))
    if pending:
        record("degradations")  # thread → serial
        results.update(zip(pending, _serial_tasks(fn, [tasks[i] for i in pending])))
    return [results[i] for i in range(len(tasks))]


def _task_bounds(n_rows: int, n_shards: int, chunk: int | None) -> list[tuple[int, int]]:
    """:func:`shard_bounds` over ``n_shards``, or — when a deadline caps
    the task size — enough ranges that none exceeds ``chunk`` rows."""
    return shard_bounds(n_rows, n_shards if chunk is None else -(-n_rows // chunk))


def _candidate_tasks(
    matrix: FloatMatrix,
    k: int,
    shards: ShardPlan,
    chunk: int | None,
    cells: CellPartition | None,
) -> list[tuple[FloatMatrix, int | IntVector, int]]:
    """The partition step: phase-1 work items of the sharded skyline.

    Without ``cells`` the joined rows split into contiguous shards,
    handed out as slices (views, not copies). With ``cells`` the work
    is the surviving cells of the plan's :class:`CellPartition`, whole
    cells LPT-balanced into ``n_shards`` buckets. ``chunk`` caps each
    item's rows (under a deadline).
    """
    if cells is None:
        return [
            (matrix[start:stop], start, k)
            for start, stop in _task_bounds(matrix.shape[0], shards.n_shards, chunk)
        ]
    buckets = cells.row_buckets(k, shards.n_shards)
    if chunk is not None:
        buckets = [
            rows[start:stop]
            for rows in buckets
            for start, stop in _task_bounds(rows.size, 1, chunk)
        ]
    return [(matrix[rows], rows, k) for rows in buckets]


def _waves(
    fn: Callable[[tuple], np.ndarray],
    tasks: Sequence[tuple],
    shards: ShardPlan,
    deadline: Deadline | None,
    partial: Callable[[], tuple[tuple[int, ...], ...]],
) -> Iterator[np.ndarray]:
    """Run ``tasks`` on the shard plan's executor, yielding results in
    task order.

    Without a deadline every task goes out at once. Under a deadline
    they go out ``n_shards`` per wave with a check before each wave, so
    expiry waits for at most one wave of work; a finished wave's
    results are yielded before the next check, so the caller's
    ``partial`` already covers them.
    """
    size = len(tasks) if deadline is None else shards.n_shards
    for start in range(0, len(tasks), max(1, size)):
        if deadline is not None:
            deadline.check(partial)
        yield from _map_tasks(fn, tasks[start : start + size], shards)


def _sharded_skyline(
    matrix: FloatMatrix,
    k: int,
    shards: ShardPlan,
    clock: PhaseClock,
    partial_of: Callable[[Sequence[int]], tuple[tuple[int, ...], ...]] | None = None,
    cells: CellPartition | None = None,
) -> tuple[IntVector, int]:
    """The two-phase partition-and-merge skyline over ``matrix``.

    Phase 1 ("grouping" clock phase): local candidate generation per
    work item of :func:`_candidate_tasks`. Phase 2 ("remaining"):
    cross-shard verification of the merged candidates against all
    rows. Returns ``(sorted surviving row indices, number of candidates
    verified)``.

    ``cells`` replaces the contiguous shards with the surviving cells
    of a :class:`~repro.core.index.CellPartition`, whose union is the
    *unpruned* rows only. That is sound because phase 2 is unchanged:
    candidates are always verified against **all** rows of ``matrix``
    (pruned tuples are provably non-winning yet still k-dominate
    others). The partition also supplies the pre-sorted verification
    matrix and a per-``k`` candidate memo filled under its lock: a
    repeated query skips phase 1 and re-verifies the memoized superset
    — exactness never depends on the memo, since verification is exact
    for *any* superset of the answer.

    Under an active serving deadline both phases run in waves of
    ``n_shards`` tasks with a check before each wave: phase 1 over
    items of at most :data:`~repro.core.verify.DEADLINE_SCAN_CHUNK`
    rows (chunk-local candidates are still a superset), phase 2 over
    chunks of :data:`~repro.core.verify.DEADLINE_VERIFY_CHUNK`
    candidates. The naive runners take this path under a deadline too,
    on a one-worker plan.
    ``partial_of`` maps the row indices verified so far to the
    pairs/chains carried by the raised ``DeadlineExceeded``.
    """
    deadline = active_deadline()
    kept: list[IntVector] = []

    def partial() -> tuple[tuple[int, ...], ...]:
        survivors = [int(i) for part in kept for i in part]
        return partial_of(survivors) if partial_of is not None else ()

    with clock.phase("grouping"):
        candidates = cells.candidates_by_k.get(k) if cells is not None else None
        if candidates is None:
            chunk = None if deadline is None else DEADLINE_SCAN_CHUNK
            scans = _candidate_tasks(matrix, k, shards, chunk, cells)
            locals_ = list(_waves(_shard_candidates, scans, shards, deadline, partial))
            candidates = (
                np.sort(np.concatenate(locals_))
                if locals_
                else np.empty(0, dtype=np.intp)
            )
            if cells is not None:
                with cells.lock:
                    cells.candidates_by_k[k] = candidates
    with clock.phase("remaining"):
        if candidates.size == 0:
            return candidates, 0
        # Cross-shard merge: every candidate re-checked against ALL
        # rows (k-dominance is non-transitive — locally eliminated rows
        # still eliminate), with strong rows stacked first for early
        # exit. Every task references the one sorted matrix.
        sorted_matrix = (
            cells.sorted_matrix() if cells is not None else sort_rows_for_early_exit(matrix)
        )
        chunk = None if deadline is None else DEADLINE_VERIFY_CHUNK
        bounds = _task_bounds(int(candidates.size), shards.n_shards, chunk)
        tasks = [(sorted_matrix, matrix[candidates[start:stop]], k) for start, stop in bounds]
        flags = _waves(_verify_chunk, tasks, shards, deadline, partial)
        for (start, stop), dominated in zip(bounds, flags):
            kept.append(candidates[start:stop][~dominated])
        if deadline is not None:
            deadline.check(partial)
        return np.concatenate(kept), int(candidates.size)


# ----------------------------------------------------------------------
# The one exact pipeline and its presets (consumed by repro.api.Engine)
# ----------------------------------------------------------------------
def _exact_pipeline(
    plan: JoinPlan | CascadePlan,
    k: int,
    algorithm: str,
    shards: ShardPlan | None,
    indexes: tuple[DominanceIndex, DominanceIndex] | None = None,
) -> KSJQResult | CascadeResult:
    """Join → partition → sharded skyline → answer, for either plan kind.

    The exact path behind the ``parallel`` and ``indexed`` presets (of
    two-way joins and cascades alike). Works on the materialized joined
    view, so it is exact for every join kind and any aggregate, and
    byte-identical to the naive ground truth across shard counts.

    ``indexes`` (the plan's two side indexes) switches the partition
    from contiguous row shards to the surviving cells of the plan's
    :class:`~repro.core.index.CellPartition`. Its per-``k`` memos make
    a repeated query verification-only, then answer-construction-only:
    the verified survivor rows are memoized too, which is sound because
    a partition is bound to one immutable snapshot by the index tokens.
    ``shards`` defaults to the auto decision for the joined size.
    """
    plan.params(k)  # validate k before any join work
    clock = PhaseClock()
    with clock.phase("join"):
        rows, matrix = plan.joined()
    if shards is None:
        shards = plan_shards(matrix.shape[0], "auto")
    partial_of = partial(_row_tuples, rows)
    if indexes is None:
        keep, checked = _sharded_skyline(matrix, k, shards, clock, partial_of)
        return _answer(plan, k, algorithm, rows, keep, checked, clock)
    with clock.phase("grouping"):
        cells = plan.cell_partition(*indexes)
        pruned = cells.pruned_cells(k)
        memoized = cells.survivors_by_k.get(k)
    if memoized is None:
        memoized = _sharded_skyline(matrix, k, shards, clock, partial_of, cells)
        with cells.lock:
            cells.survivors_by_k[k] = memoized
    keep, checked = memoized
    return _answer(plan, k, algorithm, rows, keep, checked, clock, cells, pruned)


def _row_tuples(rows: IntMatrix, survivors: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The pairs or chains at ``survivors`` as int tuples: the partial
    answer a deadline expiry carries."""
    return tuple(tuple(int(x) for x in rows[i]) for i in survivors)


def _answer(
    plan: JoinPlan | CascadePlan,
    k: int,
    algorithm: str,
    rows: IntMatrix,
    keep: IntVector,
    checked: int,
    clock: PhaseClock,
    cells: CellPartition | None = None,
    pruned: BoolVector | None = None,
) -> KSJQResult | CascadeResult:
    """The result object of the plan's kind: surviving pairs or chains,
    plus the cell-pruning counts when a cell partition ran."""
    if isinstance(plan, CascadePlan):
        pruned_rows = 0
        if cells is not None and pruned is not None:
            pruned_rows = int(cells.cell_counts[pruned].sum())
        return CascadeResult(
            k=k,
            chains=rows[keep],
            total_chains=int(rows.shape[0]),
            pruned_rows=pruned_rows,
            algorithm=algorithm,
            timings=clock.freeze(),
        )
    counts: dict[str, int] = {}
    if cells is not None and pruned is not None:
        counts = {"cells": cells.n_cells, "pruned_cells": int(np.count_nonzero(pruned))}
    return KSJQResult(
        algorithm=algorithm,
        mode="exact",
        params=plan.params(k),
        pairs=rows[keep],
        timings=clock.freeze(),
        cell_pair_counts=counts,
        checked=checked,
    )


def run_parallel(
    plan: JoinPlan, k: int, shards: ShardPlan | None = None
) -> KSJQResult:
    """Sharded two-way KSJQ over a prepared join plan: the exact
    pipeline over contiguous row shards of the joined view.

    Parameters
    ----------
    plan:
        The prepared two-way join.
    k:
        Dominance threshold (validated against the schemas).
    shards:
        Execution decision from :func:`plan_shards`; defaults to the
        auto decision for the plan's joined size.
    """
    return cast("KSJQResult", _exact_pipeline(plan, k, "parallel", shards))


def run_cascade_parallel(
    plan: CascadePlan, k: int, shards: ShardPlan | None = None
) -> CascadeResult:
    """Sharded m-way cascade KSJQ over a prepared cascade plan.

    Chains are enumerated first-relation-major, so contiguous shards of
    the chain matrix partition the cascade by its *first hop*.
    """
    return cast("CascadeResult", _exact_pipeline(plan, k, "parallel", shards))
