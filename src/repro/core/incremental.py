"""Delta maintenance of live KSJQ answers (the streaming subsystem core).

A :class:`MaintainedResult` is a query answer that *consumes*
:class:`~repro.relational.dataset.MutationDelta` events from its input
datasets instead of being invalidated by them. The cached state is the
full joined matrix plus a winner mask over it, and the two delta paths
are classic incremental-skyline moves adapted to k-dominance:

* **Insert** — a new base tuple can only *add* joined pairs it
  participates in. Those delta pairs are enumerated through
  :meth:`~repro.core.plan.JoinPlan.compatible_pairs`, reduced to a
  local candidate superset with the blocked scan-1 kernel
  (:func:`~repro.skyline.kdominant.k_dominant_candidates_block`), and
  the candidates are verified against the **full** merged matrix with
  :func:`~repro.skyline.dominance.k_dominated_any`. Cached winners can
  only be evicted by a newcomer (existing tuples did not dominate them
  before), so the eviction re-check runs every old winner against the
  full newcomer block — not just its local candidates, because a
  newcomer eliminated by another newcomer can still k-dominate an old
  winner (k-dominance is not transitive).
* **Delete** — pairs containing a dropped tuple leave the matrix, and
  surviving winners stay winners (removal never adds dominators). A
  surviving non-winner can be promoted only if at least one of its
  dominators was removed, so the re-promotion pass filters the
  non-winners through the removed vectors and then re-verifies the
  touched candidates against the full surviving matrix — never against
  the surviving winners alone, for the same non-transitivity reason
  that forces the cross-shard verification of
  :mod:`repro.core.parallel` (a dominator need not itself be a winner).

Both paths are ``O(Δ_pairs · J)`` against the ``O(J^2)`` of a
from-scratch recompute; when the cost model
(:meth:`~repro.core.plan.PlanStats.delta_maintenance_cost`) says the
delta is too large for that to pay off — or the delta cannot be applied
structurally (``replace``, a missed version, a cascade or
faithful-family spec) — the handle falls back to a full recompute
through the engine, which is always correct.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ParameterError
from ..metrics import Metrics
from ..resilience import checkpoint
from ..skyline.dominance import k_dominated_any
from ..skyline.kdominant import k_dominant_candidates_block
from .plan import CascadePlan, JoinPlan
from .result import KSJQResult, QueryResult
from .timing import PhaseClock
from .verify import sort_rows_for_early_exit

if TYPE_CHECKING:
    from .._typing import BoolVector, FloatMatrix, IntMatrix
    from ..api.engine import Engine
    from ..api.spec import QuerySpec
    from ..relational.dataset import Dataset, MutationDelta
    from ..relational.relation import Relation

__all__ = ["MaintainedResult", "DEFAULT_FALLBACK_RATIO"]

#: Maintain a delta only while its estimated cost stays below this
#: fraction of the recompute cost; beyond it, recomputing is cheaper.
DEFAULT_FALLBACK_RATIO = 0.5


def _winner_mask(pairs: IntMatrix, winner_pairs: IntMatrix) -> BoolVector:
    """Boolean mask over ``pairs`` marking the rows present in
    ``winner_pairs`` (both are (m x 2) row-index pair arrays)."""
    if pairs.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    if winner_pairs.shape[0] == 0:
        return np.zeros(pairs.shape[0], dtype=bool)
    stride = np.intp(int(pairs[:, 1].max()) + 1)
    keys = pairs[:, 0] * stride + pairs[:, 1]
    winner_keys = winner_pairs[:, 0] * stride + winner_pairs[:, 1]
    return np.isin(keys, winner_keys)


class MaintainedResult:
    """A live, subscription-backed KSJQ (or cascade) answer.

    Obtained from :meth:`repro.api.Engine.maintain`; every input must be
    a registered :class:`~repro.relational.dataset.Dataset` so the
    handle has a mutation feed. After any ``insert_rows`` /
    ``delete_rows`` / ``replace`` on an input, :meth:`result` returns
    the answer over the *new* snapshots — maintained incrementally when
    the spec and the delta allow it, recomputed from scratch otherwise.

    The incremental paths apply to two-way joins whose answer family is
    the exact joined-view skyline (``mode="exact"``, or an explicitly
    exact algorithm — ``naive``/``parallel``/``indexed``). Cascade specs
    and faithful-family answers are still maintained correctly, via
    full recompute on every mutation.

    Concurrency contract (checked by the repo linter's R2 rule): the
    handle's own reentrant lock is never taken while an engine, catalog
    or dataset lock is held — the catalog's mutation feed calls
    :meth:`_on_delta` outside every lock (the locked-install /
    unlocked-notify split). The lock is *not* a leaf: while holding
    it, the handle takes dataset locks to snapshot its inputs.
    Internal helpers re-enter it.

    Resilience: a delta application that *fails* midway (an injected
    ``"delta.apply"`` fault, or any unexpected error) can never poison
    the handle — the failure marks the handle **dirty** and the next
    :meth:`result` read recomputes from fresh snapshots instead of
    re-raising forever (see ``docs/resilience.md``).

    Every processed mutation counts into the handle's :attr:`metrics`
    and its engine's, under the same names (see :meth:`stats`).

    # guarded-by: _lock: _plan, _versions, _pairs, _matrix, _winners, _result, _closed, _dirty
    """

    def __init__(
        self,
        engine: "Engine",
        datasets: tuple["Dataset", ...],
        spec: "QuerySpec",
        fallback_ratio: float = DEFAULT_FALLBACK_RATIO,
    ) -> None:
        if spec.problem != "ksjq":
            raise ParameterError(
                "only ksjq answers can be maintained; find_k specs re-run "
                "the whole search and should use engine.prepare()"
            )
        if not datasets:
            raise ParameterError("maintain() needs at least one dataset input")
        if not fallback_ratio > 0:
            raise ParameterError(
                f"fallback_ratio must be > 0, got {fallback_ratio}"
            )
        self._engine = engine
        self._spec = spec
        self._datasets = datasets
        self._fallback_ratio = float(fallback_ratio)
        # The incremental paths maintain the *exact* joined-view skyline,
        # so they only serve specs guaranteed to answer from that family:
        # exact mode (every algorithm verifies), or an explicitly exact
        # algorithm. Faithful grouping/dominator/cartesian — and "auto",
        # which may pick them — can return paper-faithful supersets, and
        # fall back to full recompute on every mutation instead.
        self._delta_capable = spec.join != "cascade" and (
            spec.mode == "exact"
            or spec.algorithm in ("naive", "parallel", "indexed")
        )
        self._lock = threading.RLock()
        self._closed = False
        self._dirty = False
        self.metrics = Metrics()
        self._plan: JoinPlan | CascadePlan | None = None
        self._versions: dict[int, int] = {}
        self._pairs: IntMatrix = np.empty((0, 2), dtype=np.intp)
        self._matrix: FloatMatrix = np.empty((0, 0), dtype=np.float64)
        self._winners: BoolVector = np.zeros(0, dtype=bool)
        self._result: QueryResult | None = None
        # Subscribe before the first snapshot, once every field exists
        # and without holding the handle lock: a mutation installed
        # before the snapshot is part of it, and one installed after it
        # arrives as recorded version + 1.
        engine.catalog.subscribe(self._on_delta)
        self._recompute()

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def spec(self) -> "QuerySpec":
        """The maintained :class:`~repro.api.spec.QuerySpec`."""
        return self._spec

    @property
    def closed(self) -> bool:
        """Has :meth:`close` been called?"""
        with self._lock:
            return self._closed

    def result(self) -> QueryResult:
        """The current answer (always reflects every processed delta).

        A handle dirtied by a failed delta application recomputes here,
        on the read path — one recompute amortized over any number of
        failed deltas, and a raising delta never wedges the handle.
        """
        with self._lock:
            if self._dirty:
                self._recompute()
            assert self._result is not None  # set by __init__
            return self._result

    @property
    def dirty(self) -> bool:
        """Did a failed delta leave the cached answer stale (the next
        read will recompute)?"""
        with self._lock:
            return self._dirty

    @property
    def count(self) -> int:
        """Number of result tuples in the current answer."""
        return self.result().count

    def stats(self) -> dict[str, int]:
        """Per-handle maintenance counters as a plain dict.

        ``applied_deltas`` counts every mutation the handle answered
        (incrementally or by recompute); ``fallback_recomputes`` the
        subset answered by a full recompute; ``delta_rows`` the base
        rows inserted plus deleted across them; ``failed_deltas``
        mutations whose application *failed* — those only dirty the
        handle (the recompute is deferred to the next read) and are
        counted in none of the other three.
        """
        counts = self.metrics.snapshot()
        return {
            "applied_deltas": counts["maintained"] + counts["fallback_recomputes"],
            "fallback_recomputes": counts["fallback_recomputes"],
            "delta_rows": counts["delta_rows"],
            "failed_deltas": counts["failed_deltas"],
        }

    def refresh(self) -> QueryResult:
        """Force a full recompute from the latest snapshots (not counted
        as a fallback — the caller explicitly asked for it)."""
        with self._lock:
            self._recompute()
            assert self._result is not None
            return self._result

    def close(self) -> None:
        """Stop applying mutations; the last answer stays readable. The
        catalog holds the handle weakly, so nothing else is released."""
        with self._lock:
            self._closed = True

    def __enter__(self) -> "MaintainedResult":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        names = " x ".join(repr(ds.name) for ds in self._datasets)
        state = "closed" if self.closed else "live"
        return f"<MaintainedResult {names} k={self._spec.k} [{state}]>"

    # ------------------------------------------------------------------
    # Delta intake
    # ------------------------------------------------------------------
    def _on_delta(self, dataset: "Dataset", delta: "MutationDelta") -> None:
        """Catalog hook: apply one mutation to the cached answer.

        The delta travels dataset -> catalog -> here, each hop notifying
        outside its own lock (the locked-install / unlocked-notify
        split). Runs on the mutating thread with no engine/catalog/
        dataset lock held; mutations of datasets that are not inputs of
        this handle — and every delta that arrives before the first
        recompute recorded the input versions — are ignored via the
        version map.
        """
        fallback = False
        failed = False
        with self._lock:
            if self._closed:
                return
            recorded = self._versions.get(dataset.uid)
            if recorded is None or delta.version <= recorded:
                return  # not our input / already covered by a recompute
            relation, version = dataset.snapshot()
            in_sync = delta.version == recorded + 1 and version == delta.version
            try:
                if (
                    in_sync
                    and self._delta_capable
                    and delta.kind in ("insert", "delete")
                    and self._within_budget(dataset, delta)
                ):
                    if delta.kind == "insert":
                        self._apply_insert(dataset, relation, delta)
                    else:
                        self._apply_delete(dataset, relation, delta)
                else:
                    fallback = True
                    self._recompute()
            except Exception:  # noqa: BLE001 - degradation boundary
                # A failed application must not poison the handle:
                # mark it dirty so the next read recomputes from fresh
                # snapshots. The stale cached answer is never served —
                # result() checks the flag under this same lock. No
                # recompute ran *here* (it is deferred to the dirty
                # read), so the delta counts as failed — not as
                # applied, and not as a fallback recompute.
                self._dirty = True
                failed = True
                fallback = False
        for metrics in (self.metrics, self._engine.metrics):
            if failed:
                metrics.add("failed_deltas")
                continue
            metrics.add("delta_rows", delta.rows_touched)
            metrics.add("fallback_recomputes" if fallback else "maintained")

    def _within_budget(self, dataset: "Dataset", delta: "MutationDelta") -> bool:
        """Cost-model gate: is the delta small enough to maintain?

        Compares :meth:`PlanStats.delta_maintenance_cost` on every side
        the mutated dataset feeds (both, for a self-join) against
        ``fallback_ratio`` times :meth:`PlanStats.recompute_cost`.
        """
        with self._lock:
            assert isinstance(self._plan, JoinPlan)  # _delta_capable => two-way
            stats = self._plan.stats()
            cost = 0.0
            if self._datasets[0].uid == dataset.uid:
                cost += stats.delta_maintenance_cost(delta.rows_touched, "left")
            if self._datasets[1].uid == dataset.uid:
                cost += stats.delta_maintenance_cost(delta.rows_touched, "right")
            return cost <= self._fallback_ratio * stats.recompute_cost()

    # ------------------------------------------------------------------
    # Full recompute (initial answer + correctness fallback)
    # ------------------------------------------------------------------
    def _recompute(self) -> None:
        """Rebuild the answer (and the delta state) from fresh snapshots.

        Runs the spec's own algorithm through the engine dispatcher, so
        the maintained answer is exactly what ``engine.execute`` would
        return for the same spec over the same snapshots.
        """
        with self._lock:
            snapshots = [ds.snapshot() for ds in self._datasets]
            relations = tuple(rel for rel, _ in snapshots)
            self._versions = {
                ds.uid: version
                for ds, (_, version) in zip(self._datasets, snapshots)
            }
            plan = self._build_plan(relations)
            self._plan = plan
            result = self._engine._run(plan, self._spec)
            self._result = result.with_provenance(self._spec, plan)
            self._dirty = False
            if self._delta_capable:
                assert isinstance(plan, JoinPlan)
                assert isinstance(result, KSJQResult)
                view = plan.view()
                self._pairs = np.asarray(view.pairs, dtype=np.intp)
                self._matrix = view.oriented()
                self._winners = _winner_mask(self._pairs, result.pairs)

    def _build_plan(
        self, relations: tuple["Relation", ...]
    ) -> JoinPlan | CascadePlan:
        if self._spec.join == "cascade":
            return CascadePlan(
                relations, hops=self._spec.hops, aggregate=self._spec.aggregate
            )
        return JoinPlan(
            relations[0],
            relations[1],
            kind=self._spec.join,
            aggregate=self._spec.aggregate,
            theta=self._spec.theta or None,
        )

    # ------------------------------------------------------------------
    # Insert path
    # ------------------------------------------------------------------
    def _apply_insert(
        self, dataset: "Dataset", relation: "Relation", delta: "MutationDelta"
    ) -> None:
        """Maintain under an append: generate the delta pairs, merge and
        verify them, evict the winners the newcomers now dominate."""
        with self._lock:
            checkpoint("delta.apply")
            assert isinstance(self._plan, JoinPlan)
            assert self._spec.k is not None
            clock = PhaseClock()
            left_mutated = self._datasets[0].uid == dataset.uid
            right_mutated = self._datasets[1].uid == dataset.uid
            left_new = relation if left_mutated else self._plan.left
            right_new = relation if right_mutated else self._plan.right
            plan_new = self._build_plan((left_new, right_new))
            assert isinstance(plan_new, JoinPlan)
            with clock.phase("join"):
                chunks: list[IntMatrix] = []
                if left_mutated:
                    # New left rows against every current right row (for
                    # a self-join this covers newcomer x newcomer too).
                    chunks.append(
                        plan_new.compatible_pairs(
                            delta.inserted, range(len(right_new))
                        )
                    )
                if right_mutated:
                    # Old left rows against the new right rows; inserts
                    # append, so old rows are exactly [0, old_size).
                    old_left = delta.old_size if left_mutated else len(left_new)
                    chunks.append(
                        plan_new.compatible_pairs(range(old_left), delta.inserted)
                    )
                delta_pairs = (
                    np.concatenate(chunks, axis=0)
                    if chunks
                    else np.empty((0, 2), dtype=np.intp)
                )
                new_vecs = plan_new.oriented_for_pairs(delta_pairs)
            with clock.phase("remaining"):
                checked = self._merge_inserted(delta_pairs, new_vecs, self._spec.k)
            self._plan = plan_new
            self._versions[dataset.uid] = delta.version
            self._freeze_result(plan_new, clock, checked)

    def _merge_inserted(
        self, delta_pairs: IntMatrix, new_vecs: FloatMatrix, k: int
    ) -> int:
        """Merge newcomer pairs into the cached state; returns the number
        of verified candidates.

        Local candidate generation over the newcomer block is sound (a
        scan-1 rejection cites a real tuple), but survival is not —
        every local candidate is re-verified against the *full* merged
        matrix, and winner eviction checks the full newcomer block,
        because k-dominance is non-transitive.
        """
        with self._lock:
            full_matrix = np.concatenate([self._matrix, new_vecs], axis=0)
            full_pairs = np.concatenate([self._pairs, delta_pairs], axis=0)
            checked = 0
            newcomer_winners = np.zeros(new_vecs.shape[0], dtype=bool)
            if new_vecs.shape[0]:
                local_candidates = k_dominant_candidates_block(new_vecs, k)
                candidate_vecs = new_vecs[local_candidates]
                dominated = k_dominated_any(
                    sort_rows_for_early_exit(full_matrix), candidate_vecs, k
                )
                newcomer_winners[local_candidates[~dominated]] = True
                checked += int(candidate_vecs.shape[0])
            old_winner_rows = np.flatnonzero(self._winners)
            evicted = np.zeros(old_winner_rows.shape[0], dtype=bool)
            if old_winner_rows.size and new_vecs.shape[0]:
                evicted = k_dominated_any(
                    new_vecs, self._matrix[old_winner_rows], k
                )
                checked += int(old_winner_rows.size)
            winners = np.concatenate([self._winners, newcomer_winners])
            winners[old_winner_rows[evicted]] = False
            self._pairs = full_pairs
            self._matrix = full_matrix
            self._winners = winners
            return checked

    # ------------------------------------------------------------------
    # Delete path
    # ------------------------------------------------------------------
    def _apply_delete(
        self, dataset: "Dataset", relation: "Relation", delta: "MutationDelta"
    ) -> None:
        """Maintain under a delete: drop the removed pairs, compact the
        row indices, re-promote previously-dominated candidates."""
        with self._lock:
            checkpoint("delta.apply")
            assert isinstance(self._plan, JoinPlan)
            assert self._spec.k is not None
            clock = PhaseClock()
            left_mutated = self._datasets[0].uid == dataset.uid
            right_mutated = self._datasets[1].uid == dataset.uid
            deleted = np.asarray(delta.deleted, dtype=np.intp)  # sorted
            with clock.phase("join"):
                removed = np.zeros(self._pairs.shape[0], dtype=bool)
                if left_mutated:
                    removed |= np.isin(self._pairs[:, 0], deleted)
                if right_mutated:
                    removed |= np.isin(self._pairs[:, 1], deleted)
                removed_vecs = self._matrix[removed]
                surviving = ~removed
                surviving_pairs = self._pairs[surviving].copy()
                surviving_matrix = self._matrix[surviving]
                surviving_winners = self._winners[surviving].copy()
                # delete_rows compacts the snapshot, so an old row index
                # i becomes i - #{deleted rows below i}.
                if left_mutated and surviving_pairs.shape[0]:
                    surviving_pairs[:, 0] -= np.searchsorted(
                        deleted, surviving_pairs[:, 0], side="left"
                    )
                if right_mutated and surviving_pairs.shape[0]:
                    surviving_pairs[:, 1] -= np.searchsorted(
                        deleted, surviving_pairs[:, 1], side="left"
                    )
            with clock.phase("remaining"):
                checked = self._repromote(
                    surviving_pairs,
                    surviving_matrix,
                    surviving_winners,
                    removed_vecs,
                    self._spec.k,
                )
            left_new = relation if left_mutated else self._plan.left
            right_new = relation if right_mutated else self._plan.right
            plan_new = self._build_plan((left_new, right_new))
            assert isinstance(plan_new, JoinPlan)
            self._plan = plan_new
            self._versions[dataset.uid] = delta.version
            self._freeze_result(plan_new, clock, checked)

    def _repromote(
        self,
        surviving_pairs: IntMatrix,
        surviving_matrix: FloatMatrix,
        surviving_winners: BoolVector,
        removed_vecs: FloatMatrix,
        k: int,
    ) -> int:
        """Re-promotion pass of the delete path; returns verified count.

        Surviving winners stay winners (a delete never adds dominators).
        A surviving non-winner is a promotion candidate iff some
        *removed* vector k-dominated it — its other dominators may also
        be gone, so each candidate is re-verified against the full
        surviving matrix (a dominator need not be a winner; verifying
        against surviving winners only would be the non-transitivity
        bug the 3-cycle tests pin down).
        """
        with self._lock:
            checked = 0
            candidate_rows = np.flatnonzero(~surviving_winners)
            if removed_vecs.shape[0] == 0:
                candidate_rows = candidate_rows[:0]
            elif candidate_rows.size:
                touched = k_dominated_any(
                    removed_vecs, surviving_matrix[candidate_rows], k
                )
                candidate_rows = candidate_rows[touched]
            if candidate_rows.size:
                dominated = k_dominated_any(
                    sort_rows_for_early_exit(surviving_matrix),
                    surviving_matrix[candidate_rows],
                    k,
                )
                surviving_winners[candidate_rows[~dominated]] = True
                checked = int(candidate_rows.size)
            self._pairs = surviving_pairs
            self._matrix = surviving_matrix
            self._winners = surviving_winners
            return checked

    # ------------------------------------------------------------------
    def _freeze_result(
        self, plan: JoinPlan, clock: PhaseClock, checked: int
    ) -> None:
        """Package the cached delta state as the current KSJQResult."""
        with self._lock:
            assert self._spec.k is not None
            result = KSJQResult(
                algorithm="maintained",
                mode="exact",
                params=plan.params(self._spec.k),
                pairs=self._pairs[self._winners],
                timings=clock.freeze(),
                checked=checked,
            )
            self._result = result.with_provenance(self._spec, plan)
