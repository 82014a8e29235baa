"""Join plans: one object describing how two base relations combine.

A :class:`JoinPlan` captures the join kind (equality / cartesian /
theta) as one hop (:attr:`JoinPlan.hop`), the optional aggregate
function, and memoizes what does not depend on ``k``: the hop kernel
that enumerates and counts compatible pairs between arbitrary row
subsets, the joined view and the cardinality statistics. The SS/SN/NN
categorizations depend on ``k`` and are recomputed on every call, from
the hop kernel's substitution keys. Algorithms 1-3 all consume a plan,
so naïve, grouping and dominator-based runs are guaranteed to answer
the same query.

A :class:`CascadePlan` is the m-way counterpart: its chains extend
through the same kernel one hop at a time (paper Sec. 2.3), and both
plan kinds build joined vectors with one builder,
:func:`~repro.relational.join.joined_matrix`.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, TypedDict

import numpy as np

from ..errors import AggregateError, JoinError, ParameterError
from ..relational.aggregates import AggregateFunction, get_aggregate
from ..relational.join import HopJoin, HopSpec, JoinedView, ThetaCondition, joined_matrix
from ..relational.relation import Relation
from .categorize import Categorization, categorize
from .params import CascadeParams, KSJQParams

if TYPE_CHECKING:
    from .._typing import (
        AggregateLike,
        FloatMatrix,
        HopsLike,
        IntMatrix,
        IntVector,
        ThetaLike,
    )
    from .index import CellPartition, DominanceIndex

__all__ = [
    "JoinPlan",
    "PlanStats",
    "PlanStatsDict",
    "CascadePlan",
    "CascadeStats",
    "CascadeStatsDict",
]


class PlanStatsDict(TypedDict):
    """Serialized :class:`PlanStats` (``kind`` is a string, counts are ints)."""

    kind: str
    n_left: int
    n_right: int
    left_group_count: int
    right_group_count: int
    shared_group_count: int
    join_size: int
    categorization_cost: int
    joined_width: int


class CascadeStatsDict(TypedDict):
    """Serialized :class:`CascadeStats`."""

    kind: str
    base_sizes: list[int]
    n_relations: int
    join_size: int
    categorization_cost: int
    joined_width: int


@dataclass(frozen=True)
class PlanStats:
    """Cardinality statistics of a prepared join, for cost-based choices.

    All counts are exact (equality groups are the classes of equal
    substitution keys), not sampled; nothing here materializes the
    joined view. ``categorization_cost`` is an abstract cost in units
    of pairwise dominance comparisons: the SS/SN/NN categorization
    compares every tuple against its group, so it scales with the sum
    of squared group sizes on both sides.
    ``joined_width`` is the number of joined skyline attributes
    ``l1 + l2 + a`` — together with ``join_size`` it sizes the joined
    matrix.
    """

    kind: str
    n_left: int
    n_right: int
    left_group_count: int
    right_group_count: int
    shared_group_count: int
    join_size: int
    categorization_cost: int
    joined_width: int = 0

    @property
    def mean_cell_size(self) -> float:
        """Average joined-cell cardinality |L_g| * |R_g| over shared groups."""
        if self.shared_group_count == 0:
            return 0.0
        return self.join_size / self.shared_group_count

    # ------------------------------------------------------------------
    # Delta-maintenance cost model (repro.core.incremental)
    # ------------------------------------------------------------------
    def delta_pairs_estimate(self, delta_rows: int, side: str) -> float:
        """Expected joined pairs touched by a ``delta_rows``-row mutation.

        A mutated base row participates in ``join_size / n_side`` joined
        pairs on average (exact for cartesian joins; the uniform-key
        expectation for equality/theta joins), so a batch of
        ``delta_rows`` rows on one side touches about
        ``delta_rows * join_size / n_side`` pairs.
        """
        if side not in ("left", "right"):
            raise ParameterError(f"side must be 'left' or 'right', got {side!r}")
        n_side = self.n_left if side == "left" else self.n_right
        if n_side <= 0:
            return float(delta_rows)
        return float(delta_rows) * float(self.join_size) / float(n_side)

    def delta_maintenance_cost(self, delta_rows: int, side: str) -> float:
        """Estimated dominance comparisons to maintain an answer under a delta.

        Both delta paths are ``O(Δ_pairs · J)``: inserts verify the
        newcomer pairs against the full joined matrix and re-check the
        cached winners against the newcomers; deletes filter the
        surviving non-winners through the removed vectors and re-verify
        the touched candidates against the full surviving matrix.
        """
        return self.delta_pairs_estimate(delta_rows, side) * float(self.join_size)

    def recompute_cost(self) -> float:
        """Estimated comparisons of a from-scratch recompute (``J^2``),
        the quantity a delta's :meth:`delta_maintenance_cost` competes
        against in :class:`repro.core.incremental.MaintainedResult`."""
        return float(self.join_size) * float(self.join_size)

    def as_dict(self) -> PlanStatsDict:
        return {
            "kind": self.kind,
            "n_left": self.n_left,
            "n_right": self.n_right,
            "left_group_count": self.left_group_count,
            "right_group_count": self.right_group_count,
            "shared_group_count": self.shared_group_count,
            "join_size": self.join_size,
            "categorization_cost": self.categorization_cost,
            "joined_width": self.joined_width,
        }


class _IndexedPlan:
    """Plan-local dominance-index memos, shared by both plan kinds.

    A plan kind names its two index sides in :attr:`INDEX_SIDES`, the
    base relation behind each (:meth:`_side_relations`), and its joined
    rows plus oriented matrix (:meth:`joined`) — the input of the exact
    pipeline in :mod:`repro.core.parallel`.

    Memoization contract (checked by the repo linter's R2 rule):
    derived structures — here and in the subclasses — are built under
    double-checked locking, so the lock-free fast-path *reads* are
    legal but every write must hold ``_memo_lock``.

    # guarded-by-writes: _memo_lock: _side_indexes, _cell_partitions
    """

    INDEX_SIDES: tuple[str, str]

    def __init__(self) -> None:
        self._side_indexes: dict[str, DominanceIndex] = {}
        self._cell_partitions: dict[tuple[object, object], CellPartition] = {}
        # Cached plans are shared by every concurrent Engine.execute
        # caller, so lazy builds are guarded (double-checked) by a
        # reentrant lock: derived structures are built exactly once.
        self._memo_lock = threading.RLock()

    def joined(self) -> tuple[IntMatrix, FloatMatrix]:
        """Joined rows (pairs or chains, one row each) and their
        oriented matrix."""
        raise NotImplementedError

    def _side_relations(self) -> tuple[Relation, Relation]:
        raise NotImplementedError

    def side_relation(self, side: str) -> Relation:
        """The base relation snapshot behind one index side."""
        if side not in self.INDEX_SIDES:
            first, last = self.INDEX_SIDES
            raise ParameterError(f"side must be {first!r} or {last!r}, got {side!r}")
        return self._side_relations()[self.INDEX_SIDES.index(side)]

    def side_index(self, side: str) -> tuple[DominanceIndex, bool]:
        """A dominance index for one side, plan-locally memoized.

        The fallback when a side is not a registered dataset (anonymous
        relations, ``plan=`` overrides): the Catalog cannot persist an
        index for it, so the plan carries its own. Returns ``(index,
        built_now)`` so the engine can count builds vs. hits.
        """
        relation = self.side_relation(side)
        index = self._side_indexes.get(side)
        if index is not None:
            return index, False
        with self._memo_lock:
            index = self._side_indexes.get(side)
            if index is not None:
                return index, False
            from .index import DominanceIndex

            index = DominanceIndex.build(relation)
            self._side_indexes[side] = index
            return index, True

    def peek_side_index(self, side: str) -> DominanceIndex | None:
        """The plan-local index for ``side`` if already built (no build)."""
        return self._side_indexes.get(side)

    def drop_side_indexes(self) -> None:
        """Forget the plan-local side indexes and the partitions derived
        from them (resilience quarantine: after a failed indexed run the
        next indexed query rebuilds from scratch)."""
        with self._memo_lock:
            self._side_indexes = {}
            self._cell_partitions = {}

    def cell_partition(
        self, first_index: DominanceIndex, last_index: DominanceIndex
    ) -> CellPartition:
        """The joined-cell partition for one pair of side indexes.

        Memoized by the indexes' snapshot tokens, so repeated indexed
        queries through a cached plan skip the partition pass (and,
        via the partition's own per-``k`` memos, the pruning and
        candidate-generation passes too).
        """
        key = (first_index.token, last_index.token)
        partition = self._cell_partitions.get(key)
        if partition is None:
            with self._memo_lock:
                partition = self._cell_partitions.get(key)
                if partition is None:
                    from .index import CellPartition, joined_cell_ids

                    rows, matrix = self.joined()
                    partition = CellPartition(
                        matrix,
                        joined_cell_ids(first_index, last_index, rows[:, 0], rows[:, -1]),
                    )
                    self._cell_partitions[key] = partition
        return partition


class JoinPlan(_IndexedPlan):
    """A prepared (but unexecuted) join of two base relations.

    Parameters
    ----------
    left, right:
        Base relations.
    kind:
        ``"equality"`` (default; uses the schemas' join attributes),
        ``"cartesian"`` (Sec. 6.5) or ``"theta"`` (Sec. 6.6).
    aggregate:
        Aggregate function or registry name; required iff the schemas
        mark aggregate attributes.
    theta:
        The :class:`ThetaCondition` (or conjunction sequence) for
        ``kind="theta"``.

    Memoization contract: see :class:`_IndexedPlan`.

    # guarded-by-writes: _memo_lock: _join, _view, _stats
    """

    INDEX_SIDES = ("left", "right")

    def __init__(
        self,
        left: Relation,
        right: Relation,
        kind: str = "equality",
        aggregate: AggregateLike | None = None,
        theta: ThetaLike | None = None,
    ) -> None:
        if kind not in ("equality", "cartesian", "theta"):
            raise JoinError(f"unknown join kind {kind!r}")
        if kind == "theta" and theta is None:
            raise JoinError("kind='theta' requires a ThetaCondition")
        if kind != "theta" and theta is not None:
            raise JoinError(f"theta condition given but kind={kind!r}")
        self.left = left
        self.right = right
        self.kind = kind
        #: The join as one hop: the input of the hop kernel.
        self.hop = HopSpec.cross() if kind == "cartesian" else HopSpec()
        self.theta_conditions: tuple[ThetaCondition, ...] = ()
        self.theta: ThetaCondition | None = None
        if theta is not None:
            self.hop = HopSpec.on_theta(theta)
            self.theta_conditions = self.hop.theta
            self.theta = self.theta_conditions[0]
        left.schema.validate_compatible_aggregates(right.schema)
        if left.schema.a and aggregate is None:
            raise JoinError("schemas declare aggregate attributes; pass aggregate=...")
        self.aggregate: AggregateFunction | None = (
            get_aggregate(aggregate) if aggregate is not None else None
        )

        self._join: HopJoin | None = None
        self._view: JoinedView | None = None
        self._stats: PlanStats | None = None
        super().__init__()

    # ------------------------------------------------------------------
    def params(self, k: int) -> KSJQParams:
        """Validated KSJQ parameters for this plan at a given ``k``."""
        return KSJQParams.from_schemas(self.left.schema, self.right.schema, k)

    def require_strict_aggregate(self, algorithm: str) -> None:
        """Optimized algorithms need strict monotonicity (see DESIGN.md)."""
        if self.aggregate is not None and not self.aggregate.strictly_monotone:
            raise AggregateError(
                f"{algorithm}: aggregate {self.aggregate.name!r} is not strictly "
                "monotone; its NN-pruning proof does not apply. Use the naive "
                "algorithm or a strictly monotone aggregate such as 'sum'."
            )

    # ------------------------------------------------------------------
    # Memoized derived structures
    # ------------------------------------------------------------------
    def hop_join(self) -> HopJoin:
        """The hop kernel over both sides: join values computed once."""
        if self._join is None:
            with self._memo_lock:
                if self._join is None:
                    self._join = HopJoin(self.hop, self.left, self.right)
        return self._join

    def view(self) -> JoinedView:
        """The joined view: every pair of the plan's hop, left-major
        (pair enumeration happens on first call)."""
        if self._view is None:
            with self._memo_lock:
                if self._view is None:
                    self._view = JoinedView(
                        self.left, self.right, self.hop_join().pairs(), aggregate=self.aggregate
                    )
        return self._view

    def oriented_for_pairs(self, pairs: IntMatrix) -> FloatMatrix:
        """Oriented joined vectors of any (m x 2) pair array, without a
        joined view: the builder the categorizing algorithms share."""
        return joined_matrix((self.left, self.right), pairs, self.aggregate)

    def stats(self) -> PlanStats:
        """Exact cardinality statistics without materializing the view.

        The join size is counted by the hop kernel from its partner
        runs, enumerating no pair (except under a theta conjunction).
        Group counts and the categorization cost are per join kind,
        because they describe categorization, not the join.
        """
        if self._stats is None:
            with self._memo_lock:
                if self._stats is not None:
                    return self._stats
                n1, n2 = len(self.left), len(self.right)
                # Cartesian categorization compares each tuple with its
                # whole relation, and theta categorization probes each
                # tuple's partner target set; the quadratic bound is the
                # honest proxy for both.
                cat_cost = n1 * n1 + n2 * n2
                if self.kind == "equality":
                    # Both sides' key codes come from one dict, so a
                    # group shared by the sides is one key class of both.
                    left_key, right_key = self.hop_join().substitution_keys()
                    left_classes, left_sizes = np.unique(left_key, axis=0, return_counts=True)
                    right_classes, right_sizes = np.unique(
                        right_key, axis=0, return_counts=True
                    )
                    cat_cost = int((left_sizes**2).sum() + (right_sizes**2).sum())
                    left_g, right_g = len(left_sizes), len(right_sizes)
                    union = np.unique(np.concatenate([left_classes, right_classes]), axis=0)
                    shared_g = left_g + right_g - len(union)
                elif self.kind == "cartesian":
                    left_g = right_g = shared_g = 1 if (n1 and n2) else 0
                else:
                    left_g, right_g, shared_g = n1, n2, min(n1, n2)
                self._stats = PlanStats(
                    kind=self.kind,
                    n_left=n1,
                    n_right=n2,
                    left_group_count=left_g,
                    right_group_count=right_g,
                    shared_group_count=shared_g,
                    join_size=self.compatible_pair_count(range(n1), range(n2)),
                    categorization_cost=int(cat_cost),
                    joined_width=(
                        self.left.schema.l
                        + self.right.schema.l
                        + self.left.schema.a
                    ),
                )
        return self._stats

    def joined(self) -> tuple[IntMatrix, FloatMatrix]:
        """The joined pairs and their oriented matrix."""
        view = self.view()
        return view.pairs, view.oriented()

    def _side_relations(self) -> tuple[Relation, Relation]:
        return self.left, self.right

    # ------------------------------------------------------------------
    # Categorization (SS/SN/NN)
    # ------------------------------------------------------------------
    def categorize_left(self, k_prime: int) -> Categorization:
        """Categorize R1 under its threshold, its stand-ins read off the
        hop kernel's left substitution key."""
        return categorize(self.left, k_prime, self.hop_join().substitution_keys()[0])

    def categorize_right(self, k_prime: int) -> Categorization:
        """Categorize R2 under its threshold, its stand-ins read off the
        hop kernel's right substitution key."""
        return categorize(self.right, k_prime, self.hop_join().substitution_keys()[1])

    # ------------------------------------------------------------------
    # Pair enumeration between row subsets
    # ------------------------------------------------------------------
    def compatible_pairs(
        self, left_rows: Sequence[int], right_rows: Sequence[int]
    ) -> IntMatrix:
        """Join-compatible pairs between two row subsets (m x 2): left-major
        in the given left order, each left row's partners in the given
        right order."""
        left_rows = np.asarray(left_rows, dtype=np.intp).reshape(-1)
        pairs = self.hop_join().pairs(left_rows, right_rows)
        pairs[:, 0] = left_rows[pairs[:, 0]]
        return pairs

    def compatible_pair_count(
        self, left_rows: Sequence[int], right_rows: Sequence[int]
    ) -> int:
        """Number of join-compatible pairs, without enumerating them.

        Used by the find-k bound computation (Algos 5-6), where only the
        cell cardinalities matter: the hop kernel counts each left row's
        partner run (a theta conjunction enumerates its pairs).
        """
        return int(self.hop_join().weight_sums(left_rows, right_rows).sum())

    def __repr__(self) -> str:
        agg = self.aggregate.name if self.aggregate else None
        return (
            f"<JoinPlan {self.kind} {self.left.name!r} x {self.right.name!r}, "
            f"aggregate={agg}, theta={self.theta}>"
        )


# ----------------------------------------------------------------------
# m-way cascade plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CascadeStats:
    """Cardinality statistics of a prepared cascade, for cost-based choices.

    ``join_size`` is the exact number of join-compatible chains,
    computed by a backward dynamic program over the hop kernels'
    partner-weight sums — nothing here materializes the chain set (a
    theta conjunction hop enumerates its pairs). ``categorization_cost``
    is the abstract cost of the pruned algorithm's per-relation
    Theorem-4 grouping pass: the sum of squared sizes of each
    relation's classes of equal substitution keys, across every
    relation.
    """

    kind: str
    base_sizes: tuple[int, ...]
    join_size: int
    categorization_cost: int
    joined_width: int = 0

    @property
    def n_relations(self) -> int:
        """Number of relations in the chain."""
        return len(self.base_sizes)

    def as_dict(self) -> CascadeStatsDict:
        return {
            "kind": self.kind,
            "base_sizes": list(self.base_sizes),
            "n_relations": self.n_relations,
            "join_size": self.join_size,
            "categorization_cost": self.categorization_cost,
            "joined_width": self.joined_width,
        }


class CascadePlan(_IndexedPlan):
    """A prepared (but unexecuted) cascade of m base relations.

    The m-way counterpart of :class:`JoinPlan`: validates the join
    graph eagerly (hop count, hop column existence, aggregate
    compatibility — all *before* any chain is enumerated) and memoizes
    the derived structures the cascade algorithms share: the chain set,
    the oriented joined matrix, the per-k Theorem-4 pruning, and exact
    chain-count statistics.

    Parameters
    ----------
    relations:
        Ordered chain of base relations (at least two).
    hops:
        ``m - 1`` hop conditions; anything
        :func:`repro.core.cascade.normalize_hops` accepts. ``None``
        selects composite-key equality for every hop.
    aggregate:
        Aggregate function or registry name; required iff the schemas
        mark aggregate attributes.

    Memoization contract: see :class:`_IndexedPlan`.

    # guarded-by-writes: _memo_lock: _joins, _chains, _oriented, _sorted, _pruned, _pruned_candidates, _keys, _stats
    """

    kind = "cascade"
    #: Chains are bucketed by their end-point relations: enumerated
    #: first-relation-major, with the last relation as the other axis.
    INDEX_SIDES = ("first", "last")

    def __init__(
        self,
        relations: Sequence[Relation],
        hops: HopsLike = None,
        aggregate: AggregateLike | None = None,
    ) -> None:
        from .cascade import normalize_hops, validate_hops

        relations = tuple(relations)
        if len(relations) < 2:
            raise JoinError("a cascade needs at least two relations")
        first = relations[0].schema
        for rel in relations[1:]:
            first.validate_compatible_aggregates(rel.schema)
        self.relations = relations
        self.hops = normalize_hops(len(relations), hops)
        validate_hops(relations, self.hops)
        if first.a and aggregate is None:
            raise JoinError("schemas declare aggregate attributes; pass aggregate=...")
        self.aggregate: AggregateFunction | None = (
            get_aggregate(aggregate) if aggregate is not None else None
        )

        self._joins: list[HopJoin] | None = None
        self._chains: IntMatrix | None = None
        self._oriented: FloatMatrix | None = None
        self._sorted: FloatMatrix | None = None
        self._pruned: dict[int, tuple[list[IntVector], int]] = {}
        self._pruned_candidates: dict[int, tuple[IntMatrix, FloatMatrix]] = {}
        self._keys: list[FloatMatrix] | None = None
        self._stats: CascadeStats | None = None
        super().__init__()

    # ------------------------------------------------------------------
    def params(self, k: int) -> CascadeParams:
        """Validated m-way parameters for this plan at a given ``k``."""
        return CascadeParams.from_schemas([r.schema for r in self.relations], k)

    def require_strict_aggregate(self, algorithm: str) -> None:
        """The pruned cascade's Theorem-4 proof needs strict monotonicity."""
        if self.aggregate is not None and not self.aggregate.strictly_monotone:
            raise ParameterError(
                f"{algorithm} cascade requires a strictly monotone aggregate; "
                "use naive"
            )

    # ------------------------------------------------------------------
    # Memoized derived structures
    # ------------------------------------------------------------------
    def hop_joins(self) -> list[HopJoin]:
        """One hop kernel per hop, each side's join values computed once."""
        if self._joins is None:
            with self._memo_lock:
                if self._joins is None:
                    self._joins = [
                        HopJoin(hop, left, right)
                        for hop, left, right in zip(
                            self.hops, self.relations, self.relations[1:]
                        )
                    ]
        return self._joins

    def chains(self) -> IntMatrix:
        """The full (s x m) chain set (enumerated on first call)."""
        if self._chains is None:
            with self._memo_lock:
                if self._chains is None:
                    from .cascade import join_chains

                    self._chains = join_chains(
                        self.hop_joins(), [np.arange(len(rel)) for rel in self.relations]
                    )
        return self._chains

    def oriented(self) -> FloatMatrix:
        """Oriented joined matrix of every chain, cached."""
        if self._oriented is None:
            with self._memo_lock:
                if self._oriented is None:
                    self._oriented = joined_matrix(
                        self.relations, self.chains(), self.aggregate
                    )
        return self._oriented

    def joined(self) -> tuple[IntMatrix, FloatMatrix]:
        """The chain set and its oriented matrix."""
        return self.chains(), self.oriented()

    def _side_relations(self) -> tuple[Relation, Relation]:
        return self.relations[0], self.relations[-1]

    def sorted_oriented(self) -> FloatMatrix:
        """The oriented matrix pre-sorted for early-exit dominance checks."""
        if self._sorted is None:
            with self._memo_lock:
                if self._sorted is None:
                    from .verify import sort_rows_for_early_exit

                    self._sorted = sort_rows_for_early_exit(self.oriented())
        return self._sorted

    def substitution_keys(self) -> list[FloatMatrix]:
        """Per-relation substitution keys (k-independent), cached.

        A relation's key puts its incoming hop's right-side key beside
        its outgoing hop's left-side key, so a row's stand-ins can take
        its place in every chain (the Theorem-4 substitution set).
        """
        if self._keys is None:
            with self._memo_lock:
                if self._keys is None:
                    sides = [join.substitution_keys() for join in self.hop_joins()]
                    first, last = self.relations[0], self.relations[-1]
                    incoming = [np.empty((len(first), 0))] + [right for _, right in sides]
                    outgoing = [left for left, _ in sides] + [np.empty((len(last), 0))]
                    self._keys = [np.hstack(pair) for pair in zip(incoming, outgoing)]
        return self._keys

    def pruned_keep(self, k: int) -> tuple[list[IntVector], int]:
        """Per-relation survivor rows of the Theorem-4 pruning at ``k``.

        Returns ``(keep, pruned_rows)`` where ``keep`` lists surviving
        row indexes per relation; memoized per ``k`` so repeated
        queries (or a stream after a run) prune once.
        """
        if k not in self._pruned:
            with self._memo_lock:
                if k not in self._pruned:
                    from .cascade import prune_rows

                    keep = prune_rows(self.relations, self.substitution_keys(), k)
                    pruned = sum(
                        len(rel) - len(rows) for rel, rows in zip(self.relations, keep)
                    )
                    self._pruned[k] = (keep, pruned)
        return self._pruned[k]

    def pruned_candidates(self, k: int) -> tuple[IntMatrix, FloatMatrix]:
        """Surviving candidate chains at ``k`` and their oriented matrix.

        Returns ``(candidates, matrix)``; memoized per ``k`` so a
        repeated pruned query through a cached plan is verification-only.
        """
        if k not in self._pruned_candidates:
            with self._memo_lock:
                if k not in self._pruned_candidates:
                    from .cascade import join_chains

                    keep, _ = self.pruned_keep(k)
                    candidates = join_chains(self.hop_joins(), keep)
                    matrix = joined_matrix(self.relations, candidates, self.aggregate)
                    self._pruned_candidates[k] = (candidates, matrix)
        return self._pruned_candidates[k]

    def stats(self) -> CascadeStats:
        """Exact chain-count statistics without materializing the chains."""
        if self._stats is None:
            with self._memo_lock:
                if self._stats is not None:
                    return self._stats
                self._stats = self._compute_stats()
        return self._stats

    def _compute_stats(self) -> CascadeStats:
        relations = self.relations
        # Backward dynamic program: a row's weight is the number of
        # chains it starts over the remaining hops.
        weights = np.ones(len(relations[-1]), dtype=np.float64)
        for join in reversed(self.hop_joins()):
            weights = join.weight_sums(weights=weights)
        join_size = int(round(float(weights.sum())))

        # Theorem-4 grouping cost: squared sizes of the classes of
        # equal keys, over exactly the (cached) keys the pruning uses.
        cat_cost = sum(
            int((np.unique(key, axis=0, return_counts=True)[1] ** 2).sum())
            for key in self.substitution_keys()
        )
        return CascadeStats(
            kind=self.kind,
            base_sizes=tuple(len(rel) for rel in relations),
            join_size=join_size,
            categorization_cost=int(cat_cost),
            joined_width=(
                sum(rel.schema.l for rel in relations) + relations[0].schema.a
            ),
        )

    def __repr__(self) -> str:
        agg = self.aggregate.name if self.aggregate else None
        names = " x ".join(repr(rel.name) for rel in self.relations)
        hops = "; ".join(h.describe() for h in self.hops)
        return f"<CascadePlan {names}, hops=[{hops}], aggregate={agg}>"
