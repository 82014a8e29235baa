"""Per-dataset dominance indexes and the cell-pruned "indexed" runner.

A :class:`DominanceIndex` is a reusable, per-relation access structure
(ROADMAP: "per-dataset, per-version dominance indexes"): sorted
per-column projections plus a grid partition of the rows — up to two
highest-variance preference columns, quantile bin edges, and per-cell
componentwise min/max bound vectors. The Catalog caches one per
registered dataset, keyed by the dataset's uid-carrying version token,
and maintains it through the ``MutationDelta`` feed (appends re-use the
grid; everything else invalidates, see ``api/catalog.py``).

The query-time consumer is :func:`run_indexed` (and its cascade twin):
joined rows are bucketed into **joined cells** (the product of the two
base-side grids), whole cells are pruned by a sound witness argument,
and the surviving cells — not contiguous row slices — are what the
shard plan hands to workers.

Soundness of cell pruning (vs. paper Theorem 4)
-----------------------------------------------
k-dominance is non-transitive (Sec. 2.2), so the naive bound argument
"cell A's upper bound is k-dominated by cell B's lower bound, therefore
drop A" is **unsound**: B's lower bound is a virtual corner point, not
a real tuple, and even a real dominator of the corner does not chain to
A's tuples through the corner (that chaining *is* transitivity).

The rule implemented here never assumes transitivity. Let ``lb_C`` be
the componentwise minimum over the *actual joined tuples* of cell
``C``. Prune ``C`` iff some actual joined tuple ``w`` (from anywhere in
the view) satisfies ``#{j : w_j <= lb_C[j]} >= k`` and
``exists j : w_j < lb_C[j]`` — i.e. ``w`` k-dominates the corner with
the strict attribute *against the corner itself*. Then for every tuple
``t`` in ``C``: ``w_j <= lb_C[j] <= t_j`` on those ``>= k`` coordinates
and ``w_j < lb_C[j] <= t_j`` strictly on one, so ``w ≻_k t`` holds
**directly**, with ``w`` a real tuple — one hop, no chaining. Every
pruned tuple is therefore provably non-winning even though k-dominance
cycles (a tuple of ``C`` can never be its own witness: it sits at or
above ``lb_C`` in every column, so the strict condition fails). This is
the same "only one real dominator hop" discipline that Theorem 4's
answer-family argument demands of the grouping algorithm's pruning.

Note the asymmetry with the verification contract: pruning removes
tuples from the *candidate* side only. Surviving candidates are still
verified against the **full** joined matrix — pruned tuples are
non-winning, but they remain perfectly capable of k-dominating others.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import TYPE_CHECKING, Optional, cast

import numpy as np

from ..relational.relation import Relation
from ..resilience import checkpoint
from ..serving.deadline import active_deadline
from ..skyline.dominance import cells_k_dominated
from .parallel import _exact_pipeline
from .verify import DEADLINE_VERIFY_CHUNK, sort_rows_for_early_exit

if TYPE_CHECKING:
    from .._typing import BoolVector, FloatMatrix, FloatVector, IntVector
    from .parallel import ShardPlan
    from .plan import CascadePlan, JoinPlan
    from .result import CascadeResult, KSJQResult

__all__ = [
    "DominanceIndex",
    "CellPartition",
    "joined_cell_ids",
    "lpt_buckets",
    "run_indexed",
    "run_cascade_indexed",
]

#: Tokens for indexes built outside the Catalog (plan-local fallbacks).
_ANON_TOKENS = itertools.count(1)


def _choose_grid_columns(matrix: FloatMatrix) -> tuple[int, ...]:
    """Up to two highest-variance preference columns (ties by index).

    Constant columns carry no partitioning power and are skipped; a
    relation whose every column is constant gets a single-cell grid.
    """
    if matrix.shape[0] == 0 or matrix.shape[1] == 0:
        return ()
    variances = matrix.var(axis=0)
    order = np.argsort(-variances, kind="stable")
    return tuple(int(c) for c in order[:2] if variances[c] > 0.0)


def _quantile_edges(values: FloatVector, bins: int) -> FloatVector:
    """Interior quantile cut points giving ~equi-populated bins.

    Duplicated quantiles (heavy ties) are collapsed, so the digitizer
    below never produces empty *interior* structure from skew alone.
    """
    if bins <= 1 or values.size == 0:
        return np.empty(0, dtype=np.float64)
    quantiles = np.linspace(0.0, 1.0, bins + 1)[1:-1]
    return np.unique(np.quantile(values, quantiles))


def _digitize(
    matrix: FloatMatrix,
    grid_columns: tuple[int, ...],
    bin_edges: tuple[FloatVector, ...],
) -> IntVector:
    """Raw grid code per row (mixed-radix over the per-column bins)."""
    codes = np.zeros(matrix.shape[0], dtype=np.intp)
    for column, edges in zip(grid_columns, bin_edges):
        digits = np.searchsorted(edges, matrix[:, column], side="right")
        codes = codes * (edges.size + 1) + digits
    return codes


def lpt_buckets(sizes: IntVector, n_buckets: int) -> list[list[int]]:
    """Longest-processing-time assignment of weighted items to buckets.

    Greedy LPT: items (cells) descending by size, each into the least
    loaded bucket. Deterministic (stable sort, index tie-break) so
    repeated runs shard identically. Returns only non-empty buckets.
    """
    n_buckets = max(1, min(int(n_buckets), int(sizes.size))) if sizes.size else 1
    buckets: list[list[int]] = [[] for _ in range(n_buckets)]
    heap: list[tuple[int, int]] = [(0, b) for b in range(n_buckets)]
    for item in np.argsort(-sizes, kind="stable"):
        load, bucket = heapq.heappop(heap)
        buckets[bucket].append(int(item))
        heapq.heappush(heap, (load + int(sizes[item]), bucket))
    return [bucket for bucket in buckets if bucket]


class DominanceIndex:
    """Grid + sorted-projection index over one relation's oriented matrix.

    Immutable once built (all arrays are derived at construction and
    never written afterwards), so it is shared freely across threads,
    plans and cached partitions without locking.

    Attributes
    ----------
    token:
        Identity of the indexed snapshot. Catalog-built indexes carry
        the dataset's uid+version token, so two indexes with equal
        tokens index byte-identical data; anonymous builds get a
        process-unique token.
    grid_columns / bin_edges:
        The partitioning columns (up to two, highest variance) and
        their interior quantile cut points.
    cell_of:
        Dense cell id per row, in ``[0, n_cells)``.
    cell_lb / cell_ub:
        Per-cell componentwise min/max over the *actual rows* of the
        cell — over **all** preference columns, not just the grid
        columns (the pruning witness rule needs true lower bounds).
    column_sorted:
        Each preference column independently sorted; serves the
        selectivity estimate (:attr:`mean_cell_span`) that feeds the
        cost model.
    """

    def __init__(
        self,
        token: tuple[object, ...],
        matrix: FloatMatrix,
        grid_columns: tuple[int, ...],
        bin_edges: tuple[FloatVector, ...],
        cell_codes: IntVector,
    ) -> None:
        self.token = token
        self.n_rows = int(matrix.shape[0])
        self.d = int(matrix.shape[1])
        self.grid_columns = grid_columns
        self.bin_edges = bin_edges
        self.cell_codes = cell_codes
        self.column_sorted: FloatMatrix = np.sort(matrix, axis=0)
        if self.n_rows:
            unique_codes, cell_of = np.unique(cell_codes, return_inverse=True)
            self.cell_of: IntVector = np.asarray(cell_of, dtype=np.intp)
            self.n_cells = int(unique_codes.size)
            order = np.argsort(self.cell_of, kind="stable")
            sorted_ids = self.cell_of[order]
            starts = np.flatnonzero(
                np.r_[True, sorted_ids[1:] != sorted_ids[:-1]]
            )
            self.cell_counts: IntVector = np.diff(np.r_[starts, order.size])
            self.cell_lb: FloatMatrix = np.minimum.reduceat(matrix[order], starts, axis=0)
            self.cell_ub: FloatMatrix = np.maximum.reduceat(matrix[order], starts, axis=0)
        else:
            self.cell_of = np.empty(0, dtype=np.intp)
            self.n_cells = 0
            self.cell_counts = np.empty(0, dtype=np.intp)
            self.cell_lb = np.empty((0, self.d), dtype=np.float64)
            self.cell_ub = np.empty((0, self.d), dtype=np.float64)
        self.mean_cell_span = self._mean_cell_span()

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, relation: Relation, token: Optional[tuple[object, ...]] = None
    ) -> "DominanceIndex":
        """Build from scratch: choose grid columns, cut quantile edges,
        digitize every row. ``O(n log n)``."""
        checkpoint("index.build")
        matrix = relation.oriented()
        n = matrix.shape[0]
        grid_columns = _choose_grid_columns(matrix)
        if grid_columns:
            # Target ~sqrt(n) occupied cells in total, split evenly
            # across the grid columns.
            per_column = max(
                1, int(round(np.sqrt(float(max(n, 1))) ** (1.0 / len(grid_columns))))
            )
            bin_edges = tuple(
                _quantile_edges(matrix[:, column], per_column)
                for column in grid_columns
            )
        else:
            bin_edges = ()
        codes = _digitize(matrix, grid_columns, bin_edges)
        if token is None:
            token = ("idx", next(_ANON_TOKENS))
        return cls(token, matrix, grid_columns, bin_edges, codes)

    def with_inserted_rows(
        self, relation: Relation, token: Optional[tuple[object, ...]] = None
    ) -> "DominanceIndex":
        """Maintained copy for an *append*: ``relation`` extends the
        indexed rows. Re-uses the grid columns and bin edges (the cell
        geometry stays fixed — only the appended tail is digitized and
        the per-cell structure refreshed), skipping the variance scan
        and quantile passes of a cold :meth:`build`."""
        checkpoint("index.maintain")
        matrix = relation.oriented()
        tail = matrix[self.n_rows :]
        codes = np.concatenate(
            [self.cell_codes, _digitize(tail, self.grid_columns, self.bin_edges)]
        )
        if token is None:
            token = ("idx", next(_ANON_TOKENS))
        return type(self)(token, matrix, self.grid_columns, self.bin_edges, codes)

    # ------------------------------------------------------------------
    def _mean_cell_span(self) -> float:
        """Average per-column row fraction falling inside a cell's
        ``[lb, ub]`` range — the index's selectivity signal. Small spans
        mean tight cells, which is when witness pruning bites; the
        engine's cost model consumes this for the "indexed" estimate."""
        if self.n_cells == 0 or self.n_rows == 0 or self.d == 0:
            return 0.0
        spans = np.empty((self.n_cells, self.d), dtype=np.float64)
        for j in range(self.d):
            column = self.column_sorted[:, j]
            hi = np.searchsorted(column, self.cell_ub[:, j], side="right")
            lo = np.searchsorted(column, self.cell_lb[:, j], side="left")
            spans[:, j] = (hi - lo) / float(self.n_rows)
        return float(spans.mean())

    def describe(self) -> str:
        """One-line human-readable rendering for ``explain()``."""
        return (
            f"{self.n_cells} cells over columns {list(self.grid_columns)} "
            f"({self.n_rows} rows, mean cell span {self.mean_cell_span:.2f})"
        )

    def __repr__(self) -> str:
        return f"<DominanceIndex {self.token} {self.describe()}>"


class CellPartition:
    """Joined-cell partition of one materialized joined matrix.

    Joined cell = (left base cell) x (right base cell); ``cell_lb`` is
    the componentwise min over the cell's *actual joined tuples* (the
    witness rule of the module docstring needs real-tuple bounds, which
    is also why no monotonicity assumption on aggregates is needed —
    bounds are taken after aggregate columns are materialized).

    Memoization contract (checked by the repo linter's R2 rule): the
    per-``k`` pruning masks and the sorted verification matrix build
    under double-checked locking — lock-free fast-path reads, writes
    hold ``_lock``. ``candidates_by_k`` is filled by
    ``repro.core.parallel._sharded_skyline`` under this same lock
    (its :attr:`lock`), making warm repeated queries
    verification-only; ``survivors_by_k`` memoizes the *verified*
    answer rows per ``k`` (sound: a partition is derived from one
    immutable joined matrix — mutations produce new index tokens and
    therefore a fresh partition — and verification is deterministic),
    making further repeats answer-construction-only.

    # guarded-by-writes: _lock: _pruned, _sorted
    """

    def __init__(self, matrix: FloatMatrix, cell_ids: IntVector) -> None:
        self.matrix = matrix
        order = np.argsort(cell_ids, kind="stable")
        self._order: IntVector = order
        sorted_ids = cell_ids[order]
        if order.size:
            self._starts: IntVector = np.flatnonzero(
                np.r_[True, sorted_ids[1:] != sorted_ids[:-1]]
            )
            self.cell_counts: IntVector = np.diff(np.r_[self._starts, order.size])
            self.cell_lb: FloatMatrix = np.minimum.reduceat(
                matrix[order], self._starts, axis=0
            )
        else:
            self._starts = np.empty(0, dtype=np.intp)
            self.cell_counts = np.empty(0, dtype=np.intp)
            self.cell_lb = np.empty((0, matrix.shape[1]), dtype=np.float64)
        self.candidates_by_k: dict[int, IntVector] = {}
        self.survivors_by_k: dict[int, tuple[IntVector, int]] = {}
        self._pruned: dict[int, BoolVector] = {}
        self._sorted: FloatMatrix | None = None
        self._lock = threading.RLock()

    @property
    def n_cells(self) -> int:
        """Number of occupied joined cells."""
        return int(self.cell_counts.size)

    @property
    def lock(self) -> threading.RLock:
        """The memo lock guarding :attr:`candidates_by_k` and
        :attr:`survivors_by_k` writes."""
        return self._lock

    def sorted_matrix(self) -> FloatMatrix:
        """The joined matrix pre-sorted for early-exit dominance scans."""
        if self._sorted is None:
            with self._lock:
                if self._sorted is None:
                    self._sorted = sort_rows_for_early_exit(self.matrix)
        return self._sorted

    def pruned_cells(self, k: int) -> BoolVector:
        """Per-cell flag: provably non-winning at ``k`` (witness rule).

        Memoized per ``k``; the scan itself is one
        :func:`~repro.skyline.dominance.cells_k_dominated` pass of the
        full joined matrix against the cell lower bounds. Under an
        active serving deadline the cells are scanned in chunks of
        :data:`~repro.core.verify.DEADLINE_VERIFY_CHUNK` with a check
        before each, and only a complete mask is memoized, so an
        expired scan leaves nothing behind.
        """
        mask = self._pruned.get(k)
        if mask is None:
            with self._lock:
                mask = self._pruned.get(k)
                if mask is None:
                    matrix, deadline = self.sorted_matrix(), active_deadline()
                    if deadline is None:
                        mask = cells_k_dominated(matrix, self.cell_lb, k)
                    else:
                        chunks: list[BoolVector] = []
                        for start in range(0, self.n_cells, DEADLINE_VERIFY_CHUNK):
                            deadline.check()
                            bounds = self.cell_lb[start : start + DEADLINE_VERIFY_CHUNK]
                            chunks.append(cells_k_dominated(matrix, bounds, k))
                        mask = np.concatenate(chunks) if chunks else np.zeros(0, dtype=bool)
                    self._pruned[k] = mask
        return mask

    def row_buckets(self, k: int, n_buckets: int) -> list[IntVector]:
        """Surviving rows at ``k``, grouped cell-whole into at most
        ``n_buckets`` LPT-balanced buckets (the shard work lists)."""
        mask = self.pruned_cells(k)
        keep = np.flatnonzero(~mask)
        if keep.size == 0:
            return []
        ends = self._starts + self.cell_counts
        buckets = lpt_buckets(self.cell_counts[keep], n_buckets)
        return [
            np.concatenate(
                [
                    self._order[self._starts[cell] : ends[cell]]
                    for cell in (keep[b] for b in bucket)
                ]
            )
            for bucket in buckets
        ]


def joined_cell_ids(
    left_index: DominanceIndex,
    right_index: DominanceIndex,
    left_rows: IntVector,
    right_rows: IntVector,
) -> IntVector:
    """Joined cell id per pair/chain: base-cell product, mixed radix."""
    radix = max(1, right_index.n_cells)
    return left_index.cell_of[left_rows] * radix + right_index.cell_of[right_rows]


# ----------------------------------------------------------------------
# Presets of the exact pipeline (consumed by repro.api.Engine)
# ----------------------------------------------------------------------
def run_indexed(
    plan: JoinPlan,
    k: int,
    left_index: DominanceIndex,
    right_index: DominanceIndex,
    shards: ShardPlan | None = None,
) -> KSJQResult:
    """Index-accelerated two-way KSJQ: the exact pipeline of
    :mod:`repro.core.parallel` over the plan's surviving joined cells.

    Exact for every join kind and any aggregate, and byte-identical to
    the naive ground truth across ``parallelism`` settings: pruning only
    removes provably non-winning tuples (module docstring), and the
    mandatory verification pass re-checks every candidate against the
    **full** joined matrix. Repeated queries through a cached plan hit
    the :class:`CellPartition` memos (pruning masks, candidate
    supersets, verified survivors).
    """
    indexes = (left_index, right_index)
    return cast("KSJQResult", _exact_pipeline(plan, k, "indexed", shards, indexes))


def run_cascade_indexed(
    plan: CascadePlan,
    k: int,
    first_index: DominanceIndex,
    last_index: DominanceIndex,
    shards: ShardPlan | None = None,
) -> CascadeResult:
    """Index-accelerated m-way cascade: chains are bucketed by the
    (first relation cell) x (last relation cell) product, pruned by the
    same witness rule, and verified against the full chain matrix."""
    indexes = (first_index, last_index)
    return cast("CascadeResult", _exact_pipeline(plan, k, "indexed", shards, indexes))
