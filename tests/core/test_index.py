"""Unit coverage for :mod:`repro.core.index` structures and helpers."""

import numpy as np
import pytest

from repro.core import CellPartition, DominanceIndex, JoinPlan, run_naive
from repro.core.index import (
    _choose_grid_columns,
    _digitize,
    _quantile_edges,
    joined_cell_ids,
    lpt_buckets,
    run_indexed,
)
from repro.relational import Relation

from ..helpers import make_random_pair


def rel_from(matrix, name="X", join_key=None):
    matrix = np.asarray(matrix, dtype=np.float64)
    names = [f"s{i}" for i in range(matrix.shape[1])]
    if join_key is None:
        join_key = [0] * matrix.shape[0]
    return Relation.from_arrays(matrix, names, join_key=join_key, name=name)


# ----------------------------------------------------------------------
# Grid construction helpers
# ----------------------------------------------------------------------
class TestChooseGridColumns:
    def test_picks_two_highest_variance(self):
        rng = np.random.default_rng(0)
        matrix = np.column_stack(
            [
                rng.random(50) * 0.1,  # low variance
                rng.random(50) * 10.0,  # highest
                rng.random(50) * 3.0,  # second
                np.full(50, 7.0),  # constant
            ]
        )
        assert _choose_grid_columns(matrix) == (1, 2)

    def test_constant_columns_are_skipped(self):
        matrix = np.column_stack([np.full(10, 1.0), np.arange(10.0)])
        assert _choose_grid_columns(matrix) == (1,)

    def test_all_constant_gives_empty(self):
        assert _choose_grid_columns(np.ones((5, 3))) == ()

    def test_empty_matrix_gives_empty(self):
        assert _choose_grid_columns(np.empty((0, 4))) == ()
        assert _choose_grid_columns(np.empty((4, 0))) == ()


class TestQuantileEdges:
    def test_single_bin_has_no_edges(self):
        assert _quantile_edges(np.arange(10.0), 1).size == 0

    def test_no_values_has_no_edges(self):
        assert _quantile_edges(np.empty(0), 4).size == 0

    def test_heavy_ties_collapse(self):
        values = np.asarray([1.0] * 99 + [2.0])
        edges = _quantile_edges(values, 8)
        assert edges.size == np.unique(edges).size  # deduplicated
        assert edges.size < 7  # skew collapsed most cut points

    def test_edges_are_interior_and_sorted(self):
        edges = _quantile_edges(np.arange(100.0), 4)
        assert list(edges) == sorted(edges)
        assert 0.0 < edges[0] and edges[-1] < 99.0


class TestDigitize:
    def test_mixed_radix_codes_are_consistent(self):
        matrix = np.asarray([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
        edges = (np.asarray([2.5]), np.asarray([2.5]))
        codes = _digitize(matrix, (0, 1), edges)
        assert len(set(codes.tolist())) == 4

    def test_no_grid_columns_single_code(self):
        codes = _digitize(np.random.default_rng(0).random((6, 3)), (), ())
        assert (codes == 0).all()


class TestLptBuckets:
    def test_deterministic(self):
        sizes = np.asarray([5, 1, 9, 3, 3, 7], dtype=np.intp)
        assert lpt_buckets(sizes, 3) == lpt_buckets(sizes, 3)

    def test_partitions_exactly_once(self):
        sizes = np.asarray([4, 4, 4, 4, 1], dtype=np.intp)
        got = lpt_buckets(sizes, 2)
        assert sorted(i for b in got for i in b) == [0, 1, 2, 3, 4]

    def test_balances_loads(self):
        sizes = np.asarray([10, 10, 10, 10, 1, 1, 1, 1], dtype=np.intp)
        got = lpt_buckets(sizes, 4)
        loads = [int(sizes[b].sum()) for b in got]
        assert max(loads) - min(loads) <= 2

    def test_more_buckets_than_items(self):
        got = lpt_buckets(np.asarray([3, 2], dtype=np.intp), 8)
        assert len(got) == 2  # empty buckets dropped

    def test_empty_sizes(self):
        assert lpt_buckets(np.empty(0, dtype=np.intp), 4) == []


# ----------------------------------------------------------------------
# DominanceIndex
# ----------------------------------------------------------------------
class TestDominanceIndex:
    def test_empty_relation(self):
        index = DominanceIndex.build(rel_from(np.empty((0, 3))))
        assert index.n_rows == 0 and index.n_cells == 0
        assert index.cell_lb.shape == (0, 3)
        assert index.mean_cell_span == 0.0
        assert "0 cells" in index.describe()

    def test_single_row(self):
        index = DominanceIndex.build(rel_from([[1.0, 2.0, 3.0]]))
        assert index.n_rows == 1 and index.n_cells == 1
        assert (index.cell_lb[0] == index.cell_ub[0]).all()

    def test_constant_relation_is_single_cell(self):
        index = DominanceIndex.build(rel_from(np.ones((20, 3))))
        assert index.grid_columns == ()
        assert index.n_cells == 1
        assert (index.cell_of == 0).all()

    def test_anonymous_tokens_are_unique(self):
        rel = rel_from(np.random.default_rng(0).random((8, 2)))
        assert DominanceIndex.build(rel).token != DominanceIndex.build(rel).token

    def test_explicit_token_is_kept(self):
        rel = rel_from(np.random.default_rng(0).random((8, 2)))
        index = DominanceIndex.build(rel, token=("uid", 42, 3))
        assert index.token == ("uid", 42, 3)
        assert "('uid', 42, 3)" in repr(index)

    def test_bounds_cover_rows_columnwise(self):
        rel = rel_from(np.random.default_rng(1).random((60, 5)) * 9)
        index = DominanceIndex.build(rel)
        matrix = rel.oriented()
        assert index.cell_counts.sum() == 60
        for cell in range(index.n_cells):
            rows = matrix[index.cell_of == cell]
            assert (rows >= index.cell_lb[cell]).all()
            assert (rows <= index.cell_ub[cell]).all()

    def test_column_sorted_is_sorted(self):
        rel = rel_from(np.random.default_rng(2).random((30, 4)))
        index = DominanceIndex.build(rel)
        assert (np.diff(index.column_sorted, axis=0) >= 0).all()

    def test_mean_cell_span_shrinks_with_partitioning(self):
        """A partitioned index has tighter cells than a one-cell index
        over the same rows — the selectivity signal must reflect it."""
        matrix = np.random.default_rng(3).random((100, 3))
        rel = rel_from(matrix)
        partitioned = DominanceIndex.build(rel)
        single = DominanceIndex(("t",), rel.oriented(), (), (), np.zeros(100, dtype=np.intp))
        assert partitioned.n_cells > 1
        assert 0.0 < partitioned.mean_cell_span < single.mean_cell_span <= 1.0


class TestWithInsertedRows:
    def test_appended_tail_reuses_grid_geometry(self):
        rng = np.random.default_rng(5)
        base = rng.random((40, 4)) * 8
        tail = rng.random((10, 4)) * 8
        old = DominanceIndex.build(rel_from(base))
        new = old.with_inserted_rows(rel_from(np.vstack([base, tail])))
        assert new.grid_columns == old.grid_columns
        assert all(
            (a == b).all() for a, b in zip(new.bin_edges, old.bin_edges)
        )
        assert new.n_rows == 50
        # Old rows keep their raw codes; only the tail was digitized.
        assert (new.cell_codes[:40] == old.cell_codes).all()
        matrix = np.vstack([base, tail])
        for cell in range(new.n_cells):
            rows = matrix[new.cell_of == cell]
            assert (rows >= new.cell_lb[cell]).all()
            assert (rows <= new.cell_ub[cell]).all()

    def test_maintained_index_gives_same_answers_as_fresh(self):
        left, right = make_random_pair(seed=13, n=30, d=4, g=3)
        extra, _ = make_random_pair(seed=14, n=10, d=4, g=3)
        grown = Relation.from_records(
            left.schema, list(left.records()) + list(extra.records()), name=left.name
        )
        plan = JoinPlan(grown, right)
        maintained = DominanceIndex.build(left).with_inserted_rows(grown)
        fresh = DominanceIndex.build(grown)
        right_index = DominanceIndex.build(right)
        want = run_naive(plan, 8)
        for left_index in (maintained, fresh):
            got = run_indexed(plan, 8, left_index, right_index)
            assert got.pairs.tobytes() == want.pairs.tobytes()


# ----------------------------------------------------------------------
# CellPartition
# ----------------------------------------------------------------------
class TestCellPartition:
    def test_empty_matrix(self):
        partition = CellPartition(np.empty((0, 4)), np.empty(0, dtype=np.intp))
        assert partition.n_cells == 0
        assert partition.pruned_cells(5).size == 0
        assert partition.row_buckets(5, 4) == []
        assert partition.sorted_matrix().shape == (0, 4)

    def test_lower_bounds_are_per_cell_minima(self):
        matrix = np.asarray(
            [[3.0, 1.0], [1.0, 3.0], [5.0, 5.0], [4.0, 0.0]], dtype=np.float64
        )
        partition = CellPartition(matrix, np.asarray([1, 1, 0, 0], dtype=np.intp))
        # Cells are ordered by sorted cell id: cell 0 holds rows 2,3.
        assert (partition.cell_lb[0] == [4.0, 0.0]).all()
        assert (partition.cell_lb[1] == [1.0, 1.0]).all()
        assert partition.cell_counts.tolist() == [2, 2]

    def test_pruning_mask_is_memoized(self):
        rng = np.random.default_rng(8)
        matrix = np.floor(rng.random((20, 4)) * 4)
        partition = CellPartition(matrix, rng.integers(0, 4, 20).astype(np.intp))
        first = partition.pruned_cells(5)
        assert partition.pruned_cells(5) is first  # same object, no rescan
        assert first.dtype == bool

    def test_sorted_matrix_is_memoized_permutation(self):
        rng = np.random.default_rng(9)
        matrix = rng.random((15, 3))
        partition = CellPartition(matrix, np.zeros(15, dtype=np.intp))
        sorted_matrix = partition.sorted_matrix()
        assert partition.sorted_matrix() is sorted_matrix
        assert sorted_matrix.shape == matrix.shape
        # A permutation of the same rows, not a copy of different data.
        assert sorted(map(tuple, sorted_matrix)) == sorted(map(tuple, matrix))

    def test_row_buckets_cover_survivors_cell_whole(self):
        rng = np.random.default_rng(10)
        matrix = rng.random((30, 4)) * 9
        cell_ids = rng.integers(0, 6, 30).astype(np.intp)
        partition = CellPartition(matrix, cell_ids)
        k = 5
        pruned = partition.pruned_cells(k)
        buckets = partition.row_buckets(k, 3)
        covered = np.sort(np.concatenate(buckets)) if buckets else np.empty(0)
        unique_ids = np.unique(cell_ids)
        surviving_rows = np.flatnonzero(
            ~pruned[np.searchsorted(unique_ids, cell_ids)]
        )
        assert (covered == surviving_rows).all()
        # Cell-whole: a cell's rows never straddle two buckets.
        for bucket in buckets:
            for cell in np.unique(cell_ids[bucket]):
                assert (cell_ids[bucket] == cell).sum() == (cell_ids == cell).sum()

    def test_all_pruned_gives_no_buckets(self):
        # One dominating row in its own cell prunes the other cell;
        # its own cell cannot be pruned by itself alone... so add a
        # mutually-dominating pair (2-cycle) to prune everything.
        matrix = np.asarray(
            [[0.0, 0.0, 9.0, 9.0], [9.0, 9.0, 0.0, 0.0]], dtype=np.float64
        )
        partition = CellPartition(matrix, np.asarray([0, 1], dtype=np.intp))
        assert partition.pruned_cells(2).all()
        assert partition.row_buckets(2, 4) == []


# ----------------------------------------------------------------------
# joined_cell_ids / run_indexed plumbing
# ----------------------------------------------------------------------
class TestJoinedCellIds:
    def test_product_code(self):
        rng = np.random.default_rng(11)
        ia = DominanceIndex.build(rel_from(rng.random((20, 3)) * 5, name="A"))
        ib = DominanceIndex.build(rel_from(rng.random((12, 3)) * 5, name="B"))
        lefts = np.asarray([0, 7, 19], dtype=np.intp)
        rights = np.asarray([11, 0, 3], dtype=np.intp)
        ids = joined_cell_ids(ia, ib, lefts, rights)
        radix = max(1, ib.n_cells)
        for pos in range(3):
            assert ids[pos] == ia.cell_of[lefts[pos]] * radix + ib.cell_of[rights[pos]]

    def test_distinct_base_cells_give_distinct_joined_cells(self):
        rng = np.random.default_rng(12)
        ia = DominanceIndex.build(rel_from(rng.random((30, 2)) * 9, name="A"))
        ib = DominanceIndex.build(rel_from(rng.random((30, 2)) * 9, name="B"))
        rows = np.arange(30, dtype=np.intp)
        ids = joined_cell_ids(ia, ib, rows, rows)
        pairs = set(zip(ia.cell_of[rows].tolist(), ib.cell_of[rows].tolist()))
        assert len(set(ids.tolist())) == len(pairs)


class TestRunIndexedDefaults:
    def test_default_shard_plan(self):
        """run_indexed with shards=None builds its own plan and still
        matches naive."""
        left, right = make_random_pair(seed=21, n=20, d=4, g=3)
        plan = JoinPlan(left, right)
        left_index, built_left = plan.side_index("left")
        right_index, _ = plan.side_index("right")
        assert built_left is True
        got = run_indexed(plan, 8, left_index, right_index)
        assert got.pairs.tobytes() == run_naive(plan, 8).pairs.tobytes()
        assert got.cell_pair_counts["cells"] >= 1
        assert got.cell_pair_counts["pruned_cells"] >= 0

    def test_side_index_is_memoized_on_plan(self):
        left, right = make_random_pair(seed=22, n=15, d=4, g=3)
        plan = JoinPlan(left, right)
        index, built = plan.side_index("left")
        again, built_again = plan.side_index("left")
        assert built is True and built_again is False
        assert again is index
        assert plan.peek_side_index("left") is index
        assert plan.peek_side_index("right") is None

    def test_bad_side_rejected(self):
        left, right = make_random_pair(seed=22, n=10, d=4, g=3)
        plan = JoinPlan(left, right)
        with pytest.raises(Exception, match="side"):
            plan.side_index("middle")
