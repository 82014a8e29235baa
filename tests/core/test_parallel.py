"""Unit tests of the sharded parallel execution layer (core/parallel.py)."""

import numpy as np
import pytest

from repro.core import JoinPlan, run_naive
from repro.core.parallel import (
    AUTO_MIN_ROWS,
    ShardPlan,
    available_cpus,
    batch_workers,
    plan_shards,
    run_cascade_parallel,
    run_parallel,
    shard_bounds,
)
from repro.core.parallel import _sharded_skyline
from repro.core.plan import CascadePlan
from repro.core.timing import PhaseClock
from repro.relational import Relation
from repro.skyline import (
    k_dominant_candidates_block,
    k_dominant_skyline_naive,
    k_dominated_any,
)

from ..helpers import make_random_pair


def thread_plan(workers: int, n_rows: int = 0) -> ShardPlan:
    """A fixed thread-pool shard plan for deterministic tests."""
    return ShardPlan(workers, n_rows, "test")


# ----------------------------------------------------------------------
# Shard geometry and the serial-vs-parallel decision
# ----------------------------------------------------------------------
class TestShardBounds:
    def test_even_split_covers_every_row_once(self):
        bounds = shard_bounds(10, 4)
        assert bounds == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_more_shards_than_rows_collapses_to_single_row_shards(self):
        bounds = shard_bounds(3, 8)
        assert bounds == [(0, 1), (1, 2), (2, 3)]

    def test_zero_rows_yield_one_empty_range_set(self):
        assert shard_bounds(0, 4) == []


class TestPlanShards:
    def test_auto_stays_serial_below_threshold(self):
        plan = plan_shards(AUTO_MIN_ROWS - 1, "auto")
        assert not plan.is_parallel
        assert "threshold" in plan.reason

    def test_explicit_workers_are_honored(self):
        plan = plan_shards(100_000, 4)
        assert plan.workers == 4
        assert plan.n_shards == 4
        assert plan.executor == "thread"

    def test_explicit_one_is_serial(self):
        assert not plan_shards(100_000, 1).is_parallel

    def test_workers_never_exceed_rows(self):
        assert plan_shards(3, 8).workers <= 3

    def test_every_parallel_plan_uses_threads(self):
        assert plan_shards(10_000, 4).executor == "thread"
        assert plan_shards(1_000_000, 4).executor == "thread"
        assert plan_shards(1_000_000, 1).executor == "serial"

    def test_capped_explicit_request_reports_the_cap(self):
        with batch_workers(available_cpus() * 2):
            plan = plan_shards(100_000, 64)
        assert not plan.is_parallel
        assert "capped to CPU budget" in plan.reason

    def test_batch_lanes_cap_the_worker_budget(self):
        # Oversubscribing batch lanes leaves one worker per query.
        with batch_workers(available_cpus() * 2):
            assert plan_shards(1_000_000, "auto").workers == 1
            assert plan_shards(1_000_000, 4).workers == 1
        # Outside the batch the explicit request is honored again.
        assert plan_shards(1_000_000, 4).workers == 4

    def test_describe_mentions_workers_and_executor(self):
        plan = plan_shards(1_000_000, 4)
        text = plan.describe()
        assert "4" in text and plan.executor in text


# ----------------------------------------------------------------------
# The block kernels
# ----------------------------------------------------------------------
class TestBlockKernels:
    def test_k_dominated_any_matches_per_row_naive(self):
        rng = np.random.default_rng(5)
        matrix = np.floor(rng.random((80, 5)) * 4)
        vectors = np.floor(rng.random((33, 5)) * 4)
        for k in range(1, 6):
            got = k_dominated_any(matrix, vectors, k)
            want = [
                any(
                    np.count_nonzero(row <= v) >= k and (row < v).any()
                    for row in matrix
                )
                for v in vectors
            ]
            assert got.tolist() == want

    def test_k_dominated_any_empty_inputs(self):
        empty = np.empty((0, 4))
        some = np.ones((3, 4))
        assert k_dominated_any(empty, some, 2).tolist() == [False] * 3
        assert k_dominated_any(some, empty, 2).size == 0

    def test_duplicates_do_not_dominate_each_other(self):
        row = np.array([[1.0, 2.0, 3.0]])
        assert not k_dominated_any(row, row, 2)[0]

    def test_candidates_block_is_a_superset_of_the_skyline(self):
        rng = np.random.default_rng(6)
        matrix = np.floor(rng.random((200, 4)) * 5)
        for k in (2, 3, 4):
            candidates = set(k_dominant_candidates_block(matrix, k, block=32).tolist())
            skyline = set(k_dominant_skyline_naive(matrix, k))
            assert skyline <= candidates


# ----------------------------------------------------------------------
# Cross-shard verification correctness (non-transitivity)
# ----------------------------------------------------------------------
class TestCrossShardVerification:
    def test_locally_eliminated_rows_still_eliminate_across_shards(self):
        # The classic 2-dominance 3-cycle: x >2> y >2> z >2> x, so the
        # 2-dominant skyline is empty. Shard 1 holds {x, z} (z falls to
        # x... x falls to nobody locally), shard 2 holds {y}. y's only
        # 2-dominator is x, and x is itself eliminated by z during the
        # merge — a verification pass that checked survivors only would
        # wrongly keep y. The mandatory all-rows pass must return empty.
        x = [0.0, 1.0, 2.0]
        y = [1.0, 2.0, 0.0]
        z = [2.0, 0.0, 1.0]
        matrix = np.array([x, z, y])  # shard split: [x, z] | [y]
        keep, checked = _sharded_skyline(matrix, 2, thread_plan(2, 3), PhaseClock())
        assert keep.size == 0
        assert checked >= 1
        assert k_dominant_skyline_naive(matrix, 2) == []

    def test_sharded_result_is_shard_count_invariant(self):
        rng = np.random.default_rng(8)
        matrix = np.floor(rng.random((150, 5)) * 3)
        for k in (3, 4, 5):
            want = k_dominant_skyline_naive(matrix, k)
            for workers in (1, 2, 3, 4, 7):
                keep, _ = _sharded_skyline(
                    matrix, k, thread_plan(workers, 150), PhaseClock()
                )
                assert keep.tolist() == want


# ----------------------------------------------------------------------
# Plan-based runners
# ----------------------------------------------------------------------
class TestRunParallel:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_equality_join_matches_naive(self, workers):
        left, right = make_random_pair(seed=21, n=50, d=4, g=4, a=1)
        plan = JoinPlan(left, right, aggregate="sum")
        for k in (5, 6, 7):
            want = run_naive(plan, k)
            got = run_parallel(plan, k, shards=thread_plan(workers))
            assert got.pair_set() == want.pair_set()
            assert (got.pairs == want.pairs).all()
            assert got.algorithm == "parallel"
            assert got.mode == "exact"

    def test_theta_join_matches_naive(self):
        from repro.relational import ThetaCondition, ThetaOp

        left, right = make_random_pair(seed=22, n=30, d=4, g=3)
        cond = ThetaCondition("s0", ThetaOp.LE, "s1")
        plan = JoinPlan(left, right, kind="theta", theta=cond)
        want = run_naive(plan, 5).pair_set()
        assert run_parallel(plan, 5, shards=thread_plan(3)).pair_set() == want

    def test_non_strict_aggregate_is_supported(self):
        # The parallel path works on the materialized joined view, so —
        # unlike grouping/dominator — it never needs monotonicity.
        left, right = make_random_pair(seed=23, n=30, d=4, g=3, a=1)
        plan = JoinPlan(left, right, aggregate="max")
        want = run_naive(plan, 5).pair_set()
        assert run_parallel(plan, 5, shards=thread_plan(4)).pair_set() == want

    def test_empty_relation(self):
        schema_matrix = np.empty((0, 3))
        empty = Relation.from_arrays(
            schema_matrix, ["s0", "s1", "s2"], join_key=[], name="E"
        )
        other = Relation.from_arrays(
            np.array([[1.0, 2.0, 3.0]]), ["s0", "s1", "s2"], join_key=[0], name="R"
        )
        plan = JoinPlan(empty, other)
        result = run_parallel(plan, 4, shards=thread_plan(4))
        assert result.count == 0

    def test_more_shards_than_candidate_rows(self):
        left, right = make_random_pair(seed=25, n=3, d=4, g=3)
        plan = JoinPlan(left, right)
        want = run_naive(plan, 5).pair_set()
        assert run_parallel(plan, 5, shards=thread_plan(8)).pair_set() == want

    def test_k_at_both_bounds(self):
        left, right = make_random_pair(seed=26, n=40, d=4, g=3, a=1)
        plan = JoinPlan(left, right, aggregate="sum")
        params_lo = max(left.schema.d, right.schema.d) + 1
        params_hi = left.schema.l + right.schema.l + left.schema.a
        for k in (params_lo, params_hi):
            want = run_naive(plan, k).pair_set()
            assert run_parallel(plan, k, shards=thread_plan(2)).pair_set() == want


class TestRunCascadeParallel:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_naive_cascade(self, workers):
        from repro.core.cascade import run_cascade_naive

        rng = np.random.default_rng(30)
        legs = []
        for i in range(3):
            legs.append(
                Relation.from_arrays(
                    np.floor(rng.random((18, 3)) * 4),
                    ["s0", "s1", "s2"],
                    join_key=[int(j % 2) for j in range(18)],
                    name=f"L{i}",
                )
            )
        plan = CascadePlan(legs)
        for k in (4, 6, 9):
            want = run_cascade_naive(plan, k)
            got = run_cascade_parallel(plan, k, shards=thread_plan(workers))
            assert got.chain_set() == want.chain_set()
            assert (got.chains == want.chains).all()
            assert got.total_chains == want.total_chains
            assert got.algorithm == "parallel"
