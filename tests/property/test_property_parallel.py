"""Parallel-vs-serial equivalence suite (property-tested).

The acceptance contract of the sharded execution layer: for every data
distribution, worker count and k, the parallel path returns result sets
**byte-identical** to serial execution — the canonical pair arrays
compare equal element-wise, not just as sets. Serial ground truth is
the naïve algorithm (always exact); ``parallelism=1`` through the
parallel path is additionally checked against higher worker counts, so
both the shard merge and the engine wiring are covered.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine, QuerySpec
from repro.core import JoinPlan, run_naive, run_parallel
from repro.core.parallel import ShardPlan

from ..helpers import make_random_pair

WORKER_COUNTS = (1, 2, 4)


def thread_plan(workers: int) -> ShardPlan:
    return ShardPlan(workers, 0, "test")


@pytest.mark.parametrize(
    "distribution", ["independent", "correlated", "anticorrelated"]
)
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), k_off=st.integers(0, 3))
def test_parallel_equals_serial_across_distributions(distribution, seed, k_off):
    left, right = make_random_pair(
        seed=seed, n=40, d=4, g=3, a=1, distribution=distribution
    )
    k_lo = max(left.schema.d, right.schema.d) + 1
    k_hi = left.schema.l + right.schema.l + left.schema.a
    k = min(k_lo + k_off, k_hi)
    plan = JoinPlan(left, right, aggregate="sum")
    want = run_naive(plan, k)
    for workers in WORKER_COUNTS:
        got = run_parallel(plan, k, shards=thread_plan(workers))
        assert got.pair_set() == want.pair_set()
        assert got.pairs.shape == want.pairs.shape
        assert (got.pairs == want.pairs).all()
        assert got.pairs.tobytes() == want.pairs.tobytes()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_engine_parallelism_knob_is_answer_invariant(seed):
    """The engine-level knob: same spec, parallelism 1/2/4, same bytes."""
    left, right = make_random_pair(seed=seed, n=35, d=4, g=4)
    engine = Engine()
    results = [
        engine.execute(
            left,
            right,
            QuerySpec.for_ksjq(k=5, algorithm="parallel", parallelism=w),
        )
        for w in WORKER_COUNTS
    ]
    baseline = engine.execute(left, right, QuerySpec.for_ksjq(k=5, algorithm="naive"))
    for result in results:
        assert result.pairs.tobytes() == baseline.pairs.tobytes()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), workers=st.sampled_from(WORKER_COUNTS))
def test_cascade_parallel_equals_naive(seed, workers):
    rng = np.random.default_rng(seed)
    from repro.core.cascade import run_cascade_naive
    from repro.core.parallel import run_cascade_parallel
    from repro.core.plan import CascadePlan
    from repro.relational import Relation

    legs = [
        Relation.from_arrays(
            np.floor(rng.random((12, 3)) * 4),
            ["s0", "s1", "s2"],
            join_key=[int(j % 2) for j in range(12)],
            name=f"L{i}",
        )
        for i in range(3)
    ]
    plan = CascadePlan(legs)
    want = run_cascade_naive(plan, 5)
    got = run_cascade_parallel(plan, 5, shards=thread_plan(workers))
    assert got.chain_set() == want.chain_set()
    assert got.chains.tobytes() == want.chains.tobytes()
