"""Recovery counters belong to the engine that recovered.

Two engines in one process must not report each other's shard retries:
the shard executor counts into the registry of the engine whose query
it runs.
"""

from __future__ import annotations

from repro.api import Engine, QuerySpec
from repro.resilience import FaultPlan, FaultSpec, arming

from ..helpers import make_random_pair

K = 6  # with d=4, a=1 the paper's valid range is [5, 7]


def test_a_retry_counts_only_in_the_engine_that_ran_it():
    left, right = make_random_pair(seed=7, n=48, d=4, g=3, a=1)
    first, second = Engine(), Engine()
    spec = QuerySpec.for_ksjq(k=K, algorithm="parallel", parallelism=4, aggregate="sum")
    with arming(FaultPlan([FaultSpec("shard.verify", kind="io", times=1)])):
        first.execute(left, right, spec)
    assert first.cache_info()["resilience"]["shard_retries"] == 1
    assert second.cache_info()["resilience"]["shard_retries"] == 0
