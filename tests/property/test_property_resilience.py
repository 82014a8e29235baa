"""Chaos property suite: fault kind × parallelism × algorithm family.

The resilience contract, property-tested: under any deterministic
fault schedule — crash, slow, corrupt, or I/O faults at any execution
checkpoint, across parallelism 1/2/4, on the indexed or naive plan —
a query either returns an answer **byte-identical** to the clean run
or raises a typed :class:`~repro.errors.ResilienceError`. Never a
silently wrong answer: that is the invariant the recovery ladder's
mandatory cross-shard verification buys (k-dominance is
non-transitive, so every merged candidate is re-checked against the
full matrix regardless of which rung produced it).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine, QuerySpec
from repro.core import JoinPlan, run_naive, run_parallel
from repro.core.parallel import ShardPlan
from repro.errors import ResilienceError
from repro.resilience import FaultPlan, FaultSpec, arming, disarm

from ..helpers import make_random_pair

WORKER_COUNTS = (1, 2, 4)
SHARD_SITES = ("shard.candidates", "shard.verify")
#: Thread-rung fault kinds ("crash" degrades to a raise off-process,
#: so on thread executors it behaves as one more transient kind).
KINDS = ("crash", "slow", "corrupt", "io")
K = 6  # valid mid-range k for d=4, a=1 pairs


def thread_plan(workers: int) -> ShardPlan:
    return ShardPlan(workers, 0, "test")


@pytest.fixture(autouse=True)
def always_disarm():
    yield
    disarm()


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(KINDS),
    site=st.sampled_from(SHARD_SITES),
    times=st.sampled_from([1, 2, None]),
    workers=st.sampled_from(WORKER_COUNTS),
)
def test_chaos_parallel_is_exact_or_typed(seed, kind, site, times, workers):
    left, right = make_random_pair(seed=seed, n=32, d=4, g=3, a=1)
    plan = JoinPlan(left, right, aggregate="sum")
    want = run_naive(plan, K)
    faults = FaultPlan(
        [FaultSpec(site, kind=kind, times=times, delay=0.001)], seed=seed
    )
    with arming(faults):
        try:
            got = run_parallel(plan, K, shards=thread_plan(workers))
        except ResilienceError:
            # Only a fault that outlasts every rung may surface — and it
            # surfaces *typed*, not as a wrong answer.
            assert times is None and kind in ("crash", "corrupt", "io")
            return
    assert got.pairs.tobytes() == want.pairs.tobytes()
    assert got.pair_set() == want.pair_set()


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    rate=st.sampled_from([0.1, 0.5]),
    workers=st.sampled_from(WORKER_COUNTS),
)
def test_chaos_random_rate_faults_never_corrupt(seed, rate, workers):
    """Probabilistic (but seeded, hence reproducible) fault schedules:
    same contract, any outcome mix."""
    left, right = make_random_pair(seed=seed, n=32, d=4, g=3, a=1)
    plan = JoinPlan(left, right, aggregate="sum")
    want = run_naive(plan, K)
    faults = FaultPlan(
        [
            FaultSpec("shard.candidates", kind="io", rate=rate),
            FaultSpec("shard.verify", kind="io", rate=rate),
        ],
        seed=seed,
    )
    with arming(faults):
        try:
            got = run_parallel(plan, K, shards=thread_plan(workers))
        except ResilienceError:
            return  # typed surfacing is always acceptable
    assert got.pairs.tobytes() == want.pairs.tobytes()


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(("corrupt", "io")),
    times=st.sampled_from([1, None]),
    site=st.sampled_from(("index.build", "index.maintain")),
)
def test_chaos_indexed_path_quarantines_to_exact(seed, kind, times, site):
    """The indexed family never surfaces index faults at all: a failed
    load/build quarantines the index and falls back to an exact
    non-indexed plan — the answer matches clean naive byte-for-byte."""
    left, right = make_random_pair(seed=seed, n=32, d=4, g=3, a=1)
    engine = Engine()
    engine.register("left", left)
    engine.register("right", right)
    want = engine.execute(
        "left",
        "right",
        spec=QuerySpec.for_ksjq(k=K, algorithm="naive", aggregate="sum"),
    )
    spec = QuerySpec.for_ksjq(k=K, algorithm="indexed", aggregate="sum")
    faults = FaultPlan([FaultSpec(site, kind=kind, times=times)], seed=seed)
    with arming(faults):
        got = engine.execute("left", "right", spec=spec)
    assert got.pairs.tobytes() == want.pairs.tobytes()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), workers=st.sampled_from(WORKER_COUNTS))
def test_chaos_is_reproducible(seed, workers):
    """Same plan seed + same fault seed -> the same outcome, twice.
    Determinism is what turns the chaos suite from a dice roll into a
    regression test."""
    left, right = make_random_pair(seed=seed, n=32, d=4, g=3, a=1)
    plan = JoinPlan(left, right, aggregate="sum")

    def one_run() -> bytes | str:
        faults = FaultPlan(
            [FaultSpec("shard.verify", kind="io", rate=0.3)], seed=seed
        )
        with arming(faults):
            try:
                return run_parallel(
                    plan, K, shards=thread_plan(workers)
                ).pairs.tobytes()
            except ResilienceError as exc:
                return f"typed:{exc}"

    assert one_run() == one_run()
