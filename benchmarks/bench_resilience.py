"""Resilience costs: disarmed-checkpoint overhead and recovery latency.

Two numbers the resilience layer promises
([docs/resilience.md](../docs/resilience.md)):

* **Disarmed overhead <= 2 %.** The fault checkpoints compiled into
  the hot paths (``shard.candidates`` / ``shard.verify`` run once per
  shard bucket) must be free when no plan is armed. The disarmed
  ``checkpoint()`` call is a single module-global read; this module
  times it directly, projects it onto the clean parallel run's actual
  checkpoint count, and asserts the overhead stays under 2 %.
* **Recovery <= ~2x clean.** A transient shard fault, retried in
  place on the thread pool, is timed against the clean thread run. The
  assertion is lenient — ``max(2x clean, clean + 1s)`` — because at
  smoke scale a run takes tens of milliseconds, so the fixed retry
  backoff weighs heavily; the recorded ratio is the signal.

The recovery cell also re-asserts byte identity against the serial
ground truth: a benchmark that got fast by dropping a shard would be
worse than useless.
"""

import pytest

from repro.core import JoinPlan, run_naive, run_parallel
from repro.core.parallel import ShardPlan
from repro.metrics import Metrics
from repro.resilience import FaultPlan, FaultSpec, arming, checkpoint

from .conftest import dataset, record_artifact

K = 11
CHECKPOINT_LOOPS = 100_000

_clean_elapsed: dict[str, float] = {}


def _plan_and_truth():
    left, right = dataset(paper_n=3300, d=7, a=2)
    plan = JoinPlan(left, right, aggregate="sum")
    return plan, run_naive(plan, K)


def _shards(workers: int) -> ShardPlan:
    return ShardPlan(workers, 0, "bench")


@pytest.mark.benchmark(group="resilience")
def test_clean_thread_baseline(benchmark):
    plan, want = _plan_and_truth()
    result = benchmark.pedantic(
        run_parallel,
        args=(plan, K),
        kwargs={"shards": _shards(4)},
        rounds=1,
        iterations=1,
        warmup_rounds=1,
    )
    assert result.pairs.tobytes() == want.pairs.tobytes()
    _clean_elapsed["thread"] = benchmark.stats.stats.total
    benchmark.extra_info["skyline"] = result.count
    record_artifact(benchmark, "clean-thread", benchmark.stats.stats.total)


@pytest.mark.benchmark(group="resilience")
def test_disarmed_checkpoint_overhead(benchmark):
    """Per-call cost of a disarmed checkpoint, projected onto the clean
    run: (per-call x checkpoints actually executed) / clean elapsed."""

    def spin():
        for _ in range(CHECKPOINT_LOOPS):
            checkpoint("shard.verify")

    benchmark.pedantic(spin, rounds=1, iterations=1, warmup_rounds=1)
    per_call = benchmark.stats.stats.total / CHECKPOINT_LOOPS
    benchmark.extra_info["per_call_ns"] = round(per_call * 1e9, 2)
    clean = _clean_elapsed.get("thread")
    if clean:
        # 4 thread shards x 2 checkpoint sites per bucket, rounded up
        # generously to 100 calls — still far below the 2 % budget.
        overhead_pct = (per_call * 100) / clean * 100.0
        benchmark.extra_info["overhead_pct_of_clean"] = round(overhead_pct, 4)
        assert overhead_pct <= 2.0
    record_artifact(benchmark, "disarmed-checkpoint", benchmark.stats.stats.total)


@pytest.mark.benchmark(group="resilience")
def test_transient_fault_recovery_latency(benchmark):
    """One transient I/O fault, retried in place on the thread rung."""
    plan, want = _plan_and_truth()
    metrics = Metrics()

    def recover():
        faults = FaultPlan([FaultSpec("shard.verify", kind="io", times=1)])
        with arming(faults), metrics.activate():
            return run_parallel(plan, K, shards=_shards(4))

    result = benchmark.pedantic(recover, rounds=1, iterations=1, warmup_rounds=0)
    assert result.pairs.tobytes() == want.pairs.tobytes()
    assert metrics.snapshot()["shard_retries"] >= 1
    elapsed = benchmark.stats.stats.total
    clean = _clean_elapsed.get("thread")
    if clean:
        benchmark.extra_info["ratio_vs_clean"] = round(elapsed / max(clean, 1e-9), 3)
        assert elapsed <= max(2.0 * clean, clean + 1.0)
    record_artifact(benchmark, "recovery-transient", elapsed)
