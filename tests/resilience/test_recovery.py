"""Regression tests for the recovery ladder: transient shard faults,
degradation to serial, and index quarantine.

The load-bearing property throughout: recovery never changes the
answer. k-dominance is non-transitive, so the parallel path's
mandatory cross-shard verification re-checks every merged candidate
against the full matrix — which is exactly why re-executing a failed
shard (on threads or serially) is provably answer-preserving. Every
test asserts *byte identity* against the clean serial ground truth,
not set equality.
"""

from __future__ import annotations

import pytest

from repro.api import Engine, QuerySpec
from repro.core import JoinPlan, run_naive, run_parallel
from repro.core.parallel import SHARD_RETRY_POLICY, ShardPlan, _map_tasks
from repro.errors import ResilienceError
from repro.metrics import Metrics
from repro.resilience import FaultPlan, FaultSpec, InjectedFault, arming

from ..helpers import make_random_pair

K = 6  # with d=4, a=1 the paper's valid range is [5, 7]


def make_plan(seed: int = 7, n: int = 48) -> tuple[JoinPlan, object]:
    left, right = make_random_pair(seed=seed, n=n, d=4, g=3, a=1)
    plan = JoinPlan(left, right, aggregate="sum")
    return plan, run_naive(plan, K)


class TestShardRecovery:
    @pytest.mark.parametrize(
        ("site", "kind"), [("shard.verify", "io"), ("shard.candidates", "crash")]
    )
    def test_transient_fault_is_retried_in_place_on_threads(self, site, kind):
        plan, want = make_plan()
        faults = FaultPlan([FaultSpec(site, kind=kind, times=1)])
        metrics = Metrics()
        with arming(faults), metrics.activate():
            got = run_parallel(plan, K, shards=ShardPlan(4, 0, "test"))
        assert got.pairs.tobytes() == want.pairs.tobytes()
        assert faults.fired() == 1
        snap = metrics.snapshot()
        assert snap["shard_retries"] >= 1
        assert snap["degradations"] == 0  # recovered on the same rung

    def test_serial_rung_reruns_only_the_unfinished_tasks(self):
        """Regression: when the thread rung gives up, the serial rung
        re-runs only the tasks it could not finish — buckets that
        already succeeded are not executed again."""
        calls = dict.fromkeys(range(4), 0)

        def fn(task: tuple) -> int:
            (index,) = task
            calls[index] += 1
            if index == 2 and calls[index] <= SHARD_RETRY_POLICY.max_attempts:
                raise InjectedFault("test.site", "io")
            return index * 10

        tasks = [(i,) for i in range(4)]
        metrics = Metrics()
        with metrics.activate():
            results = _map_tasks(fn, tasks, ShardPlan(4, 4, "test"))
        assert results == [0, 10, 20, 30]
        assert calls == {0: 1, 1: 1, 2: 4, 3: 1}
        assert metrics.snapshot()["degradations"] == 1

    def test_persistent_fault_degrades_then_surfaces_typed(self):
        """A fault no rung can outlast must end in a typed
        ResilienceError — never a silently dropped shard."""
        plan, _want = make_plan()
        faults = FaultPlan([FaultSpec("shard.verify", kind="corrupt", times=None)])
        metrics = Metrics()
        with arming(faults), metrics.activate():
            with pytest.raises(ResilienceError):
                run_parallel(plan, K, shards=ShardPlan(4, 0, "test"))
        assert metrics.snapshot()["degradations"] >= 1

    def test_slow_fault_is_just_a_straggler(self):
        plan, want = make_plan()
        faults = FaultPlan(
            [FaultSpec("shard.verify", kind="slow", times=2, delay=0.002)]
        )
        metrics = Metrics()
        with arming(faults), metrics.activate():
            got = run_parallel(plan, K, shards=ShardPlan(4, 0, "test"))
        assert got.pairs.tobytes() == want.pairs.tobytes()
        assert metrics.snapshot()["shard_retries"] == 0


class TestIndexQuarantine:
    def make_engine(self) -> tuple[Engine, object]:
        left, right = make_random_pair(seed=5, n=48, d=4, g=3, a=1)
        engine = Engine()
        engine.register("left", left)
        engine.register("right", right)
        want = engine.execute(
            "left", "right", spec=QuerySpec.for_ksjq(k=K, algorithm="naive", aggregate="sum")
        )
        return engine, want

    def test_index_failure_quarantines_and_falls_back_exact(self):
        engine, want = self.make_engine()
        spec = QuerySpec.for_ksjq(k=K, algorithm="indexed", aggregate="sum")
        faults = FaultPlan([FaultSpec("index.build", kind="corrupt", times=None)])
        with arming(faults):
            got = engine.execute("left", "right", spec=spec)
        assert got.pairs.tobytes() == want.pairs.tobytes()
        assert got.algorithm != "indexed"  # degraded to an exact family
        assert engine.cache_info()["resilience"]["index_quarantines"] >= 1

    def test_recovered_index_serves_again_after_quarantine(self):
        engine, want = self.make_engine()
        spec = QuerySpec.for_ksjq(k=K, algorithm="indexed", aggregate="sum")
        faults = FaultPlan([FaultSpec("index.build", kind="corrupt", times=1)])
        with arming(faults):
            first = engine.execute("left", "right", spec=spec)
        second = engine.execute("left", "right", spec=spec)  # clean rebuild
        assert first.pairs.tobytes() == want.pairs.tobytes()
        assert second.pairs.tobytes() == want.pairs.tobytes()
        assert second.algorithm == "indexed"

    def test_explain_reports_the_resilience_posture(self):
        engine, _want = self.make_engine()
        report = engine.explain(
            "left", "right", spec=QuerySpec.for_ksjq(k=K, algorithm="auto", aggregate="sum")
        )
        assert report.resilience is not None
        assert "recovery ladder" in report.resilience
        assert "resilience:" in report.summary()


class TestStaleFallback:
    def test_refresh_or_stale_serves_the_stale_answer_while_the_ladder_fails(self):
        left, right = make_random_pair(seed=5, n=48, d=4, g=3, a=1)
        engine = Engine()
        engine.register("left", left)
        engine.register("right", right)
        spec = QuerySpec.for_ksjq(k=K, algorithm="parallel", parallelism=2, aggregate="sum")
        handle = engine.prepare("left", "right", spec)
        persistent = FaultPlan([FaultSpec("shard.verify", kind="io", times=None)])
        with arming(persistent), pytest.raises(ResilienceError):
            handle.refresh_or_stale()  # nothing cached to fall back on
        clean = handle.execute()
        rows = list(engine.catalog["left"].relation.records())[:2]
        engine.catalog["left"].insert_rows(rows)
        with arming(persistent):
            stale, fresh = handle.refresh_or_stale()
        assert stale is clean and fresh is False
        current, fresh = handle.refresh_or_stale()
        assert fresh is True and current is not clean
        want = engine.execute(
            "left", "right", spec=QuerySpec.for_ksjq(k=K, algorithm="naive", aggregate="sum")
        )
        assert current.pairs.tobytes() == want.pairs.tobytes()
