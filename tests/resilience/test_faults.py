"""Unit tests for the fault-injection framework itself.

The framework's own determinism is what makes the chaos suite a proof
rather than a dice roll, so these tests pin the schedule semantics
(``after`` / ``times`` / ``rate``), the arming lifecycle, and the
disarmed fast path.
"""

from __future__ import annotations

import multiprocessing
import pickle
import sys
import threading

import pytest

from repro.errors import ResilienceError
from repro.resilience import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    arm,
    armed_plan,
    arming,
    checkpoint,
    disarm,
)


def _crash_probe_child(conn) -> None:
    """Run one crash-fault checkpoint in a child process.

    Reports ``"raised"`` when the fault surfaced as a typed raise.
    """
    plan = FaultPlan([FaultSpec("probe.site", kind="crash", times=1)])
    try:
        with arming(plan):
            try:
                checkpoint("probe.site")
            except InjectedFault:
                conn.send("raised")
                return
            conn.send("clean")
    finally:
        conn.close()


def _fork_ctx():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        pytest.skip("fork start method unavailable")


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("s", kind="meteor")

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            FaultSpec("s", times=-1)
        with pytest.raises(ValueError):
            FaultSpec("s", after=-1)
        with pytest.raises(ValueError):
            FaultSpec("s", rate=1.5)

    def test_after_skips_then_times_bounds(self):
        spec = FaultSpec("s", times=2, after=3)
        fired = [spec.fires(h, seed=0) for h in range(8)]
        assert fired == [False, False, False, True, True, False, False, False]

    def test_times_none_is_persistent(self):
        spec = FaultSpec("s", times=None)
        assert all(spec.fires(h, seed=0) for h in range(50))

    def test_rate_is_deterministic_in_seed_and_hit(self):
        spec = FaultSpec("s", rate=0.5)
        a = [spec.fires(h, seed=7) for h in range(64)]
        b = [spec.fires(h, seed=7) for h in range(64)]
        c = [spec.fires(h, seed=8) for h in range(64)]
        assert a == b
        assert a != c  # a different seed reshuffles the schedule
        assert any(a) and not all(a)  # a real coin, not a constant

    def test_kinds_catalog(self):
        assert FAULT_KINDS == ("crash", "slow", "corrupt", "io")


class TestFaultPlan:
    def test_times_one_fires_exactly_once(self):
        plan = FaultPlan([FaultSpec("site", kind="io", times=1)])
        with pytest.raises(InjectedFault):
            plan.hit("site")
        for _ in range(5):
            plan.hit("site")  # budget spent: clean from now on
        assert plan.hits("site") == 6

    def test_concurrent_hits_share_one_fault_budget(self):
        """Shard threads hit one armed plan at once: a ``times=1`` fault
        fires exactly once and no hit is lost."""
        plan = FaultPlan([FaultSpec("site", kind="io", times=1)])
        n_threads, n_hits = 8, 500
        fired: list[int] = []

        def hammer() -> None:
            for _ in range(n_hits):
                try:
                    plan.hit("site")
                except InjectedFault:
                    fired.append(1)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(fired) == 1
        assert plan.hits("site") == n_threads * n_hits

    def test_unknown_site_is_a_clean_pass(self):
        plan = FaultPlan([FaultSpec("site", kind="io")])
        plan.hit("elsewhere")
        assert plan.hits("elsewhere") == 0

    def test_injected_fault_is_typed_and_picklable(self):
        exc = InjectedFault("shard.verify", "crash")
        assert isinstance(exc, ResilienceError)
        clone = pickle.loads(pickle.dumps(exc))
        assert (clone.site, clone.kind) == ("shard.verify", "crash")
        assert "shard.verify" in str(clone)

    def test_firing_counts_toward_stats(self):
        plan = FaultPlan([FaultSpec("site", kind="io", times=2)])
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.hit("site")
        plan.hit("site")  # past times=2: observed, not fired
        assert plan.fired() == 2

    def test_slow_fault_sleeps_instead_of_raising(self):
        plan = FaultPlan([FaultSpec("site", kind="slow", delay=0.0)])
        plan.hit("site")  # must not raise
        assert plan.hits("site") == 1


class TestArming:
    def test_checkpoint_is_noop_while_disarmed(self):
        plan = arm(FaultPlan([FaultSpec("shard.verify", kind="io")]))
        disarm()
        checkpoint("shard.verify")  # must not raise, record, or count
        assert plan.hits("shard.verify") == 0
        assert plan.fired() == 0

    def test_arming_context_restores_previous_plan(self):
        outer = arm(FaultPlan())
        inner = FaultPlan([FaultSpec("x", kind="io")])
        with arming(inner) as active:
            assert active is inner and armed_plan() is inner
        assert armed_plan() is outer
        disarm()
        assert armed_plan() is None

    def test_checkpoint_fires_through_armed_plan(self):
        with arming(FaultPlan([FaultSpec("site", kind="corrupt", times=1)])):
            with pytest.raises(InjectedFault) as excinfo:
                checkpoint("site")
        assert excinfo.value.kind == "corrupt"


class TestCrashScoping:
    """``crash`` faults raise a typed :class:`InjectedFault` and never
    kill the process they fire in.

    Regression: an engine or server may legitimately run inside a
    ``multiprocessing.Process`` (prefork servers, forking test
    harnesses); a crash fault there must surface as a raise the
    recovery ladder can absorb, not take the whole service down.
    """

    def test_crash_in_unmarked_multiprocessing_child_degrades_to_raise(self):
        ctx = _fork_ctx()
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_crash_probe_child, args=(child,))
        proc.start()
        proc.join(30)
        assert proc.exitcode == 0  # survived: the fault raised, typed
        assert parent.recv() == "raised"

    def test_crash_in_the_main_process_degrades_to_raise(self):
        with arming(FaultPlan([FaultSpec("site", kind="crash", times=1)])):
            with pytest.raises(InjectedFault) as excinfo:
                checkpoint("site")
        assert excinfo.value.kind == "crash"
