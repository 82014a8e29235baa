"""Unit tests for the per-engine counter registry."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.metrics import COUNTERS, Metrics, record


class TestMetrics:
    def test_snapshot_starts_at_zero_for_every_counter(self):
        assert Metrics().snapshot() == dict.fromkeys(COUNTERS, 0)

    def test_add_increments_and_supports_batches(self):
        metrics = Metrics()
        metrics.add("shard_retries")
        metrics.add("shard_retries", 4)
        assert metrics.snapshot()["shard_retries"] == 5

    def test_unknown_counter_is_a_loud_error(self):
        with pytest.raises(KeyError):
            Metrics().add("made_up_counter")

    def test_snapshot_is_a_copy(self):
        metrics = Metrics()
        snap = metrics.snapshot()
        snap["degradations"] = 99
        assert metrics.snapshot()["degradations"] == 0
        assert "clean" in repr(metrics)

    def test_activate_nests_and_restores(self):
        outer, inner = Metrics(), Metrics()
        with outer.activate():
            record("degradations")
            with inner.activate():
                record("degradations", 2)
            record("degradations")
        record("degradations")  # nothing active any more
        assert outer.snapshot()["degradations"] == 2
        assert inner.snapshot()["degradations"] == 2

    def test_active_registry_is_thread_local(self):
        metrics = Metrics()
        with metrics.activate():
            thread = threading.Thread(target=record, args=("shard_retries",))
            thread.start()
            thread.join()
        assert metrics.snapshot()["shard_retries"] == 0

    def test_record_without_an_active_registry_is_a_no_op(self):
        metrics = Metrics()
        with metrics.activate():
            pass
        record("shard_retries")  # after the block: counts nowhere
        assert metrics.snapshot()["shard_retries"] == 0

    def test_concurrent_adds_are_never_lost(self):
        metrics, threads, adds = Metrics(), 8, 2000
        start = threading.Barrier(threads)

        def hammer():
            start.wait(timeout=30)
            for _ in range(adds):
                metrics.add("shard_retries")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert metrics.snapshot()["shard_retries"] == threads * adds
