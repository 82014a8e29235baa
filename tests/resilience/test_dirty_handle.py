"""Satellite (b): maintained handles survive failed delta application.

A fault inside ``_apply_insert`` / ``_apply_delete`` / the recompute
path must *dirty* the handle — stale answer, recomputed lazily on the
next read — never poison it (a raising subscriber would propagate into
the mutating writer's ``insert_rows`` call) and never leave a silently
half-applied answer.
"""

from __future__ import annotations

from repro.api import Engine, QuerySpec
from repro.resilience import FaultPlan, FaultSpec, arming

from ..helpers import make_random_pair

K = 6


def fresh_engine(seed: int = 9, n: int = 40):
    left, right = make_random_pair(seed=seed, n=n, d=4, g=3, a=1)
    engine = Engine()
    engine.register("left", left)
    engine.register("right", right)
    return engine, left, right


def spec() -> QuerySpec:
    return QuerySpec.for_ksjq(k=K, algorithm="naive", aggregate="sum")


def new_rows(engine, name: str = "left", count: int = 3, skip: int = 0):
    """Valid insertable records, cloned from the dataset's own rows."""
    rows = list(engine.catalog[name].relation.records())
    return rows[skip : skip + count]


class TestDirtyHandle:
    def test_failed_delta_dirties_instead_of_poisoning(self):
        engine, left, _right = fresh_engine()
        live = engine.maintain("left", "right", spec())
        live.result()  # cold answer, pre-delta
        faults = FaultPlan([FaultSpec("delta.apply", kind="io", times=1)])
        with arming(faults):
            # The mutating writer must NOT see the subscriber's fault.
            engine.catalog["left"].insert_rows(new_rows(engine))
        assert live.dirty  # stale, not wedged
        assert engine.cache_info()["resilience"]["delta_failures"] == 1
        # The next read recomputes and matches a from-scratch execution.
        want = engine.execute("left", "right", spec=spec())
        got = live.result()
        assert got.pairs.tobytes() == want.pairs.tobytes()
        assert not live.dirty
        live.close()

    def test_handle_keeps_absorbing_deltas_after_a_failure(self):
        engine, left, _right = fresh_engine(seed=21)
        live = engine.maintain("left", "right", spec())
        faults = FaultPlan([FaultSpec("delta.apply", kind="corrupt", times=1)])
        with arming(faults):
            engine.catalog["left"].insert_rows(new_rows(engine, skip=0))
            assert live.dirty
            # A later clean delta still routes through the handle: the
            # dirty flag survives (versions were not advanced by the
            # failed one) and the read path recomputes once.
            engine.catalog["left"].insert_rows(new_rows(engine, skip=3))
        want = engine.execute("left", "right", spec=spec())
        assert live.result().pairs.tobytes() == want.pairs.tobytes()
        assert not live.dirty
        live.close()

    def test_failed_delta_counts_as_failed_not_applied(self):
        """Regression: a failed application defers its recompute to the
        dirty read — it must not inflate ``applied_deltas`` or
        ``fallback_recomputes``, on the handle or engine-wide."""
        engine, _left, _right = fresh_engine(seed=57)
        live = engine.maintain("left", "right", spec())
        faults = FaultPlan([FaultSpec("delta.apply", kind="io", times=1)])
        with arming(faults):
            engine.catalog["left"].insert_rows(new_rows(engine))
        stats = live.stats()
        assert stats["failed_deltas"] == 1
        assert stats["applied_deltas"] == 0
        assert stats["fallback_recomputes"] == 0
        info = engine.cache_info()
        assert info["failed_deltas"] == 1
        assert info["maintained"] == 0 and info["fallback_recomputes"] == 0
        # The deferred dirty-read recompute is the explicit-read kind:
        # still not a fallback_recompute.
        live.result()
        assert live.stats()["fallback_recomputes"] == 0
        live.close()

    def test_clean_deltas_never_set_the_dirty_flag(self):
        engine, left, _right = fresh_engine(seed=33)
        live = engine.maintain("left", "right", spec())
        engine.catalog["left"].insert_rows(new_rows(engine))
        assert not live.dirty
        assert engine.cache_info()["resilience"]["delta_failures"] == 0
        want = engine.execute("left", "right", spec=spec())
        assert live.result().pairs.tobytes() == want.pairs.tobytes()
        live.close()

    def test_stream_window_survives_a_failed_delta(self):
        """The sliding-window iterator rides an internal maintained
        handle; a failed window delta must dirty that handle and the
        next window's answer must still be exact."""
        engine, left, right = fresh_engine(seed=45)
        feed = left  # stream the left relation through the window
        clean = [
            r.pairs.tobytes()
            for r in engine.stream_window(
                feed, "right", spec(), size=24, slide=8
            )
        ]
        faults = FaultPlan([FaultSpec("delta.apply", kind="io", times=1)])
        engine2, left2, _right2 = fresh_engine(seed=45)
        with arming(faults):
            chaotic = [
                r.pairs.tobytes()
                for r in engine2.stream_window(
                    left2, "right", spec(), size=24, slide=8
                )
            ]
        assert chaotic == clean
        assert engine2.cache_info()["resilience"]["delta_failures"] >= 1
