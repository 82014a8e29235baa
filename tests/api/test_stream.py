"""Streaming front-end tests: maintain(), stream_window(), counters.

The serving-layer contract of the delta-maintenance subsystem: handles
only attach to registered datasets (that is where the delta feed
lives), results track mutations exactly, engine-wide counters surface
in ``cache_info()``, and sliding windows advance by batched
delete+insert deltas while leaving no catalog residue behind.
"""

import threading
import time

import numpy as np
import pytest

from repro.api import Catalog, Engine, MaintainedResult, QuerySpec
from repro.core import run_naive
from repro.core.plan import JoinPlan
from repro.errors import CatalogError, ParameterError

from ..helpers import make_random_pair

SPEC = QuerySpec.for_ksjq(k=7, aggregate="sum", mode="exact")


def build_engine(seed: int = 5, n: int = 20) -> Engine:
    left, right = make_random_pair(seed=seed, n=n, d=4, g=3, a=1)
    engine = Engine()
    engine.register("left", left)
    engine.register("right", right)
    return engine


def reference(engine: Engine, spec: QuerySpec = SPEC):
    return Engine().execute(
        engine.catalog["left"].relation, engine.catalog["right"].relation, spec
    )


# ----------------------------------------------------------------------
# maintain(): lifecycle and correctness
# ----------------------------------------------------------------------
class TestMaintain:
    def test_initial_answer_matches_execute(self):
        engine = build_engine()
        live = engine.maintain("left", "right", SPEC)
        assert isinstance(live, MaintainedResult)
        assert live.result().pairs.tobytes() == reference(engine).pairs.tobytes()
        assert live.spec == SPEC
        assert not live.closed

    def test_insert_and_delete_track_mutations(self):
        engine = build_engine()
        live = engine.maintain("left", "right", SPEC)
        engine.catalog["left"].insert_rows(
            engine.catalog["left"].relation.take([0, 1]).records()
        )
        assert live.result().pairs.tobytes() == reference(engine).pairs.tobytes()
        engine.catalog["right"].delete_rows([0, 3])
        assert live.result().pairs.tobytes() == reference(engine).pairs.tobytes()
        stats = live.stats()
        assert stats["applied_deltas"] == 2
        assert stats["delta_rows"] == 4

    def test_replace_falls_back_to_recompute(self):
        engine = build_engine()
        live = engine.maintain("left", "right", SPEC)
        engine.catalog["left"].replace(engine.catalog["right"].relation)
        assert live.result().pairs.tobytes() == reference(engine).pairs.tobytes()
        assert live.stats()["fallback_recomputes"] == 1

    def test_close_detaches_and_context_manager(self):
        engine = build_engine()
        with engine.maintain("left", "right", SPEC) as live:
            frozen = live.result()
        assert live.closed
        engine.catalog["left"].delete_rows([0])
        assert live.result() is frozen  # no further updates after close
        assert live.stats()["applied_deltas"] == 0
        live.close()  # idempotent

    def test_refresh_recomputes_without_counting_fallback(self):
        engine = build_engine()
        live = engine.maintain("left", "right", SPEC)
        result = live.refresh()
        assert result.pairs.tobytes() == reference(engine).pairs.tobytes()
        assert live.stats()["fallback_recomputes"] == 0

    def test_dataset_handle_inputs_accepted(self):
        engine = build_engine()
        live = engine.maintain(
            engine.catalog["left"], engine.catalog["right"], SPEC
        )
        assert live.count == reference(engine).count

    def test_builder_terminal(self):
        engine = build_engine()
        live = (
            engine.query("left", "right")
            .aggregate("sum")
            .mode("exact")
            .k(7)
            .maintain()
        )
        assert isinstance(live, MaintainedResult)
        engine.catalog["left"].delete_rows([2])
        assert live.result().pairs.tobytes() == reference(engine).pairs.tobytes()

    def test_repr_mentions_state(self):
        engine = build_engine()
        live = engine.maintain("left", "right", SPEC)
        assert "live" in repr(live)
        live.close()
        assert "closed" in repr(live)


class TestMaintainValidation:
    def test_plain_relation_input_rejected(self):
        engine = build_engine()
        left, _ = make_random_pair(seed=9, n=8, d=4, g=3, a=1)
        with pytest.raises(ParameterError, match="register"):
            engine.maintain(left, "right", SPEC)

    def test_foreign_dataset_rejected(self):
        engine = build_engine()
        other = Engine()
        foreign = other.register("left", engine.catalog["left"].relation)
        with pytest.raises(ParameterError, match="not registered"):
            engine.maintain(foreign, "right", SPEC)

    def test_find_k_spec_rejected(self):
        engine = build_engine()
        spec = QuerySpec.for_find_k(delta=10, aggregate="sum")
        with pytest.raises(ParameterError, match="find_k"):
            engine.maintain("left", "right", spec)

    def test_bad_fallback_ratio_rejected(self):
        engine = build_engine()
        with pytest.raises(ParameterError, match="fallback_ratio"):
            engine.maintain("left", "right", SPEC, fallback_ratio=0.0)


# ----------------------------------------------------------------------
# cache_info(): engine-wide maintenance counters (satellite)
# ----------------------------------------------------------------------
class TestCacheInfoCounters:
    def test_counters_sit_next_to_invalidations(self):
        engine = build_engine()
        info = engine.cache_info()
        assert info["maintained"] == 0
        assert info["fallback_recomputes"] == 0
        assert info["delta_rows"] == 0
        assert "invalidations" in info

        live = engine.maintain("left", "right", SPEC)
        engine.catalog["left"].insert_rows(
            engine.catalog["left"].relation.take([0]).records()
        )
        engine.catalog["left"].replace(engine.catalog["left"].relation)
        info = engine.cache_info()
        assert info["maintained"] == 1  # the insert, absorbed in place
        assert info["fallback_recomputes"] == 1  # the replace
        assert info["delta_rows"] == 1
        assert live.stats()["applied_deltas"] == 2

    def test_unrelated_mutations_not_counted(self):
        engine = build_engine()
        engine.register("bystander", engine.catalog["left"].relation)
        engine.maintain("left", "right", SPEC)
        engine.catalog["bystander"].delete_rows([0])
        info = engine.cache_info()
        assert info["maintained"] == 0
        assert info["fallback_recomputes"] == 0
        assert info["delta_rows"] == 0


# ----------------------------------------------------------------------
# stream_window(): sliding-window continuous queries
# ----------------------------------------------------------------------
class TestStreamWindow:
    def test_windows_match_per_window_recompute(self):
        engine = build_engine(seed=13, n=12)
        stream, _ = make_random_pair(seed=21, n=14, d=4, g=3, a=1)
        results = list(
            engine.stream_window("left", stream, SPEC, size=8, slide=2)
        )
        assert len(results) == 4  # starts 0, 2, 4, 6
        fixed = engine.catalog["left"].relation
        checker = Engine()
        for i, got in enumerate(results):
            window = stream.take(range(2 * i, 2 * i + 8))
            want = checker.execute(fixed, window, SPEC)
            assert got.pairs.tobytes() == want.pairs.tobytes(), f"window {i}"

    def test_window_dataset_is_dropped_after_iteration(self):
        engine = build_engine(seed=13, n=10)
        stream, _ = make_random_pair(seed=22, n=10, d=4, g=3, a=1)
        before = engine.catalog.names()
        list(engine.stream_window("left", stream, SPEC, size=6, slide=3))
        assert engine.catalog.names() == before

    def test_self_join_stream(self):
        stream, _ = make_random_pair(seed=23, n=9, d=4, g=3, a=1)
        engine = Engine()
        results = list(
            engine.stream_window(stream, stream, SPEC, size=6, slide=3)
        )
        assert len(results) == 2
        checker = Engine()
        for i, got in enumerate(results):
            window = stream.take(range(3 * i, 3 * i + 6))
            want = checker.execute(window, window, SPEC)
            assert got.pairs.tobytes() == want.pairs.tobytes()
        assert engine.catalog.names() == []

    def test_validation_is_eager(self):
        engine = build_engine()
        stream, _ = make_random_pair(seed=24, n=10, d=4, g=3, a=1)
        with pytest.raises(ParameterError, match="size"):
            engine.stream_window("left", stream, SPEC, size=0)
        with pytest.raises(ParameterError, match="slide"):
            engine.stream_window("left", stream, SPEC, size=4, slide=5)
        with pytest.raises(ParameterError, match="first window"):
            engine.stream_window("left", stream, SPEC, size=11)
        with pytest.raises(ParameterError, match="Relation"):
            engine.stream_window("left", "right", SPEC, size=4)
        other, _ = make_random_pair(seed=25, n=10, d=4, g=3, a=1)
        with pytest.raises(ParameterError, match="single stream"):
            engine.stream_window(other, stream, SPEC, size=4)

    def test_window_name_collision_raises(self):
        engine = build_engine()
        stream, _ = make_random_pair(seed=26, n=10, d=4, g=3, a=1)
        engine.register("taken", stream)
        with pytest.raises(CatalogError, match="taken"):
            engine.stream_window("left", stream, SPEC, size=4, name="taken")


# ----------------------------------------------------------------------
# Engine routing details
# ----------------------------------------------------------------------
class TestRouting:
    def test_shared_catalog_routes_only_to_owning_engine(self):
        catalog = Catalog()
        engine_a = Engine(catalog=catalog)
        engine_b = Engine(catalog=catalog)
        left, right = make_random_pair(seed=31, n=12, d=4, g=3, a=1)
        engine_a.register("left", left)
        engine_a.register("right", right)
        live = engine_a.maintain("left", "right", SPEC)
        catalog["left"].delete_rows([1])
        assert live.stats()["applied_deltas"] == 1
        assert engine_a.cache_info()["delta_rows"] == 1
        assert engine_b.cache_info()["delta_rows"] == 0

    def test_mutation_during_first_answer_is_not_lost(self):
        """An insert installed while the handle computes its first
        answer lands after that answer's snapshot; the handle must
        still end up reflecting it."""
        engine = build_engine()
        left = engine.catalog["left"]
        before = reference(engine).pair_set()
        record = {**left.relation.record(0), "s0": 0.0, "s1": 0.0, "s2": 0.0, "s3": 0.0}
        writers: list[threading.Thread] = []
        run = engine._run

        def racing_run(plan, spec, inputs=()):
            if not writers:  # the handle's first answer
                writer = threading.Thread(target=left.insert_rows, args=([record],))
                writers.append(writer)
                writer.start()
                deadline = time.monotonic() + 10.0
                while left.version != 2 and time.monotonic() < deadline:
                    time.sleep(0.001)
                assert left.version == 2
            return run(plan, spec, inputs)

        engine._run = racing_run
        live = engine.maintain("left", "right", SPEC)
        writers[0].join(timeout=10.0)
        assert not writers[0].is_alive()

        fresh = JoinPlan(
            left.relation, engine.catalog["right"].relation, aggregate="sum"
        )
        want = run_naive(fresh, SPEC.k).pair_set()
        assert want != before  # the insert changes the answer
        assert live.result().pair_set() == want

    def test_abandoned_handle_is_not_kept_alive(self):
        import gc

        engine = build_engine()
        engine.maintain("left", "right", SPEC)  # dropped immediately
        gc.collect()
        engine.catalog["left"].delete_rows([0])
        # The dead handle was pruned; nothing was maintained.
        info = engine.cache_info()
        assert info["maintained"] == 0 and info["fallback_recomputes"] == 0

    def test_maintained_timings_use_fixed_phases(self):
        engine = build_engine()
        live = engine.maintain("left", "right", SPEC)
        engine.catalog["left"].delete_rows([0])
        result = live.result()
        assert result.algorithm == "maintained"
        timings = result.timings
        assert timings.join >= 0.0 and timings.remaining >= 0.0
        assert np.isclose(
            timings.total, timings.grouping + timings.join
            + timings.dominator + timings.remaining,
        )
