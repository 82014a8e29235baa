"""Engine plan cache: hit/miss accounting, reuse, eviction, provenance."""

import pytest

import repro
from repro.api import Engine, QuerySpec
import repro.api.engine as engine_mod
from repro.core.plan import JoinPlan

from ..helpers import make_random_pair


@pytest.fixture
def pair():
    return make_random_pair(seed=11, n=12, d=4, g=3)


class TestPlanCache:
    def test_second_query_hits_cache(self, pair):
        eng = Engine()
        eng.query(*pair).k(5).run()
        assert eng.cache_info()["misses"] == 1
        eng.query(*pair).k(5).run()
        info = eng.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1

    def test_ksjq_then_find_k_share_one_plan(self, pair):
        eng = Engine()
        eng.query(*pair).k(5).run()
        eng.query(*pair).find_k(delta=3)
        info = eng.cache_info()
        assert info["misses"] == 1
        assert info["hits"] >= 1

    def test_plan_built_once_by_call_count(self, pair, monkeypatch):
        built = []
        real = JoinPlan

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "JoinPlan", counting)
        eng = Engine()
        for k in (5, 6, 7):
            eng.query(*pair).k(k).run()
        eng.query(*pair).find_k(delta=2)
        assert len(built) == 1

    def test_memoized_structures_reused_across_queries(self, pair):
        eng = Engine()
        plan_a = eng.plan(*pair)
        view = plan_a.view()  # force the expensive enumeration
        plan_b = eng.plan(*pair)
        assert plan_b is plan_a
        assert plan_b.view() is view

    def test_equal_content_relations_share_entry(self, pair):
        eng = Engine()
        eng.query(*pair).k(5).run()
        clone = make_random_pair(seed=11, n=12, d=4, g=3)
        assert clone[0] is not pair[0]
        eng.query(*clone).k(5).run()
        info = eng.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_different_join_config_misses(self, pair):
        eng = Engine()
        eng.query(*pair).k(5).run()
        eng.query(*pair).join("cartesian").k(5).run()
        info = eng.cache_info()
        assert info["misses"] == 2 and info["size"] == 2

    def test_lru_eviction(self, pair):
        other = make_random_pair(seed=12, n=10, d=4, g=2)
        eng = Engine(max_plans=1)
        eng.query(*pair).k(5).run()
        eng.query(*other).k(5).run()
        info = eng.cache_info()
        assert info["evictions"] == 1 and info["size"] == 1
        # The first pair was evicted: querying it again misses.
        eng.query(*pair).k(5).run()
        assert eng.cache_info()["misses"] == 3

    def test_lru_eviction_order_respects_recency(self, pair):
        """Eviction drops the least-recently-*used* entry, not the
        least-recently-inserted one: touching an old plan protects it."""
        second = make_random_pair(seed=12, n=10, d=4, g=2)
        third = make_random_pair(seed=13, n=10, d=4, g=2)
        eng = Engine(max_plans=2)
        eng.query(*pair).k(5).run()    # plan A
        eng.query(*second).k(5).run()  # plan B
        eng.query(*pair).k(6).run()    # touch A: B is now the LRU entry
        eng.query(*third).k(5).run()   # plan C evicts B, not A
        info = eng.cache_info()
        assert info["evictions"] == 1 and info["size"] == 2
        misses = info["misses"]
        eng.query(*pair).k(7).run()    # A survived
        eng.query(*third).k(6).run()   # C survived
        assert eng.cache_info()["misses"] == misses
        eng.query(*second).k(6).run()  # B was evicted: rebuild
        assert eng.cache_info()["misses"] == misses + 1

    def test_eviction_sequence_is_fifo_without_touches(self, pair):
        """Untouched entries leave in insertion order as capacity rolls."""
        pairs = [make_random_pair(seed=30 + i, n=8, d=4, g=2) for i in range(4)]
        eng = Engine(max_plans=2)
        for p in pairs:
            eng.query(*p).k(5).run()
        info = eng.cache_info()
        assert info["evictions"] == 2 and info["size"] == 2
        misses = info["misses"]
        eng.query(*pairs[2]).k(6).run()  # two newest entries survived
        eng.query(*pairs[3]).k(6).run()
        assert eng.cache_info()["misses"] == misses
        eng.query(*pairs[0]).k(6).run()  # the two oldest were evicted
        eng.query(*pairs[1]).k(6).run()
        assert eng.cache_info()["misses"] == misses + 2

    def test_zero_capacity_disables_caching(self, pair):
        eng = Engine(max_plans=0)
        eng.query(*pair).k(5).run()
        eng.query(*pair).k(5).run()
        info = eng.cache_info()
        assert info["hits"] == 0 and info["misses"] == 2 and info["size"] == 0

    def test_clear_cache(self, pair):
        eng = Engine()
        eng.query(*pair).k(5).run()
        eng.clear_cache()
        assert eng.cache_info()["size"] == 0
        eng.query(*pair).k(5).run()
        assert eng.cache_info()["misses"] == 2

    def test_custom_aggregate_does_not_collide_with_registry(self):
        """A custom function named 'sum' gets its own cache entry and
        its own (correct) answer — it is not swapped for registry SUM."""
        from repro.relational.aggregates import AggregateFunction

        left, right = make_random_pair(seed=13, n=10, d=4, g=3, a=1)
        shifted_sum = AggregateFunction(
            "sum", lambda x, y: x + y + 100.0, strictly_monotone=True
        )
        eng = Engine()
        import warnings

        from repro.errors import SoundnessWarning

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SoundnessWarning)
            via_registry = eng.query(left, right).aggregate("sum").k(5).run()
            via_custom = eng.query(left, right).aggregate(shifted_sum).k(5).run()
            # legacy facade path accepts the custom object too
            res = repro.ksjq(left, right, k=5, aggregate=shifted_sum, engine=eng)
        assert eng.cache_info()["size"] == 2  # distinct plans
        assert via_custom.source.aggregate is shifted_sum
        assert res.source.aggregate is shifted_sum
        assert via_registry.source.aggregate.name == "sum"

    def test_explicit_plan_bypasses_cache(self, pair):
        eng = Engine()
        plan = JoinPlan(*pair)
        res = repro.ksjq(*pair, k=5, plan=plan, engine=eng)
        assert eng.cache_info()["requests"] == 0
        assert res.source is plan


class TestProvenance:
    def test_result_carries_spec_and_plan(self, pair):
        eng = Engine()
        res = eng.query(*pair).k(5).run()
        assert isinstance(res.spec, QuerySpec)
        assert res.spec.k == 5 and res.spec.problem == "ksjq"
        assert isinstance(res.source, JoinPlan)
        again = eng.query(*pair).k(5).run()
        assert again.source is res.source  # same cached plan object

    def test_find_k_provenance(self, pair):
        eng = Engine()
        res = eng.query(*pair).find_k(delta=3)
        assert res.spec.problem == "find_k" and res.spec.delta == 3
        assert isinstance(res.source, JoinPlan)

    def test_to_records_roundtrip(self, pair):
        eng = Engine()
        res = eng.query(*pair).k(5).run()
        records = res.to_records()
        assert len(records) == res.count
        if records:
            assert "_left_row" in records[0] and "r1.s0" in records[0]

    def test_elapsed_matches_timings(self, pair):
        res = Engine().query(*pair).k(5).run()
        assert res.elapsed == res.timings.total


class TestStreaming:
    def test_stream_matches_run(self, pair):
        eng = Engine()
        streamed = set(eng.query(*pair).k(5).stream())
        ran = eng.query(*pair).k(5).run().pair_set()
        assert streamed == ran
        assert eng.cache_info()["misses"] == 1  # stream shared the plan

    def test_stream_rejects_exact_mode(self, pair):
        with pytest.raises(repro.AlgorithmError, match="faithful"):
            Engine().query(*pair).k(5).mode("exact").stream()


class TestBuilder:
    def test_requires_k_or_delta(self, pair):
        with pytest.raises(repro.ParameterError, match="k"):
            Engine().query(*pair).run()
        with pytest.raises(repro.ParameterError, match="delta"):
            Engine().query(*pair).find_k()

    def test_builder_is_reusable(self, pair):
        query = Engine().query(*pair).k(5)
        first = query.run()
        report = query.explain()
        second = query.run()
        assert first.pair_set() == second.pair_set()
        assert report.spec == first.spec

    def test_find_k_after_k_prefers_delta(self, pair):
        query = Engine().query(*pair).k(5)
        tuned = query.find_k(delta=3)
        assert tuned.spec.problem == "find_k"
        # the configured k survives for later run() calls
        assert query.run().spec.k == 5



CACHE_KEYS = frozenset(
    {"hits", "misses", "evictions", "invalidations", "requests", "size", "capacity"}
)
TOP_KEYS = CACHE_KEYS | {
    "maintained",
    "fallback_recomputes",
    "delta_rows",
    "failed_deltas",
    "results",
    "index_builds",
    "index_hits",
    "index_invalidations",
    "index_maintained",
    "resilience",
}
RESILIENCE_KEYS = frozenset(
    {"shard_retries", "degradations", "index_quarantines", "delta_failures", "breaker_opens"}
)


class TestCacheInfoShape:
    """The keys of ``cache_info()``: callers (the benchmark harness,
    dashboards) read them by name."""

    def test_every_key_is_pinned(self):
        info = Engine().cache_info()
        assert set(info) == TOP_KEYS
        assert set(info["results"]) == CACHE_KEYS
        assert set(info["resilience"]) == RESILIENCE_KEYS

    def test_an_attached_server_adds_the_serving_key(self):
        from repro.serving.metrics import ServingMetrics

        engine, metrics = Engine(), ServingMetrics()
        engine.attach_serving_metrics(metrics)
        assert set(engine.cache_info()) == TOP_KEYS | {"serving"}
