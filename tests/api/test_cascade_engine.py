"""Engine cascade path: specs, plan cache, explain, streaming, fail-fast."""

import warnings

import numpy as np
import pytest

from repro.api import Engine, QuerySpec, choose_algorithm
from repro.core import CascadePlan, CascadeResult, Hop, cascade_ksjq
from repro.errors import JoinError, ParameterError, SoundnessWarning
from repro.relational import HopSpec, Relation, RelationSchema, ThetaCondition, ThetaOp

from ..helpers import make_random_pair


def make_leg(n, seed, name, a=0, cities_in=("A",), cities_out=("B", "C")):
    rng = np.random.default_rng(seed)
    names = ["s0", "s1", "s2"]
    schema = RelationSchema.build(
        skyline=names, aggregate=names[:a], payload=["src", "dst", "hour"]
    )
    columns = {name: np.floor(rng.uniform(0, 4, n)) for name in names}
    columns["src"] = [cities_in[i % len(cities_in)] for i in range(n)]
    columns["dst"] = [cities_out[i % len(cities_out)] for i in range(n)]
    columns["hour"] = list(np.round(rng.uniform(0, 24, n), 1))
    return Relation(schema, columns, name=name)


@pytest.fixture
def chain():
    return (
        make_leg(10, 1, "L1", cities_out=("X", "Y")),
        make_leg(10, 2, "L2", cities_in=("X", "Y"), cities_out=("Z", "W")),
        make_leg(10, 3, "L3", cities_in=("Z", "W")),
    )


HOPS = [Hop("dst", "src"), Hop("dst", "src")]


class TestEngineCascade:
    def test_three_way_through_query(self, chain):
        eng = Engine()
        result = (
            eng.query(*chain).hop("dst", "src").hop("dst", "src").k(8).run()
        )
        assert isinstance(result, CascadeResult)
        legacy = cascade_ksjq(chain, k=8, hops=HOPS, engine=Engine())
        assert result.chain_set() == legacy.chain_set()

    def test_second_execution_hits_cache(self, chain):
        eng = Engine()
        query = eng.query(*chain).hop("dst", "src").hop("dst", "src").k(8)
        first = query.run()
        assert eng.cache_info()["misses"] == 1
        second = query.run()
        info = eng.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert second.source is first.source  # same cached CascadePlan
        assert second.chain_set() == first.chain_set()

    def test_cascade_and_theta_specs_cache_independently(self, chain):
        pair = make_random_pair(seed=21, n=10, d=4, g=3)
        cond = ThetaCondition("s0", ThetaOp.LT, "s1")
        eng = Engine()
        eng.query(*chain).hop("dst", "src").hop("dst", "src").k(8).run()
        eng.query(*pair).theta(cond).k(5).run()
        assert eng.cache_info()["misses"] == 2
        eng.query(*chain).hop("dst", "src").hop("dst", "src").k(8).run()
        eng.query(*pair).theta(cond).k(5).run()
        info = eng.cache_info()
        assert info["hits"] == 2 and info["misses"] == 2 and info["size"] == 2

    def test_lru_eviction_across_join_shapes(self, chain):
        pair = make_random_pair(seed=22, n=10, d=4, g=3)
        cond = ThetaCondition("s0", ThetaOp.LT, "s1")
        eng = Engine(max_plans=1)
        eng.query(*chain).hop("dst", "src").hop("dst", "src").k(8).run()
        eng.query(*pair).theta(cond).k(5).run()  # evicts the cascade plan
        info = eng.cache_info()
        assert info["evictions"] == 1 and info["size"] == 1
        eng.query(*chain).hop("dst", "src").hop("dst", "src").k(8).run()
        assert eng.cache_info()["misses"] == 3

    def test_different_hops_are_different_plans(self, chain):
        eng = Engine()
        eng.query(*chain).hop("dst", "src").hop("dst", "src").k(8).run()
        cond = ThetaCondition("hour", ThetaOp.LT, "hour")
        eng.query(*chain).hop("dst", "src").theta(cond).k(8).run()
        info = eng.cache_info()
        assert info["misses"] == 2 and info["size"] == 2

    def test_default_hops_share_plan_with_explicit_key_hops(self):
        pair = make_random_pair(seed=23, n=10, d=4, g=3)
        eng = Engine()
        spec_default = QuerySpec.for_cascade(k=6)
        spec_explicit = QuerySpec.for_cascade(k=6, hops=[HopSpec.key()])
        eng.execute(*pair, spec=spec_default)
        eng.execute(*pair, spec=spec_explicit)
        info = eng.cache_info()
        assert info["misses"] == 1 and info["hits"] == 1

    def test_auto_picks_cascade_algorithm(self, chain):
        eng = Engine()
        result = eng.query(*chain).hop("dst", "src").hop("dst", "src").k(8).run()
        plan = result.source
        chosen, costs, _ = choose_algorithm(plan)
        assert result.algorithm == chosen
        assert set(costs) == {"naive", "pruned"}

    def test_weak_aggregate_forces_naive_on_auto(self):
        left, right = make_random_pair(seed=24, n=8, d=3, g=2, a=1)
        eng = Engine()
        result = (
            eng.query(left, right)
            .hop(None, None)
            .aggregate("max")
            .algorithm("auto")
            .k(4)
            .run()
        )
        assert result.algorithm == "naive"

    def test_stream_matches_run(self, chain):
        eng = Engine()
        query = eng.query(*chain).hop("dst", "src").hop("dst", "src").k(8)
        ran = query.run().chain_set()
        streamed = set(query.stream())
        assert streamed == ran
        assert eng.cache_info()["misses"] == 1  # stream reused the plan

    def test_stream_honors_naive_with_weak_aggregate(self):
        left, right = make_random_pair(seed=28, n=8, d=3, g=2, a=1)
        eng = Engine()
        query = (
            eng.query(left, right)
            .hop("grp", "grp")
            .aggregate("max")
            .algorithm("naive")
            .k(4)
        )
        assert set(query.stream()) == query.run().chain_set()

    def test_stream_validates_eagerly(self, chain):
        query = Engine().query(*chain).hop("dst", "src").hop("dst", "src")
        with pytest.raises(ParameterError, match="cascade range"):
            query.stream(k=99)  # fails at the call, not on first next()

    def test_repeat_pruned_query_reuses_candidate_set(self, chain):
        eng = Engine()
        query = eng.query(*chain).hop("dst", "src").hop("dst", "src").k(8)
        first = query.run()
        plan = first.source
        candidates, matrix = plan.pruned_candidates(8)
        query.run()
        again_candidates, again_matrix = plan.pruned_candidates(8)
        assert again_candidates is candidates and again_matrix is matrix

    def test_provenance_and_records(self, chain):
        eng = Engine()
        result = eng.query(*chain).hop("dst", "src").hop("dst", "src").k(8).run()
        assert isinstance(result.spec, QuerySpec)
        assert result.spec.join == "cascade" and result.spec.k == 8
        assert isinstance(result.source, CascadePlan)
        records = result.to_records()
        assert len(records) == result.count
        if records:
            assert {"r1.s0", "r2.s0", "r3.s0", "r1._row"} <= set(records[0])


class TestExplain:
    def test_explain_reports_chain_stats(self, chain):
        eng = Engine()
        report = (
            eng.query(*chain).hop("dst", "src").hop("dst", "src").k(8).explain()
        )
        assert report.algorithm in ("naive", "pruned")
        assert report.stats.n_relations == 3
        assert report.stats.base_sizes == (10, 10, 10)
        assert set(report.costs) == {"naive", "pruned"}
        text = report.summary()
        assert "chains" in text and "cascade" in text

    def test_stats_join_size_matches_total_chains(self, chain):
        eng = Engine()
        query = eng.query(*chain).hop("dst", "src").hop("dst", "src").k(8)
        report = query.explain()
        result = query.run()
        assert report.stats.join_size == result.total_chains

    def test_stats_join_size_matches_for_theta_hop(self, chain):
        cond = ThetaCondition("hour", ThetaOp.LT, "hour")
        eng = Engine()
        query = eng.query(*chain).hop("dst", "src").theta(cond).k(8)
        assert query.explain().stats.join_size == query.run().total_chains

    def test_explicit_algorithm_reported(self, chain):
        eng = Engine()
        report = (
            eng.query(*chain)
            .hop("dst", "src")
            .hop("dst", "src")
            .algorithm("naive")
            .k(8)
            .explain()
        )
        assert report.algorithm == "naive"
        assert report.reason == "explicitly requested"

    def test_cache_hit_flag(self, chain):
        eng = Engine()
        query = eng.query(*chain).hop("dst", "src").hop("dst", "src").k(8)
        assert query.explain().cache_hit is False
        assert query.explain().cache_hit is True


class TestFailFast:
    def test_unknown_cascade_algorithm(self):
        with pytest.raises(ParameterError, match="unknown cascade algorithm"):
            QuerySpec.for_cascade(k=5, algorithm="grouping")

    def test_pruned_rejects_weak_aggregate_before_joining(self):
        with pytest.raises(ParameterError, match="strictly monotone"):
            QuerySpec.for_cascade(k=5, aggregate="max", algorithm="pruned")

    def test_find_k_rejects_cascades(self, chain):
        with pytest.raises(ParameterError, match="two-way"):
            QuerySpec(problem="find_k", join="cascade", delta=3)
        with pytest.raises(ParameterError, match="two-way"):
            Engine().query(*chain).hop("dst", "src").hop("dst", "src").find_k(delta=3)

    def test_hops_require_cascade_join(self):
        with pytest.raises(JoinError, match="hops given"):
            QuerySpec.for_ksjq(k=5, join="equality").replace(hops=(HopSpec(),))

    def test_hop_count_mismatch(self, chain):
        with pytest.raises(JoinError, match="need 2 hops for 3 relations"):
            Engine().query(*chain).hop("dst", "src").k(8).run()

    def test_missing_hop_column(self, chain):
        eng = Engine()
        with pytest.raises(JoinError, match="no attribute 'dest'"):
            eng.query(*chain).hop("dest", "src").hop("dst", "src").k(8).run()
        assert eng.cache_info()["size"] == 0  # the broken plan was not cached

    def test_composite_key_hop_needs_join_attributes(self, chain):
        with pytest.raises(JoinError, match="no join attributes"):
            Engine().query(*chain).hop(None, None).hop(None, None).k(8).run()

    def test_k_range_validated_before_joining(self, chain):
        eng = Engine()
        query = eng.query(*chain).hop("dst", "src").hop("dst", "src")
        with pytest.raises(ParameterError, match="cascade range"):
            query.k(3).run()
        with pytest.raises(ParameterError, match="max_i d_i < k <= sum_i l_i \\+ a"):
            query.k(10).run()
        # Validation happened on the plan, before any chain enumeration.
        plan = eng.cascade_plan(chain, hops=HOPS)
        assert plan._chains is None

    def test_mixing_join_kind_and_hops(self, chain):
        builder = Engine().query(*chain).join("cartesian").hop("dst", "src")
        with pytest.raises(ParameterError, match="two-way"):
            builder.k(8).run()

    def test_query_needs_two_relations(self, chain):
        with pytest.raises(ParameterError, match="at least two"):
            Engine().query(chain[0])

    def test_theta_shorthand_on_pairs_keeps_two_way_algorithms(self):
        pair = make_random_pair(seed=25, n=10, d=4, g=3)
        cond = ThetaCondition("s0", ThetaOp.LT, "s1")
        result = Engine().query(*pair).theta(cond).algorithm("grouping").k(5).run()
        assert result.spec.join == "theta"
        assert result.algorithm == "grouping"


class TestSpecHops:
    def test_spec_coerces_legacy_hops(self):
        spec = QuerySpec.for_cascade(k=6, hops=[Hop("dst", "src"), None])
        assert spec.hops == (
            HopSpec.on_columns("dst", "src"),
            HopSpec.key(),
        )

    def test_spec_coerces_theta_hops(self):
        cond = ThetaCondition("hour", ThetaOp.LT, "hour")
        spec = QuerySpec.for_cascade(k=6, hops=[cond, [cond, cond]])
        assert spec.hops[0] == HopSpec.on_theta(cond)
        assert spec.hops[1] == HopSpec.on_theta((cond, cond))

    def test_equal_specs_hash_equal(self):
        a = QuerySpec.for_cascade(k=6, hops=[Hop("dst", "src")])
        b = QuerySpec.for_cascade(k=6, hops=[HopSpec.on_columns("dst", "src")])
        assert a == b and hash(a) == hash(b)

    def test_plan_key_ignores_execution_parameters(self):
        a = QuerySpec.for_cascade(k=6, hops=[Hop("dst", "src")], algorithm="naive")
        b = QuerySpec.for_cascade(k=7, hops=[Hop("dst", "src")], algorithm="pruned")
        assert a.plan_key() == b.plan_key()
        assert a.plan_key() != QuerySpec.for_cascade(k=6).plan_key()

    def test_describe_mentions_hops(self):
        spec = QuerySpec.for_cascade(k=6, hops=[Hop("dst", "src")])
        assert "left.dst == right.src" in spec.describe()

    def test_hopspec_validation(self):
        with pytest.raises(JoinError, match="unknown hop kind"):
            HopSpec(kind="outer")
        with pytest.raises(JoinError, match="theta"):
            HopSpec(kind="equality", theta=(ThetaCondition("a", ThetaOp.LT, "b"),))
        with pytest.raises(JoinError, match="columns"):
            HopSpec(kind="cartesian", left_column="dst")
        with pytest.raises(JoinError, match="cannot interpret"):
            HopSpec.coerce(42)


class TestCartesianHops:
    def test_cartesian_hop_joins_everything(self):
        left, right = make_random_pair(seed=26, n=6, d=3, g=2)
        eng = Engine()
        spec = QuerySpec.for_cascade(k=4, hops=[HopSpec.cross()])
        result = eng.execute(left, right, spec)
        assert result.total_chains == len(left) * len(right)
        naive = eng.execute(
            left, right, spec=spec.replace(algorithm="naive")
        )
        assert result.chain_set() == naive.chain_set()

    def test_cartesian_hop_stats(self):
        left, right = make_random_pair(seed=27, n=6, d=3, g=2)
        plan = CascadePlan((left, right), hops=[HopSpec.cross()])
        assert plan.stats().join_size == 36


@pytest.fixture(autouse=True)
def _silence_soundness_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SoundnessWarning)
        yield
