"""Engine/spec/builder surface of the sharded parallel execution layer."""

import pytest

from repro.api import Engine, QuerySpec, choose_algorithm
from repro.core.parallel import ShardPlan
from repro.core.plan import CascadePlan, JoinPlan
from repro.errors import ParameterError

from ..helpers import make_random_pair


class TestSpecParallelism:
    def test_default_is_auto_and_equality_is_preserved(self):
        assert QuerySpec.for_ksjq(k=5).parallelism == "auto"
        assert QuerySpec.for_ksjq(k=5) == QuerySpec.for_ksjq(k=5, parallelism="auto")

    def test_explicit_workers_change_the_fingerprint(self):
        base = QuerySpec.for_ksjq(k=5)
        par = QuerySpec.for_ksjq(k=5, parallelism=4)
        assert base != par
        assert base.fingerprint() != par.fingerprint()
        assert "parallelism=4" in par.describe()

    @pytest.mark.parametrize("bad", [0, -2, True, 1.5, "four"])
    def test_invalid_parallelism_is_rejected(self, bad):
        with pytest.raises(ParameterError):
            QuerySpec.for_ksjq(k=5, parallelism=bad)

    def test_parallel_algorithm_is_a_valid_spec(self):
        spec = QuerySpec.for_ksjq(k=5, algorithm="parallel")
        assert spec.algorithm == "parallel"
        assert QuerySpec.for_cascade(k=5, algorithm="parallel").algorithm == "parallel"

    def test_find_k_accepts_but_carries_parallelism(self):
        spec = QuerySpec.for_find_k(delta=10, parallelism=2)
        assert spec.parallelism == 2

    def test_plan_key_ignores_parallelism(self):
        # Two specs differing only in parallelism share one cached plan.
        assert (
            QuerySpec.for_ksjq(k=5).plan_key()
            == QuerySpec.for_ksjq(k=5, parallelism=4).plan_key()
        )


#: Plans of both kinds for the recorded cost-model table below.
COST_PLANS = {
    "equality": lambda: JoinPlan(*make_random_pair(seed=70, n=24, d=4, g=3)),
    "cartesian": lambda: JoinPlan(
        *make_random_pair(seed=71, n=12, d=4, g=3), kind="cartesian"
    ),
    "a2-sum": lambda: JoinPlan(
        *make_random_pair(seed=72, n=20, d=4, g=3, a=2), aggregate="sum"
    ),
    "a1-max": lambda: JoinPlan(
        *make_random_pair(seed=73, n=20, d=4, g=3, a=1), aggregate="max"
    ),
    "cascade": lambda: CascadePlan(
        [*make_random_pair(seed=74, n=15, d=3, g=2), make_random_pair(seed=75, n=10, d=3, g=2)[0]]
    ),
    "cascade-max": lambda: CascadePlan(
        [
            *make_random_pair(seed=76, n=12, d=3, g=2, a=1),
            make_random_pair(seed=77, n=8, d=3, g=2, a=1)[0],
        ],
        aggregate="max",
    ),
}

_EQ_REASON = (
    "cheapest estimated cost over join size 192 (3 shared groups, categorization cost 384)"
)
_A2_REASON = (
    "cheapest estimated cost over join size 134 (3 shared groups, categorization cost 268)"
)
_CASCADE_REASON = (
    "cheapest estimated cost over 565 chains across 3 relations (Theorem-4 grouping cost 276)"
)

#: ``(plan, mode, workers, index_state, index_span) -> (algorithm, costs,
#: reason)``, recorded exactly. Compared with ``==``: a changed formula or
#: floating-point summation order fails.
RECORDED_CHOICES = [
    ("equality", "faithful", 1, None, None, (
        "grouping",
        {"grouping": 3044.4300404257956, "dominator": 13056.0, "naive": 36864.0},
        _EQ_REASON,
    )),
    ("equality", "faithful", 4, "cold", None, (
        "indexed",
        {"grouping": 3044.4300404257956, "dominator": 13056.0, "naive": 36864.0,
         "parallel": 8002969.107510107, "indexed": 1937.1201173220845},
        _EQ_REASON,
    )),
    ("equality", "exact", 4, "warm", 0.3, (
        "indexed",
        {"grouping": 3044.4300404257956, "dominator": 13056.0, "naive": 36864.0,
         "parallel": 8002969.107510107, "indexed": 990.1290121277385},
        _EQ_REASON,
    )),
    ("cartesian", "faithful", 4, "warm", 0.3, (
        "cartesian",
        {"cartesian": 432.0, "naive": 20736.0},
        "cartesian join: the fate table decides every pair with no verification",
    )),
    ("a2-sum", "faithful", 4, "warm", 0.3, (
        "grouping",
        {"grouping": 1819.1621449738902, "dominator": 6521.333333333333},
        _A2_REASON + "; exact family (naive/parallel/indexed) excluded: "
        "faithful mode with a >= 2 aggregates",
    )),
    ("a2-sum", "exact", 1, "cold", 0.3, (
        "indexed",
        {"grouping": 1819.1621449738902, "dominator": 6521.333333333333, "naive": 17956.0,
         "indexed": 909.0413404033173},
        _A2_REASON,
    )),
    ("a1-max", "faithful", 1, None, None, (
        "naive",
        {"naive": 17956.0},
        "aggregate 'max' is not strictly monotone; only the exact joined-view algorithms apply",
    )),
    ("a1-max", "exact", 4, "cold", None, (
        "indexed",
        {"naive": 17956.0, "parallel": 8001510.0405362435, "indexed": 1219.2737693980955},
        "aggregate 'max' is not strictly monotone; only the exact joined-view algorithms apply",
    )),
    ("cascade", "faithful", 1, None, None, (
        "pruned",
        {"naive": 319225.0, "pruned": 13705.896686125327},
        _CASCADE_REASON,
    )),
    ("cascade", "faithful", 4, "warm", 0.3, (
        "indexed",
        {"naive": 319225.0, "pruned": 13705.896686125327, "parallel": 8023309.036671531,
         "indexed": 4593.969005837598},
        _CASCADE_REASON,
    )),
    ("cascade", "exact", 4, "cold", None, (
        "indexed",
        {"naive": 319225.0, "pruned": 13705.896686125327, "parallel": 8023309.036671531,
         "indexed": 7939.542659249037},
        _CASCADE_REASON,
    )),
    ("cascade-max", "faithful", 4, "warm", None, (
        "indexed",
        {"naive": 82944.0, "parallel": 8006405.880517891, "indexed": 2731.761035780708},
        "aggregate 'max' is not strictly monotone; only the exact chain-set cascades apply",
    )),
]


class TestCostModel:
    @pytest.mark.parametrize(
        ("plan", "mode", "workers", "state", "span", "expected"),
        RECORDED_CHOICES,
        ids=[f"{c[0]}-{c[1]}-w{c[2]}-{c[3]}-{c[4]}" for c in RECORDED_CHOICES],
    )
    def test_recorded_choices_are_exact(self, plan, mode, workers, state, span, expected):
        assert choose_algorithm(COST_PLANS[plan](), mode, workers, state, span) == expected

    def test_unknown_index_state_is_rejected(self):
        with pytest.raises(ParameterError):
            choose_algorithm(COST_PLANS["cascade"](), index_state="lukewarm")

    def test_parallel_candidate_appears_only_with_workers(self):
        left, right = make_random_pair(seed=50, n=40, d=4, g=4)
        plan = JoinPlan(left, right)
        _, serial_costs, _ = choose_algorithm(plan, workers=1)
        assert "parallel" not in serial_costs
        _, par_costs, _ = choose_algorithm(plan, workers=4)
        assert "parallel" in par_costs

    def test_faithful_mode_with_two_aggregates_excludes_parallel(self):
        # Same answer-family gate as naive: the parallel path is exact,
        # so faithful auto with a >= 2 must not switch families.
        left, right = make_random_pair(seed=51, n=12, d=4, g=3, a=2)
        plan = JoinPlan(left, right, aggregate="sum")
        _, costs, reason = choose_algorithm(plan, mode="faithful", workers=4)
        assert "parallel" not in costs
        assert "excluded" in reason
        _, exact_costs, _ = choose_algorithm(plan, mode="exact", workers=4)
        assert "parallel" in exact_costs

    def test_non_monotone_aggregate_admits_parallel_with_workers(self):
        left, right = make_random_pair(seed=52, n=12, d=4, g=3, a=1)
        plan = JoinPlan(left, right, aggregate="max")
        algorithm, costs, _ = choose_algorithm(plan, workers=1)
        assert algorithm == "naive"
        _, costs, _ = choose_algorithm(plan, workers=4)
        assert set(costs) == {"naive", "parallel"}

    def test_huge_joins_prefer_parallel_over_naive(self):
        left, right = make_random_pair(seed=53, n=60, d=4, g=1)
        plan = JoinPlan(left, right)
        algorithm, costs, _ = choose_algorithm(plan, mode="exact", workers=4)
        assert costs["parallel"] < costs["naive"]

    def test_cascade_cost_model_gains_parallel_candidate(self):
        rng_pair = make_random_pair(seed=54, n=15, d=3, g=2)
        plan = CascadePlan(rng_pair)
        _, costs, _ = choose_algorithm(plan, workers=4)
        assert "parallel" in costs
        _, serial_costs, _ = choose_algorithm(plan)
        assert "parallel" not in serial_costs


class TestEngineParallel:
    def test_explicit_parallel_algorithm_matches_serial_auto_exact(self):
        left, right = make_random_pair(seed=55, n=45, d=4, g=3)
        engine = Engine()
        serial = engine.query(left, right).mode("exact").k(5).run()
        parallel = (
            engine.query(left, right).algorithm("parallel").parallelism(4).k(5).run()
        )
        assert parallel.pair_set() == serial.pair_set()

    def test_explain_reports_the_shard_plan(self):
        left, right = make_random_pair(seed=56, n=30, d=4, g=3)
        report = (
            Engine()
            .query(left, right)
            .algorithm("parallel")
            .parallelism(4)
            .k(5)
            .explain()
        )
        assert isinstance(report.shards, ShardPlan)
        assert report.shards.workers == 4
        assert "execution: 4" in report.summary()

    def test_explain_does_not_claim_workers_for_a_serial_choice(self):
        # A shard plan with workers may exist while the cost model still
        # picks a serial algorithm; the summary must say serial then.
        left, right = make_random_pair(seed=56, n=30, d=4, g=3)
        report = Engine().query(left, right).parallelism(4).k(5).explain()
        assert report.algorithm != "parallel"
        summary = report.summary()
        assert "execution: serial" in summary
        assert "chosen over the parallel path" in summary

    def test_explain_auto_small_join_is_serial(self):
        left, right = make_random_pair(seed=57, n=20, d=4, g=3)
        report = Engine().query(left, right).k(5).explain()
        assert report.shards is not None
        assert not report.shards.is_parallel

    def test_find_k_explain_has_no_shard_plan(self):
        left, right = make_random_pair(seed=58, n=20, d=4, g=3)
        report = Engine().query(left, right).delta(5).explain()
        assert report.shards is None

    def test_result_cache_does_not_fragment_on_worker_count(self):
        # Explicit algorithms answer identically at any parallelism, so
        # a w=2 result must serve a w=4 repeat from the result cache.
        left, right = make_random_pair(seed=63, n=30, d=4, g=3)
        engine = Engine(max_results=8)
        engine.execute(
            left, right, QuerySpec.for_ksjq(k=5, algorithm="parallel", parallelism=2)
        )
        hit = engine.execute(
            left, right, QuerySpec.for_ksjq(k=5, algorithm="parallel", parallelism=4)
        )
        assert engine.cache_info()["results"]["hits"] == 1
        # The cached answer is reused, but provenance reports the spec
        # this caller actually passed.
        assert hit.spec.parallelism == 4
        # auto specs keep parallelism in the key: the worker budget can
        # steer the algorithm choice between answer families.
        engine.execute(left, right, QuerySpec.for_ksjq(k=5, parallelism=2))
        engine.execute(left, right, QuerySpec.for_ksjq(k=5, parallelism=4))
        assert engine.cache_info()["results"]["hits"] == 1

    def test_execute_many_composes_with_parallel_specs(self):
        left, right = make_random_pair(seed=59, n=40, d=4, g=3)
        engine = Engine()
        spec = QuerySpec.for_ksjq(k=5, algorithm="parallel", parallelism=2)
        requests = [(left, right, spec)] * 6
        serial = engine.execute_many(requests, max_workers=1)
        fanned = engine.execute_many(requests, max_workers=4)
        for a, b in zip(serial, fanned):
            assert a.pair_set() == b.pair_set()

    def test_cascade_parallel_through_engine(self):
        left, right = make_random_pair(seed=60, n=20, d=4, g=2)
        engine = Engine()
        naive = (
            engine.query(left, right, left)
            .hop()
            .hop()
            .algorithm("naive")
            .k(7)
            .run()
        )
        parallel = (
            engine.query(left, right, left)
            .hop()
            .hop()
            .algorithm("parallel")
            .parallelism(2)
            .k(7)
            .run()
        )
        assert parallel.chain_set() == naive.chain_set()

    def test_cascade_parallel_does_not_stream(self):
        left, right = make_random_pair(seed=61, n=10, d=4, g=2)
        engine = Engine()
        builder = (
            engine.query(left, right, left).hop().hop().algorithm("parallel").k(7)
        )
        with pytest.raises(ParameterError):
            builder.stream()

    def test_handle_explain_reflects_current_state(self):
        left, right = make_random_pair(seed=62, n=20, d=4, g=3)
        engine = Engine()
        handle = engine.query(left, right).parallelism(2).k(5).prepare()
        report = handle.explain()
        assert report.shards is not None and report.shards.workers == 2
