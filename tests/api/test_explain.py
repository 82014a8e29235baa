"""Cost-based algorithm choice and explain reports."""

import warnings

from repro.api import Engine, QuerySpec, choose_algorithm
from repro.core.plan import JoinPlan
from repro.errors import SoundnessWarning
from repro.relational import Relation

from ..helpers import make_random_pair


class TestChooseAlgorithm:
    def test_equality_join_picks_grouping(self):
        left, right = make_random_pair(seed=40, n=40, d=4, g=4)
        algorithm, costs, _ = choose_algorithm(JoinPlan(left, right))
        assert algorithm == "grouping"
        assert costs["grouping"] < costs["naive"]

    def test_cartesian_join_picks_cartesian(self):
        left, right = make_random_pair(seed=41, n=12, d=4, g=3)
        algorithm, _, reason = choose_algorithm(JoinPlan(left, right, kind="cartesian"))
        assert algorithm == "cartesian"
        assert "fate table" in reason

    def test_many_tiny_groups_pick_dominator(self):
        left, right = make_random_pair(seed=42, n=30, d=4, g=15)
        algorithm, costs, _ = choose_algorithm(JoinPlan(left, right))
        assert algorithm == "dominator"
        assert costs["dominator"] < costs["grouping"]

    def test_empty_join_picks_naive(self):
        left, _ = make_random_pair(seed=43, n=8, d=3, g=2)
        right = Relation.from_arrays(
            left.matrix,
            list(left.schema.skyline_names),
            join_key=["elsewhere"] * len(left),
            name="R2",
        )
        algorithm, costs, _ = choose_algorithm(JoinPlan(left, right))
        assert algorithm == "naive"
        assert costs["naive"] == 0.0

    def test_non_monotone_aggregate_forces_naive(self):
        left, right = make_random_pair(seed=44, n=10, d=4, g=3, a=1)
        plan = JoinPlan(left, right, aggregate="max")
        algorithm, _, reason = choose_algorithm(plan)
        assert algorithm == "naive"
        assert "monotone" in reason

    def test_faithful_mode_with_two_aggregates_excludes_naive(self):
        left, right = make_random_pair(seed=45, n=10, d=4, g=3, a=2)
        plan = JoinPlan(left, right, aggregate="sum")
        _, faithful_costs, _ = choose_algorithm(plan, mode="faithful")
        assert "naive" not in faithful_costs
        _, exact_costs, _ = choose_algorithm(plan, mode="exact")
        assert "naive" in exact_costs


class TestExplainReport:
    def test_explain_does_not_execute(self):
        left, right = make_random_pair(seed=46, n=12, d=4, g=3)
        eng = Engine()
        report = eng.query(left, right).k(5).explain()
        assert report.algorithm == "grouping"
        assert report.stats.n_left == 12
        assert not report.cache_hit
        assert "chosen: grouping" in report.summary()

    def test_explain_reports_cache_hit(self):
        left, right = make_random_pair(seed=46, n=12, d=4, g=3)
        eng = Engine()
        eng.query(left, right).k(5).run()
        assert eng.query(left, right).k(5).explain().cache_hit

    def test_explicit_algorithm_is_reported_as_requested(self):
        left, right = make_random_pair(seed=46, n=12, d=4, g=3)
        report = Engine().query(left, right).algorithm("naive").k(5).explain()
        assert report.algorithm == "naive"
        assert report.reason == "explicitly requested"

    def test_auto_runs_the_explained_algorithm(self):
        """The report's choice is what run() actually executes."""
        for seed, n, g in ((40, 40, 4), (42, 30, 15)):
            left, right = make_random_pair(seed=seed, n=n, d=4, g=g)
            eng = Engine()
            report = eng.query(left, right).k(5).explain()
            result = eng.query(left, right).k(5).run()
            assert result.algorithm == report.algorithm
        # Cascades, index and worker knobs, non-strict aggregates and
        # every explicit preset go through the same choice.
        left, right = make_random_pair(seed=40, n=40, d=4, g=4)
        third, _ = make_random_pair(seed=41, n=20, d=4, g=4)
        agg_left, agg_right = make_random_pair(seed=44, n=30, d=4, g=3, a=1)
        cases = [
            ((left, right), QuerySpec.for_ksjq(k=7, use_index=True)),
            ((agg_left, agg_right), QuerySpec.for_ksjq(k=6, aggregate="max", parallelism=2)),
            ((left, right), QuerySpec.for_ksjq(k=7, join="cartesian", algorithm="cartesian")),
        ]
        for algorithm in ("naive", "grouping", "dominator", "parallel", "indexed"):
            cases.append(((left, right), QuerySpec.for_ksjq(k=7, algorithm=algorithm)))
        for algorithm in ("auto", "naive", "pruned", "parallel", "indexed"):
            cases.append(((left, right, third), QuerySpec.for_cascade(k=10, algorithm=algorithm)))
        for inputs, spec in cases:
            eng = Engine()
            report = eng.explain(*inputs, spec)
            assert eng.execute(*inputs, spec).algorithm == report.algorithm, spec

    def test_non_monotone_aggregate_runs_naive_instead_of_raising(self):
        left, right = make_random_pair(seed=47, n=10, d=4, g=3, a=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SoundnessWarning)
            result = Engine().query(left, right).aggregate("max").k(5).run()
        assert result.algorithm == "naive"

    def test_find_k_explain(self):
        left, right = make_random_pair(seed=48, n=12, d=4, g=3)
        report = Engine().query(left, right).delta(3).method("binary").explain()
        assert report.algorithm == "binary"
        assert report.costs["binary"] <= report.costs["naive"]
        assert "search over k" in report.reason
