"""Cross-algorithm tests for Algorithms 1-3 and the cartesian fast path."""

import warnings

import numpy as np
import pytest

import repro
from repro.core import JoinPlan, run_cartesian, run_dominator, run_grouping, run_naive
from repro.errors import AggregateError, AlgorithmError, JoinError, SoundnessWarning

from ..helpers import make_random_pair


def _pairs(result):
    return result.pair_set()


class TestNaive:
    def test_result_metadata(self, tiny_pair):
        plan = JoinPlan(*tiny_pair)
        res = run_naive(plan, 4)
        assert res.algorithm == "naive"
        assert res.mode == "exact"
        assert res.timings.join > 0
        assert res.left_counts == {}

    def test_inner_engines_agree(self, tiny_pair):
        from repro.skyline import k_dominant_skyline_naive

        plan = JoinPlan(*tiny_pair)
        view = plan.view()
        reference = view.pairs[k_dominant_skyline_naive(view.oriented(), 4)]
        assert _pairs(run_naive(plan, 4)) == {tuple(map(int, p)) for p in reference}

    def test_supports_weakly_monotone_aggregate(self, agg_pair):
        plan = JoinPlan(*agg_pair, aggregate="max")
        res = run_naive(plan, 4)  # must not raise
        assert res.count >= 0

    def test_skyline_pairs_truly_undominated(self, tiny_pair):
        from repro.skyline import is_k_dominated

        plan = JoinPlan(*tiny_pair)
        k = 4
        res = run_naive(plan, k)
        view = plan.view()
        joined = view.oriented()
        answer = _pairs(res)
        for pos in range(len(view)):
            vec = joined[pos]
            pair = tuple(map(int, view.pairs[pos]))
            assert (pair in answer) == (not is_k_dominated(joined, vec, k))


class TestOptimizedAgreement:
    @pytest.mark.parametrize("seed", range(12))
    def test_all_algorithms_agree_no_aggregation(self, seed):
        left, right = make_random_pair(seed=seed, n=12, d=4, g=3, a=0)
        k = 6
        base = repro.ksjq(left, right, k=k, algorithm="naive")
        for algorithm in ("grouping", "dominator"):
            for mode in ("faithful", "exact"):
                res = repro.ksjq(left, right, k=k, algorithm=algorithm, mode=mode)
                assert _pairs(res) == _pairs(base), (algorithm, mode)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("a", [1, 2])
    def test_exact_mode_agrees_with_aggregation(self, seed, a):
        left, right = make_random_pair(seed=seed, n=10, d=4, g=3, a=a)
        k = 6
        base = repro.ksjq(left, right, k=k, algorithm="naive", aggregate="sum")
        for algorithm in ("grouping", "dominator"):
            res = repro.ksjq(
                left, right, k=k, algorithm=algorithm, aggregate="sum", mode="exact"
            )
            assert _pairs(res) == _pairs(base), algorithm

    @pytest.mark.parametrize("algorithm", ["grouping", "dominator"])
    def test_faithful_never_underreports(self, algorithm):
        # Faithful mode may contain false positives under aggregation
        # but must never lose a true skyline tuple (NN pruning is sound).
        for seed in range(10):
            left, right = make_random_pair(seed=seed, n=10, d=4, g=3, a=1)
            base = repro.ksjq(left, right, k=6, algorithm="naive", aggregate="sum")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SoundnessWarning)
                res = repro.ksjq(
                    left, right, k=6, algorithm=algorithm, aggregate="sum",
                    mode="faithful",
                )
            assert _pairs(base) <= _pairs(res)

    def test_result_metadata(self, tiny_pair):
        plan = JoinPlan(*tiny_pair)
        res = run_grouping(plan, 4)
        assert res.algorithm == "grouping"
        assert set(res.left_counts) == {"SS", "SN", "NN"}
        assert set(res.cell_pair_counts) == {"SS*SS", "SS*SN", "SN*SS", "SN*SN"}
        dom = run_dominator(plan, 4)
        assert dom.algorithm == "dominator"
        assert dom.timings.dominator >= 0

    def test_soundness_warning_emitted(self):
        left, right = make_random_pair(seed=3, n=8, d=4, g=2, a=2)
        plan = JoinPlan(left, right, aggregate="sum")
        with pytest.warns(SoundnessWarning):
            run_grouping(plan, 6, mode="faithful")

    def test_no_warning_without_aggregation(self, tiny_pair):
        plan = JoinPlan(*tiny_pair)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SoundnessWarning)
            run_grouping(plan, 4, mode="faithful")  # must not warn

    def test_unknown_mode(self, tiny_pair):
        plan = JoinPlan(*tiny_pair)
        with pytest.raises(AlgorithmError, match="unknown mode"):
            run_grouping(plan, 4, mode="fast")
        with pytest.raises(AlgorithmError, match="unknown mode"):
            run_dominator(plan, 4, mode="fast")

    def test_weakly_monotone_aggregate_rejected(self, agg_pair):
        plan = JoinPlan(*agg_pair, aggregate="max")
        with pytest.raises(AggregateError, match="strictly"):
            run_grouping(plan, 4)
        with pytest.raises(AggregateError, match="strictly"):
            run_dominator(plan, 4)


class TestCartesian:
    @pytest.mark.parametrize("seed", range(8))
    def test_fast_path_matches_naive(self, seed):
        left, right = make_random_pair(seed=seed, n=10, d=3, g=1, a=0)
        plan = JoinPlan(left, right, kind="cartesian")
        assert _pairs(run_cartesian(plan, 4)) == _pairs(run_naive(plan, 4))

    def test_matches_grouping_on_single_group(self):
        left, right = make_random_pair(seed=20, n=12, d=3, g=1, a=0)
        cart = JoinPlan(left, right, kind="cartesian")
        eq = JoinPlan(left, right, kind="equality")  # all in group 0
        assert _pairs(run_cartesian(cart, 4)) == _pairs(run_grouping(eq, 4))

    def test_requires_cartesian_plan(self, tiny_pair):
        plan = JoinPlan(*tiny_pair)
        with pytest.raises(JoinError, match="cartesian"):
            run_cartesian(plan, 4)

    def test_no_verification_in_faithful_mode(self):
        left, right = make_random_pair(seed=21, n=10, d=3, g=1)
        plan = JoinPlan(left, right, kind="cartesian")
        res = run_cartesian(plan, 4, mode="faithful")
        assert res.checked == 0

    def test_exact_mode_verifies(self):
        left, right = make_random_pair(seed=22, n=10, d=3, g=1, a=1)
        plan = JoinPlan(left, right, kind="cartesian", aggregate="sum")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SoundnessWarning)
            exact = run_cartesian(plan, 4, mode="exact")
        base = run_naive(plan, 4)
        assert _pairs(exact) == _pairs(base)

    def test_unknown_mode(self):
        left, right = make_random_pair(seed=23, n=6, d=3, g=1)
        plan = JoinPlan(left, right, kind="cartesian")
        with pytest.raises(AlgorithmError):
            run_cartesian(plan, 4, mode="quick")


class TestThetaJoins:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("op_name", ["LT", "LE", "GT", "GE"])
    def test_optimized_match_naive_on_theta_join(self, seed, op_name):
        from repro.relational import Relation, RelationSchema, ThetaCondition, ThetaOp

        rng = np.random.default_rng(seed)
        schema = RelationSchema.build(skyline=["x", "y", "z"], payload=["t"])
        n = 10

        def mk(name):
            return Relation(
                schema,
                {
                    "x": np.floor(rng.uniform(0, 4, n)),
                    "y": np.floor(rng.uniform(0, 4, n)),
                    "z": np.floor(rng.uniform(0, 4, n)),
                    "t": np.floor(rng.uniform(0, 6, n)),
                },
                name=name,
            )

        left, right = mk("L"), mk("R")
        cond = ThetaCondition("t", ThetaOp[op_name], "t")
        plan = JoinPlan(left, right, kind="theta", theta=cond)
        if len(plan.view()) == 0:
            pytest.skip("empty theta join for this seed")
        base = run_naive(plan, 4)
        for mode in ("faithful", "exact"):
            assert _pairs(run_grouping(plan, 4, mode=mode)) == _pairs(base)
            assert _pairs(run_dominator(plan, 4, mode=mode)) == _pairs(base)
