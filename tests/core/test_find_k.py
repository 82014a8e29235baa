"""Unit tests for repro.core.find_k (Algorithms 4-6, Problems 3-4)."""

import importlib

import pytest

import repro
from repro.core import JoinPlan
from repro.core.find_k import find_k_at_least_delta, find_k_at_most_delta
from repro.errors import ParameterError

from ..helpers import make_random_pair


def brute_force_find_k(plan, delta):
    """Reference implementation honoring the paper's default-to-d rule."""
    d1, d2 = plan.left.schema.d, plan.right.schema.d
    a = plan.left.schema.a
    k_min, k_max = max(d1, d2) + 1, (d1 - a) + (d2 - a) + a
    for k in range(k_min, k_max):
        if repro.run_naive(plan, k).count >= delta:
            return k
    return k_max


def skyline_count(plan, k):
    return repro.run_naive(plan, k).count


@pytest.fixture
def plan():
    left, right = make_random_pair(seed=31, n=16, d=4, g=4, a=0)
    return JoinPlan(left, right)


class TestCorrectness:
    @pytest.mark.parametrize("method", ["naive", "range", "binary"])
    @pytest.mark.parametrize("delta", [1, 3, 10, 40, 10_000])
    def test_matches_bruteforce(self, plan, method, delta):
        expected = brute_force_find_k(plan, delta)
        result = find_k_at_least_delta(plan, delta, method=method)
        assert result.k == expected, result.summary()

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("method", ["naive", "range", "binary"])
    def test_matches_bruteforce_random(self, seed, method):
        left, right = make_random_pair(seed=seed, n=14, d=4, g=3, a=0)
        plan = JoinPlan(left, right)
        for delta in (1, 5, 25, 500):
            assert find_k_at_least_delta(plan, delta, method=method).k == (
                brute_force_find_k(plan, delta)
            )

    def test_skyline_count_monotone_in_k(self, plan):
        # Lemma 1 consequence: the search's correctness precondition.
        counts = [skyline_count(plan, k) for k in range(5, 9)]
        assert counts == sorted(counts)

    def test_invalid_delta(self, plan):
        with pytest.raises(ParameterError, match="delta"):
            find_k_at_least_delta(plan, 0)

    def test_invalid_method(self, plan):
        with pytest.raises(ParameterError, match="method"):
            find_k_at_least_delta(plan, 5, method="quantum")


class TestBounds:
    def test_bounds_bracket_exact_count(self, plan):
        from repro.core.find_k import _FindKContext
        from repro.core.timing import PhaseClock

        ctx = _FindKContext(plan, "faithful", PhaseClock())
        for k in range(ctx.k_min, ctx.k_max + 1):
            lb, ub = ctx.bounds(k)
            count = skyline_count(plan, k)
            assert lb <= count <= ub, (k, lb, count, ub)

    def test_range_uses_fewer_full_evaluations_than_naive(self, plan):
        naive = find_k_at_least_delta(plan, 40, method="naive")
        ranged = find_k_at_least_delta(plan, 40, method="range")
        assert ranged.full_evaluations <= naive.full_evaluations

    def test_binary_probes_at_most_log_range(self, plan):
        result = find_k_at_least_delta(plan, 40, method="binary")
        k_range = 8 - 5 + 1
        # Each loop iteration halves [low, high]; allow the final
        # "lowest k reached" bookkeeping step.
        assert len(result.steps) <= k_range.bit_length() + 2


class TestDefaults:
    def test_unreachable_delta_returns_k_max(self, plan):
        result = find_k_at_least_delta(plan, 10**9, method="binary")
        assert result.k == 8  # joined dimensionality

    def test_delta_one_returns_smallest_feasible(self, plan):
        result = find_k_at_least_delta(plan, 1, method="binary")
        assert result.k == brute_force_find_k(plan, 1)

    def test_summary_renders(self, plan):
        text = find_k_at_least_delta(plan, 10, method="range").summary()
        assert "find-k[range]" in text and "delta=10" in text


class TestAtMostDelta:
    def test_reduction_basic(self, plan):
        # Problem 4: largest k with at most delta skylines.
        delta = 10
        at_least = find_k_at_least_delta(plan, delta, method="binary").k
        result = find_k_at_most_delta(plan, delta, method="binary")
        count_at_least = skyline_count(plan, at_least)
        if count_at_least == delta:
            assert result.k == at_least
        else:
            assert result.k in (at_least, at_least - 1)
        # The answer truly satisfies the at-most constraint when
        # feasible at all.
        if skyline_count(plan, result.k) > delta:
            # Only possible in the k_min corner case (Sec. 3).
            assert result.k == 5

    @pytest.mark.parametrize("delta", [1, 5, 20, 100])
    def test_at_most_vs_bruteforce(self, plan, delta):
        best = None
        for k in range(5, 9):
            if skyline_count(plan, k) <= delta:
                best = k
        result = find_k_at_most_delta(plan, delta, method="binary")
        if best is not None:
            # Paper semantics: k* - 1 where k* is the Problem-3 answer;
            # since counts are monotone this is the largest at-most k,
            # except the default-d corner where k*=d was never evaluated.
            assert skyline_count(plan, result.k) <= delta or result.k == 5


class TestFindKWithAggregates:
    @pytest.mark.parametrize("method", ["naive", "range", "binary"])
    def test_aggregate_plan(self, method):
        import warnings

        from repro.errors import SoundnessWarning

        left, right = make_random_pair(seed=33, n=12, d=4, g=3, a=1)
        plan = JoinPlan(left, right, aggregate="sum")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SoundnessWarning)
            result = find_k_at_least_delta(plan, 5, method=method)
        assert 5 <= result.k <= 7

    def test_exact_mode_bounds_stay_valid(self):
        import warnings

        from repro.core.find_k import _FindKContext
        from repro.core.timing import PhaseClock
        from repro.errors import SoundnessWarning

        left, right = make_random_pair(seed=34, n=12, d=4, g=3, a=2)
        plan = JoinPlan(left, right, aggregate="sum")
        ctx = _FindKContext(plan, "exact", PhaseClock())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SoundnessWarning)
            for k in range(ctx.k_min, ctx.k_max + 1):
                lb, ub = ctx.bounds(k)
                count = repro.run_naive(plan, k).count
                assert lb <= count <= ub


class TestEvaluationReuse:
    """Each k is categorized at most once and each full evaluation runs
    at most once, the at-most reduction included; the search itself is
    unchanged."""

    #: (k, exact count) per step of the at-least search, per method.
    STEPS = {
        "naive": [(7, 0), (8, 0), (9, 0), (10, 26)],
        "range": [(7, None), (8, None), (9, None), (10, 26)],
        "binary": [(9, None), (11, None), (10, 26), (10, None)],
    }

    @pytest.mark.parametrize("objective", ["at_least", "at_most"])
    @pytest.mark.parametrize("method", ["naive", "range", "binary"])
    @pytest.mark.parametrize("mode", ["faithful", "exact"])
    def test_each_k_evaluated_once(self, monkeypatch, mode, method, objective):
        from repro.datagen import generate_relation_pair

        module = importlib.import_module("repro.core.find_k")
        left, right = generate_relation_pair(n=200, d=6, g=10, a=0, seed=1)
        plan = JoinPlan(left, right)
        k_primes: list[int] = []
        runs: list[int] = []
        categorize_left = JoinPlan.categorize_left
        run = module.categorized_run

        def spy_categorize(self, k_prime):
            k_primes.append(k_prime)
            return categorize_left(self, k_prime)

        def spy_run(plan, k, *args):
            runs.append(k)
            return run(plan, k, *args)

        monkeypatch.setattr(JoinPlan, "categorize_left", spy_categorize)
        monkeypatch.setattr(module, "categorized_run", spy_run)
        search = find_k_at_least_delta if objective == "at_least" else find_k_at_most_delta
        result = search(plan, 20, method=method, mode=mode)

        assert result.k == (10 if objective == "at_least" else 9)
        assert [(step.k, step.exact_count) for step in result.steps] == self.STEPS[method]
        assert len(k_primes) == len(set(k_primes))
        assert runs.count(10) == 1 and len(runs) == len(set(runs))
        if method == "binary":
            assert k_primes == [3, 5, 4]
            assert runs == [10]
