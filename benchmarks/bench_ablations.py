"""Ablation benchmarks for design choices not plotted in the paper.

These quantify the internal decisions DESIGN.md calls out:

* inner k-dominant engine: Two-Scan (TSA) vs quadratic naive inside
  Algorithm 1 — the paper says "any standard method [4]"; TSA is why
  the Python naive baseline is usable at all;
* TSA presorting: candidates discovered early keep the window small;
* faithful vs exact mode: what the soundness repair costs;
* plan reuse: JoinPlan memoizes its hop kernel and the joined view.
"""

import pytest

from repro.core import JoinPlan, run_grouping, run_naive
from repro.skyline import k_dominant_skyline_naive, k_dominant_skyline_tsa

from .conftest import dataset


@pytest.mark.parametrize("engine", ["tsa", "naive"])
@pytest.mark.benchmark(group="ablation-inner-engine")
def test_inner_skyline_engine(benchmark, engine):
    left, right = dataset(d=5, a=0)
    plan = JoinPlan(left, right)
    matrix = plan.view().oriented()
    fn = {
        "tsa": k_dominant_skyline_tsa,
        "naive": k_dominant_skyline_naive,
    }[engine]
    result = benchmark.pedantic(fn, args=(matrix, 8), rounds=1, iterations=1)
    benchmark.extra_info["skyline"] = len(result)


@pytest.mark.parametrize("presort", [True, False])
@pytest.mark.benchmark(group="ablation-tsa-presort")
def test_tsa_presort(benchmark, presort):
    left, right = dataset(d=5, a=0)
    matrix = JoinPlan(left, right).view().oriented()
    result = benchmark.pedantic(
        k_dominant_skyline_tsa, args=(matrix, 8), kwargs={"presort": presort},
        rounds=1, iterations=1,
    )
    benchmark.extra_info["skyline"] = len(result)


@pytest.mark.parametrize("mode", ["faithful", "exact"])
@pytest.mark.benchmark(group="ablation-mode")
def test_faithful_vs_exact(benchmark, mode):
    left, right = dataset(d=6, a=1)
    result = benchmark.pedantic(
        lambda: run_grouping(JoinPlan(left, right, aggregate="sum"), 9, mode=mode),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["skyline"] = result.count
    benchmark.extra_info["mode"] = mode


@pytest.mark.parametrize("consumption", ["first-result", "full-run"])
@pytest.mark.benchmark(group="ablation-progressive")
def test_progressive_time_to_first_result(benchmark, consumption):
    """Sec. 6.1 motivation: progressive generation delivers the first
    skyline tuple long before the batch algorithm finishes."""
    import itertools

    from repro.core import ksjq_progressive

    left, right = dataset(d=5, a=0)

    def first():
        plan = JoinPlan(left, right)
        return list(itertools.islice(ksjq_progressive(plan, 9), 1))

    def full():
        plan = JoinPlan(left, right)
        return run_grouping(plan, 9).count

    benchmark.pedantic(
        first if consumption == "first-result" else full, rounds=1, iterations=1
    )
    benchmark.extra_info["consumption"] = consumption


@pytest.mark.parametrize("algorithm", ["pruned", "naive"])
@pytest.mark.benchmark(group="ablation-cascade")
def test_cascade_pruning(benchmark, algorithm):
    """m-way NN pruning (Sec. 2.3 cascade) vs materialize-everything."""
    from repro.core import cascade_ksjq

    left, right = dataset(d=5, a=0)
    result = benchmark.pedantic(
        cascade_ksjq, args=([left, right], 8),
        kwargs={"algorithm": algorithm},
        rounds=1, iterations=1,
    )
    benchmark.extra_info["skyline"] = result.count
    benchmark.extra_info["pruned_rows"] = result.pruned_rows


@pytest.mark.parametrize("reuse", ["fresh-plan", "reused-plan"])
@pytest.mark.benchmark(group="ablation-plan-reuse")
def test_plan_reuse(benchmark, reuse):
    left, right = dataset(d=5, a=0)
    shared = JoinPlan(left, right)
    shared.view()  # warm the memoized join

    def fresh():
        return run_naive(JoinPlan(left, right), 8)

    def reused():
        return run_naive(shared, 8)

    result = benchmark.pedantic(
        fresh if reuse == "fresh-plan" else reused, rounds=1, iterations=1
    )
    benchmark.extra_info["skyline"] = result.count
