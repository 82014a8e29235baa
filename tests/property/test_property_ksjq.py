"""Property-based tests for the KSJQ algorithms (hypothesis).

The central invariants:

* exact-mode grouping/dominator == naïve, for any join shape, any
  number of aggregates, any valid k;
* faithful mode == naïve without aggregation, and never *under*-reports
  with aggregation;
* the categorization is a partition consistent with its definitions;
* the cartesian fast path agrees with the general machinery.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Category, JoinPlan, run_cartesian, run_dominator, run_grouping, run_naive
from repro.errors import SoundnessWarning
from repro.relational import Relation, ThetaCondition, ThetaOp


@st.composite
def ksjq_instances(draw, max_a=2):
    d = draw(st.integers(min_value=2, max_value=4))
    a = draw(st.integers(min_value=0, max_value=min(max_a, d - 1)))
    n1 = draw(st.integers(min_value=1, max_value=10))
    n2 = draw(st.integers(min_value=1, max_value=10))
    g = draw(st.integers(min_value=1, max_value=3))
    k_min = d + 1
    k_max = 2 * d - a
    k = draw(st.integers(min_value=k_min, max_value=k_max))

    names = [f"s{i}" for i in range(d)]

    def rel(n, name):
        rows = draw(
            st.lists(
                st.lists(st.integers(0, 3), min_size=d, max_size=d),
                min_size=n,
                max_size=n,
            )
        )
        groups = [draw(st.integers(0, g - 1)) for _ in range(n)]
        return Relation.from_arrays(
            np.asarray(rows, dtype=float),
            names,
            join_key=groups,
            aggregate=names[:a],
            name=name,
        )

    return rel(n1, "R1"), rel(n2, "R2"), k, a


@given(ksjq_instances())
@settings(max_examples=60, deadline=None)
def test_exact_mode_equals_naive(instance):
    left, right, k, a = instance
    agg = "sum" if a else None
    plan = JoinPlan(left, right, aggregate=agg)
    base = run_naive(plan, k).pair_set()
    assert run_grouping(plan, k, mode="exact").pair_set() == base
    assert run_dominator(plan, k, mode="exact").pair_set() == base


@given(ksjq_instances(max_a=0))
@settings(max_examples=60, deadline=None)
def test_faithful_equals_naive_without_aggregation(instance):
    left, right, k, _ = instance
    plan = JoinPlan(left, right)
    base = run_naive(plan, k).pair_set()
    assert run_grouping(plan, k, mode="faithful").pair_set() == base
    assert run_dominator(plan, k, mode="faithful").pair_set() == base


@given(ksjq_instances())
@settings(max_examples=60, deadline=None)
def test_faithful_never_underreports(instance):
    left, right, k, a = instance
    agg = "sum" if a else None
    plan = JoinPlan(left, right, aggregate=agg)
    base = run_naive(plan, k).pair_set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SoundnessWarning)
        for runner in (run_grouping, run_dominator):
            assert base <= runner(plan, k, mode="faithful").pair_set()


@st.composite
def join_kinds(draw, d):
    """A two-way join kind over ``s0..s{d-1}``: equality, cartesian, one
    theta condition, or a two-condition conjunction."""
    kind = draw(st.sampled_from(["equality", "cartesian", "theta", "conjunction"]))
    if kind in ("equality", "cartesian"):
        return kind, None
    attrs = st.sampled_from([f"s{i}" for i in range(d)])
    conditions = [
        ThetaCondition(draw(attrs), draw(st.sampled_from(list(ThetaOp))), draw(attrs))
        for _ in range(1 if kind == "theta" else 2)
    ]
    return "theta", conditions


def raw_stand_ins(rel, plan, side, row):
    """Rows that join every partner ``row`` joins, whatever the other
    side holds, from the raw join values: the same composite join key
    (equality), every row (cartesian), or, under each theta condition,
    every probe partner value that ``row`` joins."""
    n = len(rel)
    if plan.kind == "equality":
        return [s for s in range(n) if rel.join_key(s) == rel.join_key(row)]
    ok = np.ones(n, dtype=bool)
    for cond in plan.theta_conditions:
        values = np.asarray(rel.column(cond.left_attr if side == "left" else cond.right_attr))
        # Integer-valued data: the values and their midpoints tell
        # every half-line of partners apart.
        probes = np.unique(np.concatenate([values, values - 0.5, values + 0.5]))
        if side == "left":
            joins = cond.op.evaluate(values[:, None], probes[None, :])
        else:
            joins = cond.op.evaluate(probes[None, :], values[:, None])
        ok &= (joins | ~joins[row]).all(axis=1)
    return np.flatnonzero(ok).tolist()


@given(ksjq_instances(), st.data())
@settings(max_examples=80, deadline=None)
def test_categorization_is_consistent_partition(instance, data):
    from repro.skyline import is_k_dominated

    left, right, k, a = instance
    kind, theta = data.draw(join_kinds(left.schema.d))
    agg = "sum" if a else None
    plan = JoinPlan(left, right, kind=kind, theta=theta, aggregate=agg)
    params = plan.params(k)
    for side, rel, cat in (
        ("left", left, plan.categorize_left(params.k1_prime)),
        ("right", right, plan.categorize_right(params.k2_prime)),
    ):
        matrix = rel.oriented()
        seen = 0
        for row in range(len(rel)):
            label = cat.category(row)
            seen += 1
            mates = raw_stand_ins(rel, plan, side, row)
            group_dominated = is_k_dominated(
                matrix[mates], matrix[row], cat.k_prime
            )
            overall_dominated = is_k_dominated(matrix, matrix[row], cat.k_prime)
            if label is Category.NN:
                assert group_dominated
            elif label is Category.SN:
                assert not group_dominated and overall_dominated
            else:
                assert not overall_dominated
        assert seen == len(rel)


@given(ksjq_instances())
@settings(max_examples=40, deadline=None)
def test_cartesian_fast_path_equals_naive(instance):
    left, right, k, a = instance
    agg = "sum" if a else None
    plan = JoinPlan(left, right, kind="cartesian", aggregate=agg)
    base = run_naive(plan, k).pair_set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SoundnessWarning)
        exact = run_cartesian(plan, k, mode="exact").pair_set()
    assert exact == base


@given(ksjq_instances(max_a=0), st.integers(min_value=1, max_value=200))
@settings(max_examples=40, deadline=None)
def test_find_k_binary_matches_linear(instance, delta):
    left, right, k, _ = instance
    plan = JoinPlan(left, right)
    from repro.core.find_k import find_k_at_least_delta

    answers = {
        method: find_k_at_least_delta(plan, delta, method=method).k
        for method in ("naive", "range", "binary")
    }
    assert len(set(answers.values())) == 1, answers
