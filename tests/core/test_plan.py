"""Unit tests for repro.core.plan (JoinPlan)."""

import pytest

from repro.core import JoinPlan
from repro.core.plan import CascadePlan
from repro.errors import AggregateError, JoinError
from repro.relational import HopSpec, Relation, RelationSchema, ThetaCondition, ThetaOp

from ..helpers import make_random_pair


class TestConstruction:
    def test_unknown_kind(self, tiny_pair):
        with pytest.raises(JoinError, match="unknown join kind"):
            JoinPlan(*tiny_pair, kind="fancy")

    def test_theta_requires_condition(self, tiny_pair):
        with pytest.raises(JoinError, match="requires a ThetaCondition"):
            JoinPlan(*tiny_pair, kind="theta")

    def test_condition_requires_theta_kind(self, tiny_pair):
        cond = ThetaCondition("s0", ThetaOp.LT, "s0")
        with pytest.raises(JoinError, match="kind="):
            JoinPlan(*tiny_pair, kind="equality", theta=cond)

    def test_aggregate_schemas_require_function(self, agg_pair):
        with pytest.raises(JoinError, match="aggregate"):
            JoinPlan(*agg_pair)

    def test_strict_aggregate_enforcement(self, agg_pair):
        plan = JoinPlan(*agg_pair, aggregate="max")
        with pytest.raises(AggregateError, match="strictly"):
            plan.require_strict_aggregate("test algorithm")
        JoinPlan(*agg_pair, aggregate="sum").require_strict_aggregate("t")


class TestCompatiblePairs:
    def test_equality_pairs_respect_groups(self, tiny_pair):
        left, right = tiny_pair
        plan = JoinPlan(left, right)
        pairs = plan.compatible_pairs(range(len(left)), range(len(right)))
        for u, v in pairs.tolist():
            assert left.join_key(u) == right.join_key(v)
        # matches the full enumeration of the view
        assert set(map(tuple, pairs.tolist())) == set(
            map(tuple, plan.view().pairs.tolist())
        )

    def test_subset_pairs(self, tiny_pair):
        left, right = tiny_pair
        plan = JoinPlan(left, right)
        sub = plan.compatible_pairs([0, 1], [0, 1, 2])
        full = plan.compatible_pairs(range(len(left)), range(len(right)))
        assert set(map(tuple, sub.tolist())) <= set(map(tuple, full.tolist()))
        assert all(u in (0, 1) for u, _ in sub.tolist())

    def test_empty_inputs(self, tiny_pair):
        plan = JoinPlan(*tiny_pair)
        assert plan.compatible_pairs([], [1]).shape == (0, 2)

    def test_cartesian_pairs(self, tiny_pair):
        left, right = tiny_pair
        plan = JoinPlan(left, right, kind="cartesian")
        pairs = plan.compatible_pairs([0, 1], [2, 3])
        assert len(pairs) == 4

    def test_theta_pairs_filtered(self):
        schema = RelationSchema.build(skyline=["v"], payload=["t"])
        left = Relation(schema, {"v": [0.0, 0.0], "t": [1.0, 5.0]})
        right = Relation(schema, {"v": [0.0, 0.0], "t": [3.0, 6.0]})
        cond = ThetaCondition("t", ThetaOp.LT, "t")
        plan = JoinPlan(left, right, kind="theta", theta=cond)
        pairs = plan.compatible_pairs([0, 1], [0, 1])
        assert set(map(tuple, pairs.tolist())) == {(0, 0), (0, 1), (1, 1)}


class TestCompatiblePairCount:
    @pytest.mark.parametrize("kind", ["equality", "cartesian"])
    def test_count_matches_enumeration(self, tiny_pair, kind):
        left, right = tiny_pair
        plan = JoinPlan(left, right, kind=kind)
        rows_l, rows_r = [0, 2, 4, 5], [1, 3, 6]
        assert plan.compatible_pair_count(rows_l, rows_r) == len(
            plan.compatible_pairs(rows_l, rows_r)
        )

    @pytest.mark.parametrize("op", list(ThetaOp))
    def test_theta_count_matches_enumeration(self, op):
        schema = RelationSchema.build(skyline=["v"], payload=["t"])
        left = Relation(schema, {"v": [0.0] * 4, "t": [1.0, 3.0, 3.0, 7.0]})
        right = Relation(schema, {"v": [0.0] * 4, "t": [2.0, 3.0, 5.0, 8.0]})
        plan = JoinPlan(
            left, right, kind="theta", theta=ThetaCondition("t", op, "t")
        )
        rows_l, rows_r = [0, 1, 3], [0, 2, 3]
        assert plan.compatible_pair_count(rows_l, rows_r) == len(
            plan.compatible_pairs(rows_l, rows_r)
        )

    def test_zero_counts(self, tiny_pair):
        plan = JoinPlan(*tiny_pair)
        assert plan.compatible_pair_count([], [0]) == 0


class TestCartesianCategorization:
    def test_no_sn_category(self):
        left, right = make_random_pair(seed=14, n=15, d=3, g=3)
        plan = JoinPlan(left, right, kind="cartesian")
        cat = plan.categorize_left(2)
        assert len(cat.sn_rows) == 0
        assert len(cat.ss_rows) + len(cat.nn_rows) == len(left)

    def test_ss_equals_k_dominant_skyline(self):
        from repro.skyline import k_dominant_skyline_naive

        left, right = make_random_pair(seed=15, n=15, d=3, g=3)
        plan = JoinPlan(left, right, kind="cartesian")
        cat = plan.categorize_left(2)
        assert sorted(cat.ss_rows.tolist()) == k_dominant_skyline_naive(
            left.oriented(), 2
        )

    def test_params_delegation(self, tiny_pair):
        plan = JoinPlan(*tiny_pair)
        assert plan.params(4).k == 4

    def test_repr(self, tiny_pair):
        assert "JoinPlan" in repr(JoinPlan(*tiny_pair))


THETA = ThetaCondition("s0", ThetaOp.LT, "s1")
CONJ = [THETA, ThetaCondition("s2", ThetaOp.GE, "s2")]


class TestStatsPinned:
    """Plan statistics drive every ``auto`` pick and ``explain()`` line;
    these values were recorded before categorization and cascade
    pruning moved onto the hop kernel's substitution keys."""

    @pytest.mark.parametrize(
        "kind,theta,groups,join_size,cost",
        [
            ("equality", None, (4, 4, 4), 36, 72),
            ("cartesian", None, (1, 1, 1), 144, 288),
            ("theta", THETA, (12, 12, 12), 88, 288),
            ("theta", CONJ, (12, 12, 12), 74, 288),
        ],
    )
    def test_plan_stats(self, kind, theta, groups, join_size, cost):
        left, right = make_random_pair(seed=17, n=12, d=3, g=4)
        stats = JoinPlan(left, right, kind=kind, theta=theta).stats()
        assert stats.as_dict() == {
            "kind": kind,
            "n_left": 12,
            "n_right": 12,
            "left_group_count": groups[0],
            "right_group_count": groups[1],
            "shared_group_count": groups[2],
            "join_size": join_size,
            "categorization_cost": cost,
            "joined_width": 6,
        }

    @pytest.mark.parametrize(
        "hop,join_size,cost",
        [
            (HopSpec.on_columns("s0", "s1"), 60, 72),
            (HopSpec.cross(), 243, 144),
            (HopSpec.on_theta(THETA), 60, 72),
            (HopSpec.on_theta(CONJ), 51, 68),
        ],
        ids=["equality", "cartesian", "theta", "conjunction"],
    )
    def test_cascade_stats(self, hop, join_size, cost):
        first, _ = make_random_pair(seed=17, n=12, d=3, g=4)
        second, third = make_random_pair(seed=18, n=9, d=3, g=3)
        stats = CascadePlan([first, second, third], [HopSpec(), hop]).stats()
        assert stats.as_dict() == {
            "kind": "cascade",
            "base_sizes": [12, 9, 9],
            "n_relations": 3,
            "join_size": join_size,
            "categorization_cost": cost,
            "joined_width": 9,
        }
