"""Tests for conjunctive (multi-condition) theta joins.

Extension of paper Sec. 6.6: several non-equality conditions must hold
simultaneously (e.g. ``arr < dep`` and ``fee <= budget``). Soundness of
the SS/SN/NN machinery relies on a row's stand-ins under the
conjunction being the *intersection* of its per-condition stand-ins,
which the substitution key gives by one column per condition.
"""

import numpy as np
import pytest

from repro.core import JoinPlan, run_dominator, run_grouping, run_naive
from repro.errors import JoinError
from repro.relational import HopJoin, HopSpec, Relation, RelationSchema, ThetaCondition, ThetaOp
from repro.relational.join import normalize_theta


def theta_pairs(left, right, theta):
    """Every pair of a theta join, through the hop kernel."""
    return HopJoin(HopSpec.on_theta(theta), left, right).pairs()


def _rel(seed, n=10, name="R"):
    rng = np.random.default_rng(seed)
    schema = RelationSchema.build(skyline=["x", "y", "z"], payload=["t", "u"])
    return Relation(
        schema,
        {
            "x": np.floor(rng.uniform(0, 4, n)),
            "y": np.floor(rng.uniform(0, 4, n)),
            "z": np.floor(rng.uniform(0, 4, n)),
            "t": np.floor(rng.uniform(0, 6, n)),
            "u": np.floor(rng.uniform(0, 6, n)),
        },
        name=name,
    )


CONDS = [
    ThetaCondition("t", ThetaOp.LT, "t"),
    ThetaCondition("u", ThetaOp.GE, "u"),
]


class TestNormalizeTheta:
    def test_single_condition(self):
        assert normalize_theta(CONDS[0]) == (CONDS[0],)

    def test_sequence(self):
        assert normalize_theta(CONDS) == tuple(CONDS)

    def test_empty_rejected(self):
        with pytest.raises(JoinError, match="empty"):
            normalize_theta([])

    def test_wrong_type_rejected(self):
        with pytest.raises(JoinError):
            normalize_theta(42)
        with pytest.raises(JoinError, match="ThetaCondition"):
            normalize_theta(["t < t"])


class TestConjunctivePairs:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_bruteforce(self, seed):
        left, right = _rel(seed, name="L"), _rel(seed + 50, name="R")
        pairs = theta_pairs(left, right, CONDS)
        lt, lu = left.column("t"), left.column("u")
        rt, ru = right.column("t"), right.column("u")
        expected = {
            (i, j)
            for i in range(len(left))
            for j in range(len(right))
            if lt[i] < rt[j] and lu[i] >= ru[j]
        }
        assert set(map(tuple, pairs.tolist())) == expected

    def test_conjunction_subset_of_each_condition(self):
        left, right = _rel(1, name="L"), _rel(2, name="R")
        both = set(map(tuple, theta_pairs(left, right, CONDS).tolist()))
        for cond in CONDS:
            single = set(map(tuple, theta_pairs(left, right, cond).tolist()))
            assert both <= single


def left_stand_ins(rel, theta, row):
    """Rows whose left substitution key is at most ``row``'s everywhere."""
    key = HopJoin(HopSpec.on_theta(theta), rel, rel).substitution_keys()[0]
    return set(np.flatnonzero((key <= key[row]).all(axis=1)).tolist())


class TestConjunctiveIndex:
    def test_superset_is_intersection(self):
        rel = _rel(3)
        for row in range(len(rel)):
            expected = left_stand_ins(rel, CONDS[0], row) & left_stand_ins(rel, CONDS[1], row)
            assert left_stand_ins(rel, CONDS, row) == expected
            assert row in expected

    def test_requires_conditions(self):
        with pytest.raises(JoinError):
            HopJoin(HopSpec(kind="theta"), _rel(3), _rel(4))


class TestConjunctiveKsjq:
    @pytest.mark.parametrize("seed", range(8))
    def test_all_algorithms_agree(self, seed):
        left, right = _rel(seed, name="L"), _rel(seed + 100, name="R")
        plan = JoinPlan(left, right, kind="theta", theta=CONDS)
        if len(plan.view()) == 0:
            pytest.skip("empty conjunction for this seed")
        base = run_naive(plan, 4)
        for mode in ("faithful", "exact"):
            assert run_grouping(plan, 4, mode=mode).pair_set() == base.pair_set()
            assert run_dominator(plan, 4, mode=mode).pair_set() == base.pair_set()

    def test_pair_count_matches_enumeration(self):
        left, right = _rel(7, name="L"), _rel(8, name="R")
        plan = JoinPlan(left, right, kind="theta", theta=CONDS)
        rows_l, rows_r = [0, 2, 4, 6], [1, 3, 5, 7, 9]
        assert plan.compatible_pair_count(rows_l, rows_r) == len(
            plan.compatible_pairs(rows_l, rows_r)
        )

    def test_facade_accepts_condition_list(self):
        import repro

        left, right = _rel(9, name="L"), _rel(10, name="R")
        result = repro.ksjq(left, right, k=4, join="theta", theta=CONDS)
        base = repro.ksjq(left, right, k=4, join="theta", theta=CONDS,
                          algorithm="naive")
        assert result.pair_set() == base.pair_set()
