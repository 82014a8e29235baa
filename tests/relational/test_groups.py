"""Unit tests for repro.relational.groups (``ThetaOp``) and for join
groups read off the hop kernel's substitution keys.

Join groups are the classes of equal substitution keys of an equality
hop side; under a theta condition a row's stand-ins are the rows whose
key is at most its own in every column.
"""

import numpy as np
import pytest

from repro.relational import HopJoin, HopSpec, Relation, RelationSchema, ThetaCondition, ThetaOp


def key_classes(key):
    """Rows grouped by equal key, as sorted row lists."""
    _, inverse = np.unique(key, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    return [np.flatnonzero(inverse == c).tolist() for c in range(inverse.max(initial=-1) + 1)]


def stand_ins(key, row):
    """Rows whose key is at most ``row``'s in every column."""
    return np.flatnonzero((key <= key[row]).all(axis=1)).tolist()


@pytest.fixture
def relation():
    schema = RelationSchema.build(join=["g"], skyline=["x"])
    return Relation(
        schema, {"g": ["a", "b", "a", "c", "b"], "x": [1.0, 2.0, 3.0, 4.0, 5.0]}
    )


def equality_key(relation):
    return HopJoin(HopSpec(), relation, relation).substitution_keys()[0]


class TestGroupIndex:
    """Join groups as the classes of equal equality keys."""

    def test_partition(self, relation):
        groups = key_classes(equality_key(relation))
        assert len(groups) == 3
        assert [0, 2] in groups and [1, 4] in groups
        # A key the other side lacks has no rows on this side.
        schema = RelationSchema.build(join=["g"], skyline=["x"])
        other = Relation(schema, {"g": ["missing", "a"], "x": [0.0, 0.0]})
        left_key, right_key = HopJoin(HopSpec(), relation, other).substitution_keys()
        assert not (left_key == right_key[0]).all(axis=1).any()
        assert (left_key == right_key[1]).all(axis=1).nonzero()[0].tolist() == [0, 2]

    def test_key_of_and_groupmates(self, relation):
        key = equality_key(relation)
        assert [relation.join_key(r) for r in stand_ins(key, 4)] == [("b",), ("b",)]
        assert stand_ins(key, 0) == [0, 2]

    def test_sizes(self, relation):
        classes = key_classes(equality_key(relation))
        sizes = {relation.join_key(rows[0]): len(rows) for rows in classes}
        assert sizes == {("a",): 2, ("b",): 2, ("c",): 1}

    def test_items_cover_all_rows(self, relation):
        rows = sorted(r for members in key_classes(equality_key(relation)) for r in members)
        assert rows == list(range(len(relation)))


class TestThetaGroupIndex:
    """Theta stand-ins: rows guaranteed to join at least the same partners."""

    @pytest.fixture
    def rel(self):
        schema = RelationSchema.build(skyline=["v"], payload=["arr"])
        return Relation(
            schema,
            {"v": [0.0] * 5, "arr": [10.0, 20.0, 30.0, 20.0, 5.0]},
        )

    @staticmethod
    def theta_key(rel, op, is_left):
        hop = HopSpec.on_theta(ThetaCondition("arr", op, "arr"))
        return HopJoin(hop, rel, rel).substitution_keys()[0 if is_left else 1]

    def test_lt_left_side_superset(self, rel):
        # Condition left.arr < right.dep: smaller arr joins with more.
        key = self.theta_key(rel, ThetaOp.LT, is_left=True)
        # Row 1 (arr=20): stand-ins = rows with arr <= 20 (ties included).
        assert stand_ins(key, 1) == [0, 1, 3, 4]
        assert stand_ins(key, 4) == [4]
        assert stand_ins(key, 2) == [0, 1, 2, 3, 4]

    def test_gt_right_side_superset(self, rel):
        # Condition left.x < right.dep seen from the right: larger dep joins more.
        key = self.theta_key(rel, ThetaOp.LT, is_left=False)
        assert stand_ins(key, 1) == [1, 2, 3]
        assert stand_ins(key, 2) == [2]

    @pytest.mark.parametrize(
        "op,is_left,row,expected",
        [
            (ThetaOp.LE, True, 1, [0, 1, 3, 4]),
            (ThetaOp.GT, True, 1, [1, 2, 3]),
            (ThetaOp.GE, True, 1, [1, 2, 3]),
            (ThetaOp.LE, False, 1, [1, 2, 3]),
            (ThetaOp.GE, False, 1, [0, 1, 3, 4]),
        ],
    )
    def test_all_operators(self, rel, op, is_left, row, expected):
        assert stand_ins(self.theta_key(rel, op, is_left), row) == expected

    def test_superset_rows_always_include_self(self, rel):
        for op in ThetaOp:
            for side in (True, False):
                key = self.theta_key(rel, op, side)
                for row in range(len(rel)):
                    assert row in stand_ins(key, row)

    def test_theta_op_evaluate(self):
        values = np.array([1.0, 2.0, 3.0])
        assert list(ThetaOp.LT.evaluate(values, 2.0)) == [True, False, False]
        assert list(ThetaOp.LE.evaluate(values, 2.0)) == [True, True, False]
        assert list(ThetaOp.GT.evaluate(values, 2.0)) == [False, False, True]
        assert list(ThetaOp.GE.evaluate(values, 2.0)) == [False, True, True]


SORTED_RIGHT = (1.0, 2.0, 2.0, 2.0, 3.0, 5.0, 5.0)
# Ties with the right column, values between, below and above it.
LEFT = (2.0, 5.0, 1.0, 0.0, 9.0, 2.5, 3.0, 2.0)


class TestPartnerRanges:
    """``ThetaOp.partner_ranges`` against the ``evaluate`` masks it replaces."""

    @pytest.mark.parametrize("op", list(ThetaOp), ids=lambda op: op.name)
    def test_range_equals_evaluate_mask_on_ties(self, op):
        left, right = np.array(LEFT), np.array(SORTED_RIGHT)
        lo, hi = op.partner_ranges(left, right)
        positions = np.arange(right.size)
        for value, start, stop in zip(left, lo, hi):
            in_range = (positions >= start) & (positions < stop)
            assert in_range.tolist() == op.evaluate(value, right).tolist()

    @pytest.mark.parametrize("op", list(ThetaOp), ids=lambda op: op.name)
    def test_suffix_or_prefix_and_empty_right(self, op):
        left = np.array(LEFT)
        lo, hi = op.partner_ranges(left, np.array(SORTED_RIGHT))
        if op in (ThetaOp.LT, ThetaOp.LE):
            assert (hi == len(SORTED_RIGHT)).all()
        else:
            assert (lo == 0).all()
        lo, hi = op.partner_ranges(left, np.empty(0))
        assert lo.tolist() == hi.tolist() == [0] * left.size

    def test_evaluate_broadcasts_aligned_columns(self):
        left = np.array([1.0, 2.0, 3.0])
        right = np.array([2.0, 2.0, 2.0])
        assert ThetaOp.LT.evaluate(left, right).tolist() == [True, False, False]
        assert ThetaOp.GE.evaluate(2.0, left).tolist() == [True, True, False]
