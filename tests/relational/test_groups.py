"""Unit tests for repro.relational.groups."""

import numpy as np
import pytest

from repro.relational import Relation, RelationSchema, ThetaGroupIndex, ThetaOp
from repro.relational.groups import GroupIndex


@pytest.fixture
def relation():
    schema = RelationSchema.build(join=["g"], skyline=["x"])
    return Relation(
        schema, {"g": ["a", "b", "a", "c", "b"], "x": [1.0, 2.0, 3.0, 4.0, 5.0]}
    )


class TestGroupIndex:
    def test_partition(self, relation):
        idx = GroupIndex(relation)
        assert len(idx) == 3
        assert idx.rows(("a",)) == [0, 2]
        assert idx.rows(("b",)) == [1, 4]
        assert idx.rows(("missing",)) == []

    def test_key_of_and_groupmates(self, relation):
        idx = GroupIndex(relation)
        assert idx.key_of(4) == ("b",)
        assert idx.groupmates(0) == [0, 2]

    def test_sizes(self, relation):
        idx = GroupIndex(relation)
        assert idx.sizes() == {("a",): 2, ("b",): 2, ("c",): 1}

    def test_items_cover_all_rows(self, relation):
        idx = GroupIndex(relation)
        rows = sorted(r for _, members in idx.items() for r in members)
        assert rows == list(range(len(relation)))


class TestThetaGroupIndex:
    @pytest.fixture
    def rel(self):
        schema = RelationSchema.build(skyline=["v"], payload=["arr"])
        return Relation(
            schema,
            {"v": [0.0] * 5, "arr": [10.0, 20.0, 30.0, 20.0, 5.0]},
        )

    def test_lt_left_side_superset(self, rel):
        # Condition left.arr < right.dep: smaller arr joins with more.
        idx = ThetaGroupIndex(rel, "arr", ThetaOp.LT, is_left=True)
        # Row 1 (arr=20): superset = rows with arr <= 20 (ties included).
        assert sorted(idx.superset_rows(1)) == [0, 1, 3, 4]
        assert sorted(idx.superset_rows(4)) == [4]
        assert sorted(idx.superset_rows(2)) == [0, 1, 2, 3, 4]

    def test_gt_right_side_superset(self, rel):
        # Condition left.x < right.dep seen from the right: larger dep joins more.
        idx = ThetaGroupIndex(rel, "arr", ThetaOp.LT, is_left=False)
        assert sorted(idx.superset_rows(1)) == [1, 2, 3]
        assert sorted(idx.superset_rows(2)) == [2]

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
        idx = ThetaGroupIndex(rel, "arr", op, is_left=is_left)
        assert sorted(idx.superset_rows(row)) == expected

    def test_superset_rows_always_include_self(self, rel):
        for op in ThetaOp:
            for side in (True, False):
                idx = ThetaGroupIndex(rel, "arr", op, is_left=side)
                for row in range(len(rel)):
                    assert row in idx.superset_rows(row)

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
