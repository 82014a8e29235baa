"""Unit tests for repro.relational.join."""

import numpy as np
import pytest

from repro.errors import JoinError, SchemaError
from repro.relational import (
    HopJoin,
    HopSpec,
    JoinedView,
    Relation,
    RelationSchema,
    ThetaCondition,
    ThetaOp,
)
from repro.relational.join import make_layout


def _rel(groups, matrix, names, aggregate=(), higher=(), payload=None):
    columns = {n: np.asarray(matrix)[:, i] for i, n in enumerate(names)}
    columns["grp"] = list(groups)
    schema = RelationSchema.build(
        join=["grp"], skyline=list(names), aggregate=list(aggregate),
        higher_is_better=list(higher),
    )
    return Relation(schema, columns)


@pytest.fixture
def left():
    return _rel(["a", "a", "b"], [[1, 10], [2, 20], [3, 30]], ["x", "y"])


@pytest.fixture
def right():
    return _rel(["a", "b", "c"], [[5, 50], [6, 60], [7, 70]], ["p", "q"])


class TestPairEnumeration:
    """Pairs of each join kind, through the one hop kernel."""

    def test_pairs_product(self):
        rel = _rel(["g"] * 4, [[0, 0]] * 4, ["a", "b"])
        out = HopJoin(HopSpec.cross(), rel, rel).pairs([0, 1], [2, 3])
        assert out.tolist() == [[0, 2], [0, 3], [1, 2], [1, 3]]

    def test_pairs_product_empty(self, left, right):
        assert HopJoin(HopSpec.cross(), left, right).pairs([], [1]).shape == (0, 2)

    def test_equality_pairs(self, left, right):
        pairs = HopJoin(HopSpec(), left, right).pairs()
        assert sorted(map(tuple, pairs.tolist())) == [(0, 0), (1, 0), (2, 1)]

    def test_equality_pairs_no_overlap(self):
        l = _rel(["x"], [[1, 1]], ["a", "b"])
        r = _rel(["y"], [[1, 1]], ["a", "b"])
        assert HopJoin(HopSpec(), l, r).pairs().shape == (0, 2)

    def test_cartesian_pairs(self):
        rel = _rel(["g"] * 2, [[0, 0]] * 2, ["a", "b"])
        pairs = HopJoin(HopSpec.cross(), rel, rel).pairs()
        assert pairs.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    @pytest.mark.parametrize(
        "op,expected",
        [
            (ThetaOp.LT, {(0, 1), (0, 2), (1, 2)}),
            (ThetaOp.LE, {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}),
            (ThetaOp.GT, {(1, 0), (2, 0), (2, 1)}),
            (ThetaOp.GE, {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}),
        ],
    )
    def test_theta_pairs_match_bruteforce(self, op, expected):
        lrel = _rel(["g"] * 3, [[1, 0], [2, 0], [3, 0]], ["t", "z"])
        rrel = _rel(["g"] * 3, [[1, 0], [2, 0], [3, 0]], ["t", "z"])
        cond = ThetaCondition("t", op, "t")
        pairs = HopJoin(HopSpec.on_theta(cond), lrel, rrel).pairs()
        assert set(map(tuple, pairs.tolist())) == expected

    @pytest.mark.parametrize(
        "theta",
        [
            *(ThetaCondition("t", op, "t") for op in ThetaOp),
            (ThetaCondition("t", ThetaOp.GE, "t"), ThetaCondition("u", ThetaOp.LT, "u")),
        ],
        ids=["lt", "le", "gt", "ge", "conjunction"],
    )
    def test_nan_theta_values_join_nothing(self, theta):
        """A NaN theta value compares false under every operator, so the
        kernel's pairs and partner counts match a nested loop over
        ``ThetaOp.evaluate``."""
        schema = RelationSchema.build(skyline=["x"], payload=["t", "u"])
        lrel = Relation(schema, {"x": [0.0, 1.0], "t": [np.nan, 5.0], "u": [1.0, 1.0]})
        rrel = Relation(schema, {"x": [0.0, 1.0], "t": [3.0, np.nan], "u": [2.0, 2.0]})
        join = HopJoin(HopSpec.on_theta(theta), lrel, rrel)
        expected = [
            [i, j]
            for i in range(2)
            for j in range(2)
            if all(
                cond.op.evaluate(lrel.column(cond.left_attr)[i], rrel.column(cond.right_attr)[j])
                for cond in join.hop.theta
            )
        ]
        assert join.pairs().tolist() == expected
        counts = [sum(1 for i, _ in expected if i == row) for row in range(2)]
        assert join.weight_sums().tolist() == counts


class TestLayout:
    def test_plain_layout(self, left, right):
        lay = make_layout(left.schema, right.schema)
        assert lay.names == ("r1.x", "r1.y", "r2.p", "r2.q")
        assert lay.width == 4 and lay.n_aggregate == 0

    def test_aggregate_layout(self):
        l = _rel(["a"], [[1, 2, 3]], ["c", "u", "v"], aggregate=["c"])
        r = _rel(["a"], [[4, 5, 6]], ["c", "w", "z"], aggregate=["c"])
        lay = make_layout(l.schema, r.schema)
        assert lay.names == ("r1.u", "r1.v", "r2.w", "r2.z", "c")
        assert lay.n_aggregate == 1 and lay.width == 5

    def test_incompatible_aggregates(self):
        l = _rel(["a"], [[1, 2]], ["c", "u"], aggregate=["c"])
        r = _rel(["a"], [[1, 2]], ["d", "u"], aggregate=["d"])
        with pytest.raises(SchemaError):
            make_layout(l.schema, r.schema)


class TestJoinedView:
    def test_equality_view(self, left, right):
        view = JoinedView.equality(left, right)
        assert len(view) == 3
        assert view.width == 4

    def test_oriented_concatenation(self, left, right):
        view = JoinedView.equality(left, right)
        oriented = view.oriented()
        # pair (0, 0): left row 0 = (1, 10), right row 0 = (5, 50)
        row = oriented[[tuple(p) for p in view.pairs.tolist()].index((0, 0))]
        np.testing.assert_allclose(row, [1, 10, 5, 50])

    def test_aggregate_values_and_orientation(self):
        # Higher-is-better aggregate: raw sum, then negated orientation.
        l = _rel(["a"], [[3, 1]], ["score", "u"], aggregate=["score"], higher=["score"])
        r = _rel(["a"], [[4, 2]], ["score", "w"], aggregate=["score"], higher=["score"])
        view = JoinedView.equality(l, r, aggregate="sum")
        oriented = view.oriented()
        # layout: r1.u, r2.w, score ; score oriented = -(3+4)
        np.testing.assert_allclose(oriented[0], [1, 2, -7])

    def test_aggregate_required(self):
        l = _rel(["a"], [[3, 1]], ["c", "u"], aggregate=["c"])
        r = _rel(["a"], [[4, 2]], ["c", "w"], aggregate=["c"])
        with pytest.raises(JoinError, match="aggregate"):
            JoinedView.equality(l, r)

    def test_cartesian_view(self, left, right):
        view = JoinedView.cartesian(left, right)
        assert len(view) == 9

    def test_theta_view(self):
        lrel = _rel(["g"] * 2, [[1, 0], [5, 0]], ["t", "z"])
        rrel = _rel(["g"] * 2, [[2, 0], [6, 0]], ["t", "z"])
        view = JoinedView.theta(lrel, rrel, ThetaCondition("t", ThetaOp.LT, "t"))
        assert set(map(tuple, view.pairs.tolist())) == {(0, 0), (0, 1), (1, 1)}

    def test_bad_pairs_shape(self, left, right):
        with pytest.raises(JoinError, match="m x 2"):
            JoinedView(left, right, np.zeros((2, 3), dtype=np.intp))

    def test_mismatched_join_attrs(self, left):
        other_schema = RelationSchema.build(join=["g1", "g2"], skyline=["p"])
        other = Relation(other_schema, {"g1": [], "g2": [], "p": []})
        with pytest.raises(JoinError, match="join attribute counts"):
            JoinedView.equality(left, other)

    def test_no_join_attrs_requires_cartesian(self):
        schema = RelationSchema.build(skyline=["p"])
        rel = Relation(schema, {"p": [1.0]})
        with pytest.raises(JoinError, match="cartesian"):
            JoinedView.equality(rel, rel)

    def test_to_relation_materialization(self, left, right):
        view = JoinedView.equality(left, right)
        rel = view.to_relation()
        assert len(rel) == 3
        assert set(rel.schema.skyline_names) == {"r1.x", "r1.y", "r2.p", "r2.q"}
        # provenance payloads point back at base rows
        rec = rel.records()[0]
        li, ri = rec["_left_row"], rec["_right_row"]
        assert rel.record(0)["r1.x"] == left.record(li)["x"]
        assert rel.record(0)["r2.p"] == right.record(ri)["p"]

    def test_to_relation_with_aggregate_and_preferences(self):
        l = _rel(["a"], [[3, 1]], ["score", "u"], aggregate=["score"], higher=["score"])
        r = _rel(["a"], [[4, 2]], ["score", "w"], aggregate=["score"], higher=["score"])
        rel = JoinedView.equality(l, r, aggregate="sum").to_relation()
        assert rel.record(0)["score"] == 7.0
        assert rel.schema["score"].preference.value == "higher"

    def test_oriented_for_pairs_subset(self, left, right):
        view = JoinedView.equality(left, right)
        sub = view.oriented_for_pairs(np.array([[2, 1]]))
        np.testing.assert_allclose(sub[0], [3, 30, 6, 60])

    def test_repr(self, left, right):
        assert "JoinedView" in repr(JoinedView.equality(left, right))
