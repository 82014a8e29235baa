"""Unit tests for repro.core.categorize (SS/SN/NN and the fate table)."""

from repro.core import FATE_TABLE, Category, Fate, categorize
from repro.datagen import (
    EXPECTED_TABLE1_CATEGORIES,
    EXPECTED_TABLE2_CATEGORIES,
    flight_example_relations,
)
from repro.relational import HopJoin, HopSpec, Relation, RelationSchema, ThetaCondition, ThetaOp

from ..helpers import make_random_pair


def groupmates(relation, row):
    """Rows sharing ``row``'s composite join key, from the raw values."""
    return [r for r in range(len(relation)) if relation.join_key(r) == relation.join_key(row)]


def left_theta_key(relation, op):
    """Left substitution key of the condition ``left.arr <op> right.arr``."""
    hop = HopSpec.on_theta(ThetaCondition("arr", op, "arr"))
    return HopJoin(hop, relation, relation).substitution_keys()[0]


class TestFateTable:
    def test_matches_paper_table5(self):
        assert FATE_TABLE[(Category.SS, Category.SS)] is Fate.YES
        assert FATE_TABLE[(Category.SS, Category.SN)] is Fate.LIKELY
        assert FATE_TABLE[(Category.SN, Category.SS)] is Fate.LIKELY
        assert FATE_TABLE[(Category.SN, Category.SN)] is Fate.MAYBE

    def test_any_nn_is_no(self):
        for other in Category:
            assert FATE_TABLE[(Category.NN, other)] is Fate.NO
            assert FATE_TABLE[(other, Category.NN)] is Fate.NO

    def test_complete(self):
        assert len(FATE_TABLE) == 9


class TestCategorize:
    def test_paper_example_table1(self):
        f1, _ = flight_example_relations()
        cat = categorize(f1, 3)
        got = {
            int(f1.column("fno")[i]): cat.category(i).name for i in range(len(f1))
        }
        assert got == EXPECTED_TABLE1_CATEGORIES

    def test_paper_example_table2(self):
        _, f2 = flight_example_relations()
        cat = categorize(f2, 3)
        got = {
            int(f2.column("fno")[i]): cat.category(i).name for i in range(len(f2))
        }
        assert got == EXPECTED_TABLE2_CATEGORIES

    def test_partition_property(self):
        left, _ = make_random_pair(seed=5, n=20, d=4, g=4)
        cat = categorize(left, 2)
        all_rows = sorted(
            list(cat.ss_rows) + list(cat.sn_rows) + list(cat.nn_rows)
        )
        assert all_rows == list(range(len(left)))

    def test_counts_sum_to_n(self):
        left, _ = make_random_pair(seed=6, n=25, d=4, g=5)
        cat = categorize(left, 3)
        assert sum(cat.counts().values()) == len(left)

    def test_ss_tuples_not_dominated_anywhere(self):
        from repro.skyline import is_k_dominated

        left, _ = make_random_pair(seed=7, n=25, d=4, g=5)
        k_prime = 3
        cat = categorize(left, k_prime)
        matrix = left.oriented()
        for row in cat.ss_rows:
            assert not is_k_dominated(matrix, matrix[row], k_prime)

    def test_nn_tuples_dominated_within_group(self):
        from repro.skyline import is_k_dominated

        left, _ = make_random_pair(seed=8, n=25, d=4, g=5)
        k_prime = 3
        cat = categorize(left, k_prime)
        matrix = left.oriented()
        for row in cat.nn_rows:
            mates = groupmates(left, int(row))
            assert is_k_dominated(matrix[mates], matrix[row], k_prime)

    def test_sn_tuples_group_skyline_but_dominated_overall(self):
        from repro.skyline import is_k_dominated

        left, _ = make_random_pair(seed=9, n=30, d=4, g=6)
        k_prime = 3
        cat = categorize(left, k_prime)
        matrix = left.oriented()
        for row in cat.sn_rows:
            mates = groupmates(left, int(row))
            assert not is_k_dominated(matrix[mates], matrix[row], k_prime)
            assert is_k_dominated(matrix, matrix[row], k_prime)

    def test_single_group_has_no_sn(self):
        left, _ = make_random_pair(seed=10, n=20, d=4, g=1)
        cat = categorize(left, 3)
        assert len(cat.sn_rows) == 0


class TestCategorizeTheta:
    def test_theta_nn_requires_compatible_dominator(self):
        # Two tuples: row 1 dominated by row 0, but row 0 has a LARGER
        # theta attribute (arr), so it is NOT guaranteed-compatible and
        # row 1 must stay SN (not NN).
        schema = RelationSchema.build(skyline=["x", "y"], payload=["arr"])
        rel = Relation(
            schema,
            {"x": [0.0, 1.0], "y": [0.0, 1.0], "arr": [10.0, 5.0]},
        )
        cat = categorize(rel, 2, left_theta_key(rel, ThetaOp.LT))
        assert cat.category(0) is Category.SS
        assert cat.category(1) is Category.SN

    def test_theta_nn_when_dominator_compatible(self):
        # Now the dominator has a smaller arr: guaranteed compatible -> NN.
        schema = RelationSchema.build(skyline=["x", "y"], payload=["arr"])
        rel = Relation(
            schema,
            {"x": [0.0, 1.0], "y": [0.0, 1.0], "arr": [5.0, 10.0]},
        )
        cat = categorize(rel, 2, left_theta_key(rel, ThetaOp.LT))
        assert cat.category(1) is Category.NN
