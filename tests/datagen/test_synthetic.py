"""Unit tests for repro.datagen.synthetic."""

import numpy as np
import pytest

from repro.datagen import generate_matrix, generate_relation, generate_relation_pair
from repro.errors import ParameterError


class TestGenerateMatrix:
    @pytest.mark.parametrize("dist", ["independent", "correlated", "anticorrelated"])
    def test_shape_and_range(self, dist):
        matrix = generate_matrix(200, 5, dist, seed=1)
        assert matrix.shape == (200, 5)
        assert matrix.min() >= 0.0 and matrix.max() <= 1.0

    def test_deterministic_with_seed(self):
        a = generate_matrix(50, 3, "independent", seed=7)
        b = generate_matrix(50, 3, "independent", seed=7)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = generate_matrix(50, 3, "independent", seed=7)
        b = generate_matrix(50, 3, "independent", seed=8)
        assert not np.array_equal(a, b)

    def test_correlated_has_positive_pairwise_correlation(self):
        matrix = generate_matrix(3000, 2, "correlated", seed=3)
        corr = np.corrcoef(matrix[:, 0], matrix[:, 1])[0, 1]
        assert corr > 0.5

    def test_anticorrelated_has_negative_pairwise_correlation(self):
        matrix = generate_matrix(3000, 2, "anticorrelated", seed=3)
        corr = np.corrcoef(matrix[:, 0], matrix[:, 1])[0, 1]
        assert corr < -0.3

    def test_independent_near_zero_correlation(self):
        matrix = generate_matrix(3000, 2, "independent", seed=3)
        corr = np.corrcoef(matrix[:, 0], matrix[:, 1])[0, 1]
        assert abs(corr) < 0.1

    def test_skyline_size_ordering(self):
        # The motivation for the distributions: anti-correlated data has
        # the largest skyline, correlated the smallest (paper Sec. 7).
        from repro.skyline import skyline_sfs

        sizes = {}
        for dist in ("correlated", "independent", "anticorrelated"):
            matrix = generate_matrix(400, 4, dist, seed=11)
            sizes[dist] = len(skyline_sfs(matrix))
        assert sizes["correlated"] < sizes["independent"] < sizes["anticorrelated"]

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            generate_matrix(-1, 3)
        with pytest.raises(ParameterError):
            generate_matrix(10, 0)
        with pytest.raises(ParameterError):
            generate_matrix(10, 3, "gaussian")

    def test_zero_rows(self):
        assert generate_matrix(0, 3).shape == (0, 3)


class TestGenerateRelation:
    def test_schema_roles(self):
        rel = generate_relation(30, 5, g=3, a=2, seed=1)
        assert rel.schema.d == 5 and rel.schema.a == 2
        assert rel.schema.join_names == ("grp",)
        assert rel.schema.aggregate_names == ("s1", "s2")

    def test_round_robin_groups_balanced(self):
        rel = generate_relation(30, 3, g=3, seed=1)
        from repro.relational import HopJoin, HopSpec

        key = HopJoin(HopSpec(), rel, rel).substitution_keys()[0]
        _, sizes = np.unique(key, axis=0, return_counts=True)
        assert set(sizes.tolist()) == {10}

    def test_joined_size_formula(self):
        # Table 7's derived parameter: N = n^2 / g when g | n.
        import repro

        left, right = generate_relation_pair(n=20, d=3, g=4, seed=2)
        plan = repro.make_plan(left, right)
        assert len(plan.view()) == 20 * 20 // 4

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            generate_relation(10, 3, g=0)
        with pytest.raises(ParameterError):
            generate_relation(10, 3, a=4)

    def test_pair_shares_seed_stream_but_differs(self):
        left, right = generate_relation_pair(n=20, d=3, g=2, seed=5)
        assert not np.array_equal(left.matrix, right.matrix)
        left2, right2 = generate_relation_pair(n=20, d=3, g=2, seed=5)
        np.testing.assert_array_equal(left.matrix, left2.matrix)
        np.testing.assert_array_equal(right.matrix, right2.matrix)
