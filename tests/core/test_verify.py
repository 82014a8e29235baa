"""Unit tests for repro.core.verify helpers."""

import numpy as np

from repro.core.verify import sort_rows_for_early_exit


class TestSortRowsForEarlyExit:
    def test_sorts_by_row_sum(self):
        matrix = np.array([[3.0, 3.0], [0.0, 0.0], [1.0, 2.0]])
        out = sort_rows_for_early_exit(matrix)
        np.testing.assert_array_equal(out, [[0.0, 0.0], [1.0, 2.0], [3.0, 3.0]])

    def test_empty(self):
        out = sort_rows_for_early_exit(np.empty((0, 2)))
        assert out.shape == (0, 2)

    def test_preserves_multiset(self):
        rng = np.random.default_rng(0)
        matrix = rng.uniform(size=(20, 3))
        out = sort_rows_for_early_exit(matrix)
        assert sorted(map(tuple, matrix.tolist())) == sorted(map(tuple, out.tolist()))
