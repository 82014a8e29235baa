"""Unit tests for repro.skyline.kdominant."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.skyline import (
    k_dominant_skyline,
    k_dominant_skyline_naive,
    k_dominant_skyline_tsa,
    skyline_sfs,
)


class TestNaive:
    def test_reduces_to_classic_at_k_equals_d(self):
        rng = np.random.default_rng(0)
        matrix = np.floor(rng.uniform(0, 5, size=(30, 3)))
        assert k_dominant_skyline_naive(matrix, 3) == skyline_sfs(matrix)

    def test_smaller_k_gives_smaller_or_equal_set(self):
        rng = np.random.default_rng(1)
        matrix = np.floor(rng.uniform(0, 6, size=(40, 4)))
        sizes = [len(k_dominant_skyline_naive(matrix, k)) for k in (2, 3, 4)]
        assert sizes == sorted(sizes)

    def test_lemma1_membership_monotone_in_k(self):
        # A j-dominant skyline tuple is an i-dominant one for i >= j.
        rng = np.random.default_rng(2)
        matrix = np.floor(rng.uniform(0, 4, size=(30, 4)))
        previous = set()
        for k in (2, 3, 4):
            current = set(k_dominant_skyline_naive(matrix, k))
            assert previous <= current
            previous = current

    def test_cyclic_domination_annihilates(self):
        # For k <= d/2 tuples can eliminate each other pairwise, leaving
        # an empty k-dominant skyline (Sec. 2.2).
        matrix = np.array([[1.0, 9.0], [9.0, 1.0]])
        assert k_dominant_skyline_naive(matrix, 1) == []

    def test_duplicates_do_not_eliminate(self):
        matrix = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert k_dominant_skyline_naive(matrix, 1) == [0, 1]

    def test_empty_matrix(self):
        assert k_dominant_skyline_naive(np.empty((0, 3)), 2) == []

    def test_k_out_of_range(self):
        with pytest.raises(ParameterError):
            k_dominant_skyline_naive(np.zeros((2, 3)), 0)
        with pytest.raises(ParameterError):
            k_dominant_skyline_naive(np.zeros((2, 3)), 4)

    def test_non_2d_rejected(self):
        with pytest.raises(ParameterError, match="2-D"):
            k_dominant_skyline_naive(np.zeros(3), 1)


class TestTSA:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k_offset", [0, 1, 2])
    def test_matches_naive(self, seed, k_offset):
        rng = np.random.default_rng(seed)
        d = 5
        matrix = np.floor(rng.uniform(0, 5, size=(60, d)))
        k = d - k_offset
        assert k_dominant_skyline_tsa(matrix, k) == k_dominant_skyline_naive(matrix, k)

    def test_matches_naive_without_presort(self):
        rng = np.random.default_rng(99)
        matrix = np.floor(rng.uniform(0, 4, size=(50, 4)))
        assert k_dominant_skyline_tsa(matrix, 3, presort=False) == (
            k_dominant_skyline_naive(matrix, 3)
        )

    def test_scan2_catches_false_candidates(self):
        # Non-transitivity: an eliminated point can still dominate a
        # candidate, so scan 2 must verify against the full dataset.
        # Rock-paper-scissors cycle under 2-of-3 dominance:
        # b 2-dominates a; c 2-dominates b; a 2-dominates c.
        a = [1.0, 2.0, 3.0]
        b = [3.0, 1.0, 2.0]
        c = [2.0, 3.0, 1.0]
        matrix = np.array([a, b, c])
        expected = k_dominant_skyline_naive(matrix, 2)
        assert k_dominant_skyline_tsa(matrix, 2) == expected == []

    def test_empty(self):
        assert k_dominant_skyline_tsa(np.empty((0, 2)), 1) == []


class TestFacade:
    def test_dispatch(self):
        matrix = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert k_dominant_skyline(matrix, 2, "tsa") == [0]
        assert k_dominant_skyline(matrix, 2, "naive") == [0]

    def test_unknown_method(self):
        with pytest.raises(ParameterError, match="unknown k-dominant method"):
            k_dominant_skyline(np.zeros((1, 2)), 1, "magic")
