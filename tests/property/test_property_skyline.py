"""Property-based tests for the skyline algorithms (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.skyline import (
    is_k_dominated,
    k_dominant_skyline_naive,
    k_dominant_skyline_tsa,
    skyline_bnl,
    skyline_sfs,
)

matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(0, 4), min_size=d, max_size=d),
        min_size=0,
        max_size=25,
    ).map(lambda rows: np.asarray(rows, dtype=float).reshape(len(rows), d))
)


@given(matrices)
@settings(max_examples=80)
def test_bnl_equals_sfs(matrix):
    assert skyline_bnl(matrix) == skyline_sfs(matrix)


@given(matrices)
@settings(max_examples=80)
def test_tsa_equals_naive_for_all_k(matrix):
    d = matrix.shape[1]
    for k in range(1, d + 1):
        assert k_dominant_skyline_tsa(matrix, k) == (
            k_dominant_skyline_naive(matrix, k)
        )


@given(matrices)
@settings(max_examples=80)
def test_skyline_members_are_exactly_undominated(matrix):
    d = matrix.shape[1]
    for k in (max(1, d - 1), d):
        members = set(k_dominant_skyline_naive(matrix, k))
        for i in range(matrix.shape[0]):
            dominated = is_k_dominated(matrix, matrix[i], k, exclude=i)
            assert (i in members) == (not dominated)


@given(matrices)
@settings(max_examples=80)
def test_lemma1_skyline_monotone_in_k(matrix):
    """Lemma 1: the j-dominant skyline is contained in the i-dominant
    skyline for i >= j; hence sizes are non-decreasing in k."""
    d = matrix.shape[1]
    previous = set()
    for k in range(1, d + 1):
        current = set(k_dominant_skyline_naive(matrix, k))
        assert previous <= current
        previous = current


@given(matrices)
@settings(max_examples=60)
def test_full_k_dominant_equals_classic_skyline(matrix):
    d = matrix.shape[1]
    assert k_dominant_skyline_naive(matrix, d) == skyline_sfs(matrix)
