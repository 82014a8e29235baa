"""k-dominant skyline computation (Chan et al. [4], paper Sec. 2.2).

The k-dominant skyline contains the tuples not k-dominated by any other
tuple. Because k-dominance is non-transitive (and cyclic for small k),
a point eliminated from a candidate window is still allowed to eliminate
candidates — which is exactly what the Two-Scan Algorithm exploits.

Implemented methods:

* ``naive`` — O(n^2) pairwise check, vectorized one-row-vs-matrix.
  This is the reference implementation everything is tested against.
* ``tsa`` — Two-Scan Algorithm. Scan 1 builds a candidate set: each
  point is checked against current candidates, evicting candidates it
  k-dominates and joining the set when no candidate k-dominates it.
  Rejections are sound (the rejecting candidate is a real tuple) but the
  surviving candidates may still be k-dominated by earlier-eliminated
  points, so scan 2 re-verifies every candidate against the full data.
  Points are presorted by attribute sum, which makes strong tuples act
  as candidates early and keeps the candidate set small.

:func:`k_dominant_candidates_block` is the TSA's first scan as
vectorized matrix-block broadcasts: the candidate kernel of the sharded
exact pipeline (:mod:`repro.core.parallel`), whose second scan
re-verifies its superset against the full data.

The skyline functions return sorted row indices of the k-dominant
skyline members.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import ParameterError
from .dominance import is_k_dominated, k_dominated_any

if TYPE_CHECKING:
    from .._typing import FloatMatrix, IntVector

__all__ = [
    "k_dominant_skyline_naive",
    "k_dominant_skyline_tsa",
    "k_dominant_candidates_block",
    "k_dominant_skyline",
]


def _validate(matrix: FloatMatrix, k: int) -> FloatMatrix:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ParameterError(f"matrix must be 2-D, got {matrix.ndim}-D")
    d = matrix.shape[1]
    if not 1 <= k <= d:
        raise ParameterError(f"k must be in [1, {d}], got {k}")
    return matrix


def k_dominant_skyline_naive(matrix: FloatMatrix, k: int) -> list[int]:
    """Reference O(n^2) k-dominant skyline."""
    matrix = _validate(matrix, k)
    out: list[int] = []
    for i in range(matrix.shape[0]):
        if not is_k_dominated(matrix, matrix[i], k, exclude=i):
            out.append(i)
    return out


def k_dominant_skyline_tsa(
    matrix: FloatMatrix, k: int, presort: bool = True
) -> list[int]:
    """Two-Scan Algorithm for the k-dominant skyline."""
    matrix = _validate(matrix, k)
    n = matrix.shape[0]
    if n == 0:
        return []

    if presort:
        order = np.argsort(matrix.sum(axis=1), kind="stable")
    else:
        order = np.arange(n)

    # Scan 1: candidate generation with mutual elimination.
    candidates: list[int] = []
    for idx in order:
        row = matrix[idx]
        if candidates:
            cand_matrix = matrix[candidates]
            # Candidates k-dominated by the incoming point are evicted
            # even if the point itself ends up rejected (non-transitivity).
            boe = np.count_nonzero(cand_matrix <= row, axis=1)
            strict = (cand_matrix < row).any(axis=1)
            dominated_by_cand = bool(((boe >= k) & strict).any())
            boe_rev = np.count_nonzero(row <= cand_matrix, axis=1)
            strict_rev = (row < cand_matrix).any(axis=1)
            keep = ~((boe_rev >= k) & strict_rev)
            if not keep.all():
                candidates = [c for c, kp in zip(candidates, keep) if kp]
            if dominated_by_cand:
                continue
        candidates.append(int(idx))

    # Scan 2: verify candidates against the complete dataset.
    out = [
        c
        for c in candidates
        if not is_k_dominated(matrix, matrix[c], k, exclude=c)
    ]
    return sorted(out)


def k_dominant_candidates_block(matrix: FloatMatrix, k: int, block: int = 512) -> IntVector:
    """Scan-1 candidate generation, vectorized over row *blocks*.

    The block-kernel variant of the TSA first scan: rows are visited in
    attribute-sum order in blocks of ``block``, each block is tested
    against the accumulated candidate set in one broadcast
    (:func:`~repro.skyline.dominance.k_dominated_any`), survivors join
    the set, and candidates k-dominated by a block's survivors are
    evicted to keep the working set small.

    Rejections are sound (the rejecting candidate is a real tuple), but
    rows *within* one block are never compared against each other, so
    the returned set is a **superset** of the k-dominant skyline — the
    cheap-to-produce candidate list that a second scan against the full
    data must close, exactly as in the classic TSA (and, sharded, in
    :mod:`repro.core.parallel`). Returns sorted row indices of the
    candidate superset.
    """
    matrix = _validate(matrix, k)
    n = matrix.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.intp)
    order = np.argsort(matrix.sum(axis=1), kind="stable")
    cand_idx = np.empty(0, dtype=np.intp)
    for start in range(0, n, block):
        rows_idx = order[start : start + block]
        rows = matrix[rows_idx]
        if cand_idx.size:
            rejected = k_dominated_any(matrix[cand_idx], rows, k)
            rows_idx = rows_idx[~rejected]
            rows = rows[~rejected]
        if rows_idx.size and cand_idx.size:
            evicted = k_dominated_any(rows, matrix[cand_idx], k)
            cand_idx = cand_idx[~evicted]
        cand_idx = np.concatenate([cand_idx, rows_idx])
    cand_idx.sort()
    return cand_idx


def k_dominant_skyline(matrix: FloatMatrix, k: int, method: str = "tsa") -> list[int]:
    """Compute the k-dominant skyline; ``method`` in {"tsa", "naive"}."""
    if method == "tsa":
        return k_dominant_skyline_tsa(matrix, k)
    if method == "naive":
        return k_dominant_skyline_naive(matrix, k)
    raise ParameterError(f"unknown k-dominant method {method!r} (use 'tsa' or 'naive')")
