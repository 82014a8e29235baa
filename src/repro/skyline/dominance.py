"""Dominance and k-dominance primitives (paper Sec. 2.1-2.2).

All functions operate in *oriented* (minimize) space: lower values are
preferred in every column. Relations provide such matrices via
:meth:`repro.relational.Relation.oriented`.

Definitions implemented here:

* ``u`` **dominates** ``v`` iff ``u <= v`` component-wise and ``u < v``
  in at least one component.
* ``u`` **k-dominates** ``v`` iff ``#{i : u_i <= v_i} >= k`` and
  ``#{i : u_i < v_i} >= 1``. For ``k = d`` this reduces to classic
  dominance. Note the equivalence with Chan et al.'s phrasing ("better
  or equal in some k attributes and strictly better in one *of those
  k*"): any strictly-better attribute is also better-or-equal, so it can
  always be chosen into the k-subset.

k-dominance is *not* transitive and can be cyclic for ``k <= d/2``
(Sec. 2.2), which is why the two-scan algorithm needs its verification
pass and why candidate checks must always run against full candidate
dominator sets, never just against surviving skyline members.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .._typing import BoolVector, FloatMatrix, FloatVector, IntVector

__all__ = [
    "dominates",
    "k_dominates",
    "boe_counts",
    "strict_any",
    "k_dominator_mask",
    "is_k_dominated",
    "k_dominated_any",
    "cells_k_dominated",
    "dominator_rows",
]

#: Element budget of one broadcast temporary in :func:`k_dominated_any`
#: (vectors x rows x attributes). 2^22 bools is a ~4 MiB comparison
#: block — big enough to amortize numpy dispatch, small enough to stay
#: cache-friendly when several workers run concurrently.
_BLOCK_ELEMENT_BUDGET = 1 << 22


def dominates(u: FloatVector, v: FloatVector) -> bool:
    """Classic (full) dominance of oriented vectors: ``u ≻ v``."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return bool(np.all(u <= v) and np.any(u < v))


def k_dominates(u: FloatVector, v: FloatVector, k: int) -> bool:
    """k-dominance of oriented vectors: ``u ≻_k v``."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return bool(np.count_nonzero(u <= v) >= k and np.any(u < v))


def boe_counts(matrix: FloatMatrix, v: FloatVector) -> IntVector:
    """Per-row better-or-equal counts of ``matrix`` rows versus ``v``.

    ``result[i] = #{j : matrix[i, j] <= v[j]}``.
    """
    return np.count_nonzero(matrix <= v, axis=1)


def strict_any(matrix: FloatMatrix, v: FloatVector) -> BoolVector:
    """Per-row flag: does row ``i`` beat ``v`` strictly somewhere?"""
    return (matrix < v).any(axis=1)


def k_dominator_mask(
    matrix: FloatMatrix,
    v: FloatVector,
    k: int,
    exclude: int | None = None,
) -> BoolVector:
    """Boolean mask of rows of ``matrix`` that k-dominate ``v``.

    ``exclude`` removes one row index (typically ``v``'s own position)
    from consideration; a tuple can never k-dominate itself anyway
    (no strict attribute), so this is an optimization plus guard against
    accidental duplicates of ``v`` — duplicates legitimately do *not*
    dominate each other.
    """
    mask = (boe_counts(matrix, v) >= k) & strict_any(matrix, v)
    if exclude is not None:
        mask[exclude] = False
    return mask


def is_k_dominated(
    matrix: FloatMatrix,
    v: FloatVector,
    k: int,
    exclude: int | None = None,
) -> bool:
    """Is ``v`` k-dominated by any row of ``matrix``?

    Evaluated in blocks with early exit so large matrices do not pay the
    full comparison cost when a dominator appears early.
    """
    n = matrix.shape[0]
    if n == 0:
        return False
    block = 4096
    for start in range(0, n, block):
        sub = matrix[start : start + block]
        mask = (boe_counts(sub, v) >= k) & strict_any(sub, v)
        if exclude is not None and start <= exclude < start + sub.shape[0]:
            mask[exclude - start] = False
        if mask.any():
            return True
    return False


def k_dominated_any(
    matrix: FloatMatrix,
    vectors: FloatMatrix,
    k: int,
) -> BoolVector:
    """Per-vector flag: is each of ``vectors`` k-dominated by any row of
    ``matrix``?

    The many-versus-matrix counterpart of :func:`is_k_dominated`: the
    comparison runs as blocked 3-D broadcasts (vector block x row block
    x attributes) instead of one Python-level loop per vector, and
    vectors leave the working set as soon as a dominator is found.
    Rows of ``matrix`` are visited in order, so presorting it with
    :func:`repro.core.verify.sort_rows_for_early_exit` puts strong rows
    first and most vectors are decided within the first blocks.

    A vector that is itself a row of ``matrix`` needs no exclusion
    index: a tuple is never strictly better than itself, and duplicated
    attribute vectors legitimately do not dominate each other.

    Parameters
    ----------
    matrix:
        (n x d) oriented candidate-dominator matrix.
    vectors:
        (m x d) oriented vectors to test.
    k:
        Dominance threshold.

    Returns
    -------
    numpy.ndarray
        Boolean array of length ``m``; ``True`` marks dominated vectors.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    vectors = np.asarray(vectors, dtype=np.float64)
    m, n = vectors.shape[0], matrix.shape[0]
    out = np.zeros(m, dtype=bool)
    if m == 0 or n == 0:
        return out
    d = matrix.shape[1]
    # Chunk the vector axis so that even at the 64-row block floor the
    # broadcast temporaries stay within the element budget; within each
    # chunk the row-block size then adapts upward as vectors are decided.
    vec_chunk = max(1, _BLOCK_ELEMENT_BUDGET // (64 * d))
    for chunk_start in range(0, m, vec_chunk):
        undecided = np.arange(
            chunk_start, min(chunk_start + vec_chunk, m), dtype=np.intp
        )
        start = 0
        while start < n and undecided.size:
            block = max(64, _BLOCK_ELEMENT_BUDGET // max(1, undecided.size * d))
            rows = matrix[start : start + block]
            vecs = vectors[undecided]
            le = rows[None, :, :] <= vecs[:, None, :]
            lt = rows[None, :, :] < vecs[:, None, :]
            dominated = (
                (le.sum(axis=2) >= k) & lt.any(axis=2)
            ).any(axis=1)
            out[undecided[dominated]] = True
            undecided = undecided[~dominated]
            start += rows.shape[0]
    return out


def cells_k_dominated(
    matrix: FloatMatrix,
    cell_lower_bounds: FloatMatrix,
    k: int,
) -> BoolVector:
    """Per-cell flag: is the cell provably non-winning at ``k``?

    The cell-bound pruning kernel of :mod:`repro.core.index`. Cell ``C``
    is flagged iff some **actual row** ``w`` of ``matrix`` satisfies
    ``#{j : w_j <= lb_C[j]} >= k`` and ``exists j : w_j < lb_C[j]``,
    where ``lb_C`` is the componentwise minimum over ``C``'s actual
    rows. Every tuple ``t`` of a flagged cell is then *directly*
    k-dominated by ``w``: on the ``>= k`` better-or-equal coordinates
    ``w_j <= lb_C[j] <= t_j``, and on the strict one
    ``w_j < lb_C[j] <= t_j``. No transitivity is assumed — the witness
    is one real tuple, one hop — which is what makes this sound even
    though k-dominance is cyclic for small ``k``. A row of ``C`` can
    never be its own witness: it sits at or above ``lb_C`` everywhere,
    so the strict condition fails.

    Computationally this is exactly :func:`k_dominated_any` with the
    cell lower bounds in the role of the test vectors; pass ``matrix``
    pre-sorted by :func:`repro.core.verify.sort_rows_for_early_exit` so
    most cells are decided within the first blocks.

    Parameters
    ----------
    matrix:
        (n x d) oriented matrix of all actual rows (candidate
        witnesses) — the *full* data, never a pruned subset.
    cell_lower_bounds:
        (c x d) componentwise minima of each cell's actual rows.
    k:
        Dominance threshold.
    """
    return k_dominated_any(matrix, cell_lower_bounds, k)


def dominator_rows(
    matrix: FloatMatrix,
    v: FloatVector,
    k: int,
    exclude: int | None = None,
) -> IntVector:
    """Row indices of all k-dominators of ``v`` within ``matrix``."""
    return np.flatnonzero(k_dominator_mask(matrix, v, k, exclude=exclude))
