"""Verification helpers shared by the exact paths.

A candidate survives iff no row of the full joined matrix k-dominates
it — never just the surviving candidates, since k-dominance is
non-transitive. A row is never strictly better than itself, so
checking a candidate against a matrix that contains it is harmless.
:func:`sort_rows_for_early_exit` orders that matrix so the blocked
scans exit early; :func:`checkpointed_skyline` is the
deadline-cancellable two-scan skyline of the naive runners.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..serving.deadline import DEFAULT_CHECK_INTERVAL, Deadline
from ..skyline.dominance import k_dominated_any
from ..skyline.kdominant import k_dominant_candidates_block

if TYPE_CHECKING:
    from .._typing import FloatMatrix, IntVector

__all__ = [
    "checkpointed_skyline",
    "sort_rows_for_early_exit",
]


def sort_rows_for_early_exit(matrix: FloatMatrix) -> FloatMatrix:
    """Reorder rows by ascending attribute sum.

    Strong tuples (likely dominators) come first, so the blocked
    early-exit scan in :func:`~repro.skyline.dominance.is_k_dominated`
    usually terminates after the first block.
    """
    if matrix.shape[0] == 0:
        return matrix
    order = np.argsort(matrix.sum(axis=1), kind="stable")
    return matrix[order]


#: Candidate rows verified between two deadline checks in
#: :func:`checkpointed_skyline` — one check interval per vectorized
#: :func:`~repro.skyline.dominance.k_dominated_any` chunk.
DEADLINE_VERIFY_CHUNK = DEFAULT_CHECK_INTERVAL

#: Rows per candidate-generation chunk in :func:`checkpointed_skyline`.
#: Chunk-local candidate scans see fewer potential dominators than one
#: whole-matrix scan, so they survive a *superset* of candidates — the
#: exact verification pass still decides every one of them — but each
#: chunk is short enough (the block scan is superlinear in its input)
#: to keep deadline overshoot within tens of milliseconds.
DEADLINE_SCAN_CHUNK = 1024


def checkpointed_skyline(
    matrix: FloatMatrix,
    k: int,
    deadline: Deadline,
    partial_of: Callable[[Sequence[int]], tuple[tuple[int, ...], ...]],
) -> IntVector:
    """Exact k-dominant skyline with cooperative deadline checkpoints.

    Same answer (same sorted row indices) as
    :func:`~repro.skyline.kdominant.k_dominant_skyline`, but both scans
    run chunked — candidate generation over
    :data:`DEADLINE_SCAN_CHUNK`-row slices, verification over
    :data:`DEADLINE_VERIFY_CHUNK`-candidate slices — with a
    :meth:`Deadline.check` between chunks. On expiry the raised
    :class:`~repro.errors.DeadlineExceeded` carries
    ``partial_of(survivors)``, where ``survivors`` are the row indices
    fully verified so far — always a subset of the exact answer.
    """
    survivors: list[int] = []

    def partial() -> tuple[tuple[int, ...], ...]:
        return partial_of(survivors)

    n = int(matrix.shape[0])
    local_candidates: list[IntVector] = []
    for start in range(0, n, DEADLINE_SCAN_CHUNK):
        deadline.check(partial)
        stop = min(start + DEADLINE_SCAN_CHUNK, n)
        local_candidates.append(k_dominant_candidates_block(matrix[start:stop], k) + start)
    candidates = (
        np.concatenate(local_candidates) if local_candidates else np.empty(0, dtype=np.intp)
    )
    deadline.check(partial)
    sorted_matrix = sort_rows_for_early_exit(matrix)
    for start in range(0, int(candidates.size), DEADLINE_VERIFY_CHUNK):
        deadline.check(partial)
        chunk = candidates[start : start + DEADLINE_VERIFY_CHUNK]
        dominated = k_dominated_any(sorted_matrix, matrix[chunk], k)
        survivors.extend(int(c) for c in chunk[~dominated])
    deadline.check(partial)
    return np.asarray(survivors, dtype=np.intp)
