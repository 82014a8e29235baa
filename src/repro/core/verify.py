"""The one verifier of Algorithms 2 and 3, and the helpers the exact
paths share.

A candidate survives iff no row of its target matrix k-dominates it —
never just the surviving candidates, since k-dominance is
non-transitive. A row is never strictly better than itself, so
checking a candidate against a matrix that contains it is harmless.
:func:`verify_pairs` checks each pair of one fate cell against the join
of its components' target rows (paper Secs. 6.3-6.5); its deadline-aware
step :func:`survivors` also decides the pruned cascade's candidates.
The chunk sizes bound the work between two deadline checks in the
sharded skyline of :mod:`repro.core.parallel`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..serving.deadline import DEFAULT_CHECK_INTERVAL, PartialProvider, active_deadline
from ..skyline.dominance import k_dominated_any

if TYPE_CHECKING:
    from .._typing import FloatMatrix, IntMatrix, IntVector
    from .plan import JoinPlan

__all__ = ["TargetRows", "sort_rows_for_early_exit", "survivors", "verify_pairs"]

#: One side's target rows (paper Def. 5): base row -> the rows of its
#: relation that a dominating joined tuple could take on that side.
#: ``None`` stands for the whole relation.
TargetRows = Optional[Callable[[int], "IntVector"]]


def sort_rows_for_early_exit(matrix: FloatMatrix) -> FloatMatrix:
    """Reorder rows by ascending attribute sum.

    Strong tuples (likely dominators) come first, so the blocked
    early-exit scan in :func:`~repro.skyline.dominance.k_dominated_any`
    usually decides its vectors within the first block.
    """
    if matrix.shape[0] == 0:
        return matrix
    order = np.argsort(matrix.sum(axis=1), kind="stable")
    return matrix[order]


def survivors(
    matrix: FloatMatrix,
    vectors: FloatMatrix,
    k: int,
    partial: PartialProvider | None = None,
) -> Iterator[IntVector]:
    """Yield the positions of ``vectors`` that no row of ``matrix``
    k-dominates, in ascending order.

    Without an active serving deadline one kernel call decides every
    vector. Under a deadline the vectors are decided one at a time,
    each after a :meth:`~repro.serving.deadline.Deadline.check` whose
    partial answer is ``partial``.
    """
    deadline = active_deadline()
    if deadline is None:
        yield np.flatnonzero(~k_dominated_any(matrix, vectors, k))
        return
    for pos in range(vectors.shape[0]):
        deadline.check(partial)
        if not k_dominated_any(matrix, vectors[pos : pos + 1], k)[0]:
            yield np.array([pos], dtype=np.intp)


def verify_pairs(
    plan: JoinPlan,
    pairs: IntMatrix,
    left: TargetRows,
    right: TargetRows,
    k: int,
    joined: Callable[[], FloatMatrix],
    partial: PartialProvider | None = None,
) -> Iterator[IntMatrix]:
    """Yield the pairs of one cell that their target join does not
    k-dominate, group by group.

    Pair ``(u, v)`` is checked against the join of ``left(u)`` with
    ``right(v)``. Pairs that share that join form one group, whose
    oriented matrix is built once: ``joined()`` (the plan's whole join)
    when both sides are ``None``. Each group is decided by
    :func:`survivors`.
    """
    if pairs.shape[0] == 0:
        return
    vectors = plan.oriented_for_pairs(pairs)
    key = np.zeros(pairs.shape[0], dtype=np.intp)
    if left is not None:
        key = key + pairs[:, 0] * len(plan.right)
    if right is not None:
        key = key + pairs[:, 1]
    order = np.argsort(key, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(key[order])) + 1).tolist(), len(order)]
    for start, stop in zip(cuts, cuts[1:]):
        rows = order[start:stop]
        u, v = pairs[rows[0]].tolist()
        if left is None and right is None:
            matrix = joined()
        else:
            targets = plan.compatible_pairs(
                left(u) if left is not None else np.arange(len(plan.left)),
                right(v) if right is not None else np.arange(len(plan.right)),
            )
            matrix = plan.oriented_for_pairs(targets)
        for kept in survivors(matrix, vectors[rows], k, partial):
            yield pairs[rows[kept]]


#: Candidate rows verified between two deadline checks — one check
#: interval per vectorized :func:`~repro.skyline.dominance.k_dominated_any`
#: chunk.
DEADLINE_VERIFY_CHUNK = DEFAULT_CHECK_INTERVAL

#: Rows per candidate-generation chunk under a deadline. Chunk-local
#: candidate scans see fewer potential dominators than one whole-matrix
#: scan, so they survive a *superset* of candidates — the exact
#: verification pass still decides every one of them — but each chunk
#: is short enough (the block scan is superlinear in its input) to keep
#: deadline overshoot within tens of milliseconds.
DEADLINE_SCAN_CHUNK = 1024
