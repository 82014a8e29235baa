"""Verification helpers shared by the exact paths.

A candidate survives iff no row of the full joined matrix k-dominates
it — never just the surviving candidates, since k-dominance is
non-transitive. A row is never strictly better than itself, so
checking a candidate against a matrix that contains it is harmless.
:func:`sort_rows_for_early_exit` orders that matrix so the blocked
scans exit early. The chunk sizes bound the work between two deadline
checks in the sharded skyline of :mod:`repro.core.parallel`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..serving.deadline import DEFAULT_CHECK_INTERVAL

# Not called here. perfbench's self-test expects this module to bind
# the kernel by name: the tracer wraps every such binding to time
# verification.
from ..skyline.dominance import k_dominated_any  # noqa: F401

if TYPE_CHECKING:
    from .._typing import FloatMatrix

__all__ = ["sort_rows_for_early_exit"]


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
