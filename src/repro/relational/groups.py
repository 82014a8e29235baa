"""Theta-join operators (paper Sec. 6.6).

:class:`ThetaOp` is the comparison of one non-equality join condition
``left.attr <op> right.attr``: it evaluates the condition on values and
finds each left value's partner range in a sorted right column, the
theta branch of the hop kernel
(:class:`~repro.relational.join.HopJoin`). Join groups and their
theta generalization — which rows can stand in for which — are read
off the hop kernel's substitution keys
(:meth:`~repro.relational.join.HopJoin.substitution_keys`).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .._typing import BoolVector, FloatVector, IntVector

__all__ = ["ThetaOp"]


class ThetaOp(enum.Enum):
    """Comparison operator of a non-equality join condition.

    The condition relates an attribute of the *left* relation to an
    attribute of the *right* relation: ``left.attr <op> right.attr``
    (e.g. ``f1.arrival < f2.departure``).
    """

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def evaluate(self, left: FloatVector | float, right: FloatVector | float) -> BoolVector:
        """``left <op> right``, elementwise under numpy broadcasting: one
        value against a column, or two aligned columns."""
        x = np.asarray(left, dtype=np.float64)
        y = np.asarray(right, dtype=np.float64)
        if self is ThetaOp.LT:
            return x < y
        if self is ThetaOp.LE:
            return x <= y
        if self is ThetaOp.GT:
            return x > y
        return x >= y

    def partner_ranges(
        self, left_values: FloatVector, sorted_right: FloatVector
    ) -> tuple[IntVector, IntVector]:
        """``(lo, hi)``: the join partners of ``left_values[i]`` are
        exactly ``sorted_right[lo[i]:hi[i]]`` — a suffix of the ascending
        right column for ``<`` / ``<=``, a prefix for ``>`` / ``>=`` —
        found by one vectorized binary search. A right value tied with
        the left value is outside a ``<`` suffix but inside a ``>=``
        prefix, hence the search side. NaN compares false, as in
        :meth:`evaluate`: the NaNs that sort last in the right column
        are outside every range, and a NaN left value gets an empty one."""
        if self in (ThetaOp.LT, ThetaOp.GE):
            cut = np.searchsorted(sorted_right, left_values, side="right")
        else:
            cut = np.searchsorted(sorted_right, left_values, side="left")
        if self in (ThetaOp.LT, ThetaOp.LE):
            lo, hi = cut, np.full_like(cut, np.count_nonzero(~np.isnan(sorted_right)))
        else:
            lo, hi = np.zeros_like(cut), cut
        empty = np.isnan(left_values)
        return np.where(empty, 0, lo), np.where(empty, 0, hi)
