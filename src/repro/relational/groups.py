"""Join-group partitioning (paper Sec. 5.1-5.2).

Under an equality join, every base relation is partitioned into groups
of tuples sharing the same join-key values; two tuples join iff their
groups match. :class:`GroupIndex` materializes this partition once so
categorization and the join itself reuse it.

For non-equality join conditions (paper Sec. 6.6) the notion of "same
group" generalizes to a containment preorder on join-compatibility;
:class:`ThetaGroupIndex` captures the one-sided version the paper uses:
the tuples guaranteed to join with *at least* everything a given tuple
joins with.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

import numpy as np

from ..errors import JoinError
from .relation import Relation

if TYPE_CHECKING:
    from collections.abc import ItemsView

    from .._typing import BoolVector, FloatVector, IntVector, JoinKey

__all__ = ["GroupIndex", "ThetaOp", "ThetaGroupIndex"]


class GroupIndex:
    """Hash partition of a relation by its composite equality-join key."""

    def __init__(self, relation: Relation) -> None:
        self.relation = relation
        self._groups: dict[JoinKey, list[int]] = {}
        for row, key in enumerate(relation.join_keys()):
            self._groups.setdefault(key, []).append(row)
        # Row -> group key lookup for O(1) membership tests.
        self._row_key: list[JoinKey] = relation.join_keys()

    @property
    def keys(self) -> list[JoinKey]:
        """All distinct group keys."""
        return list(self._groups)

    def __len__(self) -> int:
        return len(self._groups)

    def rows(self, key: JoinKey) -> list[int]:
        """Row indices belonging to one group (empty list if absent)."""
        return self._groups.get(key, [])

    def key_of(self, row: int) -> JoinKey:
        """Group key of a row."""
        return self._row_key[row]

    def groupmates(self, row: int) -> list[int]:
        """All rows sharing ``row``'s group, including ``row`` itself."""
        return self._groups[self._row_key[row]]

    def items(self) -> ItemsView[JoinKey, list[int]]:
        """Iterate over ``(key, row_indices)`` pairs."""
        return self._groups.items()

    def sizes(self) -> dict[JoinKey, int]:
        """Group key -> group cardinality."""
        return {key: len(rows) for key, rows in self._groups.items()}


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
        prefix, hence the search side."""
        if self in (ThetaOp.LT, ThetaOp.GE):
            cut = np.searchsorted(sorted_right, left_values, side="right")
        else:
            cut = np.searchsorted(sorted_right, left_values, side="left")
        if self in (ThetaOp.LT, ThetaOp.LE):
            return cut, np.full_like(cut, sorted_right.size)
        return np.zeros_like(cut), cut


class ThetaGroupIndex:
    """Join-compatibility superset index for one side of a theta join.

    For a condition ``L.x < R.y`` (paper Sec. 6.6), a left tuple ``u``
    joins with ``{v : v.y > u.x}``. Any left tuple ``u0`` with
    ``u0.x <= u.x`` joins with a *superset* of ``u``'s partners, so for
    SS/SN/NN purposes ``u0`` behaves like a same-group tuple of ``u``:
    if ``u0`` k'-dominates ``u``, every joined tuple built from ``u`` is
    dominated by the corresponding tuple built from ``u0``.

    ``superset_rows(row)`` returns exactly those guaranteed-compatible
    rows (including ``row``). We include ties (``u0.x == u.x``): equal
    keys join with identical partner sets, which is sound and prunes
    strictly more than the paper's strict inequality.
    """

    def __init__(self, relation: Relation, attribute: str, op: ThetaOp, is_left: bool) -> None:
        self.relation = relation
        self.attribute = attribute
        self.op = op
        self.is_left = is_left
        values = np.asarray(relation.column(attribute), dtype=np.float64)
        if values.ndim != 1:
            raise JoinError(f"theta-join attribute {attribute!r} must be scalar-valued")
        self.values = values
        self._order = np.argsort(values, kind="stable")
        self._sorted = values[self._order]

    def _wants_smaller(self) -> bool:
        """Whether smaller attribute values join with weakly more partners."""
        if self.is_left:
            # left.x < right.y or left.x <= right.y: smaller x joins more.
            return self.op in (ThetaOp.LT, ThetaOp.LE)
        # For the right side of left.x < right.y: larger y joins more.
        return self.op in (ThetaOp.GT, ThetaOp.GE)

    def superset_rows(self, row: int) -> list[int]:
        """Rows whose join-partner set contains ``row``'s partner set."""
        value = self.values[row]
        if self._wants_smaller():
            hi = int(np.searchsorted(self._sorted, value, side="right"))
            return [int(r) for r in self._order[:hi]]
        lo = int(np.searchsorted(self._sorted, value, side="left"))
        return [int(r) for r in self._order[lo:]]


class ConjunctiveThetaIndex:
    """Join-compatibility supersets under a conjunction of theta conditions.

    A tuple joins with the *intersection* of its per-condition partner
    sets, so a row guaranteed compatible under **every** condition is
    guaranteed compatible under the conjunction — the superset set is
    the intersection of the per-condition supersets. This keeps the
    NN/SN substitution argument (paper Sec. 6.6) sound for multiple
    conditions such as ``arr < dep AND fee <= budget``.
    """

    def __init__(self, indexes: list[ThetaGroupIndex]) -> None:
        if not indexes:
            raise JoinError("ConjunctiveThetaIndex needs at least one condition")
        self.indexes = list(indexes)

    def superset_rows(self, row: int) -> list[int]:
        """Intersection of the per-condition guaranteed-compatible rows."""
        common = set(self.indexes[0].superset_rows(row))
        for index in self.indexes[1:]:
            common &= set(index.superset_rows(row))
            if len(common) == 1:  # only the row itself can remain
                break
        return sorted(common)
