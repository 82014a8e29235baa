"""Joins over base relations: equality, cartesian and theta variants.

The KSJQ algorithms never materialize the full join when they can avoid
it. What they share is one *hop kernel* and one *joined layout*:

* :class:`HopJoin` answers, for one hop between two relations and any
  row subsets of its sides, which rows join and how many (summed
  partner weights) — for equality, cartesian and theta hops alike —
  and which rows can stand in for which (its substitution keys). A
  two-way join is the one-hop case of a cascade (paper Sec. 2.3), so
  two-way plans and cascade hops both go through it.
* :func:`joined_matrix` builds the oriented (minimize-space) joined
  skyline vectors of any row tuples, two-way pairs or m-way chains
  (paper Eq. 3 for the plain case; Sec. 5.6 with aggregates).

:class:`JoinedView` bundles a pair set with that layout and can
materialize a plain :class:`~repro.relational.relation.Relation` for
the naïve algorithm or for end users.

Joined skyline column order (library-wide convention):
``R1 locals, R2 locals, aggregates`` — aggregates in the order they
appear in ``R1``'s schema, each paired across relations by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from ..errors import JoinError
from .aggregates import AggregateFunction, get_aggregate
from .groups import ThetaOp
from .relation import Relation
from .schema import RelationSchema

if TYPE_CHECKING:
    from collections.abc import Sequence

    from .._typing import (
        AggregateLike,
        ColumnData,
        FloatMatrix,
        FloatVector,
        HopLike,
        IntMatrix,
        IntVector,
        RowsLike,
        ThetaLike,
    )

__all__ = [
    "HopSpec",
    "ThetaCondition",
    "JoinedLayout",
    "JoinedView",
    "HopJoin",
    "joined_matrix",
]

HOP_KINDS = ("equality", "cartesian", "theta")


@dataclass(frozen=True)
class ThetaCondition:
    """A single non-equality join condition ``left.attr <op> right.attr``."""

    left_attr: str
    op: ThetaOp
    right_attr: str

    def __str__(self) -> str:
        return f"left.{self.left_attr} {self.op.value} right.{self.right_attr}"


@dataclass(frozen=True)
class HopSpec:
    """One hop of a join graph: how relation ``i`` connects to ``i + 1``.

    A chain of N relations is described by N - 1 hops; each hop carries
    its own join kind, mirroring the two-way ``JOIN_KINDS``:

    * ``"equality"`` (default) — equality of one named column per side
      (``HopSpec.on_columns("dest", "source")`` expresses
      ``left.dest == right.source``); a side whose column is ``None``
      contributes its schema's composite join key, so the bare
      ``HopSpec()`` is exactly the two-way default equality join;
    * ``"theta"`` — a conjunction of non-equality
      :class:`ThetaCondition` predicates (``HopSpec.on_theta(...)``);
    * ``"cartesian"`` — every pair joins (``HopSpec.cross()``).

    HopSpecs are frozen and hashable, so query specs built from them
    can key engine plan caches.
    """

    kind: str = "equality"
    left_column: str | None = None
    right_column: str | None = None
    theta: tuple[ThetaCondition, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in HOP_KINDS:
            raise JoinError(f"unknown hop kind {self.kind!r}; choose from {HOP_KINDS}")
        if self.kind == "theta":
            object.__setattr__(self, "theta", normalize_theta(self.theta))
        elif self.theta:
            raise JoinError(f"theta condition given but hop kind={self.kind!r}")
        if self.kind != "equality" and (self.left_column or self.right_column):
            raise JoinError(f"hop columns given but hop kind={self.kind!r}")

    # -- constructors ---------------------------------------------------
    @classmethod
    def key(cls) -> HopSpec:
        """Equality on both schemas' composite join keys (the default)."""
        return cls()

    @classmethod
    def on_columns(
        cls, left_column: str | None, right_column: str | None
    ) -> HopSpec:
        """Equality of one named column per side (``None`` = composite key)."""
        return cls(kind="equality", left_column=left_column, right_column=right_column)

    @classmethod
    def on_theta(cls, theta: ThetaLike) -> HopSpec:
        """Theta hop: one condition or a conjunction sequence."""
        return cls(kind="theta", theta=normalize_theta(theta))

    @classmethod
    def cross(cls) -> HopSpec:
        """Cartesian hop: every left row joins every right row."""
        return cls(kind="cartesian")

    @classmethod
    def coerce(cls, obj: HopLike) -> HopSpec:
        """Normalize a hop-like object to a :class:`HopSpec`.

        Accepts a ``HopSpec``, ``None`` (composite-key equality), a
        :class:`ThetaCondition` or sequence of them (conjunction), or
        any object with ``left_column`` / ``right_column`` attributes
        (e.g. the legacy :class:`repro.core.cascade.Hop`).
        """
        if isinstance(obj, cls):
            return obj
        if obj is None:
            return cls()
        if isinstance(obj, ThetaCondition):
            return cls.on_theta(obj)
        if hasattr(obj, "left_column") and hasattr(obj, "right_column"):
            return cls.on_columns(obj.left_column, obj.right_column)
        try:
            return cls.on_theta(normalize_theta(obj))
        except JoinError:
            raise JoinError(
                f"cannot interpret {obj!r} as a hop; pass a HopSpec, Hop, "
                "ThetaCondition, conjunction sequence, or None"
            ) from None

    def describe(self) -> str:
        """One-line human-readable rendering."""
        if self.kind == "cartesian":
            return "cartesian"
        if self.kind == "theta":
            return " AND ".join(str(c) for c in self.theta)
        left = self.left_column if self.left_column is not None else "<join key>"
        right = self.right_column if self.right_column is not None else "<join key>"
        return f"left.{left} == right.{right}"

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class JoinedLayout:
    """Skyline column layout of a joined relation.

    ``names`` are the joined skyline attributes: ``r1.<local>``,
    ``r2.<local>``, then the bare aggregate names, each aggregate
    pairing its two inputs by name; ``n_aggregate`` counts the
    aggregates.
    """

    names: tuple[str, ...]
    n_aggregate: int

    @property
    def width(self) -> int:
        """Total number of joined skyline attributes (``l1 + l2 + a``)."""
        return len(self.names)


def make_layout(left: RelationSchema, right: RelationSchema) -> JoinedLayout:
    """Derive the joined skyline layout for two base schemas."""
    left.validate_compatible_aggregates(right)
    names = (
        [f"r1.{n}" for n in left.local_names]
        + [f"r2.{n}" for n in right.local_names]
        + list(left.aggregate_names)
    )
    return JoinedLayout(names=tuple(names), n_aggregate=left.a)


# ----------------------------------------------------------------------
# The hop kernel: join partners and joined rows
# ----------------------------------------------------------------------
def normalize_theta(theta: ThetaLike) -> tuple[ThetaCondition, ...]:
    """Normalize a condition or sequence of conditions to a tuple.

    A sequence is interpreted as a conjunction (all conditions must
    hold for a pair to join).
    """
    if isinstance(theta, ThetaCondition):
        return (theta,)
    try:
        conditions = tuple(theta)
    except TypeError:
        raise JoinError(
            f"theta must be a ThetaCondition or a sequence of them, got {theta!r}"
        ) from None
    if not conditions:
        raise JoinError("theta condition list must not be empty")
    for cond in conditions:
        if not isinstance(cond, ThetaCondition):
            raise JoinError(f"expected ThetaCondition, got {type(cond).__name__}")
    return conditions


class HopJoin:
    """The join of one hop between two relations: which rows join, and
    how many (paper Secs. 2.3, 6.5 and 6.6).

    Every two-way join and every cascade hop goes through this kernel.
    It is built once per hop and relation pair and holds each side's
    per-row join values:

    * equality — integer key codes drawn from one dict shared by both
      sides, so keys compare exactly as the Python key values do
      (``1 == 1.0``);
    * theta — one float column per condition;
    * cartesian — nothing.

    For any row subsets of the two sides, each left row's partners are
    one run of the right rows sorted by the hop's right-hand value: the
    whole subset (cartesian), the rows of one key (equality), or a
    prefix or suffix of the first condition's column (theta; the
    further conditions of a conjunction then filter the run).
    :meth:`pairs` enumerates the runs; :meth:`weight_sums` reads sums
    off them without enumerating, except under a conjunction.
    :meth:`substitution_keys` reads off the same values which rows can
    stand in for which, the input of SS/SN/NN categorization and of
    cascade pruning.
    """

    def __init__(self, hop: HopSpec, left: Relation, right: Relation) -> None:
        self.hop = hop
        self.sizes = (len(left), len(right))
        self._codes: tuple[IntVector, IntVector] | None = None
        self._columns: list[tuple[FloatVector, FloatVector]] = []
        if hop.kind == "equality":
            codes: dict[object, int] = {}
            self._codes = (
                _key_codes(left, hop.left_column, codes),
                _key_codes(right, hop.right_column, codes),
            )
        elif hop.kind == "theta":
            self._columns = [
                (
                    np.asarray(left.column(cond.left_attr), dtype=np.float64),
                    np.asarray(right.column(cond.right_attr), dtype=np.float64),
                )
                for cond in hop.theta
            ]

    def pairs(
        self, left_rows: RowsLike | None = None, right_rows: RowsLike | None = None
    ) -> IntMatrix:
        """Every join-compatible pair as ``(left position, right row)``.

        The left position indexes ``left_rows``. Pairs come ordered by
        left position, then by position in ``right_rows``; a repeated
        row repeats its pairs. ``None`` selects every row, so
        ``pairs()`` is the whole join, with left positions equal to
        left rows.
        """
        left, right = self._rows(left_rows, right_rows)
        left_pos, right_pos = self._positions(left, right)
        return np.column_stack([left_pos, right[right_pos]])

    def weight_sums(
        self,
        left_rows: RowsLike | None = None,
        right_rows: RowsLike | None = None,
        weights: FloatVector | None = None,
    ) -> FloatVector:
        """For each row of ``left_rows``, the summed weights of its partners.

        ``weights`` holds one value per row of ``right_rows``; by default
        every weight is 1, so the sums count partners.
        """
        left, right = self._rows(left_rows, right_rows)
        weights = np.ones(right.size) if weights is None else np.asarray(weights, np.float64)
        if len(self.hop.theta) > 1:
            left_pos, right_pos = self._positions(left, right)
            return np.bincount(left_pos, weights=weights[right_pos], minlength=left.size)
        order, lo, hi = self._runs(left, right)
        prefix = np.concatenate([[0.0], np.cumsum(weights[order])])
        return prefix[hi] - prefix[lo]

    def substitution_keys(self) -> tuple[FloatMatrix, FloatMatrix]:
        """Each side's substitution key, one (n x c) array per side
        (paper Secs. 5.2, 6.5 and 6.6).

        Row ``s`` joins every partner of row ``u`` on this hop, whatever
        the other side holds, when ``key[s] <= key[u]`` in every column:
        ``s`` can then stand in for ``u`` in every joined row built from
        ``u``. Equality gives the key code twice, as ``(code, -code)``,
        so stand-ins share the key. Each theta condition gives one
        signed column, smaller where a row joins more partners; ties
        join the same partners. A cartesian hop gives no columns: every
        row stands in for every other.
        """
        if self._codes is not None:
            left, right = (np.column_stack([c, -c]).astype(np.float64) for c in self._codes)
            return left, right
        if not self._columns:
            return np.empty((self.sizes[0], 0)), np.empty((self.sizes[1], 0))
        # A smaller left value joins more under < and <=, a larger one
        # under > and >=; the right side is the mirror image.
        signs = np.asarray(
            [1.0 if cond.op in (ThetaOp.LT, ThetaOp.LE) else -1.0 for cond in self.hop.theta]
        )
        left_values, right_values = zip(*self._columns)
        return np.column_stack(left_values) * signs, np.column_stack(right_values) * -signs

    def _rows(
        self, left_rows: RowsLike | None, right_rows: RowsLike | None
    ) -> tuple[IntVector, IntVector]:
        """Both row subsets as index arrays (``None`` = every row)."""
        n_left, n_right = self.sizes
        left = np.arange(n_left) if left_rows is None else np.asarray(left_rows, dtype=np.intp)
        right = (
            np.arange(n_right) if right_rows is None else np.asarray(right_rows, dtype=np.intp)
        )
        return left.reshape(-1), right.reshape(-1)

    def _runs(self, left: IntVector, right: IntVector) -> tuple[IntVector, IntVector, IntVector]:
        """``(order, lo, hi)``: left position ``i`` joins the right
        positions ``order[lo[i]:hi[i]]`` (under a conjunction's first
        condition only)."""
        if self._codes is not None:
            left_keys, right_keys = self._codes[0][left], self._codes[1][right]
            order = np.argsort(right_keys, kind="stable")
            ordered = right_keys[order]
            return (
                order,
                np.searchsorted(ordered, left_keys, side="left"),
                np.searchsorted(ordered, left_keys, side="right"),
            )
        if self._columns:
            left_values, right_values = self._columns[0]
            values = right_values[right]
            order = np.argsort(values, kind="stable")
            lo, hi = self.hop.theta[0].op.partner_ranges(left_values[left], values[order])
            return order, lo, hi
        return (
            np.arange(right.size),
            np.zeros(left.size, dtype=np.intp),
            np.full(left.size, right.size, dtype=np.intp),
        )

    def _positions(self, left: IntVector, right: IntVector) -> tuple[IntVector, IntVector]:
        """Every pair as ``(left position, right position)``, in
        :meth:`pairs` order."""
        order, lo, hi = self._runs(left, right)
        counts = hi - lo
        starts = np.cumsum(counts) - counts
        left_pos = np.repeat(np.arange(left.size), counts)
        right_pos = order[np.repeat(lo - starts, counts) + np.arange(int(counts.sum()))]
        if self._columns and right.size:
            for cond, (left_values, right_values) in zip(
                self.hop.theta[1:], self._columns[1:]
            ):
                keep = cond.op.evaluate(
                    left_values[left[left_pos]], right_values[right[right_pos]]
                )
                left_pos, right_pos = left_pos[keep], right_pos[keep]
            # A theta run follows the sorted right values; restore the
            # given right order within each left position.
            left_pos, right_pos = np.divmod(
                np.sort(left_pos * right.size + right_pos), right.size
            )
        return left_pos, right_pos


def _key_codes(relation: Relation, column: str | None, codes: dict[object, int]) -> IntVector:
    """Per-row integer code of one hop side's equality values: the
    composite join key, or one named column."""
    values = relation.join_keys() if column is None else relation.column(column)
    return np.fromiter(
        (codes.setdefault(value, len(codes)) for value in values),
        dtype=np.intp,
        count=len(relation),
    )


def joined_matrix(
    relations: Sequence[Relation],
    rows: IntMatrix,
    aggregate: AggregateFunction | None,
) -> FloatMatrix:
    """Oriented joined matrix of (s x m) row tuples, one row per relation.

    Columns are each relation's local attributes in turn, then every
    aggregate attribute in the first relation's skyline order, folded
    across the m relations. Aggregate inputs pair up by *name*, as
    :meth:`~repro.relational.schema.RelationSchema.validate_compatible_aggregates`
    matches them. They combine in raw space and are oriented afterwards,
    because an aggregate's monotonicity is stated on raw values.
    """
    rows = np.asarray(rows, dtype=np.intp).reshape(-1, len(relations))
    # Rows, then columns: column-major blocks, which the per-row TSA scans faster.
    blocks = [
        rel.oriented()[rows[:, i]][:, rel.local_column_indices()]
        for i, rel in enumerate(relations)
    ]
    first = relations[0].schema
    if first.a:
        assert aggregate is not None  # required by schemas with a > 0
        inputs = [
            rel.matrix[rows[:, i]][
                :, [rel.schema.skyline_names.index(name) for name in first.aggregate_names]
            ]
            for i, rel in enumerate(relations)
        ]
        signs = np.asarray(
            [first[name].preference.sign for name in first.aggregate_names], dtype=np.float64
        )
        blocks.append(reduce(aggregate, inputs) * signs)
    return np.concatenate(blocks, axis=1)


# ----------------------------------------------------------------------
# Joined view
# ----------------------------------------------------------------------
class JoinedView:
    """A (possibly lazy) joined relation over two base relations.

    Parameters
    ----------
    left, right:
        Base relations.
    pairs:
        (m x 2) integer array of join-compatible row pairs.
    aggregate:
        Aggregate function (name or :class:`AggregateFunction`) applied
        to every aggregate-marked attribute pair; required iff the
        schemas declare aggregate attributes.
    """

    def __init__(
        self,
        left: Relation,
        right: Relation,
        pairs: IntMatrix,
        aggregate: AggregateLike | None = None,
    ) -> None:
        self.left = left
        self.right = right
        self.layout = make_layout(left.schema, right.schema)
        pairs = np.asarray(pairs, dtype=np.intp)
        if pairs.ndim != 2 or (pairs.size and pairs.shape[1] != 2):
            raise JoinError(f"pairs must be an (m x 2) array, got shape {pairs.shape}")
        self.pairs = pairs
        if self.layout.n_aggregate and aggregate is None:
            raise JoinError(
                "schemas declare aggregate attributes but no aggregate function given"
            )
        self.aggregate: AggregateFunction | None = (
            get_aggregate(aggregate) if aggregate is not None else None
        )
        self._oriented_cache: FloatMatrix | None = None

    # -- constructors ---------------------------------------------------
    @classmethod
    def equality(
        cls, left: Relation, right: Relation, aggregate: AggregateLike | None = None
    ) -> JoinedView:
        """Equality join on the schemas' join attributes."""
        if len(left.schema.join_names) != len(right.schema.join_names):
            raise JoinError(
                "join attribute counts differ: "
                f"{left.schema.join_names} vs {right.schema.join_names}"
            )
        if not left.schema.join_names:
            raise JoinError("no join attributes declared; use JoinedView.cartesian")
        return cls(left, right, HopJoin(HopSpec(), left, right).pairs(), aggregate=aggregate)

    @classmethod
    def cartesian(
        cls, left: Relation, right: Relation, aggregate: AggregateLike | None = None
    ) -> JoinedView:
        """Cartesian product (all pairs)."""
        return cls(left, right, HopJoin(HopSpec.cross(), left, right).pairs(), aggregate=aggregate)

    @classmethod
    def theta(
        cls,
        left: Relation,
        right: Relation,
        condition: ThetaCondition,
        aggregate: AggregateLike | None = None,
    ) -> JoinedView:
        """Theta join on a single non-equality condition (Sec. 6.6)."""
        pairs = HopJoin(HopSpec.on_theta(condition), left, right).pairs()
        return cls(left, right, pairs, aggregate=aggregate)

    # -- access ----------------------------------------------------------
    def __len__(self) -> int:
        return int(self.pairs.shape[0])

    @property
    def width(self) -> int:
        """Number of joined skyline attributes."""
        return self.layout.width

    def oriented(self) -> FloatMatrix:
        """Oriented (minimize-space) joined skyline matrix, cached."""
        if self._oriented_cache is None:
            self._oriented_cache = self.oriented_for_pairs(self.pairs)
        return self._oriented_cache

    def oriented_for_pairs(self, pairs: IntMatrix) -> FloatMatrix:
        """Oriented joined matrix for an arbitrary (m x 2) pair array.

        This is the workhorse used to evaluate candidate dominators that
        are *not* part of this view's own pair set (target-set joins).
        """
        return joined_matrix((self.left, self.right), pairs, self.aggregate)

    def to_relation(self, name: str = "joined") -> Relation:
        """Materialize as a plain Relation (raw values, payload row ids).

        The resulting relation has no join attributes (the join is done);
        payload columns ``_left_row``/``_right_row`` record provenance.
        """
        left, right = self.left.schema, self.right.schema
        specs = (
            [left[attr] for attr in left.local_names]
            + [right[attr] for attr in right.local_names]
            + [left[attr] for attr in left.aggregate_names]
        )
        # Orienting multiplies each column by its sign (+1 or -1), so
        # multiplying again restores the raw values exactly.
        raw = self.oriented() * np.asarray([spec.preference.sign for spec in specs])
        columns: dict[str, ColumnData] = {
            column: raw[:, j] for j, column in enumerate(self.layout.names)
        }
        columns["_left_row"] = [int(x) for x in self.pairs[:, 0]]
        columns["_right_row"] = [int(x) for x in self.pairs[:, 1]]
        schema = RelationSchema.build(
            skyline=list(self.layout.names),
            higher_is_better=[
                column
                for column, spec in zip(self.layout.names, specs)
                if spec.preference.value == "higher"
            ],
            payload=["_left_row", "_right_row"],
        )
        return Relation(schema, columns, name=name)

    def __repr__(self) -> str:
        agg = self.aggregate.name if self.aggregate else None
        return (
            f"<JoinedView {self.left.name!r} x {self.right.name!r}: "
            f"{len(self)} pairs, width={self.width}, aggregate={agg}>"
        )
