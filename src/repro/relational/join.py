"""Joins over base relations: equality, cartesian and theta variants.

The KSJQ algorithms never materialize the full join when they can avoid
it; what they share is (a) *pair enumeration* — which ``(left_row,
right_row)`` combinations are join-compatible — and (b) the *joined
layout* — how the skyline attributes of a joined tuple are laid out
(paper Eq. 3 for the plain case; Sec. 5.6 with aggregates).

:class:`JoinedView` bundles both, provides vectorized access to the
oriented (minimize-space) joined matrix, and can materialize a plain
:class:`~repro.relational.relation.Relation` for the naïve algorithm or
for end users.

Joined skyline column order (library-wide convention):
``R1 locals, R2 locals, aggregates`` — aggregates in the order they
appear in ``R1``'s schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import JoinError
from .aggregates import AggregateFunction, get_aggregate
from .groups import GroupIndex, ThetaOp
from .relation import Relation
from .schema import RelationSchema

if TYPE_CHECKING:
    from collections.abc import Sequence

    from .._typing import (
        AggregateLike,
        BoolVector,
        FloatMatrix,
        FloatVector,
        HopLike,
        IntMatrix,
        ThetaLike,
    )

__all__ = [
    "HopSpec",
    "ThetaCondition",
    "JoinedLayout",
    "JoinedView",
    "equality_pairs",
    "cartesian_pairs",
    "theta_pairs",
    "theta_conjunction_mask",
    "pairs_product",
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

    Attributes
    ----------
    names:
        Joined skyline attribute names: ``r1.<local>``, ``r2.<local>``,
        then bare aggregate names.
    left_local_idx / right_local_idx:
        Column positions (within each base relation's skyline matrix) of
        the local attributes contributing to the joined tuple.
    left_agg_idx / right_agg_idx:
        Column positions of the aggregate inputs, paired positionally.
    """

    names: tuple[str, ...]
    left_local_idx: tuple[int, ...]
    right_local_idx: tuple[int, ...]
    left_agg_idx: tuple[int, ...]
    right_agg_idx: tuple[int, ...]

    @property
    def n_left_local(self) -> int:
        return len(self.left_local_idx)

    @property
    def n_right_local(self) -> int:
        return len(self.right_local_idx)

    @property
    def n_aggregate(self) -> int:
        return len(self.left_agg_idx)

    @property
    def width(self) -> int:
        """Total number of joined skyline attributes (``l1 + l2 + a``)."""
        return self.n_left_local + self.n_right_local + self.n_aggregate


def make_layout(left: RelationSchema, right: RelationSchema) -> JoinedLayout:
    """Derive the joined skyline layout for two base schemas."""
    left.validate_compatible_aggregates(right)
    left_sky = list(left.skyline_names)
    right_sky = list(right.skyline_names)
    agg_names = [n for n in left_sky if n in set(left.aggregate_names)]

    left_local = [n for n in left_sky if n not in set(agg_names)]
    right_local = [n for n in right_sky if n not in set(agg_names)]
    names = (
        [f"r1.{n}" for n in left_local]
        + [f"r2.{n}" for n in right_local]
        + list(agg_names)
    )
    return JoinedLayout(
        names=tuple(names),
        left_local_idx=tuple(left_sky.index(n) for n in left_local),
        right_local_idx=tuple(right_sky.index(n) for n in right_local),
        left_agg_idx=tuple(left_sky.index(n) for n in agg_names),
        right_agg_idx=tuple(right_sky.index(n) for n in agg_names),
    )


# ----------------------------------------------------------------------
# Pair enumeration
# ----------------------------------------------------------------------
def equality_pairs(g1: GroupIndex, g2: GroupIndex) -> IntMatrix:
    """All join-compatible ``(left_row, right_row)`` pairs (m x 2 array).

    Groups pair positionally on the composite join key (paper Sec. 5.1:
    ``h1_j = h2_j`` for all join attributes).
    """
    chunks: list[IntMatrix] = []
    for key, left_rows in g1.items():
        right_rows = g2.rows(key)
        if right_rows:
            chunks.append(pairs_product(left_rows, right_rows))
    if not chunks:
        return np.empty((0, 2), dtype=np.intp)
    return np.concatenate(chunks, axis=0)


def cartesian_pairs(n_left: int, n_right: int) -> IntMatrix:
    """All ``n_left * n_right`` pairs (paper Sec. 6.5 special case)."""
    return pairs_product(range(n_left), range(n_right))


def pairs_product(left_rows: Sequence[int], right_rows: Sequence[int]) -> IntMatrix:
    """Cross product of two row-index sets as an (m x 2) array."""
    left = np.asarray(list(left_rows), dtype=np.intp)
    right = np.asarray(list(right_rows), dtype=np.intp)
    if left.size == 0 or right.size == 0:
        return np.empty((0, 2), dtype=np.intp)
    grid_left = np.repeat(left, right.size)
    grid_right = np.tile(right, left.size)
    return np.column_stack([grid_left, grid_right])


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


def theta_conjunction_mask(
    conditions: Sequence[ThetaCondition],
    left_values: Sequence[float],
    right_arrays: Sequence[FloatVector],
) -> BoolVector:
    """Mask of right rows joining one left row under every condition.

    ``left_values[i]`` / ``right_arrays[i]`` hold the value pair of
    ``conditions[i]`` (one scalar for the anchored left row, the
    candidate rows' column for the right side).
    """
    mask = np.ones(right_arrays[0].shape, dtype=bool)
    for condition, left_value, right_values in zip(
        conditions, left_values, right_arrays
    ):
        mask &= condition.op.evaluate(left_value, right_values)
    return mask


def theta_pairs(left: Relation, right: Relation, theta: ThetaLike) -> IntMatrix:
    """Pairs satisfying one or more theta conditions (conjunction).

    The first condition is evaluated via sort + binary search; the
    remaining conditions filter the resulting pair array vectorized.
    """
    conditions = normalize_theta(theta)
    pairs = _single_theta_pairs(left, right, conditions[0])
    for condition in conditions[1:]:
        if pairs.shape[0] == 0:
            break
        lvals = np.asarray(left.column(condition.left_attr), dtype=np.float64)
        rvals = np.asarray(right.column(condition.right_attr), dtype=np.float64)
        pairs = pairs[condition.op.evaluate(lvals[pairs[:, 0]], rvals[pairs[:, 1]])]
    return pairs


def _single_theta_pairs(
    left: Relation, right: Relation, condition: ThetaCondition
) -> IntMatrix:
    """Left-row-major pairs of one condition: each left row's partners
    are one contiguous range of the sorted right column."""
    lvals = np.asarray(left.column(condition.left_attr), dtype=np.float64)
    rvals = np.asarray(right.column(condition.right_attr), dtype=np.float64)
    order = np.argsort(rvals, kind="stable")
    lo, hi = condition.op.partner_ranges(lvals, rvals[order])
    counts = hi - lo
    starts = np.cumsum(counts) - counts
    offsets = np.arange(int(counts.sum()), dtype=np.intp) - np.repeat(starts, counts)
    return np.column_stack(
        [
            np.repeat(np.arange(len(left), dtype=np.intp), counts),
            order[np.repeat(lo, counts) + offsets],
        ]
    )


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
        pairs = equality_pairs(GroupIndex(left), GroupIndex(right))
        return cls(left, right, pairs, aggregate=aggregate)

    @classmethod
    def cartesian(
        cls, left: Relation, right: Relation, aggregate: AggregateLike | None = None
    ) -> JoinedView:
        """Cartesian product (all pairs)."""
        return cls(left, right, cartesian_pairs(len(left), len(right)), aggregate=aggregate)

    @classmethod
    def theta(
        cls,
        left: Relation,
        right: Relation,
        condition: ThetaCondition,
        aggregate: AggregateLike | None = None,
    ) -> JoinedView:
        """Theta join on a single non-equality condition (Sec. 6.6)."""
        return cls(left, right, theta_pairs(left, right, condition), aggregate=aggregate)

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
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        li, ri = pairs[:, 0], pairs[:, 1]
        lay = self.layout
        lmat = self.left.oriented()
        rmat = self.right.oriented()
        blocks = [
            lmat[li][:, lay.left_local_idx],
            rmat[ri][:, lay.right_local_idx],
        ]
        if lay.n_aggregate:
            assert self.aggregate is not None  # enforced in __init__
            # Aggregate in raw space, then orient the combined value: the
            # aggregate's monotonicity contract is stated on raw values.
            raw_l = self.left.matrix[li][:, lay.left_agg_idx]
            raw_r = self.right.matrix[ri][:, lay.right_agg_idx]
            combined = self.aggregate(raw_l, raw_r)
            signs = np.asarray(
                [
                    self.left.schema[name].preference.sign
                    for name in self._aggregate_names()
                ],
                dtype=np.float64,
            )
            blocks.append(combined * signs)
        return np.concatenate(blocks, axis=1) if blocks else np.empty((len(pairs), 0))

    def _aggregate_names(self) -> list[str]:
        sky = list(self.left.schema.skyline_names)
        return [sky[i] for i in self.layout.left_agg_idx]

    def to_relation(self, name: str = "joined") -> Relation:
        """Materialize as a plain Relation (raw values, payload row ids).

        The resulting relation has no join attributes (the join is done);
        payload columns ``_left_row``/``_right_row`` record provenance.
        """
        lay = self.layout
        li, ri = self.pairs[:, 0], self.pairs[:, 1]
        left_sky = list(self.left.schema.skyline_names)
        right_sky = list(self.right.schema.skyline_names)

        columns: dict[str, object] = {}
        sky_names: list[str] = []
        higher: list[str] = []
        for pos, idx in enumerate(lay.left_local_idx):
            attr = left_sky[idx]
            col_name = f"r1.{attr}"
            columns[col_name] = self.left.matrix[li, idx]
            sky_names.append(col_name)
            if self.left.schema[attr].preference.value == "higher":
                higher.append(col_name)
        for pos, idx in enumerate(lay.right_local_idx):
            attr = right_sky[idx]
            col_name = f"r2.{attr}"
            columns[col_name] = self.right.matrix[ri, idx]
            sky_names.append(col_name)
            if self.right.schema[attr].preference.value == "higher":
                higher.append(col_name)
        if lay.n_aggregate:
            assert self.aggregate is not None  # enforced in __init__
            raw_l = self.left.matrix[li][:, lay.left_agg_idx]
            raw_r = self.right.matrix[ri][:, lay.right_agg_idx]
            combined = self.aggregate(raw_l, raw_r)
            for pos, attr in enumerate(self._aggregate_names()):
                columns[attr] = combined[:, pos]
                sky_names.append(attr)
                if self.left.schema[attr].preference.value == "higher":
                    higher.append(attr)

        columns["_left_row"] = [int(x) for x in li]
        columns["_right_row"] = [int(x) for x in ri]
        schema = RelationSchema.build(
            skyline=sky_names,
            higher_is_better=higher,
            payload=["_left_row", "_right_row"],
        )
        return Relation(schema, columns, name=name)

    def __repr__(self) -> str:
        agg = self.aggregate.name if self.aggregate else None
        return (
            f"<JoinedView {self.left.name!r} x {self.right.name!r}: "
            f"{len(self)} pairs, width={self.width}, aggregate={agg}>"
        )
