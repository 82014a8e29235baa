"""Result objects returned by the KSJQ algorithms.

All results implement one protocol (:class:`QueryResult`): a ``count``,
component-wise ``timings`` with an ``elapsed`` total, ``to_records()``
for materializing the answer as plain dicts, and — when produced
through an :class:`repro.api.Engine` — provenance: the ``spec`` that
was executed and the ``source`` plan it ran against.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import AlgorithmError
from ..relational.join import JoinedView
from ..relational.relation import Relation
from .params import KSJQParams
from .timing import TimingBreakdown

if TYPE_CHECKING:
    from .._typing import IntMatrix

__all__ = ["QueryResult", "KSJQResult", "CascadeResult", "FindKResult", "FindKStep"]


def _canonical_pairs(pairs: IntMatrix) -> IntMatrix:
    """Sort pairs lexicographically so results compare deterministically."""
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    if pairs.shape[0] == 0:
        return pairs
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


class QueryResult:
    """Mixin protocol shared by every result object.

    Subclasses are frozen dataclasses carrying at least ``timings``
    (a :class:`TimingBreakdown`) plus two provenance fields, ``spec``
    (the :class:`repro.api.QuerySpec` executed) and ``source`` (the
    plan or relations the query ran against). Provenance is attached by
    the engine via :meth:`with_provenance`; results built directly by
    the algorithm runners carry ``None``.
    """

    timings: TimingBreakdown
    spec: Any | None
    source: Any | None

    @property
    def elapsed(self) -> float:
        """Total wall-clock seconds across all timing components."""
        return self.timings.total

    @property
    def count(self) -> int:
        raise NotImplementedError

    def to_records(self) -> list[dict[str, object]]:
        """The answer as a list of plain dicts (one per result row)."""
        raise NotImplementedError

    def with_provenance(self, spec: Any, source: Any) -> "QueryResult":
        """Copy of this result carrying the spec and source it came from."""
        return dataclasses.replace(self, spec=spec, source=source)

    def _require_source(self) -> Any:
        if self.source is None:
            raise AlgorithmError(
                f"{type(self).__name__}.to_records() needs the source plan; "
                "run the query through an Engine (or attach it with "
                "with_provenance) to materialize records"
            )
        return self.source


@dataclass(frozen=True)
class KSJQResult(QueryResult):
    """Answer of one k-dominant skyline join query.

    Attributes
    ----------
    algorithm:
        ``"naive"``, ``"grouping"``, ``"dominator"`` or ``"cartesian"``.
    mode:
        ``"faithful"`` (paper behaviour) or ``"exact"``.
    params:
        The validated :class:`KSJQParams` used.
    pairs:
        (m x 2) array of ``(left_row, right_row)`` skyline pairs, in
        lexicographic order.
    timings:
        Component-wise wall-clock breakdown.
    left_counts / right_counts:
        SS/SN/NN sizes per base relation (empty for the naïve algorithm,
        which never categorizes).
    cell_pair_counts:
        Joined-pair counts per fate cell, e.g. ``"SS*SS"`` (empty for
        naïve).
    checked:
        Number of candidate joined tuples that required verification.
    spec / source:
        Provenance (the executed QuerySpec and the JoinPlan), attached
        when the query runs through an :class:`repro.api.Engine`.
    """

    algorithm: str
    mode: str
    params: KSJQParams
    pairs: IntMatrix
    timings: TimingBreakdown
    left_counts: dict[str, int] = field(default_factory=dict)
    right_counts: dict[str, int] = field(default_factory=dict)
    cell_pair_counts: dict[str, int] = field(default_factory=dict)
    checked: int = 0
    spec: Any | None = field(default=None, compare=False, repr=False)
    source: Any | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", _canonical_pairs(self.pairs))

    @property
    def count(self) -> int:
        """Number of k-dominant skyline joined tuples."""
        return int(self.pairs.shape[0])

    def pair_set(self) -> frozenset[tuple[int, int]]:
        """Skyline pairs as a hashable set (for comparisons in tests)."""
        return frozenset((int(a), int(b)) for a, b in self.pairs)

    def to_relation(self, view: JoinedView | None = None, name: str = "skyline") -> Relation:
        """Materialize the skyline pairs as a relation.

        ``view`` supplies the joined layout; it defaults to the source
        plan's view when the result carries provenance.
        """
        if view is None:
            plan = self._require_source()
            sub = JoinedView(plan.left, plan.right, self.pairs, aggregate=plan.aggregate)
        else:
            sub = JoinedView(view.left, view.right, self.pairs, aggregate=view.aggregate)
        return sub.to_relation(name=name)

    def to_records(self) -> list[dict[str, object]]:
        """Skyline rows as dicts (``r1.*`` / ``r2.*`` columns + row ids)."""
        return self.to_relation().records()

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        lines = [
            f"{self.algorithm} ({self.mode}): {self.count} skyline pairs, "
            f"{self.params.describe()}",
            f"timings: "
            + ", ".join(f"{k}={v:.4f}s" for k, v in self.timings.as_dict().items()),
        ]
        if self.left_counts:
            lines.append(f"R1 categories: {self.left_counts}")
        if self.right_counts:
            lines.append(f"R2 categories: {self.right_counts}")
        if self.cell_pair_counts:
            lines.append(f"cell pair counts: {self.cell_pair_counts}")
        if self.checked:
            lines.append(f"verified candidates: {self.checked}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CascadeResult(QueryResult):
    """Answer of an m-way cascade KSJQ."""

    k: int
    chains: IntMatrix  # (s x m) array of skyline chains
    total_chains: int
    pruned_rows: int
    algorithm: str
    timings: TimingBreakdown = field(default_factory=TimingBreakdown)
    spec: Any | None = field(default=None, compare=False, repr=False)
    source: Any | None = field(default=None, compare=False, repr=False)

    @property
    def count(self) -> int:
        return int(self.chains.shape[0])

    def chain_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(tuple(int(x) for x in row) for row in self.chains)

    def _source_relations(self) -> Sequence[Relation]:
        source = self._require_source()
        relations = getattr(source, "relations", source)
        return tuple(relations)

    def to_records(self) -> list[dict[str, object]]:
        """Skyline chains as dicts: per-relation columns prefixed ``r{i}.``.

        Prefixes are one-based (``r1.``, ``r2.``, ...), matching the
        two-way :meth:`KSJQResult.to_records` layout. Needs the source
        plan or relations (attached when the cascade runs through an
        :class:`repro.api.Engine`).
        """
        relations = self._source_relations()
        records: list[dict[str, object]] = []
        for chain in self.chains:
            rec: dict[str, object] = {}
            for i, (rel, row) in enumerate(zip(relations, chain), start=1):
                rec[f"r{i}._row"] = int(row)
                for name, value in rel.record(int(row)).items():
                    rec[f"r{i}.{name}"] = value
            records.append(rec)
        return records


@dataclass(frozen=True)
class FindKStep:
    """One probe of the find-k search (paper Algos 4-6)."""

    k: int
    lower_bound: int | None
    upper_bound: int | None
    exact_count: int | None
    decision: str


@dataclass(frozen=True)
class FindKResult(QueryResult):
    """Answer of a find-k search (Problems 3-4)."""

    method: str
    delta: int
    k: int
    steps: tuple[FindKStep, ...]
    timings: TimingBreakdown
    spec: Any | None = field(default=None, compare=False, repr=False)
    source: Any | None = field(default=None, compare=False, repr=False)

    @property
    def count(self) -> int:
        """Number of search probes performed."""
        return len(self.steps)

    @property
    def full_evaluations(self) -> int:
        """How many k values required a full skyline computation."""
        return sum(1 for s in self.steps if s.exact_count is not None)

    def to_records(self) -> list[dict[str, object]]:
        """The probe trace as dicts (k, bounds, exact count, decision)."""
        return [
            {
                "k": step.k,
                "lower_bound": step.lower_bound,
                "upper_bound": step.upper_bound,
                "exact_count": step.exact_count,
                "decision": step.decision,
            }
            for step in self.steps
        ]

    def summary(self) -> str:
        lines = [
            f"find-k[{self.method}]: delta={self.delta} -> k={self.k} "
            f"({len(self.steps)} probes, {self.full_evaluations} full evaluations)"
        ]
        for step in self.steps:
            lines.append(
                f"  k={step.k}: lb={step.lower_bound} ub={step.upper_bound} "
                f"exact={step.exact_count} -> {step.decision}"
            )
        return "\n".join(lines)
