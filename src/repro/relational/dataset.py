"""Named, versioned datasets: the mutable handle over immutable relations.

A :class:`Relation` is immutable by design — the structures a plan
memoizes (hop kernels, joined views, chain sets, statistics) are built
against its content and stay valid as long as the snapshot does. A
:class:`Dataset` is the serving-layer complement: a *named* handle
holding the current relation snapshot plus a monotone version
counter. Mutators are copy-on-write: ``insert_rows`` / ``delete_rows``
/ ``replace`` build a brand-new :class:`Relation` (existing snapshots,
and any plan built over them, stay valid forever) and bump the version.

Engines key their plan/result caches on ``(name, version)`` tokens, so
a mutation invalidates exactly the cache entries that referenced the
old snapshot — see :class:`repro.api.Catalog` for the registry and
:class:`repro.api.Engine` for the cache wiring. Listeners subscribed
via :meth:`Dataset.subscribe` receive ``(dataset, delta)`` after every
version bump: one feed carries each mutation to engine caches,
dominance indexes and maintained results alike;
:meth:`Dataset.unsubscribe` takes a listener off it.

All methods are thread-safe; :meth:`snapshot` returns a consistent
``(relation, version)`` pair for lock-free downstream use.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SchemaError
from .relation import Relation

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Mapping, Sequence

    from .._typing import ColumnData

__all__ = ["Dataset", "MutationDelta"]


@dataclass(frozen=True)
class MutationDelta:
    """Structured description of one :class:`Dataset` mutation.

    Passed to every listener (:meth:`Dataset.subscribe`) with the
    dataset, so downstream consumers — chiefly
    :class:`repro.core.incremental.MaintainedResult` — can update
    derived state instead of recomputing it.

    Attributes
    ----------
    kind:
        ``"insert"``, ``"delete"`` or ``"replace"``.
    version:
        The dataset version *after* this mutation was installed.
    old_size / new_size:
        Row counts before and after.
    inserted:
        For inserts: the **new-snapshot** row indices of the appended
        tuples (always the contiguous tail ``[old_size, new_size)``).
    deleted:
        For deletes: the **old-snapshot** row indices that were
        dropped, sorted ascending. Surviving rows are compacted, so an
        old index ``i`` maps to ``i - #{j in deleted : j < i}`` in the
        new snapshot.
    """

    kind: str
    version: int
    old_size: int
    new_size: int
    inserted: tuple[int, ...] = ()
    deleted: tuple[int, ...] = ()

    @property
    def rows_touched(self) -> int:
        """Number of base rows this mutation inserted plus deleted."""
        return len(self.inserted) + len(self.deleted)

# Process-unique dataset ids: versions are monotone *within* one
# Dataset, so cache tokens also carry the uid — a dataset dropped from
# a catalog and re-registered under the same name can never collide
# with cache entries built over its predecessor.
_UIDS = itertools.count(1)


class Dataset:
    """A named, versioned, copy-on-write wrapper around a :class:`Relation`.

    Parameters
    ----------
    name:
        The catalog name of the dataset (stable across versions).
    relation:
        The initial snapshot.
    version:
        Starting version (defaults to 1; bumped by every mutator).

    Concurrency contract (checked by the repo linter's R2 rule):

    # guarded-by: _lock: _relation, _version, _listeners
    """

    def __init__(self, name: str, relation: Relation, version: int = 1) -> None:
        if not isinstance(name, str) or not name:
            raise SchemaError(f"dataset name must be a non-empty string, got {name!r}")
        if not isinstance(relation, Relation):
            raise SchemaError(
                f"dataset {name!r} needs a Relation, got {type(relation).__name__}"
            )
        self.name = name
        self.uid = next(_UIDS)
        self._lock = threading.RLock()
        self._relation = relation
        self._version = int(version)
        self._listeners: list[Callable[[Dataset, MutationDelta], None]] = []

    # ------------------------------------------------------------------
    # Snapshot access
    # ------------------------------------------------------------------
    @property
    def relation(self) -> Relation:
        """The current (immutable) relation snapshot."""
        with self._lock:
            return self._relation

    @property
    def version(self) -> int:
        """Monotone version counter; bumped by every mutation."""
        with self._lock:
            return self._version

    def snapshot(self) -> tuple[Relation, int]:
        """A consistent ``(relation, version)`` pair (one lock acquisition)."""
        with self._lock:
            return self._relation, self._version

    def __len__(self) -> int:
        return len(self.relation)

    # ------------------------------------------------------------------
    # Mutation listeners
    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[Dataset, MutationDelta], None]) -> None:
        """Register a callback invoked with ``(dataset, delta)`` after
        each mutation."""
        with self._lock:
            if callback not in self._listeners:
                self._listeners.append(callback)

    def unsubscribe(self, callback: Callable[[Dataset, MutationDelta], None]) -> None:
        """Remove a callback registered by :meth:`subscribe` (no-op if
        absent). A mutation already being notified still reaches it."""
        with self._lock:
            if callback in self._listeners:
                self._listeners.remove(callback)

    def _install(
        self,
        relation: Relation,
        kind: str,
        inserted: tuple[int, ...] = (),
        deleted: tuple[int, ...] = (),
    ) -> tuple[list[Callable[[Dataset, MutationDelta], None]], MutationDelta]:
        """Install a new snapshot and bump the version; returns the
        listeners to notify plus the :class:`MutationDelta` describing
        the change. The caller MUST invoke :meth:`_notify` on them only
        after releasing ``_lock``: listeners (catalog fan-out, engine
        invalidation hooks, maintained-result updates) take their own
        locks, and callbacks under ``_lock`` invert the catalog ->
        dataset lock order that :meth:`Catalog.versions` relies on.
        """
        with self._lock:
            old_size = len(self._relation)
            self._relation = relation
            self._version += 1
            delta = MutationDelta(
                kind=kind,
                version=self._version,
                old_size=old_size,
                new_size=len(relation),
                inserted=inserted,
                deleted=deleted,
            )
            return list(self._listeners), delta

    def _notify(
        self,
        listeners: list[Callable[[Dataset, MutationDelta], None]],
        delta: MutationDelta,
    ) -> None:
        """Run mutation callbacks; never called with ``_lock`` held."""
        for callback in listeners:
            callback(self, delta)

    # ------------------------------------------------------------------
    # Copy-on-write mutators
    # ------------------------------------------------------------------
    def insert_rows(self, records: Iterable[Mapping[str, object]]) -> Relation:
        """Append tuples; returns the new snapshot (old snapshots unchanged).

        ``records`` is an iterable of per-tuple dicts covering every
        schema attribute, exactly as :meth:`Relation.from_records`
        accepts. An empty iterable still bumps the version (the caller
        asked for a write), keeping invalidation conservative.
        """
        records = list(records)
        with self._lock:
            base = self._relation
            addition = Relation.from_records(base.schema, records, name=base.name)
            columns: dict[str, ColumnData] = {}
            for col in base.schema.names:
                old, new = base.column(col), addition.column(col)
                if isinstance(old, np.ndarray):
                    columns[col] = np.concatenate([old, np.asarray(new, dtype=old.dtype)])
                else:
                    columns[col] = list(old) + list(new)
            merged = Relation(base.schema, columns, name=base.name)
            inserted = tuple(range(len(base), len(merged)))
            listeners, delta = self._install(merged, "insert", inserted=inserted)
        self._notify(listeners, delta)
        return merged

    def delete_rows(self, rows: Sequence[int]) -> Relation:
        """Drop tuples by row index; returns the new snapshot."""
        with self._lock:
            base = self._relation
            drop = {int(r) for r in rows}
            bad = [r for r in drop if r < 0 or r >= len(base)]
            if bad:
                raise SchemaError(
                    f"dataset {self.name!r}: rows {sorted(bad)} out of range "
                    f"[0, {len(base)})"
                )
            keep = [i for i in range(len(base)) if i not in drop]
            replacement = base.take(keep)
            listeners, delta = self._install(
                replacement, "delete", deleted=tuple(sorted(drop))
            )
        self._notify(listeners, delta)
        return replacement

    def replace(self, relation: Relation) -> Relation:
        """Swap in a whole new relation (schema may change); new snapshot."""
        if not isinstance(relation, Relation):
            raise SchemaError(
                f"dataset {self.name!r}: replace() needs a Relation, "
                f"got {type(relation).__name__}"
            )
        listeners, delta = self._install(relation, "replace")
        self._notify(listeners, delta)
        return relation

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        relation, version = self.snapshot()
        return (
            f"<Dataset {self.name!r} v{version}: {len(relation)} tuples, "
            f"d={relation.d}>"
        )
